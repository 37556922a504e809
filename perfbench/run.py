"""Benchmark runner for mfselect.

Runs one workload in this process by calling ``mfselect.cli.main(argv)``
repeatedly for ``--seconds`` seconds, checks every iteration's outputs, and
prints a summary followed, on the last line, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
traced iterations alternate with plain ones and the metrics are the
per-layer ones, plus the tracing overhead. ``--workload all`` runs every
workload, each in its own process. Run from the repository root:

    python3 perfbench/run.py --workload train_blobs --seed 0 --seconds 20 --trace 0

Results (environment, every iteration, metrics) and the recorded spans are
written under ``perfbench/out/results``.
"""

from __future__ import annotations

import os

# The workloads multiply matrices of at most 128 x 32, too small for BLAS
# threads to help; one thread keeps a shared machine's scheduler out of the
# timings and stays at or below nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("train_blobs", "select_sim", "compare_strategies")
END_TO_END = [
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_instance_epochs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
MIN_PLAIN = 3  # iterations of an untraced run at least, however short --seconds is
MIN_TRACED = 2  # each of traced and plain iterations in a traced run
SETUP_SAMPLES = 5
SETUP_BURSTS = 20  # speed samples on each side of a set-up sample
CHILD_TIMEOUT_S = 170

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import mfselect.cli
spec = json.loads(sys.argv[1])
mfselect.cli.load_config(spec["config"], overrides=spec["overrides"],
                         output_dir=spec["output_dir"])
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for a quick self-test; skips the digest check")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, sizes: dict) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "input_sizes": sizes,
    }


def config_spec(argv: list[str]) -> dict:
    """Config path, overrides and output dir of a CLI argument vector."""
    return {
        "config": argv[argv.index("-c") + 1],
        "overrides": [argv[i + 1] for i, a in enumerate(argv) if a == "--set"],
        "output_dir": argv[argv.index("-o") + 1],
    }


class SpeedProbe:
    """Samples the machine's speed inside the timed region.

    On a shared machine the same iteration can take 1.7 times longer when a
    neighbour is busy, for minutes at a time, and process CPU time slows with
    it. While armed, a timer interrupts the program every ``INTERVAL_S`` to
    time a fixed burst of interpreter and small-numpy work (about 1 ms). An
    iteration's wall time minus its bursts, scaled by ``REFERENCE_BURST_S``
    over the mean burst time, is its time at reference machine speed.
    """

    INTERVAL_S = 0.05
    REFERENCE_BURST_S = 0.001

    def __init__(self):
        import numpy

        self._x = numpy.random.default_rng(0).normal(size=(64, 16))
        self.bursts: list[float] = []

    def burst(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i] = i
        for _ in range(30):
            (self._x @ self._x.T).argmax(axis=1)
        self.bursts.append(time.perf_counter() - t0)

    def arm(self) -> None:
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def measure_setup(argv: list[str], probe: SpeedProbe) -> list[float]:
    """Import of mfselect.cli plus load_config, each in a fresh interpreter.

    Each sample is scaled to reference speed by bursts timed in this process
    just before and just after the child runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe.bursts = []
        for _ in range(SETUP_BURSTS):
            probe.burst()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(config_spec(argv))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for _ in range(SETUP_BURSTS):
            probe.burst()
        seconds = float(proc.stdout.strip().splitlines()[-1])
        samples.append(seconds * SpeedProbe.REFERENCE_BURST_S / statistics.mean(probe.bursts))
    return samples


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def check_outputs(workload, prep, rc, stderr: str, references) -> tuple:
    """Check one iteration: exit status, the workload's own output checks, and
    the selected-id digest against each (label, digest) reference that is set.

    Returns (digest, quality, problems); any problem fails the iteration.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}: {stderr.strip()[-500:]}")
    try:
        outcome = workload.check(prep)
    except (OSError, KeyError, ValueError, IndexError, StopIteration, csv.Error) as exc:
        return None, {}, problems + [f"unreadable output: {exc!r}"]
    problems += outcome.problems
    for label, reference in references:
        if reference and outcome.digest != reference:
            problems.append(f"selected-id digest {outcome.digest[:16]} differs from "
                            f"{label} {reference[:16]}")
    return outcome.digest, outcome.quality, problems


def timed_call(cli, argv, probe: SpeedProbe, tracer, probes) -> dict:
    """One command, timed, with ``probes`` installed and the speed probe armed."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    probe.bursts = []
    probe.burst()  # one sample before and one after each iteration
    tracer.install(probes)
    probe.arm()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                rc = None
                traceback.print_exc(file=sink_err)
            wall = time.perf_counter() - t0
    finally:
        probe.disarm()
        tracer.uninstall()
    wall -= sum(probe.bursts[1:])
    probe.burst()
    speed = SpeedProbe.REFERENCE_BURST_S / statistics.mean(probe.bursts)
    return {"exit": rc, "stderr": sink_err.getvalue(), "wall_s": wall,
            "norm_wall_s": wall * speed, "bursts": len(probe.bursts),
            "spans": tracer.take(), "probes_missing": list(tracer.missing)}


def run_workload(args) -> int:
    import mfselect.cli as cli
    import tracing
    from workloads import DIGESTS, WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prep = workload.prepare(ROOT, args.seed, args.smoke, work)
    probe = SpeedProbe()
    setup = [] if args.trace else measure_setup(prep.argv, probe)
    expected_digest = None if args.smoke or args.seed != 0 else DIGESTS.get(args.workload)

    # plain iterations keep one probe, on the trainer's fit_round contract,
    # to count the instance-epochs trained
    work_probes = [p for p in tracing.PROBES if p[2] == "trainer.fit_round"]
    tracer = tracing.Tracer()
    iterations = []
    spans_out = []
    first_digest = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        shutil.rmtree(prep.outdir, ignore_errors=True)
        it = timed_call(cli, prep.argv, probe, tracer,
                        tracing.PROBES if traced else work_probes)
        spans = it.pop("spans")
        references = [("the first iteration's", first_digest), ("the recorded", expected_digest)]
        digest, quality, problems = check_outputs(workload, prep, it["exit"],
                                                  it.pop("stderr"), references)
        first_digest = first_digest or digest
        instance_epochs = prep.instance_epochs
        if instance_epochs is None:
            instance_epochs = sum(s.info.get("instance_epochs", 0) for s in spans
                                  if s.name == "trainer.fit_round")
            if not instance_epochs:
                problems.append("no instance-epochs counted: the trainer probe is "
                                f"missing ({it['probes_missing']})")
        it.update(traced=traced, digest=digest, quality=quality, problems=problems,
                  instance_epochs=instance_epochs)
        if traced:
            it["layers"] = tracing.layer_metrics(spans)
            it["layers"]["cli.output_bytes"] = (dir_bytes(prep.outdir)
                                                if prep.outdir.exists() else 0)
            base = spans[0].start if spans else 0.0
            spans_out.append([{"name": s.name, "start": s.start - base, "end": s.end - base,
                               "parent": s.parent, "info": s.info} for s in spans])
        iterations.append(it)
        for problem in problems:
            print(f"iteration {len(iterations)}: {problem}", file=sys.stderr)

        n_traced = sum(1 for i in iterations if i["traced"])
        n_plain = len(iterations) - n_traced
        enough = (min(n_traced, n_plain) >= MIN_TRACED) if args.trace else n_plain >= MIN_PLAIN
        if enough and time.perf_counter() - start >= args.seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    return report(args, tag, prep, setup, iterations, spans_out)


def report(args, tag: str, prep, setup: list[float], iterations: list[dict],
           spans_out: list) -> int:
    """Reduce the iterations to metrics, save the results, print the summary."""
    import tracing

    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    plain_walls = [it["wall_s"] for it in plain]
    failed = sum(1 for it in iterations if it["problems"])
    missing = (traced or iterations)[-1]["probes_missing"]
    if args.trace:
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(it["norm_wall_s"] for it in traced)
                         - statistics.median(it["norm_wall_s"] for it in plain))
            elif name == "trace.spans_missing":
                value = len(missing)
            else:
                value = statistics.median_low(it["layers"][name] for it in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "norm_wall_s": statistics.median(it["norm_wall_s"] for it in plain),
            "norm_instance_epochs_per_s": statistics.median(
                it["instance_epochs"] / it["norm_wall_s"] for it in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    env = environment(args.seed, prep.sizes)
    quality = iterations[-1]["quality"]
    q1, q3 = quartiles(plain_walls)
    summary = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "environment": env, "metrics": metrics,
        "wall_s": {"median": statistics.median(plain_walls), "q1": q1, "q3": q3,
                   "samples": len(plain_walls)},
        "setup_s_samples": setup,
        "quality": quality,
        "error_rate": failed / len(iterations),
        "probes_missing": missing,
        "iterations": iterations,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans_out:
        (results / f"{tag}-spans.json").write_text(json.dumps(spans_out) + "\n")

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iterations, {failed} failed")
    print(f"  {'wall_s':32s} {summary['wall_s']['median']:.6g} s "
          f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain_walls)}, not speed-scaled)")
    print(f"  {'instance_epochs_per_s':32s} "
          f"{statistics.median(it['instance_epochs'] / it['wall_s'] for it in plain):.6g} 1/s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name in ("precision", "recall", "test_accuracy"):
            if name in quality:
                value = quality[name]
                print(f"  {name:32s} {'n/a' if value is None else f'{value:.6f}'} ratio")
        print(f"  {'error_rate':32s} {summary['error_rate']:.6g} ratio")
    if missing:
        print(f"  spans missing (probe targets not found): {', '.join(missing)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(iterations),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfselect").is_dir() or not (ROOT / "configs").is_dir():
        print(f"mfselect sources not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
