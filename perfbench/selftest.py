"""Self-test of the benchmark itself (not of mfselect).

1. Smoke-runs every workload at tiny size, untraced and traced, and checks
   that the last output line is the result object with every metric that
   BENCHMARK.json names, each with its unit, and no failed iteration.
2. Corrupts one selected-ids file and checks that the output checker
   reports it.

Run from the repository root; exits non-zero on the first failed check:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def smoke_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} failed={result['failed']} "
                     f"attempted={result['attempted']}\n{proc.stderr[-2000:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{where}: metrics/units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
                    fail(f"{where}: {name} value {m['value']!r} is not a number")
            print(f"ok   {where}: {result['attempted']} iterations, "
                  f"{len(got)} metrics with units")


def corruption_is_caught() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mfselect.cli as cli
    from run import check_outputs
    from workloads import WORKLOADS

    workload = WORKLOADS["select_sim"]
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = workload.prepare(ROOT, 3, True, work)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(prep.argv)
        digest, _, problems = check_outputs(workload, prep, rc, "", [])
        if problems:
            fail(f"clean output flagged: {problems}")
        # swap one selected id for an unselected one: same count, wrong set
        ids_file = prep.outdir / "selected_ids.txt"
        selected = ids_file.read_text().splitlines()
        outsider = next(i for i in prep.reference["ids"] if i not in set(selected))
        ids_file.write_text("\n".join([outsider] + selected[1:]) + "\n")
        _, _, problems = check_outputs(workload, prep, 0, "",
                                       [("the first iteration's", digest)])
        if not problems:
            fail("corrupted selected_ids.txt passed the output checker")
        print(f"ok   corrupted selected_ids.txt caught: {problems[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke_runs(spec)
    corruption_is_caught()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
