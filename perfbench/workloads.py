"""The three benchmark workloads: inputs, CLI arguments and output checks.

Every workload drives one stable ``mfselect`` command. ``prepare`` builds the
inputs from the workload seed (outside the timed region) and returns the
argument vector; ``check`` reads what the command wrote and returns the
digest of the selected ids, the quality figures and any problems found.
A problem makes the iteration count as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# sha256 of the selected-id output at --seed 0 and full size. Speed-ups must
# leave these byte-identical; a change that alters selection on purpose
# updates them in the same change and says so.
DIGESTS = {
    "train_blobs": "b896af56e75c179e5ac31e983397271fde698baae6d3e3b55a3869d783f22d1c",
    "select_sim": "4a9515f94245aad62232240a0595e0c8ed82b583e6d19398cfdb4d060bfe4baf",
    "compare_strategies": "c583fcef1bd36df72deef9c227e05bb8500c2603d40aae77d6bd82fb241e8705",
}

SIM_INSTANCES = 100_000


@dataclass
class Prepared:
    argv: list[str]
    outdir: Path
    sizes: dict
    # instance-epochs known from the inputs; None when the trainer decides
    instance_epochs: int | None = None
    reference: dict = field(default_factory=dict)


@dataclass
class Outcome:
    digest: str
    quality: dict
    problems: list[str]


def sorted_ids(path: Path) -> list[str]:
    return sorted(line.strip() for line in path.read_text().splitlines() if line.strip())


def digest_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _quality_value(text: str | None) -> float | None:
    return float(text) if text not in ("", None) else None


def precision_recall_problems(selected: list[str], clean: dict, quality: dict) -> list[str]:
    """Compare the precision/recall the CLI wrote with a recomputation."""
    if not set(selected) <= clean.keys():
        return ["selected ids outside the ground truth"]
    if not selected:
        return []
    kept_clean = sum(clean[i] for i in selected)
    precision, recall = kept_clean / len(selected), kept_clean / sum(clean.values())
    # the CLI writes six decimals
    if all(quality[k] is not None and abs(quality[k] - v) <= 5.1e-7
           for k, v in (("precision", precision), ("recall", recall))):
        return []
    return [f"stats.csv precision/recall {quality['precision']}/{quality['recall']} "
            f"!= recomputed {precision:.6f}/{recall:.6f}"]


def seed_overrides(config: dict, seed: int) -> list[str]:
    """--set arguments that add ``seed`` to every seed the config uses."""
    out = []
    for path in ("dataset.blobs.seed", "noise.seed", "trainer.seed", "fit.seed"):
        node = config
        for key in path.split("."):
            node = node.get(key, {}) if isinstance(node, dict) else {}
        base = node if isinstance(node, int) else 0
        out += ["--set", f"{path}={base + seed}"]
    return out


def full_metric_reference(bits: np.ndarray, lam: float) -> np.ndarray:
    """C = M - lam*F from run counts, for every row of a 0/1 matrix."""
    b = bits.astype(bool)
    starts = np.ones_like(b)
    starts[:, 1:] = b[:, 1:] != b[:, :-1]
    ones = b.sum(axis=1)
    zeros = b.shape[1] - ones
    runs1 = (starts & b).sum(axis=1)
    runs0 = (starts & ~b).sum(axis=1)
    m = np.divide(zeros, runs0, out=np.zeros(len(b)), where=runs0 > 0)
    f = np.divide(ones, runs1, out=np.zeros(len(b)), where=runs1 > 0)
    return m - lam * f


class Workload:
    name = ""
    config = ""

    def load_config(self, root: Path) -> dict:
        return yaml.safe_load((root / self.config).read_text())

    def prepare(self, root: Path, seed: int, smoke: bool, work: Path) -> Prepared:
        raise NotImplementedError

    def check(self, prep: Prepared) -> Outcome:
        raise NotImplementedError


class BlobWorkload(Workload):
    """A command on a Gaussian-blob config, every seed offset by the workload seed."""

    command: list[str] = []

    def prepare(self, root, seed, smoke, work):
        raw = self.load_config(root)
        out = work / "out"
        argv = self.command + ["-c", str(root / self.config), "-o", str(out)]
        argv += seed_overrides(raw, seed)
        blobs = raw["dataset"]["blobs"]
        if smoke:
            blobs = dict(blobs, per_class=60, test_per_class=15)
            argv += ["--set", "dataset.blobs.per_class=60",
                     "--set", "dataset.blobs.test_per_class=15",
                     "--set", "round.epochs=8", "--set", "round.rounds=2"]
        sizes = {"train_rows": blobs["n_classes"] * blobs["per_class"],
                 "test_rows": blobs["n_classes"] * blobs.get("test_per_class", 0)}
        return Prepared(argv=argv, outdir=out, sizes=sizes)


class TrainBlobs(BlobWorkload):
    """`run` on the shipped noisy-blob config: training, logs, checkpoints."""

    name = "train_blobs"
    config = "configs/benchmark.yaml"
    command = ["run"]

    def check(self, prep):
        out = prep.outdir
        problems = []
        final = read_rows(out / "stats.csv")[-1]
        quality = {k: _quality_value(final[k])
                   for k in ("precision", "recall", "test_accuracy")}
        id_files = sorted(out.glob("selected_ids_round*.txt")) + [out / "selected_ids_final.txt"]
        selected = {p.name: sorted_ids(p) for p in id_files}
        clean = {row["id"]: row["observed_label"] == row["true_label"]
                 for row in read_rows(out / "dataset.csv") if row["split"] == "train"}
        last = selected[f"selected_ids_round{final['round']}.txt"]
        if len(last) != int(final["kept"]):
            problems.append(f"stats.csv kept={final['kept']} but the id file has {len(last)}")
        problems += precision_recall_problems(last, clean, quality)
        digest = digest_of(f"{name}\n" + "\n".join(ids) for name, ids in selected.items())
        return Outcome(digest, quality, problems)


class SelectSim(Workload):
    """`select` with the full metric on a simulated 10^5 x 50 prediction log."""

    name = "select_sim"
    config = "configs/simulate.yaml"

    def prepare(self, root, seed, smoke, work):
        raw = self.load_config(root)
        sim = raw["simulate"]
        n = 2_000 if smoke else SIM_INSTANCES
        epochs = 20 if smoke else sim["epochs"]
        rng = np.random.default_rng(sim["seed"] + seed)
        n_clean = n * sim["n_clean"] // (sim["n_clean"] + sim["n_noisy"])
        clean = np.zeros(n, dtype=bool)
        clean[rng.permutation(n)[:n_clean]] = True
        p_mem = np.where(clean, sim["p_memorize_clean"], sim["p_memorize_noisy"])
        p_forget = np.where(clean, sim["p_forget_clean"], sim["p_forget_noisy"])
        # two-state chains starting misclassified, as mfselect's simulator
        state = np.zeros(n, dtype=bool)
        bits = np.empty((n, epochs), dtype=np.int8)
        for e in range(epochs):
            bits[:, e] = state
            u = rng.random(n)
            state = np.where(state, u >= p_forget, u < p_mem)
        ids = [f"s{i:06d}" for i in range(n)]
        log = work / "input_log.jsonl"
        with log.open("w") as fh:
            for i in range(n):
                # clean rows are labelled (0, 0) and noisy rows (1, 0)
                fh.write(json.dumps({"id": ids[i], "label": 0 if clean[i] else 1,
                                     "true_label": 0, "seq": bits[i].tolist(),
                                     "losses": None}, sort_keys=True))
                fh.write("\n")
        lam = float(raw.get("round", {}).get("lambda", 1.0))
        out = work / "out"
        argv = ["select", "-c", str(root / self.config), "--set", "round.metric=full",
                "--log", str(log), "-o", str(out)]
        return Prepared(
            argv=argv, outdir=out,
            sizes={"rows": n, "epochs": epochs, "log_bytes": log.stat().st_size},
            instance_epochs=n * epochs,
            reference={"ids": ids, "clean": dict(zip(ids, clean.tolist())),
                       "scores": full_metric_reference(bits, lam)},
        )

    def check(self, prep):
        out = prep.outdir
        ref = prep.reference
        problems = []
        with (out / "scores.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        if header != ["id", "score"] or [r[0] for r in rows] != ref["ids"]:
            problems.append("scores.csv ids differ from the input log's ids")
        else:
            got = np.array([float(r[1]) for r in rows])
            bad = np.flatnonzero(~np.isclose(got, ref["scores"], rtol=0, atol=1e-9))
            if bad.size:
                i = bad[0]
                problems.append(f"{bad.size} scores differ from the reference, e.g. "
                                f"{ref['ids'][i]}: {got[i]!r} != {ref['scores'][i]!r}")
        selected = sorted_ids(out / "selected_ids.txt")
        stats = read_rows(out / "stats.csv")[-1]
        quality = {k: _quality_value(stats[k]) for k in ("precision", "recall")}
        problems += precision_recall_problems(selected, ref["clean"], quality)
        return Outcome(digest_of(["\n".join(selected)]), quality, problems)


class CompareStrategies(BlobWorkload):
    """`report --compare`: the library round driver and all three selectors."""

    name = "compare_strategies"
    config = "configs/comparison.yaml"
    command = ["report", "--compare"]

    def check(self, prep):
        # --compare writes no id files; comparison.csv (kept count, precision,
        # recall and accuracy per strategy) is the selection output pinned here
        path = prep.outdir / "comparison.csv"
        problems = []
        rows = {r["strategy"]: r for r in read_rows(path)}
        if sorted(rows) != ["mixture_threshold", "ratio", "small_loss"]:
            problems.append(f"comparison.csv strategies {sorted(rows)}")
        mix = rows.get("mixture_threshold", {})
        quality = {"precision": _quality_value(mix.get("precision")),
                   "recall": _quality_value(mix.get("recall")),
                   "test_accuracy": _quality_value(mix.get("accuracy"))}
        return Outcome(digest_of([path.read_bytes()]), quality, problems)


WORKLOADS = {w.name: w for w in (TrainBlobs(), SelectSim(), CompareStrategies())}
