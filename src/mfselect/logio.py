"""File formats and the external-trainer bridge.

Prediction logs are newline-delimited JSON, one record per instance:

    {"id": str, "label": int, "true_label": int|null,
     "seq": [0|1, ...], "losses": [float, ...]|null}

``seq`` has one entry per epoch of the round; ``losses`` is optional and
only needed by the small-loss baseline. Datasets are CSV files with header
``id,feature_0..feature_{d-1},observed_label,true_label,split``. Selected
ids are stored one per line. Ids are opaque strings everywhere: ``007`` and
``7`` are two instances, and files keep their input row order.

An external trainer is any command that, given a dataset file, a selected-
ids file, an epoch count and a seed, writes such a prediction log; it can
stand in for the built-in trainer in every pipeline.
"""

from __future__ import annotations

import csv
import json
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    LogFormatError,
    MissingIdsError,
    RaggedSequenceError,
    TrainerCommandError,
)
from .trainer import RoundLog, ToyDataset


@dataclass
class LogRecord:
    """One prediction-log line."""

    id: str
    label: int
    true_label: int | None
    seq: list[int]
    losses: list[float] | None = None


def write_prediction_log(path, records) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "id": str(rec.id),
                        "label": int(rec.label),
                        "true_label": None if rec.true_label is None else int(rec.true_label),
                        "seq": [int(b) for b in rec.seq],
                        "losses": None
                        if rec.losses is None
                        else [float(v) for v in rec.losses],
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")


def read_prediction_log(path) -> list[LogRecord]:
    """Parse a prediction log, reporting the offending line on bad input."""
    path = Path(path)
    records = []
    seen = set()
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(f"invalid JSON: {exc.msg}", path=path, line=lineno)
            if not isinstance(raw, dict) or "id" not in raw or "seq" not in raw:
                raise LogFormatError("record must be an object with 'id' and 'seq'",
                                     path=path, line=lineno)
            seq = raw["seq"]
            if not isinstance(seq, list) or not seq or any(b not in (0, 1) for b in seq):
                raise LogFormatError("'seq' must be a nonempty list of 0/1",
                                     path=path, line=lineno)
            losses = raw.get("losses")
            if losses is not None:
                if not isinstance(losses, list) or len(losses) != len(seq):
                    raise LogFormatError("'losses' must be null or match 'seq' length",
                                         path=path, line=lineno)
                losses = [float(v) for v in losses]
            rec_id = str(raw["id"])
            if rec_id in seen:
                raise LogFormatError(f"duplicate id {rec_id!r}", path=path, line=lineno)
            seen.add(rec_id)
            true_label = raw.get("true_label")
            records.append(
                LogRecord(
                    id=rec_id,
                    label=int(raw.get("label", 0)),
                    true_label=None if true_label is None else int(true_label),
                    seq=[int(b) for b in seq],
                    losses=losses,
                )
            )
    return records


def records_to_round_log(records) -> RoundLog:
    """View parsed records as the in-memory round contract."""
    ids = [rec.id for rec in records]
    losses = None
    if records and all(rec.losses is not None for rec in records):
        losses = {rec.id: np.asarray(rec.losses, dtype=float) for rec in records}
    return RoundLog(
        ids=ids,
        sequences={rec.id: np.asarray(rec.seq, dtype=np.int8) for rec in records},
        losses=losses,
    )


def simulated_records(sequences, clean_mask) -> list[LogRecord]:
    """Wrap simulator output as log records.

    Records follow the order of ``sequences``. Clean instances get matching
    (0, 0) label pairs and noisy ones get (1, 0), so the clean mask is
    recoverable from the log alone.
    """
    return [
        LogRecord(
            id=str(instance_id),
            label=0 if clean_mask[instance_id] else 1,
            true_label=0,
            seq=[int(b) for b in bits],
        )
        for instance_id, bits in sequences.items()
    ]


def clean_mask_from_records(records) -> dict | None:
    """id -> label==true_label, or None when any truth is missing."""
    if not records or any(rec.true_label is None for rec in records):
        return None
    return {rec.id: rec.label == rec.true_label for rec in records}


def write_ids(path, ids) -> None:
    Path(path).write_text("".join(f"{i}\n" for i in ids))


def read_ids(path) -> list[str]:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return [line for line in lines if line]


def write_dataset_csv(path, ds: ToyDataset) -> None:
    dim = ds.features.shape[1]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id"]
            + [f"feature_{j}" for j in range(dim)]
            + ["observed_label", "true_label", "split"]
        )
        for row in range(len(ds.ids)):
            writer.writerow(
                [ds.ids[row]]
                + [repr(float(v)) for v in ds.features[row]]
                + [int(ds.observed_labels[row]), int(ds.true_labels[row]), ds.split[row]]
            )


def read_dataset_csv(path) -> ToyDataset:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError("empty dataset file", path=path, line=1)
        expected_tail = ["observed_label", "true_label", "split"]
        if header[:1] != ["id"] or header[-3:] != expected_tail:
            raise LogFormatError(
                "header must be id,feature_*,observed_label,true_label,split",
                path=path,
                line=1,
            )
        dim = len(header) - 4
        ids, feats, observed, true, split = [], [], [], [], []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise LogFormatError(
                    f"expected {len(header)} fields, got {len(row)}", path=path, line=lineno
                )
            if row[0] in seen:
                raise LogFormatError(f"duplicate id {row[0]!r}", path=path, line=lineno)
            seen.add(row[0])
            try:
                feats.append([float(v) for v in row[1 : 1 + dim]])
                observed.append(int(row[1 + dim]))
                true.append(int(row[2 + dim]))
            except ValueError as exc:
                raise LogFormatError(str(exc), path=path, line=lineno)
            ids.append(row[0])
            split.append(row[3 + dim])
    if not ids:
        raise LogFormatError("dataset has no rows", path=path, line=2)
    observed = np.asarray(observed, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    return ToyDataset(
        ids=np.asarray(ids, dtype=object),
        features=np.asarray(feats, dtype=float),
        observed_labels=observed,
        true_labels=true,
        n_classes=int(max(observed.max(), true.max())) + 1,
        split=np.asarray(split, dtype="U5"),
    )


def external_round(
    command_template: str,
    dataset_file,
    ids_file,
    out_file,
    epochs: int,
    seed: int,
) -> list[LogRecord]:
    """Run one external-trainer round and validate its prediction log.

    The command template may use the placeholders {dataset}, {ids}, {out},
    {epochs} and {seed}. The log must cover exactly the ids listed in
    ``ids_file`` with equal-length sequences of ``epochs`` entries.
    """
    command = command_template.format(
        dataset=str(dataset_file),
        ids=str(ids_file),
        out=str(out_file),
        epochs=epochs,
        seed=seed,
    )
    proc = subprocess.run(
        shlex.split(command), capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise TrainerCommandError(command, proc.returncode, proc.stderr)

    records = read_prediction_log(out_file)
    expected = read_ids(ids_file)
    got = {rec.id for rec in records}
    missing = set(expected) - got
    if missing:
        raise MissingIdsError(missing, path=out_file)
    extra = got - set(expected)
    if extra:
        shown = ", ".join(sorted(extra)[:10])
        raise LogFormatError(f"log contains unexpected ids: {shown}", path=out_file)
    lengths = {len(rec.seq) for rec in records}
    if len(lengths) > 1:
        raise RaggedSequenceError(
            f"sequences have mixed lengths {sorted(lengths)}", path=out_file
        )
    if lengths and lengths != {epochs}:
        raise RaggedSequenceError(
            f"sequences have length {lengths.pop()}, expected {epochs}", path=out_file
        )
    return records


class ExternalTrainer:
    """Round trainer backed by a subprocess command.

    Model state continuity across rounds is the external command's
    responsibility; this bridge only hands it the surviving ids each round
    and validates the log it returns. The command may list the ids in any
    order; the returned log follows the order of the ids it was given.
    """

    def __init__(self, command_template: str, dataset_file, workdir, seed: int = 0):
        self.command_template = command_template
        self.dataset_file = Path(dataset_file)
        self.workdir = Path(workdir)
        self.seed = seed
        self.round_counter = 0

    def fit_round(self, dataset, ids, epochs: int) -> RoundLog:
        self.round_counter += 1
        self.workdir.mkdir(parents=True, exist_ok=True)
        ids_file = self.workdir / f"ids_round{self.round_counter}.txt"
        out_file = self.workdir / f"log_round{self.round_counter}.jsonl"
        ids = list(ids)
        write_ids(ids_file, ids)
        records = external_round(
            self.command_template,
            self.dataset_file,
            ids_file,
            out_file,
            epochs,
            self.seed,
        )
        by_id = {rec.id: rec for rec in records}
        return records_to_round_log([by_id[i] for i in ids])
