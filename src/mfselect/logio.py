"""File formats and the external-trainer bridge.

Prediction logs are newline-delimited JSON, one record per instance:

    {"id": str, "label": int, "true_label": int|null,
     "seq": [0|1, ...], "losses": [float, ...]|null}

``seq`` has one entry per epoch of the round, so every record's ``seq``
has the same length; ``losses`` is optional and only needed by the
small-loss baseline. ``label`` and ``true_label`` must fit in int64. A log
is read into one ``RoundLog``. A log without
losses in the exact layout ``write_prediction_log`` emits is read in bulk:
one anchored regex per chunk of lines and numpy for the bits. Any other
valid layout is read line by line, with the same checks and the same
result, and every format error comes from that line reader. Datasets are CSV
files with header
``id,feature_0..feature_{d-1},observed_label,true_label,split``. Selected
ids are stored one per line, exactly as given, so an id may hold any
character but a line break; the dataset and log readers reject one that
does. Ids are opaque strings everywhere: ``007`` and ``7`` are two
instances, and files keep their input row order.

An external trainer is any command that, given a dataset file, a selected-
ids file, an epoch count and a seed, writes such a prediction log; it can
stand in for the built-in trainer in every pipeline.
"""

from __future__ import annotations

import csv
import json
import re
import shlex
import subprocess
from pathlib import Path

import numpy as np

from .errors import (
    LogFormatError,
    MissingIdsError,
    RaggedSequenceError,
    TrainerCommandError,
)
from .trainer import RoundLog, ToyDataset


_ENCODER = json.JSONEncoder(sort_keys=True)


def write_prediction_log(path, log: RoundLog) -> None:
    n = len(log)
    true_labels = [None] * n if log.true_labels is None else log.true_labels.tolist()
    losses = [None] * n if log.losses is None else log.losses.tolist()
    rows = zip(log.ids, log.labels.tolist(), true_labels, log.bits.tolist(), losses)
    with Path(path).open("w") as fh:
        fh.writelines(
            _ENCODER.encode({"id": rec_id, "label": label, "true_label": true_label,
                             "seq": seq, "losses": loss}) + "\n"
            for rec_id, label, true_label, seq, loss in rows
        )


# One record exactly as ``write_prediction_log`` lays it out for a log
# without losses: sorted keys, default separators, ASCII escapes. No
# character class matches "\n", so a match is one whole line. Strings
# exclude raw control characters and allow only JSON's escapes; integers
# stop at 18 digits so they always fit in int64. ``seq`` is only checked for
# its characters here; the reader checks its "0, 1, ..." layout.
_STRING = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"'
_INT = r"-?(?:0|[1-9][0-9]{0,17})"
_CANONICAL_RECORD = re.compile(
    rf'^\{{"id": {_STRING}, "label": ({_INT}), "losses": null, '
    rf'"seq": \[([01, ]*)\], "true_label": ({_INT}|null)\}}\n',
    re.M,
)
_CHUNK_CHARS = 1 << 20
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def read_prediction_log(path) -> RoundLog:
    """Parse a prediction log, reporting the offending line on bad input.

    Every ``seq`` must have the first record's length. ``losses`` and
    ``true_labels`` of the result are None unless every record has them.
    A log without losses in ``write_prediction_log``'s exact layout is read
    in bulk; any other (valid or not) is read line by line, which gives the
    same result or names the bad line.
    """
    log = _read_canonical_log(path)
    return _read_log_lines(path) if log is None else log


def _read_canonical_log(path) -> RoundLog | None:
    """Read a log whose every line matches ``_CANONICAL_RECORD``, else None.

    Reads chunks of whole lines, so memory stays near one chunk plus the
    result. Returns None, without raising a format error, on the first
    non-matching line (losses included), ragged ``seq``, duplicate id or
    empty file; the line reader then decides.
    """
    ids, labels, true_labels, bits = [], [], [], []
    width = None
    with Path(path).open() as fh:
        try:
            while lines := fh.readlines(_CHUNK_CHARS):
                chunk = "".join(lines)
                rows = _CANONICAL_RECORD.findall(chunk)
                if len(rows) != len(lines):
                    return None
                raw_ids, raw_labels, seqs, raw_true = zip(*rows)
                width = width or len(seqs[0])
                if width % 3 != 1 or set(map(len, seqs)) != {width}:
                    return None
                # the regex admitted only "01, ": with a bit in every third
                # byte and one ", " per bit, each seq reads "b, b, ..., b"
                text = (", ".join(seqs) + ", ").encode("ascii")
                chunk_bits = np.frombuffer(text, dtype=np.uint8)[::3] - 48
                if chunk_bits.max() > 1 or text.count(b", ") != chunk_bits.size:
                    return None
                bits.append(chunk_bits.astype(np.int8).reshape(len(rows), -1))
                chunk_ids = [json.loads(f'"{i}"') if "\\" in i else i for i in raw_ids]
                if "\\" in chunk and any("\n" in i for i in chunk_ids):
                    return None  # an escaped line break in an id
                ids += chunk_ids
                labels.append(np.array(raw_labels, dtype=np.int64))
                if true_labels is not None and "null" in raw_true:
                    true_labels = None
                elif true_labels is not None:
                    true_labels.append(np.array(raw_true, dtype=np.int64))
        except UnicodeDecodeError:
            return None
    if not ids or len(set(ids)) != len(ids):
        return None
    return RoundLog(
        ids=ids,
        bits=np.concatenate(bits),
        losses=None,
        labels=np.concatenate(labels),
        true_labels=None if true_labels is None else np.concatenate(true_labels),
    )


def _read_log_lines(path) -> RoundLog:
    path = Path(path)
    ids, labels, true_labels, seqs, losses = [], [], [], [], []
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
            if seqs and len(seq) != len(seqs[0]):
                raise RaggedSequenceError(
                    f"'seq' has {len(seq)} entries, the first record has {len(seqs[0])}",
                    path=path, line=lineno,
                )
            loss = raw.get("losses")
            if loss is not None and (not isinstance(loss, list) or len(loss) != len(seq)):
                raise LogFormatError("'losses' must be null or match 'seq' length",
                                     path=path, line=lineno)
            rec_id = str(raw["id"])
            if "\n" in rec_id:
                raise LogFormatError(f"id {rec_id!r} holds a line break",
                                     path=path, line=lineno)
            if rec_id in seen:
                raise LogFormatError(f"duplicate id {rec_id!r}", path=path, line=lineno)
            seen.add(rec_id)
            true_label = raw.get("true_label")
            try:
                label = int(raw.get("label", 0))
                true_label = None if true_label is None else int(true_label)
                losses.append(None if loss is None else [float(v) for v in loss])
            except (TypeError, ValueError) as exc:
                raise LogFormatError(f"non-numeric label or loss: {exc}",
                                     path=path, line=lineno)
            if not all(_INT64_MIN <= v <= _INT64_MAX for v in (label, true_label)
                       if v is not None):
                raise LogFormatError("label or true_label does not fit in int64",
                                     path=path, line=lineno)
            labels.append(label)
            true_labels.append(true_label)
            ids.append(rec_id)
            seqs.append(seq)
    if not ids:
        raise LogFormatError("log has no records", path=path)
    return RoundLog(
        ids=ids,
        bits=np.array(seqs, dtype=np.int8),
        losses=None if None in losses else np.array(losses, dtype=float),
        labels=np.array(labels, dtype=np.int64),
        true_labels=None if None in true_labels else np.array(true_labels, dtype=np.int64),
    )


def write_ids(path, ids) -> None:
    Path(path).write_text("".join(f"{i}\n" for i in ids))


def read_ids(path) -> list[str]:
    """The ids ``write_ids`` wrote, exactly: one per "\\n"-ended line."""
    with Path(path).open(newline="") as fh:
        ids = fh.read().split("\n")
    return ids[:-1] if ids[-1] == "" else ids


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
            if "\n" in row[0]:
                raise LogFormatError(f"id {row[0]!r} holds a line break",
                                     path=path, line=lineno)
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
) -> RoundLog:
    """Run one external-trainer round and validate its prediction log.

    The command template may use the placeholders {dataset}, {ids}, {out},
    {epochs} and {seed}. The log must cover exactly the ids listed in
    ``ids_file`` with sequences of ``epochs`` entries (the reader already
    requires them to be of equal length).
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

    log = read_prediction_log(out_file)
    expected = read_ids(ids_file)
    got = set(log.ids)
    missing = set(expected) - got
    if missing:
        raise MissingIdsError(missing, path=out_file)
    extra = got - set(expected)
    if extra:
        shown = ", ".join(sorted(extra)[:10])
        raise LogFormatError(f"log contains unexpected ids: {shown}", path=out_file)
    if log.bits.shape[1] != epochs:
        raise RaggedSequenceError(
            f"sequences have length {log.bits.shape[1]}, expected {epochs}", path=out_file
        )
    return log


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
        log = external_round(
            self.command_template,
            self.dataset_file,
            ids_file,
            out_file,
            epochs,
            self.seed,
        )
        row_of = {i: row for row, i in enumerate(log.ids)}
        rows = np.array([row_of[i] for i in ids], dtype=np.intp)
        return RoundLog(
            ids=ids,
            bits=log.bits[rows],
            losses=None if log.losses is None else log.losses[rows],
            labels=log.labels[rows],
            true_labels=None if log.true_labels is None else log.true_labels[rows],
        )
