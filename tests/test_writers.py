"""The per-row writers against the per-row forms they replaced.

Each oracle below is the writer as it was before it formatted whole blocks
of rows at once: ``csv.writer`` rows, an f-string join and, for prediction
logs, json's encoder on each record with null losses (the losses go, bit for
bit, to the ``.losses.npy`` sidecar). The bytes must match for any ids, any
scores and any block size, including the empty set. All ids of an example
come from one alphabet, so that lists of plain ids only (which json writes
as they are) are as common as lists with escapes. Every CSV file comes from
``logio.write_table``: for scores, dataset and ``_fmt``-formatted summary
columns it must write what ``csv.writer`` writes, and ``logio.read_table``
must give back the cells it wrote. Every writer must leave the old file, and
no temp file, when its rename fails.
"""

import csv
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from test_logio import ID_CHARS, LABELS

from mfselect import cli, logio
from mfselect.errors import LogFormatError
from mfselect.trainer import RoundLog, ToyDataset

# the characters csv quotes or json escapes, plus "" and non-ASCII text
SPECIAL = [",", '"', "\r", "\n", "\\", "/", "\x00", "\x1f", "\x7f", " ", "\x85", "\u2028",
           "\u00e9", "\U0001f600"]
# the characters json's ASCII encoder writes as they are
PLAIN = st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\')
# every id of one example is drawn from the same alphabet: plain text, plain
# text and one of the ASCII characters nearest to it that json escapes, or any
ids_text = st.shared(st.one_of(
    st.just(PLAIN),
    st.sampled_from(['"', "\\", "\x7f", "\x1f"]).map(lambda c: PLAIN | st.just(c)),
    st.just(st.sampled_from(SPECIAL) | st.characters(exclude_categories=["Cs"])),
), key="alphabet").flatmap(lambda alphabet: st.text(alphabet=alphabet, max_size=6))

SCORES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 0.1]
scores = st.sampled_from(SCORES) | st.floats()
blocks = st.sampled_from([1, 2, 3, 10_000])
property_settings = settings(max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])


def csv_oracle(rows) -> bytes:
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


@property_settings
@given(rows=st.lists(st.tuples(ids_text, scores), max_size=12), block=blocks)
def test_scores_csv_matches_csv_writer(tmp_path, rows, block):
    ids = [i for i, _ in rows]
    event("an id is quoted" if any(c in i for i in ids for c in ',"\r\n') else "no id quoted")
    values = [v for _, v in rows]
    with mock.patch.object(logio, "BLOCK_ROWS", block):
        logio.write_table(tmp_path / "scores.csv", ["id", "score"],
                          [ids, np.asarray(values, dtype=float)])
    want = csv_oracle([["id", "score"]] + [[i, repr(float(v))] for i, v in rows])
    assert (tmp_path / "scores.csv").read_bytes() == want


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 8))
    dim = draw(st.integers(0, 3))
    n_classes = draw(st.integers(1, 5))
    labels = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    return ToyDataset(
        ids=np.array(draw(st.lists(ids_text, min_size=n, max_size=n)), dtype=object),
        features=np.array(draw(st.lists(scores, min_size=n * dim, max_size=n * dim)),
                          dtype=float).reshape(n, dim),
        observed_labels=np.array(draw(labels), dtype=np.int64),
        true_labels=np.array(draw(labels), dtype=np.int64),
        n_classes=n_classes,
        split=np.array(draw(st.lists(st.sampled_from(["train", "test", "a,b", 'q"', "x\ny"]),
                                     min_size=n, max_size=n)), dtype="U5"),
    )


def dataset_oracle(ds) -> bytes:
    dim = ds.features.shape[1]
    header = (["id"] + [f"feature_{j}" for j in range(dim)]
              + ["observed_label", "true_label", "split"])
    return csv_oracle([header] + [
        [ds.ids[row]] + [repr(float(v)) for v in ds.features[row]]
        + [int(ds.observed_labels[row]), int(ds.true_labels[row]), ds.split[row]]
        for row in range(len(ds.ids))
    ])


@property_settings
@given(ds=datasets(), block=blocks)
def test_dataset_csv_matches_csv_writer(tmp_path, ds, block):
    with mock.patch.object(logio, "BLOCK_ROWS", block):
        logio.write_dataset_csv(tmp_path / "dataset.csv", ds)
    assert (tmp_path / "dataset.csv").read_bytes() == dataset_oracle(ds)


@property_settings
@given(ids=st.lists(ids_text | st.integers(), max_size=12))
def test_ids_file_matches_line_join(tmp_path, ids):
    event("every id a str" if all(isinstance(i, str) for i in ids) else "an int id")
    logio.write_ids(tmp_path / "ids.txt", ids)
    assert (tmp_path / "ids.txt").read_bytes() == "".join(f"{i}\n" for i in ids).encode()


# the encoder ``write_prediction_log`` once called for each record
ENCODER = json.JSONEncoder(sort_keys=True)


def prediction_log_oracle(log) -> bytes:
    """The log's records with null losses: its losses go to the sidecar."""
    n = len(log)
    true_labels = [None] * n if log.true_labels is None else log.true_labels.tolist()
    rows = zip(log.ids, log.labels.tolist(), true_labels, log.bits.tolist())
    return "".join(
        ENCODER.encode({"id": rec_id, "label": label, "true_label": true_label,
                        "seq": seq, "losses": None}) + "\n"
        for rec_id, label, true_label, seq in rows
    ).encode()


@st.composite
def prediction_logs(draw):
    n, epochs = draw(st.integers(0, 6)), draw(st.sampled_from([1, 2, 3, 7]))
    ids = draw(st.lists(st.text(ID_CHARS, max_size=5), min_size=n, max_size=n, unique=True))
    labels = st.sampled_from([-(2**63), 2**63 - 1]) | LABELS
    losses = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]) | st.floats()
    return RoundLog(
        ids=ids,
        bits=np.array(draw(st.lists(st.integers(0, 1), min_size=n * epochs,
                                    max_size=n * epochs)), dtype=np.int8).reshape(n, epochs),
        losses=np.array(draw(st.lists(losses, min_size=n * epochs, max_size=n * epochs)),
                        dtype=float).reshape(n, epochs) if draw(st.booleans()) else None,
        labels=np.array(draw(st.lists(labels, min_size=n, max_size=n)), dtype=np.int64),
        true_labels=np.array(draw(st.lists(labels, min_size=n, max_size=n)), dtype=np.int64)
        if draw(st.booleans()) else None,
    )


@property_settings
@given(log=prediction_logs(), block=blocks, stale=st.booleans())
def test_prediction_log_matches_encoder(tmp_path, log, block, stale):
    event("losses" if log.losses is not None else "no losses")
    event("true labels" if log.true_labels is not None else "no true labels")
    path, sidecar = tmp_path / "log.jsonl", tmp_path / "log.losses.npy"
    sidecar.unlink(missing_ok=True)
    if stale:  # an earlier log's losses: a log without losses removes them
        np.save(sidecar, np.ones((2, 9)))
    with mock.patch.object(logio, "BLOCK_ROWS", block):
        logio.write_prediction_log(path, log)
    assert path.read_bytes() == prediction_log_oracle(log)
    if log.losses is None:
        assert not sidecar.exists()
    else:  # bit for bit: every NaN payload, -0.0 and subnormals included
        losses = np.load(sidecar, allow_pickle=False)
        assert losses.dtype == np.float64 and losses.shape == log.losses.shape
        assert losses.tobytes() == log.losses.tobytes()
    if len(log) and not any("\n" in i for i in log.ids):  # else no reader takes the log
        back = logio.read_prediction_log(path)
        assert back.ids == log.ids
        for name in ("bits", "losses", "labels", "true_labels"):
            got, want = getattr(back, name), getattr(log, name)
            assert (got is None) == (want is None), name
            assert got is None or (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name


cells = ids_text | scores | st.integers() | st.booleans() | st.none()


@property_settings
@given(width=st.integers(2, 5), data=st.data())
def test_table_matches_csv_writer_of_formatted_cells(tmp_path, width, data):
    row = st.lists(cells, min_size=width, max_size=width)
    header = data.draw(row)
    rows = data.draw(st.lists(row, max_size=6))
    logio.write_table(tmp_path / "table.csv", [cli._fmt(v) for v in header],
                      [[cli._fmt(r[j]) for r in rows] for j in range(width)])
    want = csv_oracle([[cli._fmt(v) for v in r] for r in [header, *rows]])
    assert (tmp_path / "table.csv").read_bytes() == want


@property_settings
@given(width=st.integers(2, 4), n=st.integers(0, 12), data=st.data(), block=blocks)
def test_table_round_trip_matches_csv_writer(tmp_path, width, n, data, block):
    header = data.draw(st.lists(ids_text, min_size=width, max_size=width))
    # each column holds text cells, or float64 values that it writes as their repr
    columns = [data.draw(st.lists(ids_text, min_size=n, max_size=n)) if data.draw(st.booleans())
               else np.array(data.draw(st.lists(scores, min_size=n, max_size=n)), dtype=float)
               for _ in range(width)]
    cells = [[repr(v) for v in c.tolist()] if isinstance(c, np.ndarray) else c for c in columns]
    rows = [list(row) for row in zip(*cells)]
    event("a cell is quoted" if any(c in cell for r in rows for cell in r for c in ',"\r\n')
          else "no cell quoted")
    with mock.patch.object(logio, "BLOCK_ROWS", block):
        logio.write_table(tmp_path / "table.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == csv_oracle([header, *rows])
    assert logio.read_table(tmp_path / "table.csv") == (header, cells)


WRITERS = {
    "scores.csv": lambda path, k: cli.write_scores_csv(path, ["a", "b,c"], [k, 0.5]),
    "selected_ids.txt": lambda path, k: logio.write_ids(path, ["a", str(k)]),
    "stats.csv": lambda path, k: cli.write_summary(
        path, cli.STATS_HEADER, [[k, 10, 0.5, 0.25, None, 1.5, True]]),
    "dataset.csv": lambda path, k: logio.write_dataset_csv(path, ToyDataset(
        ids=np.array(["a", "b"], dtype=object), features=np.full((2, 2), float(k)),
        observed_labels=np.array([0, 1]), true_labels=np.array([0, 0]), n_classes=2,
        split=np.array(["train", "test"]))),
    "state.json": lambda path, k: cli.write_json(path, {"completed_rounds": k}),
    "log.jsonl": lambda path, k: logio.write_prediction_log(path, RoundLog(
        ids=["a", "b"], bits=np.full((2, 3), k % 2, dtype=np.int8), losses=None,
        labels=np.array([0, 1]), true_labels=None)),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failure_before_rename_keeps_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / name
    WRITERS[name](path, 1)
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(LogFormatError, match=f"{name}: cannot write the file: no space"):
        WRITERS[name](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # the temp file is removed
    WRITERS[name](path, 2)
    assert path.read_bytes() != before
