import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfselect import logio
from mfselect.errors import (
    LogFormatError,
    MissingIdsError,
    RaggedSequenceError,
    TrainerCommandError,
)
from mfselect.logio import (
    ExternalTrainer,
    external_round,
    read_dataset_csv,
    read_ids,
    read_prediction_log,
    write_dataset_csv,
    write_ids,
    write_prediction_log,
)
from mfselect.trainer import (
    RoundLog,
    SGDTrainer,
    TrainerConfig,
    make_blobs,
    simulate_dynamics,
)

STUB_TRAINER = """\
import json, sys
mode = sys.argv[1]
ids_file, out_file, epochs, seed = sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]
ids = [l.strip() for l in open(ids_file) if l.strip()]
if mode == "fail":
    sys.stderr.write("boom\\n")
    sys.exit(3)
with open(out_file, "w") as fh:
    for k, i in enumerate(ids):
        if mode == "drop_first" and k == 0:
            continue
        n = epochs if mode != "ragged" or k % 2 == 0 else epochs + 1
        if mode == "fixed4":
            n = 4
        rec = {"id": i, "label": 0, "true_label": 0,
               "seq": [0] + [1] * (n - 1), "losses": None}
        fh.write(json.dumps(rec) + "\\n")
    if mode == "extra":
        fh.write(json.dumps({"id": "ghost", "label": 0, "true_label": 0,
                             "seq": [0] * epochs}) + "\\n")
"""


@pytest.fixture
def stub(tmp_path):
    script = tmp_path / "stub_trainer.py"
    script.write_text(STUB_TRAINER)

    def command(mode):
        return f"{sys.executable} {script} {mode} {{ids}} {{out}} {{epochs}} {{seed}}"

    return command


def sample_log(losses=True, truth=True):
    return RoundLog(
        ids=["a", "b", "c"],
        bits=np.array([[0, 1, 1], [0, 0, 1], [1, 1, 1]], dtype=np.int8),
        losses=np.array([[0.9, 0.2, 0.1], [1.5, 1.1, 0.7], [0.4, 0.3, 0.2]])
        if losses else None,
        labels=np.array([1, 2, 0]),
        true_labels=np.array([1, 0, 0]) if truth else None,
    )


def assert_same_log(got, want):
    assert got.ids == want.ids
    assert got.bits.dtype == np.int8
    for name in ("bits", "losses", "labels", "true_labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# prediction log round trip


def test_prediction_log_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    for log in (sample_log(), sample_log(losses=False, truth=False)):
        write_prediction_log(path, log)
        assert_same_log(read_prediction_log(path), log)


def test_prediction_log_bad_json_names_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"id": "a", "seq": [0, 1]}\nnot json\n')
    with pytest.raises(LogFormatError, match="line 2"):
        read_prediction_log(path)


def test_prediction_log_validates_seq_and_losses(tmp_path):
    path = tmp_path / "log.jsonl"
    for second, match in [
        ('{"id": "b", "seq": [0, 2]}', "0/1"),
        ('{"id": "b", "seq": [0, 0.5]}', "0/1"),
        ('{"id": "b", "seq": [0, "1"]}', "0/1"),
        ('{"id": "b", "seq": [0, 1], "losses": [0.5]}', "losses"),
        ('{"id": "a", "seq": [1, 1]}', "duplicate"),
        ('{"id": "b", "seq": [0, 1, 1]}', "has 3 entries"),  # ragged
        ('{"id": "b", "seq": [0, 1], "label": "cat"}', "non-numeric"),
        ('{"id": "b", "seq": [0, 1], "true_label": [1]}', "non-numeric"),
        ('{"id": "b", "seq": [0, 1], "losses": [0.5, "x"]}', "non-numeric"),
    ]:
        path.write_text('{"id": "a", "seq": [0, 1]}\n' + second + "\n")
        with pytest.raises(LogFormatError, match=match) as info:
            read_prediction_log(path)
        assert info.value.line == 2, second
    path.write_text('{"id": "a", "seq": [0]}\n{"id": "b", "seq": [0, 1]}\n')
    with pytest.raises(RaggedSequenceError):
        read_prediction_log(path)


def test_prediction_log_losses_and_truth_only_when_complete(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"id": "a", "seq": [0, 1], "losses": [0.9, 0.2], "label": 1, "true_label": 1}\n'
        '{"id": "b", "seq": [0, 0], "losses": [1.5, 1.1], "label": 2, "true_label": 0}\n'
        '{"id": "c", "seq": [1, 1], "losses": null, "label": 0, "true_label": null}\n'
    )
    log = read_prediction_log(path)
    assert log.losses is None  # record "c" has no losses
    assert log.true_labels is None and log.clean_mask() is None
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
    log = read_prediction_log(path)
    assert log.losses.shape == (2, 2)
    assert log.clean_mask().tolist() == [True, False]


def test_simulated_log_encodes_mask(tmp_path):
    log = simulate_dynamics(2, 1, epochs=3, seed=0)
    mask = {"clean_00000": True, "clean_00001": True, "noisy_00000": False}
    assert log.ids == list(mask)  # clean first, each block in index order
    assert log.labels.tolist() == [0, 0, 1] and log.true_labels.tolist() == [0, 0, 0]
    assert log.clean_mask().tolist() == list(mask.values())
    path = tmp_path / "sim.jsonl"
    write_prediction_log(path, log)
    assert read_prediction_log(path).clean_mask().tolist() == list(mask.values())


# ---------------------------------------------------------------------------
# bulk reader pinned to the line reader


def test_canonical_log_is_read_in_bulk(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    bulk = [sample_log(losses=False), sample_log(losses=False, truth=False),
            simulate_dynamics(30, 20, epochs=7, seed=1)]
    for log in bulk:
        write_prediction_log(path, log)
        assert_same_log(logio._read_canonical_log(path), log)
    write_prediction_log(path, sample_log())
    assert logio._read_canonical_log(path) is None  # logs with losses: line reader

    def line_reader(path):
        raise AssertionError("the line reader was called on a canonical log")

    monkeypatch.setattr(logio, "_read_log_lines", line_reader)
    for log in bulk:
        write_prediction_log(path, log)
        assert_same_log(read_prediction_log(path), log)


ID_CHARS = st.sampled_from(
    ["a", "Z", "0", " ", '"', "\\", "/", "\x7f", "é", "猫", "\U0001f600", "\ud800",
     "\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1e", "\n", "\r", "\t",
     "\x00", "\x1f"]
)
LABELS = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
PERTURBATIONS = (
    "whitespace", "padded line", "reordered keys", "float bit", "bool bit",
    "compact seq", "scrambled seq", "empty seq", "blank line", "no final newline",
    "duplicate id", "ragged seq", "non-numeric label", "null true_label",
    "control character", "bad escape", "prefixed line", "label over int64",
    "unescaped id",
)


@st.composite
def round_logs(draw):
    ids = draw(st.lists(st.text(ID_CHARS, max_size=5), min_size=1, max_size=8,
                        unique=True))
    n, epochs = len(ids), draw(st.integers(1, 6))
    rows = st.lists(st.integers(0, 1), min_size=epochs, max_size=epochs)
    # JSON keeps one NaN, so other NaN payloads could not round-trip
    floats = st.one_of(st.floats(allow_nan=False), st.just(float("nan")))
    loss_rows = st.lists(floats, min_size=epochs, max_size=epochs)
    return RoundLog(
        ids=ids,
        bits=np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int8),
        losses=np.array(draw(st.lists(loss_rows, min_size=n, max_size=n)))
        if draw(st.booleans()) else None,
        labels=np.array(draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=np.int64),
        true_labels=np.array(draw(st.lists(LABELS, min_size=n, max_size=n)),
                             dtype=np.int64)
        if draw(st.booleans()) else None,
    )


def perturb(lines, kind, k, data):
    """Change line ``k`` of a written log, kept as lines with their newline."""
    rec = json.loads(lines[k])
    seq_text = json.dumps(rec["seq"])
    if kind == "whitespace":
        lines[k] = lines[k].replace(", ", ",  ", 1)
    elif kind == "padded line":
        lines[k] = " " + lines[k].replace("\n", " \n")
    elif kind == "reordered keys":
        lines[k] = json.dumps(dict(reversed(rec.items()))) + "\n"
    elif kind in ("float bit", "bool bit"):
        rec["seq"][0] = (float if kind == "float bit" else bool)(rec["seq"][0])
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "compact seq":
        lines[k] = lines[k].replace(seq_text, seq_text.replace(" ", ""))
    elif kind == "scrambled seq":
        junk = data.draw(st.text("01, ", min_size=len(seq_text) - 2,
                                 max_size=len(seq_text) - 2))
        lines[k] = lines[k].replace(seq_text, f"[{junk}]")
    elif kind == "empty seq":
        lines[k] = lines[k].replace(seq_text, "[]")
    elif kind == "blank line":
        lines.insert(k, data.draw(st.sampled_from(["\n", "  \n"])))
    elif kind == "no final newline":
        lines[-1] = lines[-1].rstrip("\n")
    elif kind == "duplicate id" and len(lines) == 1:
        lines.append(lines[0])
    elif kind == "duplicate id":
        rec["id"] = json.loads(lines[k - 1])["id"]
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "ragged seq":
        rec["seq"].append(0)
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "non-numeric label":
        rec["label"] = data.draw(st.sampled_from(["x", [1], {"a": 1}]))
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "null true_label":
        rec["true_label"] = None
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "control character":
        char = data.draw(st.characters(max_codepoint=0x1f))
        lines[k] = lines[k].replace('"id": "', '"id": "' + char, 1)
    elif kind == "bad escape":
        lines[k] = lines[k].replace('"id": "', '"id": "\\q', 1)
    elif kind == "unescaped id":  # raw non-ASCII, U+2028 and \x85 included
        lines[k] = json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
    elif kind == "prefixed line":
        lines[k] = data.draw(st.sampled_from(["x", "[", "{}"])) + lines[k]
    elif kind == "label over int64":
        key = data.draw(st.sampled_from(["label", "true_label"]))
        rec[key] = data.draw(st.integers(2**63, 10**20) | st.integers(-(10**20), -(2**63) - 1))
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"


def read_or_raise(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the readers must fail alike
        return exc


def assert_identical(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert getattr(got, "line", None) == getattr(want, "line", None)
        return
    assert not isinstance(got, Exception), got
    assert got.ids == want.ids
    for name in ("bits", "losses", "labels", "true_labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            # an object array (true labels beyond int64) holds references
            same = a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
            assert same, name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=round_logs(), chunk=st.sampled_from([1, 64, 1 << 20]), data=st.data())
def test_bulk_reader_matches_line_reader(tmp_path, log, chunk, data):
    path = tmp_path / "log.jsonl"
    write_prediction_log(path, log)
    written = path.read_text()
    for kind in (None,) + PERTURBATIONS:
        if kind is not None:
            lines = [line + "\n" for line in written.split("\n")[:-1]]
            perturb(lines, kind, data.draw(st.integers(0, len(lines) - 1)), data)
            path.write_text("".join(lines), encoding="utf-8", errors="surrogatepass")
        want = read_or_raise(logio._read_log_lines, path)
        with mock.patch.object(logio, "_CHUNK_CHARS", chunk):
            assert_identical(read_or_raise(read_prediction_log, path), want)
        if kind is None and any("\n" in i for i in log.ids):
            # no id file can hold such an id, so both readers reject the log
            assert isinstance(want, LogFormatError) and "line break" in str(want)
        elif kind is None:
            assert_identical(want, log)


# ---------------------------------------------------------------------------
# dataset csv


def test_dataset_csv_round_trip(tmp_path):
    ds = make_blobs(3, 20, 4, 1.5, seed=5, test_per_class=5)
    noisy_obs = ds.observed_labels.copy()
    noisy_obs[0] = (noisy_obs[0] + 1) % 3
    ds.observed_labels = noisy_obs
    path = tmp_path / "data.csv"
    write_dataset_csv(path, ds)
    back = read_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.observed_labels, ds.observed_labels)
    assert np.array_equal(back.true_labels, ds.true_labels)
    assert list(back.ids) == list(ds.ids)
    assert np.array_equal(back.split, ds.split)
    assert back.n_classes == 3


def test_dataset_csv_ids_are_strings_and_unique(tmp_path):
    path = tmp_path / "data.csv"
    header = "id,feature_0,observed_label,true_label,split\n"
    path.write_text(header + "007,0.5,0,0,train\n7,1.5,1,1,train\n")
    assert list(read_dataset_csv(path).ids) == ["007", "7"]
    path.write_text(header + "7,0.5,0,0,train\nx,1.0,0,0,test\n7,1.5,1,1,train\n")
    with pytest.raises(LogFormatError, match=r"duplicate id '7' \(line 4\)"):
        read_dataset_csv(path)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,x,y\n1,2,3\n")
    with pytest.raises(LogFormatError, match="header"):
        read_dataset_csv(path)


def test_ids_file_round_trip(tmp_path):
    path = tmp_path / "ids.txt"
    write_ids(path, [3, 1, "x7"])
    assert read_ids(path) == ["3", "1", "x7"]


def test_ids_file_keeps_every_id_exactly(tmp_path):
    # edge whitespace and the line boundaries str.splitlines knows are id text
    ids = [" 0", "1 ", "\t", "a\rb", "\u2028", "\x85c", "\x0b", ""]
    path = tmp_path / "ids.txt"
    write_ids(path, ids)
    assert read_ids(path) == ids
    write_ids(path, [])
    assert read_ids(path) == []


# ---------------------------------------------------------------------------
# external trainer bridge


def test_external_round_happy_path(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a", "b", "c"])
    log = external_round(
        stub("ok"), tmp_path / "data.csv", ids_file, tmp_path / "out.jsonl", 4, 0
    )
    assert set(log.ids) == {"a", "b", "c"}
    assert log.bits.shape == (3, 4)


def test_external_round_missing_id(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a", "b"])
    with pytest.raises(MissingIdsError, match="a"):
        external_round(
            stub("drop_first"), tmp_path / "d.csv", ids_file, tmp_path / "o.jsonl", 4, 0
        )


def test_external_round_extra_id(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a"])
    with pytest.raises(LogFormatError, match="ghost"):
        external_round(
            stub("extra"), tmp_path / "d.csv", ids_file, tmp_path / "o.jsonl", 4, 0
        )


def test_external_round_ragged_sequences(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a", "b"])
    with pytest.raises(RaggedSequenceError):
        external_round(
            stub("ragged"), tmp_path / "d.csv", ids_file, tmp_path / "o.jsonl", 4, 0
        )


def test_external_round_wrong_epoch_count(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a", "b"])
    with pytest.raises(RaggedSequenceError, match="expected 9"):
        external_round(
            stub("fixed4"), tmp_path / "d.csv", ids_file, tmp_path / "o.jsonl", 9, 0
        )


def test_external_round_nonzero_exit(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a"])
    with pytest.raises(TrainerCommandError, match="status 3"):
        external_round(
            stub("fail"), tmp_path / "d.csv", ids_file, tmp_path / "o.jsonl", 4, 0
        )


def test_external_trainer_echoes_precomputed_log(tmp_path):
    """A stub that copies a precomputed in-process log must reproduce the
    in-process round exactly."""
    ds = make_blobs(3, 30, 2, 2.0, seed=6)
    trainer = SGDTrainer(2, 3, TrainerConfig(seed=11))
    inproc = trainer.fit_round(ds, ds.train_ids, epochs=5)

    precomputed = tmp_path / "precomputed.jsonl"
    write_prediction_log(precomputed, inproc)

    copier = tmp_path / "copy_log.py"
    copier.write_text("import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])\n")
    bridge = ExternalTrainer(
        f"{sys.executable} {copier} {precomputed} {{out}}",
        tmp_path / "data.csv",
        tmp_path / "work",
        seed=0,
    )
    external = bridge.fit_round(ds, ds.train_ids, epochs=5)
    assert external.ids == inproc.ids
    assert np.array_equal(external.bits, inproc.bits)
    assert np.allclose(external.losses, inproc.losses)


def test_external_trainer_returns_caller_order_for_shuffled_log(tmp_path):
    ids = ["b", "007", "7", "a"]
    shuffled = tmp_path / "shuffled.jsonl"
    n = len(ids)
    write_prediction_log(
        shuffled,
        RoundLog(
            ids=ids[::-1],
            bits=np.array([[k % 2, 1] for k in range(n)], dtype=np.int8)[::-1],
            losses=np.array([[1.0, float(k)] for k in range(n)])[::-1],
            labels=np.arange(n)[::-1],
            true_labels=None,
        ),
    )
    copier = tmp_path / "copy_log.py"
    copier.write_text("import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])\n")
    bridge = ExternalTrainer(
        f"{sys.executable} {copier} {shuffled} {{out}}",
        tmp_path / "data.csv", tmp_path / "work", seed=0,
    )
    log = bridge.fit_round(None, ids, epochs=2)
    assert log.ids == ids
    assert log.bits.tolist() == [[k % 2, 1] for k in range(n)]
    assert log.losses.tolist() == [[1.0, float(k)] for k in range(n)]
    assert log.labels.tolist() == list(range(n)) and log.true_labels is None
