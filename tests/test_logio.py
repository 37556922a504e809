import json
import re
import shlex
import sys
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfselect import logio
from mfselect.errors import LogFormatError
from mfselect.logio import (
    ExternalTrainer,
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
if mode == "fail_bytes":
    sys.stderr.buffer.write(b"\\xff boom\\n")
    sys.exit(3)
if mode == "junk_stdout":
    sys.stdout.buffer.write(b"\\xff\\xfe junk\\n")
with open(out_file, "w") as fh:
    for k, i in enumerate(ids):
        if mode == "drop_first" and k == 0:
            continue
        n = epochs if mode != "ragged" or k % 2 == 0 else epochs + 1
        if mode == "fixed4":
            n = 4
        rec = {"id": i, "label": 0, "true_label": 0,
               "seq": [0] + [1] * (n - 1), "losses": None}
        if mode == "label99":
            rec.update(label=99, true_label=None)
        fh.write(json.dumps(rec) + "\\n")
    if mode == "extra":
        fh.write(json.dumps({"id": "ghost", "label": 0, "true_label": 0,
                             "seq": [0] * epochs}) + "\\n")
    if mode == "extra12":
        for k in range(12):
            fh.write(json.dumps({"id": f"ghost{k:02d}", "label": 0, "true_label": 0,
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
    with pytest.raises(LogFormatError, match="entries"):
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
    ids = ['a"b', "c\\d", "[x]", " y ", "e\tf", "\u00e9", "]", '", "label": 1']
    big = 10**18 - 1  # the widest label the bulk reader takes
    odd = RoundLog(ids=ids, bits=np.eye(8, 3, dtype=np.int8), losses=None,
                   labels=np.array([big, -big, 0, -1, 7, 0, 1, 2]),
                   true_labels=np.array([-big, big, 0, 0, 0, 0, 0, 0]))
    bulk = [sample_log(losses=False), sample_log(losses=False, truth=False),
            simulate_dynamics(30, 20, epochs=7, seed=1), odd,
            RoundLog(ids, odd.bits, None, odd.labels, None)]  # true_label null on every row
    for log in bulk:
        write_prediction_log(path, log)
        assert_same_log(logio._read_canonical_log(path), log)
    # a log with losses is canonical too: its losses go to the sidecar
    write_prediction_log(path, sample_log())
    assert_same_log(logio._read_canonical_log(path), replace(sample_log(), losses=None))

    def line_reader(path, inline=True):
        raise AssertionError("the line reader was called on a canonical log")

    monkeypatch.setattr(logio, "_read_log_lines", line_reader)
    for log in bulk + [sample_log()]:
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
    "unescaped id", "field text in id", "brackets in id", "odd label",
    "misspelt null", "seq cell", "crlf", "renamed key", "raw quote in id",
    "heads overlap", "no closing brace",
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
    elif kind == "field text in id":  # escaped in the line, so still an id
        rec["id"] += data.draw(st.sampled_from(['", "label": ', '], "true_label": ']))
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind == "brackets in id":
        rec["id"] += data.draw(st.sampled_from(["[", "]", " ", "[0, 1]", " ], "]))
        lines[k] = json.dumps(rec, sort_keys=True) + "\n"
    elif kind in ("odd label", "misspelt null"):
        key = "true_label" if kind == "misspelt null" else data.draw(
            st.sampled_from(["label", "true_label"]))
        token = data.draw(st.sampled_from(["nul", "nulll", "nnull", "-null"])
                          if kind == "misspelt null"
                          else st.sampled_from(["01", "+1", "1_0", "-01"])
                          | st.integers(10**18, 2**63 - 1).map(str)
                          | st.integers(-(2**63), -(10**18)).map(str))
        rec[key] = "@"  # no id holds "@"
        lines[k] = json.dumps(rec, sort_keys=True).replace('"@"', token) + "\n"
    elif kind == "seq cell":  # one byte of the seq text, often one bit away
        at = lines[k].index(seq_text) + data.draw(st.integers(1, len(seq_text) - 2))
        char = data.draw(st.sampled_from([chr(ord(lines[k][at]) ^ 1), "2", "x", " "]))
        lines[k] = lines[k][:at] + char + lines[k][at + 1:]
    elif kind == "crlf":
        lines[k] = lines[k].replace("\n", "\r\n")
    elif kind == "renamed key":  # the line reader reads a missing label as 0
        key = data.draw(st.sampled_from(["id", "label", "losses", "seq", "true_label"]))
        lines[k] = lines[k].replace(f'"{key}"', f'"{key.upper()}"', 1)
    elif kind == "raw quote in id":  # an extra key is valid JSON
        text = data.draw(st.sampled_from(['"', 'x", "y": "']))
        lines[k] = lines[k].replace('{"id": "', '{"id": "' + text, 1)
    elif kind == "heads overlap":  # {"id": ", "label": ...
        lines[k] = '{"id": ' + lines[k][lines[k].index('", "label": '):]
    elif kind == "no closing brace":
        lines[k] = lines[k][:-2] + data.draw(st.sampled_from(["]", " ", "0", "x"])) + "\n"


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
    if log.losses is None:
        write_prediction_log(path, log)
    else:  # losses in the records, as an external trainer may write them
        path.write_text("".join(
            json.dumps({"id": i, "label": label, "losses": losses, "seq": seq,
                        "true_label": truth}, sort_keys=True) + "\n"
            for i, label, losses, seq, truth in zip(
                log.ids, log.labels.tolist(), log.losses.tolist(), log.bits.tolist(),
                [None] * len(log) if log.true_labels is None else log.true_labels.tolist())))
    written = path.read_text()
    for kind in (None,) + PERTURBATIONS:
        if kind is not None:
            lines = [line + "\n" for line in written.split("\n")[:-1]]
            perturb(lines, kind, data.draw(st.integers(0, len(lines) - 1)), data)
            path.write_text("".join(lines), encoding="utf-8", errors="surrogatepass")
        want = read_or_raise(logio._read_log_lines, path)
        with mock.patch.object(logio, "_CHUNK_BYTES", chunk):
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


def test_dataset_csv_label_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,feature_0,observed_label,true_label,split\n"
                    "a,0.5,0,0,train\nb,1.5,1,99999999999999999999,train\n")
    with pytest.raises(LogFormatError, match=r"too large.*\(line 3\)"):
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


def test_write_makes_the_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "ids.txt"
    write_ids(path, ["x"])
    assert read_ids(path) == ["x"]


def test_write_onto_a_directory_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "ids.txt"
    path.mkdir()
    message = f"^{re.escape(str(path))}: cannot write the file: .*Is a directory"
    with pytest.raises(LogFormatError, match=message):
        write_ids(path, ["x"])
    assert path.is_dir() and list(tmp_path.iterdir()) == [path]  # no temp file left


def test_write_under_a_regular_file_is_a_data_error_naming_it(tmp_path):
    parent = tmp_path / "afile"
    parent.write_text("")
    message = f"^{re.escape(str(parent / 'ids.txt'))}: cannot write the file"
    with pytest.raises(LogFormatError, match=message):
        write_ids(parent / "ids.txt", ["x"])
    assert parent.read_text() == ""


# ---------------------------------------------------------------------------
# external trainer bridge


def stub_round(tmp_path, command, ids, epochs):
    """One ``ExternalTrainer`` round of ``command`` on a dataset of ``ids``,
    labelled 1, 2, ... and truly 0, all rows trained on."""
    n = len(ids)
    dataset = SimpleNamespace(ids=np.array(ids, dtype=object),
                              observed_labels=np.arange(1, n + 1), true_labels=np.zeros(n, int))
    bridge = ExternalTrainer(command, tmp_path / "d.csv", tmp_path / "work", seed=0)
    return bridge.fit_round(dataset, np.arange(n), epochs)


def test_external_round_happy_path(tmp_path, stub):
    log = stub_round(tmp_path, stub("ok"), ["a", "b", "c"], 4)
    assert set(log.ids) == {"a", "b", "c"}
    assert log.bits.shape == (3, 4)


def test_external_round_missing_id(tmp_path, stub):
    with pytest.raises(LogFormatError, match="missing ids: 'a'"):
        stub_round(tmp_path, stub("drop_first"), ["a", "b"], 4)


def test_external_round_extra_id(tmp_path, stub):
    with pytest.raises(LogFormatError, match="unexpected ids: 'ghost'$"):
        stub_round(tmp_path, stub("extra"), ["a"], 4)


def test_external_round_many_extra_ids(tmp_path, stub):
    # the format of rows_of's unknown ids: sorted, repr, ten, then a count
    shown = ", ".join(f"'ghost{k:02d}'" for k in range(10))
    with pytest.raises(LogFormatError) as info:
        stub_round(tmp_path, stub("extra12"), ["a"], 4)
    assert str(info.value).endswith(f"log contains unexpected ids: {shown} (+2 more)")


def test_external_round_ragged_sequences(tmp_path, stub):
    with pytest.raises(LogFormatError, match="entries"):
        stub_round(tmp_path, stub("ragged"), ["a", "b"], 4)


def test_external_round_wrong_epoch_count(tmp_path, stub):
    with pytest.raises(LogFormatError, match="expected 9"):
        stub_round(tmp_path, stub("fixed4"), ["a", "b"], 9)


def test_external_round_nonzero_exit(tmp_path, stub):
    with pytest.raises(LogFormatError, match="status 3: boom"):
        stub_round(tmp_path, stub("fail"), ["a"], 4)


def test_external_round_nonzero_exit_with_stderr_that_is_not_utf8(tmp_path, stub):
    with pytest.raises(LogFormatError, match="status 3: \ufffd boom$"):
        stub_round(tmp_path, stub("fail_bytes"), ["a"], 4)


def test_external_round_ignores_stdout_that_is_not_utf8(tmp_path, stub):
    log = stub_round(tmp_path, stub("junk_stdout"), ["a", "b"], 4)
    assert log.ids == ["a", "b"] and log.bits.shape == (2, 4)


def test_external_round_with_a_directory_at_its_log_path_is_a_data_error(tmp_path, stub):
    blocked = tmp_path / "work" / "log_round1.jsonl"
    blocked.mkdir(parents=True)
    message = f"^{re.escape(str(blocked))}: cannot remove the earlier log: Is a directory"
    with pytest.raises(LogFormatError, match=message):
        stub_round(tmp_path, stub("ok"), ["a"], 4)
    assert blocked.is_dir()


def test_external_command_that_cannot_start_is_a_data_error(tmp_path):
    with pytest.raises(LogFormatError,
                       match="cannot start the trainer command no-such-trainer-xyz .*log_round1"):
        stub_round(tmp_path, "no-such-trainer-xyz {out}", ["a"], 4)


@pytest.mark.parametrize("template, match", [
    ("  ", "names no command"),
    ("train {nope} {out}", r"unknown placeholder \{nope\}"),
    ("train '{out}", "No closing quotation"),
    ("train {} {out}", "Replacement index 0"),
    ("train {out", "expected '}'"),
], ids=["blank", "unknown placeholder", "unbalanced quote", "positional", "open brace"])
def test_bad_command_template_is_refused_before_any_round(tmp_path, template, match):
    with pytest.raises(ValueError, match=match):
        ExternalTrainer(template, tmp_path / "d.csv", tmp_path / "work")
    assert not (tmp_path / "work").exists()


def test_command_template_is_split_before_its_placeholders_are_filled(tmp_path):
    # each argument arrives whole: a filled-in path with a space, and a quoted one
    script = tmp_path / "my stub.py"
    script.write_text("import json, sys\n"
                      "json.dump(sys.argv[1:], open(sys.argv[-1] + '.argv', 'w'))\n"
                      "sys.exit(1)\n")
    work = tmp_path / "with space"
    template = f"{sys.executable} {shlex.quote(str(script))} \"a b\" {{ids}} {{out}}"
    bridge = ExternalTrainer(template, tmp_path / "d.csv", work)
    dataset = SimpleNamespace(ids=np.array(["a"], dtype=object))
    with pytest.raises(LogFormatError, match="status 1"):
        bridge.fit_round(dataset, np.arange(1), 4)
    argv = json.loads((work / "log_round1.jsonl.argv").read_text())
    assert argv == ["a b", str(work / "ids_round1.txt"), str(work / "log_round1.jsonl")]


def test_external_round_returns_the_datasets_labels(tmp_path, stub):
    # the command writes label 99 and no true label: the log carries the dataset's
    log = stub_round(tmp_path, stub("label99"), ["a", "b", "c"], 4)
    assert log.labels.tolist() == [1, 2, 3]
    assert log.true_labels.tolist() == [0, 0, 0]


# a command that copies the log given first, and its losses sidecar, to {out}
COPIER = """\
import shutil, sys
from mfselect.logio import losses_path
shutil.copy(sys.argv[1], sys.argv[2])
shutil.copy(losses_path(sys.argv[1]), losses_path(sys.argv[2]))
"""


def test_external_trainer_echoes_precomputed_log(tmp_path):
    """A stub that copies a precomputed in-process log must reproduce the
    in-process round exactly."""
    ds = make_blobs(3, 30, 2, 2.0, seed=6)
    trainer = SGDTrainer(2, 3, TrainerConfig(seed=11))
    inproc = trainer.fit_round(ds, ds.train_positions, epochs=5)

    precomputed = tmp_path / "precomputed.jsonl"
    write_prediction_log(precomputed, inproc)

    copier = tmp_path / "copy_log.py"
    copier.write_text(COPIER)
    bridge = ExternalTrainer(
        f"{sys.executable} {copier} {precomputed} {{out}}",
        tmp_path / "data.csv",
        tmp_path / "work",
        seed=0,
    )
    external = bridge.fit_round(ds, ds.train_positions, epochs=5)
    assert external.ids == inproc.ids
    assert np.array_equal(external.bits, inproc.bits)
    assert external.losses.tobytes() == inproc.losses.tobytes()


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
    copier.write_text(COPIER)
    bridge = ExternalTrainer(
        f"{sys.executable} {copier} {shuffled} {{out}}",
        tmp_path / "data.csv", tmp_path / "work", seed=0,
    )
    # a dataset whose rows 1..4 hold the ids; the log's labels are its own
    dataset = SimpleNamespace(ids=np.array(["x", *ids], dtype=object),
                              observed_labels=np.array([7, *range(n)]),
                              true_labels=np.array([7, *reversed(range(n))]))
    log = bridge.fit_round(dataset, np.arange(1, n + 1), epochs=2)
    assert log.ids == ids
    assert log.bits.tolist() == [[k % 2, 1] for k in range(n)]
    assert log.losses.tolist() == [[1.0, float(k)] for k in range(n)]
    assert log.labels.tolist() == list(range(n))
    assert log.true_labels.tolist() == list(reversed(range(n)))
