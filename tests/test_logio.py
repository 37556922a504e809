import sys

import numpy as np
import pytest

from mfselect.errors import (
    LogFormatError,
    MissingIdsError,
    RaggedSequenceError,
    TrainerCommandError,
)
from mfselect.logio import (
    ExternalTrainer,
    LogRecord,
    clean_mask_from_records,
    external_round,
    read_dataset_csv,
    read_ids,
    read_prediction_log,
    records_to_round_log,
    simulated_records,
    write_dataset_csv,
    write_ids,
    write_prediction_log,
)
from mfselect.trainer import SGDTrainer, TrainerConfig, make_blobs

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


def sample_records():
    return [
        LogRecord(id="a", label=1, true_label=1, seq=[0, 1, 1], losses=[0.9, 0.2, 0.1]),
        LogRecord(id="b", label=2, true_label=0, seq=[0, 0, 1], losses=[1.5, 1.1, 0.7]),
        LogRecord(id="c", label=0, true_label=None, seq=[1, 1, 1], losses=None),
    ]


# ---------------------------------------------------------------------------
# prediction log round trip


def test_prediction_log_round_trip(tmp_path):
    path = tmp_path / "log.jsonl"
    write_prediction_log(path, sample_records())
    back = read_prediction_log(path)
    assert back == sample_records()


def test_prediction_log_bad_json_names_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"id": "a", "seq": [0, 1]}\nnot json\n')
    with pytest.raises(LogFormatError, match="line 2"):
        read_prediction_log(path)


def test_prediction_log_validates_seq_and_losses(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"id": "a", "seq": [0, 2]}\n')
    with pytest.raises(LogFormatError, match="0/1"):
        read_prediction_log(path)
    path.write_text('{"id": "a", "seq": [0, 1], "losses": [0.5]}\n')
    with pytest.raises(LogFormatError, match="losses"):
        read_prediction_log(path)
    path.write_text(
        '{"id": "a", "seq": [0]}\n{"id": "a", "seq": [1]}\n'
    )
    with pytest.raises(LogFormatError, match="duplicate"):
        read_prediction_log(path)


def test_records_to_round_log_losses_only_when_complete():
    log = records_to_round_log(sample_records())
    assert log.losses is None  # record "c" has no losses
    full = [r for r in sample_records() if r.losses is not None]
    log = records_to_round_log(full)
    assert set(log.losses) == {"a", "b"}


def test_simulated_records_encode_mask():
    seqs = {"noisy_0": np.array([0, 0]), "clean_0": np.array([0, 1])}
    mask = {"clean_0": True, "noisy_0": False}
    records = simulated_records(seqs, mask)
    assert [r.id for r in records] == ["noisy_0", "clean_0"]  # input order
    assert clean_mask_from_records(records) == mask


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


# ---------------------------------------------------------------------------
# external trainer bridge


def test_external_round_happy_path(tmp_path, stub):
    ids_file = tmp_path / "ids.txt"
    write_ids(ids_file, ["a", "b", "c"])
    records = external_round(
        stub("ok"), tmp_path / "data.csv", ids_file, tmp_path / "out.jsonl", 4, 0
    )
    assert {r.id for r in records} == {"a", "b", "c"}
    assert all(len(r.seq) == 4 for r in records)


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
    records = [
        LogRecord(
            id=str(i),
            label=int(ds.observed_labels[row]),
            true_label=int(ds.true_labels[row]),
            seq=inproc.sequences[i].tolist(),
            losses=inproc.losses[i].tolist(),
        )
        for row, i in enumerate(inproc.ids)
    ]
    write_prediction_log(precomputed, records)

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
    for i in inproc.ids:
        assert np.array_equal(external.sequences[i], inproc.sequences[i])
        assert np.allclose(external.losses[i], inproc.losses[i])


def test_external_trainer_returns_caller_order_for_shuffled_log(tmp_path):
    ids = ["b", "007", "7", "a"]
    shuffled = tmp_path / "shuffled.jsonl"
    write_prediction_log(
        shuffled,
        [LogRecord(id=i, label=0, true_label=0, seq=[k % 2, 1], losses=[1.0, float(k)])
         for k, i in enumerate(ids)][::-1],
    )
    copier = tmp_path / "copy_log.py"
    copier.write_text("import shutil, sys; shutil.copy(sys.argv[1], sys.argv[2])\n")
    bridge = ExternalTrainer(
        f"{sys.executable} {copier} {shuffled} {{out}}",
        tmp_path / "data.csv", tmp_path / "work", seed=0,
    )
    log = bridge.fit_round(None, ids, epochs=2)
    assert log.ids == ids
    assert list(log.sequences) == ids and list(log.losses) == ids
    for k, i in enumerate(ids):
        assert log.sequences[i].tolist() == [k % 2, 1]
        assert log.losses[i].tolist() == [1.0, float(k)]
