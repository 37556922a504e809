import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfselect.selection as selection_mod
from mfselect import cli
from mfselect.errors import ConfigError, LogFormatError
from mfselect.logio import (
    read_dataset_csv,
    read_ids,
    read_prediction_log,
    read_table,
    write_dataset_csv,
    write_prediction_log,
)
from mfselect.mixture import FitConfig, MixtureFit, threshold
from mfselect.trainer import RoundLog, TrainerConfig, make_blobs

import mixture_reference

REPO = Path(__file__).resolve().parents[1]


def base_config(tmp_path, **round_overrides):
    round_section = {"epochs": 10, "rounds": 2}
    round_section.update(round_overrides)
    return {
        "output_dir": str(tmp_path / "out"),
        "dataset": {
            "blobs": {
                "n_classes": 4,
                "per_class": 80,
                "dim": 8,
                "spread": 2.0,
                "seed": 7,
                "test_per_class": 20,
            }
        },
        "noise": {"type": "symmetric", "ratio": 0.4, "seed": 11},
        "trainer": {
            "kind": "sgd",
            "learning_rate": 0.05,
            "arch": "mlp",
            "hidden": 16,
            "seed": 3,
        },
        "round": round_section,
        "simulate": {"n_clean": 200, "n_noisy": 200, "epochs": 30, "seed": 5},
    }


def write_config(tmp_path, config=None, name="config.yaml"):
    config = config or base_config(tmp_path)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return path


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ---------------------------------------------------------------------------
# config handling


def test_config_requires_single_dataset_source(tmp_path):
    config = base_config(tmp_path)
    config["dataset"]["csv"] = "also.csv"
    with pytest.raises(ConfigError, match="exactly one"):
        cli.ExperimentConfig.from_dict(config)


def test_config_requires_explicit_seeds(tmp_path):
    config = base_config(tmp_path)
    del config["trainer"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        cli.ExperimentConfig.from_dict(config)
    config = base_config(tmp_path)
    del config["noise"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        cli.ExperimentConfig.from_dict(config)


def test_config_rejects_unknown_keys(tmp_path):
    config = base_config(tmp_path)
    config["round"]["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        cli.ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.yaml")))
def test_shipped_config_loads(name):
    cfg = cli.load_config(REPO / "configs" / name)
    assert cfg.output_dir == Path("out") / Path(name).stem


def test_external_trainer_requires_command(tmp_path):
    config = base_config(tmp_path)
    config["trainer"] = {"kind": "external"}
    with pytest.raises(ConfigError, match="command"):
        cli.ExperimentConfig.from_dict(config)


def test_set_override_applies(tmp_path):
    path = write_config(tmp_path)
    cfg = cli.load_config(path, overrides=["round.epochs=3", "round.rounds=1"])
    assert cfg.round_config.epochs == 3
    assert cfg.round_config.rounds == 1


@pytest.mark.parametrize("section", ["noise", "trainer", "fit"])
def test_set_fills_a_null_section(tmp_path, section):
    config = base_config(tmp_path)
    config[section] = None
    path = write_config(tmp_path, config)
    cfg = cli.load_config(path, overrides=[f"{section}.seed=2"])
    assert cfg.raw[section] == {"seed": 2}


def test_trials_leave_a_null_section_null(tmp_path):
    config = base_config(tmp_path)
    config.update(noise=None, fit=None)
    raw = cli._trial_payload(cli.ExperimentConfig.from_dict(config), 1)
    assert raw["noise"] is None and raw["fit"] is None
    assert raw["trainer"]["seed"] == config["trainer"]["seed"] + 1


def test_missing_config_exit_code(tmp_path):
    assert cli.main(["run", "-c", str(tmp_path / "nope.yaml")]) == 2


def test_empty_config_with_override_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert cli.main(["run", "-c", str(path), "--set", "round.epochs=3"]) == 2
    assert "config root must be a mapping" in capsys.readouterr().err


def readme_config_block() -> str:
    text = (REPO / "README.md").read_text()
    return text.split("### Config reference", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_config_reference_lists_exactly_the_accepted_keys(tmp_path):
    block = readme_config_block()
    # the block as written is a config the CLI accepts
    config = yaml.safe_load(block)
    config["output_dir"] = str(tmp_path / "out")
    assert isinstance(cli.ExperimentConfig.from_dict(config).simulate, cli.SimulateConfig)
    # commented-out alternatives ("# key: value") are keys too
    listed = yaml.safe_load(re.sub(r"^(\s*)# (\w+:)", r"\1\2", block, flags=re.M))
    sections = {
        "round": set(cli.config_keys(selection_mod.RoundConfig)),
        "fit": set(cli.config_keys(FitConfig)),
        # kind picks sgd or external; command is the external trainer's
        "trainer": (set(cli.config_keys(TrainerConfig)) | {"kind"}
                    | set(cli.config_keys(cli.ExternalTrainerConfig))),
        "simulate": set(cli.config_keys(cli.SimulateConfig)),
        "dataset": set(cli.config_keys(cli.DatasetConfig)),
        "noise": set(cli.config_keys(cli.NoiseConfig)),
    }
    assert set(listed) == cli.ROOT_KEYS == {"output_dir"} | set(sections)
    for name, keys in sections.items():
        assert set(listed[name]) == keys, name
    assert set(listed["dataset"]["blobs"]) == set(cli.config_keys(cli.BlobsConfig))


@pytest.mark.parametrize(
    "command,override,key",
    [
        ("run", "trainer.learning_rate=1e8", "trainer.learning_rate"),  # YAML 1.1: a string
        ("run", "trainer.batch_size=0.5", "trainer.batch_size"),
        ("run", "round.epochs=ten", "round.epochs"),
        ("simulate", "simulate.p_forget_clean=high", "simulate.p_forget_clean"),
        ("simulate", "simulate.epochs=2.5", "simulate.epochs"),
        ("simulate", "simulate.ramp=[a, b]", "simulate.ramp[0]"),
        # out-of-range sizes and a short ramp reach simulate_dynamics
        ("simulate", "simulate.ramp=[1.0, 2.0]", "ramp schedule shorter than the epoch count"),
        ("simulate", "simulate.epochs=0", "epochs must be >= 1"),
        ("simulate", "simulate.n_clean=-1", "need a positive number of instances"),
        # removed knobs: now unknown keys
        ("run", "round.small_loss_best_validation=true", "small_loss_best_validation"),
        ("run", "fit.threshold_rule=scale", "threshold_rule"),
        ("run", "fit.newton_tol=1.0e-10", "newton_tol"),
        ("run", "trainer.schedule=cosine", "schedule"),
        ("run", "round.reset_model_per_round=1", "round.reset_model_per_round"),
        ("run", "round.reset_model_per_round=false", "round.reset_model_per_round"),
        ("run", "fit.tol=1e-3", "fit.tol"),
        ("run", "fit.max_iters=500", "fit.max_iters"),
        ("select --log unread.jsonl", "fit.shift_epsilon=1.0e-3", "fit.shift_epsilon"),
        ("run", "round.small_loss_epoch=last", "round.small_loss_epoch"),
        ("report --compare", "round.small_loss_epoch=-1", "round.small_loss_epoch"),
        # a negative seed is out of range for numpy's generators
        ("select --log unread.jsonl", "fit.seed=-1", "fit: seed must be nonnegative"),
        ("run", "trainer.seed=-1", "trainer: seed must be nonnegative"),
        ("run", "noise.ratio=abc", "noise.ratio"),
        ("inject-noise", "noise.ratio=1.5", "noise"),
        ("run", "dataset.blobs.per_class=0", "dataset.blobs"),
        ("inject-noise", "dataset.blobs.spread=wide", "dataset.blobs.spread"),
        # a misspelled section, and a section that is not a mapping
        ("select --log unread.jsonl", "rounds.strategy=ratio", "unknown config key(s): rounds"),
        ("run", "round=5", "round must be dict"),
        ("select --log unread.jsonl", "trainer=[1]", "trainer must be dict"),
        ("inject-noise", "dataset.blobs=5", "dataset.blobs must be dict"),
        # a falsy non-mapping is no empty section
        ("select --log unread.jsonl", "fit=false", "fit must be dict"),
        ("select --log unread.jsonl", "round=0", "round must be dict"),
        # a value out of range, named by its key where that is not its field's name
        ("select --log unread.jsonl", "round.lambda=-1", "round: lambda must be nonnegative"),
        ("select --log unread.jsonl", "round.metric=x", "round: unknown metric 'x'"),
        # a float that is no finite number: NaN slipped through every range check
        ("select --log unread.jsonl", "round.lambda=.nan",
         "round.lambda must be a finite number, got nan"),
        ("run", "trainer.learning_rate=.nan", "trainer.learning_rate must be a finite number"),
        ("run", "trainer.learning_rate=.inf", "trainer.learning_rate must be a finite number"),
        ("simulate", "simulate.ramp=[1.0, -.inf]", "simulate.ramp[1] must be a finite number"),
        # every section is parsed at load, also where the command never reads it
        ("select --log unread.jsonl", "trainer.batch_size=0.5", "trainer.batch_size"),
        ("select --log unread.jsonl", "simulate.epochs=abc", "simulate.epochs"),
        ("select --log unread.jsonl", "noise={type: none, ratio: abc}", "noise.ratio"),
        ("select --log unread.jsonl", "trainer={kind: external, command: x, seed: abc}",
         "trainer.seed"),
        # a hidden layer of no units: 0 trained the linear model, -5 reached a traceback
        ("inject-noise", "trainer.hidden=0", "trainer: hidden must be >= 1, got 0"),
        ("run", "trainer.hidden=-5", "trainer: hidden must be >= 1, got -5"),
        # values that reached a traceback (exit 1)
        ("inject-noise", "output_dir=5", "output_dir"),
        ("inject-noise", 'dataset={csv: ""}', "dataset.csv"),
        ("run", "trainer={kind: external, command: 123}", "trainer.command"),
        ("inject-noise", "noise={type: asymmetric, ratio: 0.5, seed: 1, class_map: {0: [1]}}",
         "noise.class_map"),
        # a class key that is no class: int() would have made it class 0
        ("inject-noise", "noise={type: asymmetric, ratio: 0.5, seed: 1, class_map: {0.5: 1}}",
         "noise.class_map key 0.5"),
    ],
)
def test_bad_config_value_exits_2_naming_key(tmp_path, capsys, command, override, key):
    path = write_config(tmp_path)
    assert cli.main(command.split() + ["-c", str(path), "--set", override]) == 2
    assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["simulate", "-c", str(path)]) == 0
    out = tmp_path / "out"
    log = read_prediction_log(out / "simulated_log.jsonl")
    assert len(log) == 400
    assert log.bits.shape == (400, 30)
    # the truth: the clean ids, then the noisy ones, each in log order
    clean = log.clean_mask().tolist()
    assert read_ids(out / "clean_ids.txt") == [i for i, c in zip(log.ids, clean) if c]
    assert read_ids(out / "noisy_ids.txt") == [i for i, c in zip(log.ids, clean) if not c]
    assert sum(clean) == 200
    assert not (out / "clean_mask.json").exists()
    assert (out / "config_used.json").exists()


def test_simulate_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path)
    cli.main(["simulate", "-c", str(path)])
    first = tree_digest(tmp_path / "out")
    cli.main(["simulate", "-c", str(path)])
    assert tree_digest(tmp_path / "out") == first


def test_simulate_single_epoch(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["simulate", "-c", str(path), "--set", "simulate.epochs=1"]) == 0
    log = read_prediction_log(tmp_path / "out" / "simulated_log.jsonl")
    assert log.bits.shape == (400, 1)


# ---------------------------------------------------------------------------
# inject-noise


def test_inject_noise_counts(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["inject-noise", "-c", str(path)]) == 0
    ds = read_dataset_csv(tmp_path / "out" / "dataset.csv")
    train = ds.train_positions
    flipped = (ds.observed_labels[train] != ds.true_labels[train]).sum()
    assert flipped == int(0.4 * len(train))


def test_inject_noise_ratio_zero_unchanged(tmp_path):
    config = base_config(tmp_path)
    config["noise"] = {"type": "none"}
    path = write_config(tmp_path, config)
    cli.main(["inject-noise", "-c", str(path)])
    ds = read_dataset_csv(tmp_path / "out" / "dataset.csv")
    assert np.array_equal(ds.observed_labels, ds.true_labels)


def test_inject_noise_json_class_map_keys_are_classes(tmp_path):
    # JSON writes every key as a string; {"0": 1} flips class 0 as {0: 1} does
    config = base_config(tmp_path)
    config["noise"] = {"type": "asymmetric", "ratio": 0.5, "seed": 3, "class_map": {0: 1}}
    yaml_path = write_config(tmp_path, config)
    config["output_dir"] = str(tmp_path / "json")
    config["noise"]["class_map"] = {"0": 1}
    json_path = tmp_path / "config.json"
    json_path.write_text(json.dumps(config))
    assert cli.load_config(json_path).noise.class_map == {0: 1}
    assert cli.main(["inject-noise", "-c", str(yaml_path)]) == 0
    assert cli.main(["inject-noise", "-c", str(json_path)]) == 0
    ds = read_dataset_csv(tmp_path / "out" / "dataset.csv")
    assert ds.noise_ratio() > 0
    assert ((tmp_path / "json" / "dataset.csv").read_bytes()
            == (tmp_path / "out" / "dataset.csv").read_bytes())


def test_inject_noise_circular_full_flip(tmp_path):
    config = base_config(tmp_path)
    config["noise"] = {"type": "asymmetric", "ratio": 1.0, "seed": 2,
                       "class_map": "circular"}
    path = write_config(tmp_path, config)
    cli.main(["inject-noise", "-c", str(path)])
    ds = read_dataset_csv(tmp_path / "out" / "dataset.csv")
    train = ds.train_positions
    assert np.array_equal(
        ds.observed_labels[train], (ds.true_labels[train] + 1) % 4
    )


# ---------------------------------------------------------------------------
# run


def test_run_outputs_and_stats(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    for name in (
        "dataset.csv",
        "stats.csv",
        "log_round1.jsonl",
        "log_round1.losses.npy",
        "log_round2.jsonl",
        "log_round2.losses.npy",
        "scores_round1.csv",
        "selected_ids_round1.txt",
        "selected_ids_final.txt",
        "state.json",
        "config_used.json",
    ):
        assert (out / name).exists(), name
    lines = (out / "stats.csv").read_text().strip().splitlines()
    assert lines[0] == "round,kept,precision,recall,test_accuracy,threshold,converged"
    assert len(lines) == 3
    # selections shrink across rounds and final matches the last round
    ids1 = read_ids(out / "selected_ids_round1.txt")
    ids2 = read_ids(out / "selected_ids_round2.txt")
    assert set(ids2) <= set(ids1)
    assert read_ids(out / "selected_ids_final.txt") == ids2
    # the checkpoint holds the round count and the config; the round's files the rest
    assert set(json.loads((out / "state.json").read_text())) == {"completed_rounds", "config"}


def test_run_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    first = tree_digest(tmp_path / "out")
    cli.main(["run", "-c", str(path)])
    assert tree_digest(tmp_path / "out") == first


def rewind_to_round_1(out: Path) -> None:
    """Rewind the checkpoint in ``out`` to the end of round 1."""
    state = json.loads((out / "state.json").read_text())
    state["completed_rounds"] = 1
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")


def round_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if " kept=" in line]


def test_run_resume_matches_full_run(tmp_path, capsys):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    out = tmp_path / "out"
    full = tree_digest(out)
    printed = round_lines(capsys.readouterr().out)
    assert len(printed) == 2
    rewind_to_round_1(out)
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full
    # round 1's line comes from stats.csv's text, round 2's from the round itself
    assert round_lines(capsys.readouterr().out) == printed


def test_run_resume_reads_a_checkpoint_with_the_old_keys(tmp_path):
    # older versions also wrote current_ids, stats_rows and truncated; resume ignores them
    path = write_config(tmp_path)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    full = tree_digest(out)
    row = [cells[0] for cells in read_table(out / "stats.csv")[1]]
    state = json.loads((out / "state.json").read_text())
    state.update(completed_rounds=1, current_ids=read_ids(out / "selected_ids_round1.txt"),
                 stats_rows=[[json.loads(cell) if cell else None for cell in row]],
                 truncated=False)
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full


def test_stats_rows_read_back_as_text_rewrite_the_same_bytes(tmp_path):
    # resume writes the completed rounds' stats rows back from stats.csv's text
    rows = [[1, 250, 0.9, None, -0.125, -1.5e-07, True],
            [2, 0, None, 1.0, -0.0, -3.0, False],
            [3, 12, 1 / 3, 0.5, None, None, None]]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    cli.write_summary(first, cli.STATS_HEADER, rows)
    header, columns = read_table(first)
    assert header == cli.STATS_HEADER
    cli.write_summary(second, header, [list(cells) for cells in zip(*columns)])
    assert second.read_bytes() == first.read_bytes()


def test_run_resume_damaged_checkpoint_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    state = tmp_path / "out" / "state.json"
    text = state.read_text()
    state.write_text(text[: len(text) // 2])  # a crash mid-write
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    assert "state.json" in capsys.readouterr().err


def base_trainer(dim=8, hidden=16):
    """A trainer as ``base_config``'s run builds it, or one sized for another dim or hidden."""
    return cli.SGDTrainer(dim, 4, TrainerConfig(learning_rate=0.05, arch="mlp",
                                                hidden=hidden, seed=3))


def write_older_layout(model: Path) -> None:
    """Rewrite the checkpoint in ``model`` as older versions wrote it: one
    file per layer, and the trainer's settings in meta.json."""
    trainer = base_trainer()
    cli.load_model(trainer, model)
    for key, stem, arrays in (("params", "param", trainer.params),
                              ("velocity", "velocity", trainer.velocity)):
        (model / f"{key}.npy").unlink()
        for idx, array in enumerate(arrays):
            np.save(model / f"{stem}_{idx}.npy", array)
    meta = json.loads((model / "meta.json").read_text())
    meta.update(config=dataclasses.asdict(trainer.config), dim=8, n_classes=4)
    (model / "meta.json").write_text(json.dumps(meta))


def write_huge_header(model: Path) -> None:
    """A params.npy whose header claims 80 TB and that holds no data."""
    with (model / "params.npy").open("wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**13,)})


def damage_rng_state(model: Path, change) -> None:
    meta = json.loads((model / "meta.json").read_text())
    change(meta["rng_state"]["state"])
    (model / "meta.json").write_text(json.dumps(meta))


MODEL_DAMAGES = {
    "missing array": lambda model: (model / "velocity.npy").unlink(),
    "empty array": lambda model: (model / "params.npy").write_bytes(b""),  # np.load: EOFError
    "truncated meta.json": lambda model: (model / "meta.json").write_text('{"rng_state": {'),
    "a (1,) params and a float32 (1, 32) velocity": lambda model: (
        np.save(model / "params.npy", np.zeros(1)),
        np.save(model / "velocity.npy", np.zeros((1, 32), dtype=np.float32))),
    "a header that claims a huge array": write_huge_header,
    "arrays for another dim": lambda model: cli.save_model(base_trainer(dim=9), model),
    "arrays for another hidden": lambda model: cli.save_model(base_trainer(hidden=17), model),
    "an rng_state int of -1": lambda model: damage_rng_state(
        model, lambda state: state.update(state=-1)),
    "a float inc in rng_state": lambda model: damage_rng_state(
        model, lambda state: state.update(inc=float(state["inc"]))),
    "the older layout": write_older_layout,
}


@pytest.mark.parametrize("damage", MODEL_DAMAGES)
def test_run_resume_damaged_model_checkpoint_exits_3(tmp_path, capsys, damage):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    model = tmp_path / "out" / "model_round2"
    MODEL_DAMAGES[damage](model)
    before = tree_digest(tmp_path / "out")
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "model_round2" in err and "Traceback" not in err
    assert tree_digest(tmp_path / "out") == before
    if damage == "the older layout":  # rerun it without --resume
        assert "params.npy" in err


@pytest.mark.parametrize("key, value", [("config", {"learning_rate": 0.5}), ("dim", 9),
                                        ("config", {"hidden": 10**12})])
def test_run_resume_ignores_trainer_settings_in_meta_json(tmp_path, key, value):
    # the run's config builds the trainer: a checkpoint holds what training changed
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    full = tree_digest(out)
    state = json.loads((out / "state.json").read_text())
    state["completed_rounds"] = 2
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    meta_path = out / "model_round2" / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), key: value}))
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    resumed = tree_digest(out)
    assert resumed.pop("model_round2/meta.json") != full.pop("model_round2/meta.json")
    assert resumed == full


def test_write_json_crash_mid_write_keeps_old_file(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    cli.write_json(target, {"completed_rounds": 1})
    before = target.read_text()
    real_open = Path.open

    def crashing_open(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)

        def writelines(pieces):
            text = "".join(pieces)
            fh.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        fh.writelines = writelines
        return fh

    monkeypatch.setattr(Path, "open", crashing_open)
    with pytest.raises(LogFormatError, match="state.json: cannot write the file: no space"):
        cli.write_json(target, {"completed_rounds": 2})
    monkeypatch.undo()
    assert target.read_text() == before
    assert list(tmp_path.iterdir()) == [target]  # the half-written temp file is gone


# an unknown id, and a test id (training ids are "0".."319")
@pytest.mark.parametrize("foreign", [
    pytest.param("not-a-training-id", id="not-emptied-not-a-training-id"),
    pytest.param("330", id="not-emptied-330"),
])
def test_run_resume_after_emptied_selection_rejects_a_foreign_id(tmp_path, capsys, foreign):
    # resume reads the kept ids from the last round's id file
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    final = (out / "selected_ids_final.txt").read_bytes()
    ids_path = out / "selected_ids_round3.txt"
    assert read_ids(ids_path)
    with ids_path.open("a") as fh:
        fh.write(foreign + "\n")
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(ids_path) in err and repr(foreign) in err
    assert "Traceback" not in err
    assert (out / "selected_ids_final.txt").read_bytes() == final


@pytest.mark.parametrize("case", ["a shorter run over it", "a rewound checkpoint"])
def test_eval_and_report_read_the_rounds_state_json_committed(tmp_path, case):
    # the 3-round run's files of rounds 2 and 3 stay, but state.json commits
    # round 1 only: eval and report read what a 1-round run leaves
    one_round = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=4), "one.yaml")
    assert cli.main(["run", "-c", str(one_round), "-o", str(tmp_path / "one")]) == 0
    three = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4), "three.yaml")
    assert cli.main(["run", "-c", str(three)]) == 0
    out = tmp_path / "out"
    if case == "a shorter run over it":
        assert cli.main(["run", "-c", str(one_round)]) == 0
    else:  # as a crash before state.json committed round 2 leaves it, and more
        rewind_to_round_1(out)
    assert (out / "scores_round3.csv").exists()
    for command in ("eval", "report"):
        for where in (out, tmp_path / "one"):
            assert cli.main([command, "-c", str(one_round), "-o", str(where)]) == 0
    for name in ("eval_stats.csv", "histogram_round1.csv", "trend.csv"):
        assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name
    assert not (out / "histogram_round2.csv").exists()


def test_run_resume_on_an_empty_kept_ids_file_exits_3(tmp_path, capsys):
    # only an older version left a round that kept no row; resume names its file
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    rewind_to_round_1(out)
    ids_path = out / "selected_ids_round1.txt"
    ids_path.write_text("")
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {ids_path}: cannot resume: the round kept no ids\n"
    assert tree_digest(out) == before


def test_run_resume_on_a_truncated_kept_ids_file_exits_3(tmp_path, capsys):
    # a file cut short holds fewer ids than the round's stats row says it kept
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    rewind_to_round_1(out)
    ids_path = out / "selected_ids_round1.txt"
    ids = read_ids(ids_path)
    ids_path.write_text("\n".join(ids[: len(ids) // 2]))  # no final newline either
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: {ids_path}: cannot resume: {len(ids) // 2} ids, "
                   f"but row 1 of stats.csv says kept={len(ids)}\n")
    assert tree_digest(out) == before


@pytest.mark.parametrize("target,occurrence", [
    ("log_round2.jsonl", 1),
    ("stats.csv", 2),
    ("model_round2/params.npy", 1),
    ("state.json", 2),
])
def test_run_rename_failure_in_round_2_then_resume_matches_full_run(
        tmp_path, monkeypatch, capsys, target, occurrence):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "full")]) == 0
    out = tmp_path / "crashed"
    real_replace, seen = os.replace, tmp_path / "replaced"

    def replace(src, dst):
        if Path(dst) == out / target:
            # counted in a file: a round's files are written in a child process
            with seen.open("a") as fh:
                fh.write(".")
            if seen.stat().st_size == occurrence:
                raise OSError("no space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(["run", "-c", str(path), "-o", str(out)]) == 3
    monkeypatch.undo()
    assert f"{out / target}: cannot write the file: no space" in capsys.readouterr().err
    assert not list(out.rglob("*.tmp"))
    assert json.loads((out / "state.json").read_text())["completed_rounds"] == 1
    assert cli.main(["run", "-c", str(path), "-o", str(out), "--resume"]) == 0
    assert tree_digest(out) == tree_digest(tmp_path / "full")


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_blocked_round_2_log_exits_3_then_resume_matches_full_run(
        tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "full")]) == 0
    out = tmp_path / "out"
    errors = []
    for fork in (False, True):  # the in-process write is the reference
        with monkeypatch.context() as patch:
            if not fork:
                patch.delattr(os, "fork")
            shutil.rmtree(out, ignore_errors=True)
            (out / "log_round2.jsonl").mkdir(parents=True)
            capsys.readouterr()
            assert cli.main(["run", "-c", str(path)]) == 3
            errors.append(capsys.readouterr().err)
        assert json.loads((out / "state.json").read_text())["completed_rounds"] == 1
        assert not (out / "scores_round2.csv").exists()
    assert errors[0] == errors[1]
    assert errors[1].startswith(f"data error: {out / 'log_round2.jsonl'}: cannot write the file")
    assert "Traceback" not in errors[1]
    (out / "log_round2.jsonl").rmdir()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == tree_digest(tmp_path / "full")
    assert_no_child_process()


def test_run_diverging_in_round_2_exits_4_with_round_1_committed(
        tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "full")]) == 0
    real_fit_round, calls = cli.SGDTrainer.fit_round, []

    def fit_round(self, *args, **kwargs):
        calls.append(1)  # training runs in this process
        if len(calls) == 2:
            raise FloatingPointError("non-finite loss")
        return real_fit_round(self, *args, **kwargs)

    monkeypatch.setattr(cli.SGDTrainer, "fit_round", fit_round)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path)]) == 4
    assert capsys.readouterr().err == "numerical failure: non-finite loss\n"
    out, full = tmp_path / "out", tree_digest(tmp_path / "full")
    assert json.loads((out / "state.json").read_text())["completed_rounds"] == 1
    stats = (tmp_path / "full" / "stats.csv").read_text().splitlines(keepends=True)
    assert (out / "stats.csv").read_text() == "".join(stats[:2])
    written = tree_digest(out)
    assert {name for name in full if "round2" not in name and "final" not in name} == (
        set(written))
    assert all(full[name] == digest for name, digest in written.items()
               if name not in ("stats.csv", "state.json"))
    assert_no_child_process()


@pytest.mark.parametrize("fork", [True, False])
def test_run_with_a_failing_model_write_never_exits_0(tmp_path, monkeypatch, fork):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))

    def save_model(trainer, outdir):
        raise RuntimeError("the model cannot be saved")

    monkeypatch.setattr(cli, "save_model", save_model)
    if not fork:
        monkeypatch.delattr(os, "fork")
    with pytest.raises(RuntimeError, match="the model cannot be saved"):
        cli.main(["run", "-c", str(path)])
    # round 1 stops at its model, before its checkpoint
    assert (tmp_path / "out" / "stats.csv").exists()
    assert not (tmp_path / "out" / "state.json").exists()
    assert_no_child_process()


def test_run_without_fork_writes_the_same_tree(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "forked")]) == 0
    forked = capsys.readouterr()
    monkeypatch.delattr(os, "fork")
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "in_process")]) == 0
    assert capsys.readouterr() == forked
    assert tree_digest(tmp_path / "in_process") == tree_digest(tmp_path / "forked")
    assert_no_child_process()


def test_run_when_fork_fails_writes_in_process(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "forked")]) == 0
    forked = capsys.readouterr()

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "in_process")]) == 0
    assert capsys.readouterr() == forked
    assert tree_digest(tmp_path / "in_process") == tree_digest(tmp_path / "forked")
    assert_no_child_process()


def test_run_on_one_cpu_does_not_fork(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "forked")]) == 0
    forked = capsys.readouterr()

    def fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)
    assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / "one_cpu")]) == 0
    assert capsys.readouterr() == forked
    assert tree_digest(tmp_path / "one_cpu") == tree_digest(tmp_path / "forked")


# an external trainer that lists its records in reverse and gets every label
# wrong; an instance's chance of a 1 bit depends on whether its label is noisy
EXTERNAL_STUB = """\
import csv, json, random, sys
dataset, ids_file, out, epochs, seed = sys.argv[1:]
with open(dataset, newline="") as fh:
    rows = {row["id"]: row for row in csv.DictReader(fh)}
with open(ids_file, newline="") as fh:
    ids = fh.read().split("\\n")[:-1]
rng = random.Random(int(seed) + len(ids))
with open(out, "w") as fh:
    for i in reversed(ids):
        p = 0.8 if rows[i]["observed_label"] == rows[i]["true_label"] else 0.3
        seq = [int(rng.random() < p) for _ in range(int(epochs))]
        fh.write(json.dumps({"id": i, "label": 99, "seq": seq}) + "\\n")
"""


def test_run_external_trainer_rounds_then_resume(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(EXTERNAL_STUB)
    config = base_config(tmp_path, rounds=3, epochs=20)
    config["trainer"] = {"kind": "external", "seed": 5, "command":
                         f"{sys.executable} {stub} {{dataset}} {{ids}} {{out}} {{epochs}} {{seed}}"}
    path = write_config(tmp_path, config)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    ds = read_dataset_csv(out / "dataset.csv")
    labels = dict(zip(ds.ids.tolist(), zip(ds.observed_labels.tolist(),
                                           ds.true_labels.tolist())))
    trained_on = ds.train_ids
    for k in (1, 2, 3):
        # the round's log follows the ids it trained on, with the dataset's labels
        assert read_ids(out / "external" / f"ids_round{k}.txt") == trained_on
        log = read_prediction_log(out / f"log_round{k}.jsonl")
        assert log.ids == trained_on
        assert list(zip(log.labels.tolist(), log.true_labels.tolist())) == [
            labels[i] for i in trained_on]
        kept = read_ids(out / f"selected_ids_round{k}.txt")
        chosen = set(kept)
        assert kept and kept == [i for i in trained_on if i in chosen]
        trained_on = kept
    assert read_ids(out / "selected_ids_final.txt") == trained_on
    assert len(trained_on) < len(ds.train_ids)
    full = tree_digest(out)
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full
    # resumed after round 1, the external files keep their round numbers
    rewind_to_round_1(out)
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full


def test_run_external_trainer_resume_beyond_the_configs_rounds_exits_3(tmp_path, capsys):
    # the rule the built-in trainer follows, checked before stats.csv is read
    stub = tmp_path / "stub.py"
    stub.write_text(EXTERNAL_STUB)
    config = base_config(tmp_path, rounds=2, epochs=10)
    config["trainer"] = {"kind": "external", "seed": 5, "command":
                         f"{sys.executable} {stub} {{dataset}} {{ids}} {{out}} {{epochs}} {{seed}}"}
    path = write_config(tmp_path, config)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    state = json.loads((out / "state.json").read_text())
    state["completed_rounds"] = 5
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    assert capsys.readouterr().err == (
        f"data error: {out / 'state.json'}: cannot resume: checkpoint 'completed_rounds' "
        "is 5, more than round.rounds (2)\n")
    assert tree_digest(out) == before


def test_run_small_round_falls_back_to_ratio(tmp_path, capsys):
    config = base_config(tmp_path, rounds=1, epochs=6, ratio=0.5)
    config["dataset"]["blobs"].update(n_classes=2, per_class=4)
    path = write_config(tmp_path, config)
    assert cli.main(["run", "-c", str(path)]) == 0
    assert "fell back to ratio selection" in capsys.readouterr().out
    assert len(read_ids(tmp_path / "out" / "selected_ids_round1.txt")) == 4


def test_run_resume_rejects_config_mismatch(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    assert (
        cli.main(["run", "-c", str(path), "--resume", "--set", "round.epochs=5"]) == 2
    )


def test_run_single_round_matches_offline_select(tmp_path):
    """run with rounds=1 and select on its own round-1 log must agree."""
    config = base_config(tmp_path, rounds=1)
    path = write_config(tmp_path, config)
    cli.main(["run", "-c", str(path)])
    out = tmp_path / "out"
    sel_dir = tmp_path / "sel"
    assert (
        cli.main(
            ["select", "-c", str(path), "-o", str(sel_dir),
             "--log", str(out / "log_round1.jsonl")]
        )
        == 0
    )
    # the log stores ids as strings, so compare as sets of strings
    run_ids = {str(i) for i in read_ids(out / "selected_ids_round1.txt")}
    select_ids = {str(i) for i in read_ids(sel_dir / "selected_ids.txt")}
    assert run_ids == select_ids


def test_run_trials_aggregate(tmp_path):
    config = base_config(tmp_path, rounds=1, epochs=5)
    path = write_config(tmp_path, config)
    assert cli.main(["run", "-c", str(path), "--trials", "2"]) == 0
    out = tmp_path / "out"
    assert (out / "trial_00" / "stats.csv").exists()
    assert (out / "trial_01" / "stats.csv").exists()
    lines = (out / "aggregate.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,mean,stddev,trials"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# select


def test_select_ratio_keeps_exact_count(tmp_path):
    path = write_config(tmp_path)
    cli.main(["simulate", "-c", str(path)])
    log = tmp_path / "out" / "simulated_log.jsonl"
    sel_dir = tmp_path / "sel"
    assert (
        cli.main(
            ["select", "-c", str(path), "-o", str(sel_dir), "--log", str(log),
             "--set", "round.strategy=ratio", "--set", "round.ratio=0.9"]
        )
        == 0
    )
    kept = read_ids(sel_dir / "selected_ids.txt")
    assert len(kept) == math.ceil(0.9 * 400)


def test_select_mixture_on_simulated_log(tmp_path):
    path = write_config(tmp_path)
    cli.main(["simulate", "-c", str(path)])
    sel_dir = tmp_path / "sel"
    cli.main(
        ["select", "-c", str(path), "-o", str(sel_dir),
         "--log", str(tmp_path / "out" / "simulated_log.jsonl")]
    )
    stats = (sel_dir / "stats.csv").read_text().strip().splitlines()
    row = stats[1].split(",")
    assert float(row[3]) >= 0.99  # recall: threshold rule keeps all clean
    assert (sel_dir / "mixture.json").exists()
    doc = json.loads((sel_dir / "mixture.json").read_text())
    assert {"k_clean", "k_noisy", "clean", "noisy", "shift", "threshold",
            "loglik_trace", "converged"} <= set(doc)


def test_select_malformed_log_exit_code(tmp_path, capsys):
    path = write_config(tmp_path)
    bad = tmp_path / "bad.jsonl"
    for second in ("not json at line 2",
                   '{"id": "b", "seq": [0, 1, 1]}',  # ragged
                   '{"id": "b", "seq": [0, 1], "label": "cat"}'):
        bad.write_text('{"id": "a", "seq": [0, 1]}\n' + second + "\n")
        assert cli.main(["select", "-c", str(path), "--log", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "directory", "invalid UTF-8"])
def test_select_unreadable_log_exits_3_naming_it(tmp_path, capsys, case):
    path = write_config(tmp_path)
    log = tmp_path / "log.jsonl"
    if case == "directory":
        log.mkdir()
    elif case == "invalid UTF-8":
        log.write_bytes(b'{"id": "a", "seq": [0, 1]}\n{"id": "a\xff", "seq": [1, 1]}\n')
    assert cli.main(["select", "-c", str(path), "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert str(log) in err
    assert ("(line 2)" in err) == (case == "invalid UTF-8")


def test_external_trainer_without_log_exits_3_naming_it(tmp_path, capsys):
    path = csv_dataset_config(tmp_path, [str(i) for i in range(20)])
    config = yaml.safe_load(path.read_text())
    config["trainer"] = {"kind": "external", "command": f"{sys.executable} -c pass"}
    path.write_text(yaml.safe_dump(config))
    log = tmp_path / "out" / "external" / "log_round1.jsonl"
    log.parent.mkdir(parents=True)
    log.write_text("".join(json.dumps({"id": str(i), "seq": [0] * 5}) + "\n"
                           for i in range(20)))  # an earlier run's log
    assert cli.main(["run", "-c", str(path)]) == 3
    assert str(log) in capsys.readouterr().err


def external_config(tmp_path, command, **round_overrides):
    config = base_config(tmp_path, **round_overrides)
    config["trainer"] = {"kind": "external", "seed": 5, "command": command}
    return write_config(tmp_path, config)


@pytest.mark.parametrize("command, message", [
    ("  ", "names no command"),
    ("python train.py {nope} {out}", "unknown placeholder {nope}"),
    ('python "train.py {out}', "No closing quotation"),
], ids=["blank", "unknown placeholder", "unbalanced quote"])
def test_bad_trainer_command_exits_2_writing_nothing(tmp_path, capsys, command, message):
    assert cli.main(["run", "-c", str(external_config(tmp_path, command))]) == 2
    err = capsys.readouterr().err
    assert "trainer.command" in err and message in err
    assert not (tmp_path / "out").exists()


def test_trainer_command_that_cannot_start_exits_3_naming_it(tmp_path, capsys):
    path = external_config(tmp_path, "no-such-trainer-xyz {ids} {out}")
    assert cli.main(["run", "-c", str(path)]) == 3
    assert "cannot start the trainer command no-such-trainer-xyz" in capsys.readouterr().err


def test_trainer_command_argument_with_a_space_arrives_whole(tmp_path):
    # the stub takes exactly five arguments: a path split at its space fails it
    stub = tmp_path / "stub.py"
    stub.write_text(EXTERNAL_STUB)
    path = external_config(tmp_path, f"{sys.executable} {stub} {{dataset}} {{ids}} {{out}} "
                                     "{epochs} {seed}", rounds=1, epochs=5)
    for out in ("plain", "with space"):
        assert cli.main(["run", "-c", str(path), "-o", str(tmp_path / out)]) == 0
    assert tree_digest(tmp_path / "with space") == tree_digest(tmp_path / "plain")


def test_select_onto_a_directory_exits_3_naming_the_file(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["simulate", "-c", str(path)]) == 0
    sel = tmp_path / "sel"
    (sel / "scores.csv").mkdir(parents=True)
    assert cli.main(["select", "-c", str(path), "-o", str(sel),
                     "--log", str(tmp_path / "out" / "simulated_log.jsonl")]) == 3
    assert f"{sel / 'scores.csv'}: cannot write the file" in capsys.readouterr().err
    assert [p.name for p in sel.iterdir()] == ["scores.csv"]  # no temp file left


def test_simulate_into_a_regular_file_exits_3_naming_it(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert cli.main(["simulate", "-c", str(write_config(tmp_path)), "-o", str(afile)]) == 3
    assert f"{afile / 'simulated_log.jsonl'}: cannot write the file" in capsys.readouterr().err


def test_failed_report_leaves_no_directory_behind(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["report", "-c", str(path), "-o", str(tmp_path / "nodir")]) == 3
    assert not (tmp_path / "nodir").exists()


def test_dataset_csv_invalid_utf8_exits_3_naming_it(tmp_path, capsys):
    path = csv_dataset_config(tmp_path, [str(i) for i in range(20)])
    data = tmp_path / "input.csv"
    data.write_bytes(data.read_bytes().replace(b"\n3,", b"\n3\xff,"))
    assert cli.main(["run", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(data) in err and "UTF-8" in err and "(line 5)" in err


def test_select_small_loss_without_losses_exits_3(tmp_path, capsys):
    path = write_config(tmp_path)
    cli.main(["simulate", "-c", str(path)])
    log = tmp_path / "out" / "simulated_log.jsonl"
    assert cli.main(["select", "-c", str(path), "-o", str(tmp_path / "sel"),
                     "--log", str(log), "--set", "round.strategy=small_loss"]) == 3
    err = capsys.readouterr().err
    assert str(log) in err and "'losses' in every record" in err


def test_select_small_loss_on_a_run_log_keeps_the_run_selection(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path, rounds=1, strategy="small_loss"))
    assert cli.main(["run", "-c", str(path)]) == 0
    out, sel = tmp_path / "out", tmp_path / "sel"
    assert (out / "log_round1.losses.npy").stat().st_size > 0
    assert '"losses": [' not in (out / "log_round1.jsonl").read_text()
    assert cli.main(["select", "-c", str(path), "-o", str(sel), "--log",
                     str(out / "log_round1.jsonl"), "--set", "round.strategy=small_loss"]) == 0
    assert ((sel / "selected_ids.txt").read_bytes()
            == (out / "selected_ids_round1.txt").read_bytes())


def damage_sidecar(log, sidecar, defect):
    """Leave ``sidecar``, the losses of the log at ``log``, with ``defect``."""
    if defect == "empty":
        sidecar.write_bytes(b"")
    elif defect == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-8])
    elif defect == "wrong shape":
        np.save(sidecar, np.zeros((3, 4)))
    elif defect == "int dtype":
        np.save(sidecar, np.load(sidecar).astype(np.int64))
    elif defect == "pickled object array":
        np.save(sidecar, np.load(sidecar).astype(object), allow_pickle=True)
    elif defect == "npz archive":
        losses = np.load(sidecar)
        with sidecar.open("wb") as fh:
            np.savez(fh, losses=losses)
    elif defect == "a directory":
        sidecar.unlink()
        sidecar.mkdir()
    elif defect == "inline losses as well":  # the sidecar stays as it is
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        log.write_text("".join(json.dumps(dict(rec, losses=[1.0] * len(rec["seq"])),
                                          sort_keys=True) + "\n" for rec in lines))


@pytest.mark.parametrize("defect", ["empty", "truncated", "wrong shape", "int dtype",
                                    "pickled object array", "npz archive", "a directory",
                                    "inline losses as well"])
def test_select_on_a_damaged_losses_sidecar_exits_3_naming_it(tmp_path, capsys, defect):
    path = write_config(tmp_path)
    log, sidecar = tmp_path / "log.jsonl", tmp_path / "log.losses.npy"
    rng = np.random.default_rng(0)
    bits = (rng.random((40, 6)) < 0.6).astype(np.int8)
    write_prediction_log(log, RoundLog(
        ids=[f"x{k}" for k in range(40)], bits=bits, losses=rng.random((40, 6)),
        labels=np.zeros(40, dtype=np.int64), true_labels=None))
    damage_sidecar(log, sidecar, defect)
    for strategy in ("small_loss", "mixture_threshold"):  # every select reads the losses
        assert cli.main(["select", "-c", str(path), "-o", str(tmp_path / "sel"), "--log",
                         str(log), "--set", f"round.strategy={strategy}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(sidecar) in err, err
        assert "Traceback" not in err and err.count("\n") == 1


def test_external_trainer_run_removes_a_stale_losses_sidecar(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(EXTERNAL_STUB)
    config = base_config(tmp_path, rounds=1, epochs=5)
    config["trainer"] = {"kind": "external", "seed": 5, "command":
                         f"{sys.executable} {stub} {{dataset}} {{ids}} {{out}} {{epochs}} {{seed}}"}
    path = write_config(tmp_path, config)
    # an earlier command's losses, of the shape this round's log will have
    stale = tmp_path / "out" / "external" / "log_round1.losses.npy"
    stale.parent.mkdir(parents=True)
    np.save(stale, np.zeros((320, 5)))
    assert cli.main(["run", "-c", str(path)]) == 0
    assert not stale.exists()
    assert not (tmp_path / "out" / "log_round1.losses.npy").exists()


# ---------------------------------------------------------------------------
# eval / report


def test_eval_writes_histograms_and_stats(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    assert cli.main(["eval", "-c", str(path), "--bins", "11"]) == 0
    out = tmp_path / "out"
    assert (out / "eval_stats.csv").exists()
    hist = (out / "histogram_round1.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_left,bin_right,clean_count,noisy_count"
    counts = sum(int(r.split(",")[2]) + int(r.split(",")[3]) for r in hist[1:])
    assert counts == 320  # train split size
    overlay = json.loads((out / "overlay_round1.json").read_text())
    assert {"x", "density_clean", "density_noisy", "threshold"} <= set(overlay)


def simulate_and_select(tmp_path) -> tuple[Path, Path]:
    """Config path and outputs dir of `simulate` + `select` on configs/simulate.yaml."""
    config = yaml.safe_load((REPO / "configs" / "simulate.yaml").read_text())
    config["output_dir"] = str(tmp_path / "out")
    config["simulate"].update(n_clean=300, n_noisy=300)
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main(["simulate", "-c", str(path)]) == 0
    assert cli.main(["select", "-c", str(path),
                     "--log", str(out / "simulated_log.jsonl")]) == 0
    return path, out


def test_eval_after_select_matches_select_stats(tmp_path):
    path, out = simulate_and_select(tmp_path)
    assert cli.main(["eval", "-c", str(path)]) == 0
    select_row = (out / "stats.csv").read_text().splitlines()[1].split(",")
    eval_row = (out / "eval_stats.csv").read_text().splitlines()[1].split(",")
    assert eval_row[:4] == select_row[:4]  # round, kept, precision, recall
    hist = (out / "histogram_round1.csv").read_text().strip().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in hist) == 300  # clean rows


def test_one_threshold_in_stats_fit_and_overlay(tmp_path):
    path, out = simulate_and_select(tmp_path)
    assert cli.main(["eval", "-c", str(path)]) == 0
    doc = json.loads((out / "mixture.json").read_text())
    tau = doc["threshold"]
    assert tau == threshold(MixtureFit.from_json_dict(doc))
    assert json.loads((out / "overlay_round1.json").read_text())["threshold"] == tau
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[1].split(",")[stats[0].split(",").index("threshold")] == f"{tau:.6f}"


def test_a_selection_without_a_fit_removes_the_earlier_fit(tmp_path, capsys):
    # eval would draw the earlier fit's threshold beside a ratio selection
    path, out = simulate_and_select(tmp_path)
    assert (out / "mixture.json").exists()
    assert cli.main(["eval", "-c", str(path)]) == 0
    assert (out / "overlay_round1.json").exists()  # drawn from the fit
    ratio = ["select", "-c", str(path), "--log", str(out / "simulated_log.jsonl"),
             "--set", "round.strategy=ratio"]
    assert cli.main(ratio) == 0
    assert not (out / "mixture.json").exists()
    assert cli.main(["eval", "-c", str(path)]) == 0
    assert not (out / "overlay_round1.json").exists()
    (out / "mixture.json").mkdir()  # a directory cannot be removed as a file
    capsys.readouterr()
    assert cli.main(ratio) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out / 'mixture.json'}: cannot remove the earlier fit")
    (out / "mixture.json").rmdir()
    (out / "overlay_round1.json").mkdir()
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out / 'overlay_round1.json'}: "
                          "cannot remove the earlier overlay")


def test_eval_removes_its_files_of_rounds_it_no_longer_evaluates(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=6))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(path)]) == 0
    assert cli.main(["eval", "-c", str(path)]) == 0
    stale = [f"{stem}_round{k}.{ext}" for k in (2, 3)
             for stem, ext in (("histogram", "csv"), ("overlay", "json"))]
    assert all((out / name).exists() for name in stale)
    shorter = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=6), "short.yaml")
    assert cli.main(["run", "-c", str(shorter)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "-c", str(shorter)]) == 0
    assert capsys.readouterr().out.startswith("evaluated 1 round(s)")
    assert not any((out / name).exists() for name in stale)
    assert (out / "histogram_round1.csv").exists()
    assert len((out / "eval_stats.csv").read_text().splitlines()) == 2
    # the longer run's own files stay; state.json says no command reads them
    assert (out / "log_round3.jsonl").exists() and (out / "model_round3").is_dir()


@pytest.mark.parametrize("command, stray", [
    ("select", "scores_round_old.csv"),
    ("run", "scores_round_old.csv"),
    ("run", "scores_round01.csv"),  # once a second round 1
    ("run", "scores_round1_0.csv"),  # once round 10
])
def test_eval_does_not_evaluate_a_stray_scores_file(tmp_path, capsys, command, stray):
    # state.json alone names a run's rounds, and a select has one: no file
    # name is parsed for a round
    if command == "select":
        path, out = simulate_and_select(tmp_path)
        scores = out / "scores.csv"
    else:
        path = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=4))
        assert cli.main(["run", "-c", str(path)]) == 0
        out = tmp_path / "out"
        scores = out / "scores_round1.csv"
    assert cli.main(["eval", "-c", str(path)]) == 0
    before = tree_digest(out)
    (out / stray).write_bytes(scores.read_bytes())
    capsys.readouterr()
    assert cli.main(["eval", "-c", str(path)]) == 0
    assert capsys.readouterr().out.startswith("evaluated 1 round(s)")
    assert {k: v for k, v in tree_digest(out).items() if k != stray} == before


@pytest.mark.parametrize("name", ["selected_ids.txt", "scores.csv"])
def test_eval_id_outside_ground_truth_exits_3(tmp_path, capsys, name):
    path, out = simulate_and_select(tmp_path)
    with (out / name).open("a") as fh:
        fh.write("zzz_unknown\n" if name.endswith(".txt") else "zzz_unknown,1.0\r\n")
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and name in err and "'zzz_unknown'" in err


def test_eval_unknown_ids_are_listed_sorted_with_a_count_of_the_rest(tmp_path, capsys):
    path, out = simulate_and_select(tmp_path)
    ids_path = out / "selected_ids.txt"
    with ids_path.open("a") as fh:
        fh.write("".join(f"zz{k:02d}\n" for k in range(12, 0, -1)))
    assert cli.main(["eval", "-c", str(path)]) == 3
    shown = ", ".join(repr(f"zz{k:02d}") for k in range(1, 11))
    assert capsys.readouterr().err == (
        f"data error: {ids_path}: ids not in the ground truth: {shown} (+2 more)\n")


@pytest.mark.parametrize("damage", ["lambda=1.0e+308", "nan cell"])
def test_eval_non_finite_score_exits_3_naming_its_line(tmp_path, capsys, damage):
    # no histogram bin spans an infinite score; the -inf cell stands for the
    # scores select once wrote for round.lambda=1.0e+308, which it now refuses
    path, out = simulate_and_select(tmp_path)
    scores = out / "scores.csv"
    value = "nan" if damage == "nan cell" else "-inf"
    lines = scores.read_bytes().split(b"\r\n")
    lines[3] = lines[3].split(b",")[0] + b"," + value.encode()
    scores.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {scores}: score {value} is not finite (line 4)" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, epochs", [("select", 30), ("run", 4)])
def test_an_overflowing_lambda_exits_2_naming_it(tmp_path, capsys, command, epochs):
    # lambda times the epochs of the logs it scores would overflow the scores
    # to -inf: select checks the log's 30 epochs, run its round.epochs
    path = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=4))
    assert cli.main(["simulate", "-c", str(path), "-o", str(tmp_path / "sim")]) == 0
    log = ["--log", str(tmp_path / "sim" / "simulated_log.jsonl")] if command == "select" else []
    capsys.readouterr()
    assert cli.main([command, "-c", str(path), "--set", "round.lambda=1.0e+308", *log]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: round.lambda: 1e+308 times {epochs} epochs is not finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["selected_ids.txt", "scores.csv"])
def test_eval_repeated_id_exits_3_naming_the_file(tmp_path, capsys, name):
    path, out = simulate_and_select(tmp_path)
    repeated = out / name
    lines = repeated.read_bytes().splitlines(keepends=True)
    first = lines[0] if name.endswith(".txt") else lines[1]
    repeated.write_bytes(b"".join(lines) + first)
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    repeated_id = first.decode().rstrip("\r\n").split(",")[0]
    assert f"data error: {repeated}: id {repeated_id!r} appears more than once" in err
    assert "Traceback" not in err


def test_eval_of_a_run_reads_only_its_round_files(tmp_path, capsys):
    # a select's selected_ids.txt in a run's outputs dir stands in for no round
    path = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    (out / "selected_ids_round1.txt").rename(out / "selected_ids.txt")
    capsys.readouterr()
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {out / 'selected_ids_round1.txt'}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["selected_ids.txt", "scores.csv"])
def test_eval_invalid_utf8_exits_3_naming_the_file(tmp_path, capsys, name):
    path, out = simulate_and_select(tmp_path)
    with (out / name).open("ab") as fh:
        fh.write(b"\xff\n")
    last_line = (out / name).read_bytes().count(b"\n")
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(out / name) in err
    assert "invalid UTF-8 byte 0xff" in err and f"(line {last_line})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("setup, name, command, code", [
    ("select", "config.yaml", ["report"], 2),
    ("run", "out/model_round2/meta.json", ["run", "--resume"], 3),
    ("run", "out/state.json", ["run", "--resume"], 3),
    ("select", "out/clean_ids.txt", ["eval"], 3),
    ("select", "out/mixture.json", ["eval"], 3),
    ("run", "out/stats.csv", ["report"], 3),
    ("select", "out/noisy_ids.txt", ["eval"], 3),
])
def test_invalid_utf8_in_a_text_input_exits_naming_it(tmp_path, capsys, setup, name,
                                                       command, code):
    if setup == "select":
        path, _ = simulate_and_select(tmp_path)
    else:
        path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
        assert cli.main(["run", "-c", str(path)]) == 0
    damaged = tmp_path / name
    with damaged.open("ab") as fh:
        fh.write(b"\xff\n")
    last_line = damaged.read_bytes().count(b"\n")
    capsys.readouterr()
    assert cli.main([command[0], "-c", str(path), *command[1:]]) == code
    err = capsys.readouterr().err
    assert str(damaged) in err and "Traceback" not in err
    assert f"invalid UTF-8 byte 0xff (line {last_line})" in err


@pytest.mark.parametrize("damage", ["truncate", "drop epsilon"])
def test_eval_damaged_mixture_json_exits_3(tmp_path, capsys, damage):
    path, out = simulate_and_select(tmp_path)
    fit_json = out / "mixture.json"
    text = fit_json.read_text()
    if damage == "truncate":
        fit_json.write_text(text[: len(text) // 2])
    else:
        doc = json.loads(text)
        del doc["epsilon"]
        fit_json.write_text(json.dumps(doc))
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "mixture.json" in err


@pytest.mark.parametrize("name, value", [
    ("k_clean", "x"), ("k_noisy", True), ("shift", None), ("epsilon", [0.001]),
    ("noisy.alpha", True), ("clean.beta", True),
])
def test_eval_wrong_typed_fit_number_exits_3(tmp_path, capsys, name, value):
    path, out = simulate_and_select(tmp_path)
    fit_json = out / "mixture.json"
    doc = json.loads(fit_json.read_text())
    part, _, key = name.rpartition(".")
    (doc[part] if part else doc)[key] = value
    fit_json.write_text(json.dumps(doc))
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {fit_json}: not a mixture fit" in err
    assert f"{name} must be a number" in err and "Traceback" not in err


def test_eval_scores_table_without_rows_exits_3(tmp_path, capsys):
    path, out = simulate_and_select(tmp_path)
    scores = out / "scores.csv"
    scores.write_bytes(scores.read_bytes().split(b"\r\n")[0] + b"\r\n")
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {scores}: scores table has no rows (line 2)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", [
    "an id in both files", "an id twice in one file", "no clean_ids.txt", "no noisy_ids.txt",
    "neither file",
])
def test_eval_damaged_ground_truth_exits_3_naming_the_file(tmp_path, capsys, damage):
    path, out = simulate_and_select(tmp_path)
    clean, noisy = out / "clean_ids.txt", out / "noisy_ids.txt"
    first = read_ids(clean)[0]
    if damage in ("an id in both files", "an id twice in one file"):
        named = noisy if damage == "an id in both files" else clean
        with named.open("a") as fh:  # named in the file that lists it a second time
            fh.write(first + "\n")
        message = f"id {first!r} appears more than once in the ground truth"
    elif damage == "neither file":
        clean.unlink()
        noisy.unlink()
        named, message = out, ("no ground truth in outputs dir (need dataset.csv, "
                               "or clean_ids.txt and noisy_ids.txt)")
    else:
        named = clean if damage == "no clean_ids.txt" else noisy
        named.unlink()
        message = "cannot read the file"
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {named}: {message}") and "Traceback" not in err


def test_select_of_a_log_without_truth_removes_the_earlier_truth_and_stats(tmp_path, capsys):
    # a select of a log with truth, then one of a log without it into the same dir:
    # report and eval must not read the first select's stats row or truth
    path, out = simulate_and_select(tmp_path)
    log = read_prediction_log(out / "simulated_log.jsonl")
    unlabelled = tmp_path / "unlabelled.jsonl"
    write_prediction_log(unlabelled, RoundLog(
        ids=[f"x{k:05d}" for k in range(len(log))], bits=log.bits, losses=None,
        labels=log.labels, true_labels=None))
    assert cli.main(["select", "-c", str(path), "--log", str(unlabelled)]) == 0
    assert not (out / "clean_ids.txt").exists() and not (out / "noisy_ids.txt").exists()
    kept = len(read_ids(out / "selected_ids.txt"))
    _, columns = read_table(out / "stats.csv")
    assert [cells[0] for cells in columns][:4] == ["1", str(kept), "", ""]
    assert cli.main(["report", "-c", str(path)]) == 0
    assert (out / "trend.csv").read_bytes() == b"round,precision,recall,accuracy\r\n1,,,\r\n"
    capsys.readouterr()
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {out}: no ground truth") and "Traceback" not in err


def test_report_stats_csv_without_its_columns_exits_3(tmp_path, capsys):
    path, out = simulate_and_select(tmp_path)
    (out / "stats.csv").write_text("a,b\n1,2\n")
    assert cli.main(["report", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{out / 'stats.csv'}: " in err and "Traceback" not in err
    assert ("expected header round,kept,precision,recall,test_accuracy,threshold,converged"
            " (line 1)") in err


def damage_row(path: Path, line: int, damage: str) -> None:
    """Cut the row on ``line`` of a CSV file to its first cell, add a cell to
    it, or make its first cell longer than csv's field size limit."""
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[line - 1].split(b",")
    cells = {"short row": cells[:1], "extra cell": cells + [b"x"],
             "huge field": [b"x" * 200_000] + cells[1:]}[damage]
    lines[line - 1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("damage, message", [
    ("short row", "expected 7 fields, got 1"), ("extra cell", "expected 7 fields, got 8"),
])
def test_report_stats_csv_row_of_wrong_width_exits_3(tmp_path, capsys, damage, message):
    path, out = simulate_and_select(tmp_path)
    damage_row(out / "stats.csv", 2, damage)
    assert cli.main(["report", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {out / 'stats.csv'}: {message} (line 2)" in err
    assert "Traceback" not in err and not (out / "trend.csv").exists()


# a stats.csv cell its column rejects, and the message that names it
BAD_STATS_CELLS = [
    ("round", "1.5", "invalid literal for int()"),
    ("precision", "abc", "could not convert string to float"),
    ("recall", " ", "could not convert string to float"),
    ("test_accuracy", "0.5x", "could not convert string to float"),
    ("kept", "3.0", "invalid literal for int()"),
    ("threshold", "x", "could not convert string to float"),
    ("converged", "yes", "expected true or false, got 'yes'"),
]


def set_stats_cell(stats: Path, column: str, cell: str) -> None:
    """Set ``column`` of the first row of the stats table ``stats`` to ``cell``."""
    lines = stats.read_bytes().split(b"\r\n")
    cells = lines[1].split(b",")
    cells[lines[0].split(b",").index(column.encode())] = cell.encode()
    lines[1] = b",".join(cells)
    stats.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("column, cell, message", BAD_STATS_CELLS)
def test_report_stats_csv_cell_not_a_number_exits_3(tmp_path, capsys, column, cell, message):
    path, out = simulate_and_select(tmp_path)
    stats = out / "stats.csv"
    set_stats_cell(stats, column, cell)
    assert cli.main(["report", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {stats}: {column}: {message}" in err and "(line 2)" in err
    assert "Traceback" not in err and not (out / "trend.csv").exists()


def test_report_copies_stats_cells_as_text(tmp_path):
    path, out = simulate_and_select(tmp_path)
    stats = (out / "stats.csv").read_text().splitlines()[1].split(",")
    assert cli.main(["report", "-c", str(path)]) == 0
    trend = (out / "trend.csv").read_bytes().split(b"\r\n")
    assert trend[1].decode() == ",".join(stats[:1] + stats[2:5])


@pytest.mark.parametrize("damage, message", [
    ("short row", "expected 2 fields, got 1"), ("extra cell", "expected 2 fields, got 3"),
    ("huge field", "field larger than field limit"),
])
def test_eval_scores_csv_bad_row_exits_3(tmp_path, capsys, damage, message):
    path, out = simulate_and_select(tmp_path)
    damage_row(out / "scores.csv", 3, damage)
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {out / 'scores.csv'}: {message}" in err and "(line 3)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["deleted model checkpoint", "rounds beyond the config"])
def test_run_resume_without_its_model_exits_3(tmp_path, capsys, damage):
    # the built-in trainer must not go on from untrained weights
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    if damage == "deleted model checkpoint":
        for item in (out / "model_round2").iterdir():
            item.unlink()
        (out / "model_round2").rmdir()
        named = str(out / "model_round2" / "meta.json")
    else:
        state = json.loads((out / "state.json").read_text())
        state["completed_rounds"] = 3
        (out / "state.json").write_text(json.dumps(state))
        named = str(out / "state.json")
    final = tree_digest(out / "model_final")
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and named in err and "Traceback" not in err
    assert tree_digest(out / "model_final") == final


@pytest.mark.parametrize("key, value", [
    ("completed_rounds", None), ("completed_rounds", "2"), ("completed_rounds", True),
    ("completed_rounds", -1),
])
def test_run_resume_checkpoint_without_its_keys_exits_3(tmp_path, capsys, key, value):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    state_path = tmp_path / "out" / "state.json"
    state = json.loads(state_path.read_text())
    if value is None:
        del state[key]
    else:
        state[key] = value
    state_path.write_text(json.dumps(state))
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(state_path) in err and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, damage", [
    ("stats.csv", "a row short"), ("stats.csv", "another header"), ("stats.csv", "deleted"),
    ("selected_ids_round2.txt", "deleted"),
])
def test_run_resume_without_the_round_files_it_reads_exits_3(tmp_path, capsys, name, damage):
    # the checkpoint holds the round count; the kept ids and stats rows are
    # read from the files each round writes before it
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    damaged = out / name
    if damage == "deleted":
        damaged.unlink()
    else:
        lines = damaged.read_bytes().split(b"\r\n")
        if damage == "a row short":
            del lines[2]
        else:
            lines[0] = lines[0].replace(b"converged", b"fit_converged")
        damaged.write_bytes(b"\r\n".join(lines))
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert f"data error: {damaged}: " in err and "Traceback" not in err
    assert tree_digest(out) == before


def test_report_and_resume_reject_a_reheaded_stats_csv_alike(tmp_path, capsys):
    # the four columns report reads are all there; only the header differs
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    stats = out / "stats.csv"
    stats.write_bytes(stats.read_bytes().replace(b"converged", b"fit_converged", 1))
    rewind_to_round_1(out)
    before = tree_digest(out)
    capsys.readouterr()
    errors = []
    for command in (["report"], ["run", "--resume"]):
        assert cli.main(command + ["-c", str(path)]) == 3
        errors.append(capsys.readouterr().err)
    header = ",".join(cli.STATS_HEADER)
    assert errors == [f"data error: {stats}: expected header {header} (line 1)\n"] * 2
    assert tree_digest(out) == before


def test_run_resume_with_a_repeated_kept_id_exits_3(tmp_path, capsys):
    # round 2 would train twice on a row its id file names twice
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    rewind_to_round_1(out)
    ids_path = out / "selected_ids_round1.txt"
    kept = read_ids(ids_path)
    with ids_path.open("a") as fh:
        fh.write(kept[0] + "\n")
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert f"data error: {ids_path}: id {kept[0]!r} appears more than once" in err
    assert "Traceback" not in err
    assert tree_digest(out) == before


@pytest.mark.parametrize("column, cell, message", BAD_STATS_CELLS)
def test_run_resume_with_a_bad_stats_cell_exits_3(tmp_path, capsys, column, cell, message):
    # resume copies the completed rounds' stats rows forward: each cell is
    # checked as report checks it
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    rewind_to_round_1(out)
    stats = out / "stats.csv"
    set_stats_cell(stats, column, cell)
    before = tree_digest(out)
    capsys.readouterr()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert f"data error: {stats}: {column}: {message}" in err and "(line 2)" in err
    assert "Traceback" not in err and tree_digest(out) == before


@pytest.mark.parametrize("damage", [None, "truncated state.json"])
def test_refused_resume_leaves_the_run_as_it_was(tmp_path, capsys, damage):
    # another noise seed would rewrite dataset.csv and config_used.json, the
    # ground truth and config that the run's files were made from
    path = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    if damage:
        text = (out / "state.json").read_text()
        (out / "state.json").write_text(text[: len(text) // 2])
    dataset, config = (out / "dataset.csv").read_bytes(), (out / "config_used.json").read_bytes()
    before = tree_digest(out)
    capsys.readouterr()
    code = cli.main(["run", "-c", str(path), "--resume", "--set", "noise.seed=99"])
    assert code == (3 if damage else 2)
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "dataset.csv").read_bytes() == dataset
    assert (out / "config_used.json").read_bytes() == config
    assert tree_digest(out) == before


@pytest.mark.parametrize("trials", [0, -3])
def test_run_trials_below_1_exits_2(tmp_path, capsys, trials):
    path = write_config(tmp_path)
    assert cli.main(["run", "-c", str(path), "--trials", str(trials)]) == 2
    assert f"config error: --trials must be >= 1, got {trials}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_trials_with_resume_exits_2(tmp_path, capsys):
    # a trial would rerun from scratch over its checkpoint: say so instead
    path = write_config(tmp_path)
    assert cli.main(["run", "-c", str(path), "--trials", "2", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--resume" in err and "--trials 2" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_eval_one_bin_exits_2(tmp_path, capsys):
    path, out = simulate_and_select(tmp_path)
    assert cli.main(["eval", "-c", str(path), "--bins", "1"]) == 2
    assert "--bins" in capsys.readouterr().err


def test_eval_missing_selected_ids_exits_3(tmp_path, capsys):
    path, out = simulate_and_select(tmp_path)
    (out / "selected_ids.txt").unlink()
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "selected_ids.txt" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_divergent_training_exits_4(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=1, epochs=3))
    assert cli.main(["run", "-c", str(path), "--set", "trainer.learning_rate=1.0e+30"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite loss" in err


def test_report_trend_starts_with_select_all_round(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    assert cli.main(["report", "-c", str(path)]) == 0
    trend = (tmp_path / "out" / "trend.csv").read_text().strip().splitlines()
    assert trend[0] == "round,precision,recall,accuracy"
    first = trend[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.6, abs=0.01)  # clean fraction
    assert float(first[2]) == 1.0
    assert len(trend) == 4  # header + round 0 + 2 rounds


def test_report_compare_writes_strategy_table(tmp_path):
    config = base_config(tmp_path, rounds=2, epochs=10)
    path = write_config(tmp_path, config)
    assert cli.main(["report", "-c", str(path), "--compare"]) == 0
    table = (tmp_path / "out" / "comparison.csv").read_text().strip().splitlines()
    assert table[0] == "strategy,kept,precision,recall,accuracy"
    strategies = [row.split(",")[0] for row in table[1:]]
    assert strategies == ["mixture_threshold", "ratio", "small_loss"]


# ---------------------------------------------------------------------------
# ids are opaque strings in input row order


def csv_dataset_config(tmp_path, ids, **round_overrides):
    ds = make_blobs(2, len(ids) // 2, 2, 3.0, seed=1)
    ds.ids = np.array(ids, dtype=object)
    data = tmp_path / "input.csv"
    write_dataset_csv(data, ds)
    config = base_config(tmp_path, **{"rounds": 1, "epochs": 5, **round_overrides})
    config["dataset"] = {"csv": str(data)}
    config["noise"] = {"type": "none"}
    return write_config(tmp_path, config)


def test_run_keeps_ids_that_look_numerically_equal(tmp_path):
    ids = [str(i) for i in range(42)]
    ids[0] = "007"  # "7" is also present
    path = csv_dataset_config(tmp_path, ids, strategy="ratio", ratio=1.0)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    assert list(read_dataset_csv(out / "dataset.csv").ids) == ids
    assert len(read_prediction_log(out / "log_round1.jsonl")) == 42
    assert read_ids(out / "selected_ids_round1.txt") == ids
    assert read_ids(out / "selected_ids_final.txt") == ids


def test_run_accepts_mixed_id_shapes(tmp_path):
    ids = [str(i) for i in range(20)] + [f"x{i}" for i in range(20)]
    path = csv_dataset_config(tmp_path, ids)
    assert cli.main(["run", "-c", str(path)]) == 0
    selected = read_ids(tmp_path / "out" / "selected_ids_round1.txt")
    assert selected == [i for i in ids if i in set(selected)]  # input order


def test_ids_with_edge_whitespace_survive_run_resume_and_eval(tmp_path):
    ids = [str(i) for i in range(40)]
    ids[0], ids[1], ids[2] = " 0", "1 ", "\u2028x"
    path = csv_dataset_config(tmp_path, ids, rounds=2, strategy="ratio", ratio=0.95)
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    full = tree_digest(out)
    assert read_ids(out / "selected_ids_round1.txt")[:3] == ids[:3]
    assert cli.main(["eval", "-c", str(path)]) == 0
    # rewound to round 1, resume reads the ids its id file holds and writes the same tree
    state = json.loads((out / "state.json").read_text())
    state["completed_rounds"] = 1
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    for name in ("eval_stats.csv", "histogram_round1.csv", "histogram_round2.csv"):
        (out / name).unlink()
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full


def test_id_with_line_break_exits_3_naming_line(tmp_path, capsys):
    ids = [str(i) for i in range(20)]
    ids[3] = "a\nb"
    path = csv_dataset_config(tmp_path, ids)
    assert cli.main(["run", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line break" in err and "line 5" in err
    log = tmp_path / "log.jsonl"
    log.write_text('{"id": "a", "seq": [0, 1]}\n{"id": "a\\nb", "seq": [1, 1]}\n')
    assert cli.main(["select", "-c", str(path), "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert "line break" in err and "line 2" in err


def test_run_duplicate_dataset_id_exits_3(tmp_path, capsys):
    ids = [str(i) for i in range(20)]
    ids[3] = "7"
    path = csv_dataset_config(tmp_path, ids)
    assert cli.main(["run", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "duplicate id '7'" in err and "line 9" in err


@pytest.mark.parametrize("labels, line", [
    ([(0, 0), (-1, 0)], 3), ([(0, 0), (1, -2)], 3), ([(-1, -1), (1, 1)], 2),
])
def test_inject_noise_negative_label_exits_3_naming_line(tmp_path, capsys, labels, line):
    data = tmp_path / "neg.csv"
    data.write_text("id,feature_0,observed_label,true_label,split\n"
                    + "".join(f"r{k},0.5,{o},{t},train\n" for k, (o, t) in enumerate(labels)))
    config = base_config(tmp_path)
    config["dataset"] = {"csv": str(data)}
    config["noise"] = {"type": "none"}
    path = write_config(tmp_path, config)
    assert cli.main(["inject-noise", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {data}: labels must be nonnegative (line {line})" in err
    assert "Traceback" not in err


DATASET_HEADER = "id,feature_0,observed_label,true_label,split\n"


@pytest.mark.parametrize("table, message", [
    pytest.param(DATASET_HEADER + "a,0.5,0,0,train\nb,1.5,1,1,training\n",
                 "split must be train or test, got 'training' (line 3)", id="training"),
    pytest.param(DATASET_HEADER + "a,0.5,0,0,train\nb,1.5,1,1,tests\n",
                 "split must be train or test, got 'tests' (line 3)", id="tests"),
    pytest.param(DATASET_HEADER + "a,0.5,0,0,test\nb,1.5,1,1,test\n",
                 "dataset has no train row", id="no train row"),
    pytest.param("id,observed_label,true_label,split\na,0,0,train\n",
                 "header must be id, then one or more feature columns, then "
                 "observed_label,true_label,split (line 1)", id="no feature column"),
])
def test_run_on_a_dataset_csv_that_is_no_dataset_exits_3(tmp_path, capsys, table, message):
    data = tmp_path / "bad.csv"
    data.write_text(table)
    config = base_config(tmp_path)
    config["dataset"] = {"csv": str(data)}
    config["noise"] = {"type": "none"}
    path = write_config(tmp_path, config)
    assert cli.main(["run", "-c", str(path)]) == 3
    assert capsys.readouterr().err == f"data error: {data}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, line", [("label", 1), ("true_label", 2)])
def test_select_label_beyond_int64_exits_3_naming_line(tmp_path, capsys, field, line):
    path = write_config(tmp_path)
    records = [{"id": "a", "label": 0, "true_label": 0, "seq": [0, 1]},
               {"id": "b", "label": 0, "true_label": 0, "seq": [1, 1]}]
    records[line - 1][field] = 99999999999999999999
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert cli.main(["select", "-c", str(path), "--log", str(log),
                     "--set", "round.strategy=ratio"]) == 3
    err = capsys.readouterr().err
    assert f"(line {line})" in err and "int64" in err


def test_select_non_finite_fit_falls_back_to_ratio(tmp_path, capsys):
    # lambda = 1e306 puts the full-metric scores near the largest double,
    # where the moment start of the EM overflows
    config = yaml.safe_load((REPO / "configs" / "simulate.yaml").read_text())
    config["output_dir"] = str(tmp_path / "sim")
    path = write_config(tmp_path, config)
    assert cli.main(["simulate", "-c", str(path)]) == 0
    assert cli.main(["select", "-c", str(path), "-o", str(tmp_path / "sel"),
                     "--log", str(tmp_path / "sim" / "simulated_log.jsonl"),
                     "--set", "round.lambda=1.0e+306", "--set", "round.metric=full"]) == 0
    assert "fell back to ratio selection" in capsys.readouterr().out
    assert not (tmp_path / "sel" / "mixture.json").exists()
    assert len(read_ids(tmp_path / "sel" / "selected_ids.txt")) == 9000


def test_write_scores_csv_matches_per_row_writer(tmp_path):
    scores = {"plain": 1.5, 'with,comma': -0.0, 'with "quote"': 0.0, "nan": math.nan,
              "inf": math.inf, "-inf": -math.inf, "again": 1.5, "zero": 0.0,
              "neg": -0.0, "np": np.float64(0.1), "tiny": 5e-324}
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["id", "score"])
    for i, score in scores.items():
        writer.writerow([i, repr(float(score))])
    cli.write_scores_csv(tmp_path / "scores.csv", list(scores), list(scores.values()))
    assert (tmp_path / "scores.csv").read_bytes() == expected.getvalue().encode()
    ids, values = cli.read_scores_csv(tmp_path / "scores.csv")
    assert ids == list(scores)
    assert values.view(np.int64).tolist() == np.array(list(scores.values())).view(
        np.int64).tolist()  # bit for bit: -0.0, nan and 5e-324 survive
    cli.write_scores_csv(tmp_path / "empty.csv", [], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"id,score\r\n"


# sha256 of `select` outputs after `simulate` on configs/simulate.yaml, as the
# fit over distinct values with counts wrote them. scores.csv and
# selected_ids.txt hold exactly rounded arithmetic only; mixture.json holds EM
# floats, whose last bits follow the platform's exp, log and power, so its
# digest applies where those match NUMERICS_DIGEST.
GOLDEN_SELECT = {
    "simplified": {
        "scores.csv": "fa756f8b94266f72f858c6aa03a29f1be5905901faef2d875f2b7f0b5ae4059a",
        "selected_ids.txt": "82370060aa7a6f464f15bb0267210fe3901cea8d46517e5cd499ef20154014fa",
        "mixture.json": "df18c8a0ef22650ef236a7154eec57c51302528f3f71cfee2f7856a6a8e880f3",
    },
    "full": {
        "scores.csv": "fa6dfe0b013e5a272d41a85e69e15f1bb15ade8f11b3e4c4f5a25f3ade3ba17a",
        "selected_ids.txt": "db02fc94586374a72cc10bc38bd83685c2dd83102193fb9b9a52301479ea46f6",
        "mixture.json": "089c8eb9ee94ce2b4fa3768285114ee854e6704eef4d4854df053bee7ed588c0",
    },
}
NUMERICS_DIGEST = "c43c0beb6fd33246288ce9843e6c0920628024a285148e29b39c0ce38666f980"


def numerics_digest() -> str:
    grid = np.linspace(-30.0, 30.0, 4097)
    pos = np.exp(grid)
    h = hashlib.sha256()
    for arr in (np.exp(grid), np.log(pos), np.power(pos, 0.37), np.power(pos, 4.2)):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("metric", ["simplified", "full"])
def test_simulate_select_outputs_match_golden(tmp_path, monkeypatch, metric):
    config = str(REPO / "configs" / "simulate.yaml")
    assert cli.main(["simulate", "-c", config, "-o", str(tmp_path / "sim")]) == 0
    argv = ["select", "-c", config, "--set", f"round.metric={metric}",
            "--log", str(tmp_path / "sim" / "simulated_log.jsonl")]
    assert cli.main(argv + ["-o", str(tmp_path / "sel")]) == 0
    # the same command with the reference fit writes the same bytes on any platform
    monkeypatch.setattr(selection_mod, "fit_metric_scores",
                        mixture_reference.fit_metric_scores)
    assert cli.main(argv + ["-o", str(tmp_path / "ref")]) == 0
    digests = tree_digest(tmp_path / "sel")
    assert digests == tree_digest(tmp_path / "ref")
    golden = GOLDEN_SELECT[metric]
    assert digests["scores.csv"] == golden["scores.csv"]
    assert digests["selected_ids.txt"] == golden["selected_ids.txt"]
    if numerics_digest() == NUMERICS_DIGEST:
        assert digests["mixture.json"] == golden["mixture.json"]
