import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import mfselect.selection as selection_mod
from mfselect import cli
from mfselect.errors import ConfigError
from mfselect.logio import (
    read_dataset_csv,
    read_ids,
    read_prediction_log,
    write_dataset_csv,
)
from mfselect.mixture import FitConfig
from mfselect.trainer import DynamicsModel, TrainerConfig, make_blobs

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
    cli.build_dynamics_model(cli.ExperimentConfig.from_dict(config))
    # commented-out alternatives ("# key: value") are keys too
    listed = yaml.safe_load(re.sub(r"^(\s*)# (\w+:)", r"\1\2", block, flags=re.M))
    sections = {
        "round": set(cli.config_keys(selection_mod.RoundConfig)),
        "fit": set(cli.config_keys(FitConfig)),
        # kind picks sgd or external; command is the external trainer's
        "trainer": set(cli.config_keys(TrainerConfig)) | {"kind", "command"},
        "simulate": set(cli.config_keys(DynamicsModel)) | set(cli.SIMULATE_SIZES),
        "dataset": {"blobs", "csv"},
        "noise": {"type", "ratio", "seed", "class_map"},
    }
    assert set(listed) == {"output_dir"} | set(sections)
    for name, keys in sections.items():
        assert set(listed[name]) == keys, name
    assert set(listed["dataset"]["blobs"]) == set(cli.BLOB_TYPES)


@pytest.mark.parametrize(
    "command,override,key",
    [
        ("run", "trainer.learning_rate=1e8", "trainer.learning_rate"),  # YAML 1.1: a string
        ("run", "trainer.batch_size=0.5", "trainer.batch_size"),
        ("run", "round.epochs=ten", "round.epochs"),
        ("run", "round.reset_model_per_round=1", "round.reset_model_per_round"),
        ("run", "fit.tol=1e-3", "fit.tol"),
        ("simulate", "simulate.p_forget_clean=high", "simulate.p_forget_clean"),
        ("simulate", "simulate.epochs=2.5", "simulate.epochs"),
        # removed knob: now an unknown key
        ("run", "round.small_loss_best_validation=true", "small_loss_best_validation"),
        ("run", "noise.ratio=abc", "noise.ratio"),
        ("inject-noise", "noise.ratio=1.5", "noise"),
        ("run", "dataset.blobs.per_class=0", "dataset.blobs"),
        ("inject-noise", "dataset.blobs.spread=wide", "dataset.blobs.spread"),
        ("run", "round.small_loss_epoch=last", "round.small_loss_epoch"),
        # every section is parsed at load, also where the command never reads it
        ("select --log unread.jsonl", "trainer.batch_size=0.5", "trainer.batch_size"),
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
    mask = json.loads((out / "clean_mask.json").read_text())
    assert sum(mask.values()) == 200
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
        "log_round2.jsonl",
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


def test_run_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    first = tree_digest(tmp_path / "out")
    cli.main(["run", "-c", str(path)])
    assert tree_digest(tmp_path / "out") == first


def test_run_resume_matches_full_run(tmp_path):
    path = write_config(tmp_path)
    cli.main(["run", "-c", str(path)])
    out = tmp_path / "out"
    full = tree_digest(out)
    # rewind the checkpoint to the end of round 1 and resume
    state = json.loads((out / "state.json").read_text())
    state["completed_rounds"] = 1
    state["stats_rows"] = state["stats_rows"][:1]
    state["current_ids"] = [str(i) for i in read_ids(out / "selected_ids_round1.txt")]
    (out / "state.json").write_text(json.dumps(state, sort_keys=True, indent=2) + "\n")
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full


def test_run_resume_damaged_checkpoint_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    state = tmp_path / "out" / "state.json"
    text = state.read_text()
    state.write_text(text[: len(text) // 2])  # a crash mid-write
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    assert "state.json" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["missing array", "truncated meta.json"])
def test_run_resume_damaged_model_checkpoint_exits_3(tmp_path, capsys, damage):
    path = write_config(tmp_path, base_config(tmp_path, rounds=2, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    model = tmp_path / "out" / "model_round2"
    if damage == "missing array":
        (model / "velocity_1.npy").unlink()
    else:
        (model / "meta.json").write_text('{"config": {')
    assert cli.main(["run", "-c", str(path), "--resume"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "model_round2" in err


def test_write_json_crash_mid_write_keeps_old_file(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    cli.write_json(target, {"completed_rounds": 1})
    before = target.read_text()

    def crash(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", crash)
    with pytest.raises(OSError):
        cli.write_json(target, {"completed_rounds": 2})
    monkeypatch.undo()
    assert target.read_text() == before


@pytest.mark.parametrize("empty_round", [1, 2])
def test_run_resume_after_emptied_selection_matches_full_run(tmp_path, monkeypatch,
                                                             empty_round):
    real_strategy = selection_mod._apply_strategy

    def strategy(scores, log, config, fit_config, round_index):
        if round_index == empty_round:
            return selection_mod.SelectionResult(
                round_index=round_index, scores=scores,
                keep=np.zeros(scores.size, dtype=bool), selected_ids=[],
            )
        return real_strategy(scores, log, config, fit_config, round_index)

    monkeypatch.setattr(selection_mod, "_apply_strategy", strategy)
    path = write_config(tmp_path, base_config(tmp_path, rounds=3, epochs=4))
    assert cli.main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    full = tree_digest(out)
    assert json.loads((out / "state.json").read_text())["truncated"]
    trained_on = (read_ids(out / "selected_ids_round1.txt") if empty_round == 2
                  else read_dataset_csv(out / "dataset.csv").train_ids)
    assert read_ids(out / "selected_ids_final.txt") == trained_on
    assert cli.main(["run", "-c", str(path), "--resume"]) == 0
    assert tree_digest(out) == full


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


def test_select_small_loss_without_losses_exits_3(tmp_path, capsys):
    path = write_config(tmp_path)
    cli.main(["simulate", "-c", str(path)])
    log = tmp_path / "out" / "simulated_log.jsonl"
    assert cli.main(["select", "-c", str(path), "-o", str(tmp_path / "sel"),
                     "--log", str(log), "--set", "round.strategy=small_loss"]) == 3
    err = capsys.readouterr().err
    assert str(log) in err and "'losses' in every record" in err


def test_select_small_loss_epoch_checked_against_log(tmp_path, capsys):
    # round.epochs (10) is not the bound: the log has 3 epochs
    path = write_config(tmp_path)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"i{k}", "label": 0, "seq": [0, 1, 1],
                    "losses": [1.0, 0.5, 0.1 * k]}) + "\n"
        for k in range(20)
    ))
    argv = ["select", "-c", str(path), "-o", str(tmp_path / "sel"), "--log", str(log),
            "--set", "round.strategy=small_loss"]
    for k in (-3, 2):
        assert cli.main(argv + ["--set", f"round.small_loss_epoch={k}"]) == 0
    for k in (-4, 3, 5):
        assert cli.main(argv + ["--set", f"round.small_loss_epoch={k}"]) == 2
        assert "round.small_loss_epoch" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["report", "--compare"]])
def test_small_loss_epoch_checked_against_round_epochs(tmp_path, capsys, command):
    path = write_config(tmp_path)
    argv = command + ["-c", str(path), "--set", "round.strategy=small_loss",
                      "--set", "round.epochs=3", "--set", "round.rounds=1"]
    assert cli.main(argv + ["--set", "round.small_loss_epoch=3"]) == 2
    assert "round.small_loss_epoch" in capsys.readouterr().err
    out = tmp_path / "out"  # rejected before any training
    assert not (out / "dataset.csv").exists() and not (out / "comparison.csv").exists()
    for k in (-3, 2):  # the indices numpy accepts stay accepted
        assert cli.main(argv + ["--set", f"round.small_loss_epoch={k}"]) == 0


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


@pytest.mark.parametrize("name", ["selected_ids.txt", "scores.csv"])
def test_eval_id_outside_ground_truth_exits_3(tmp_path, capsys, name):
    path, out = simulate_and_select(tmp_path)
    with (out / name).open("a") as fh:
        fh.write("zzz_unknown\n" if name.endswith(".txt") else "zzz_unknown,1.0\r\n")
    assert cli.main(["eval", "-c", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and name in err and "'zzz_unknown'" in err


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
    # rewound to round 1 with the ids its id file holds, resume writes the same tree
    state = json.loads((out / "state.json").read_text())
    state.update(completed_rounds=1, stats_rows=state["stats_rows"][:1],
                 current_ids=read_ids(out / "selected_ids_round1.txt"))
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
# fit that recomputes every invariant wrote them. scores.csv and
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
        "mixture.json": "52f47784d3ddd12dce7da86985c22b2d28778e1a35dc294d8bf41f3eb922e740",
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
