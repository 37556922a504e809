"""Config-driven command-line surface.

One YAML/JSON config file describes an experiment (dataset, noise,
trainer, rounds, fit); each command runs one stage and writes its outputs
into the config's output directory. All randomness is seeded from the
config, outputs contain no timestamps, and the resolved config is copied
next to the results, so re-running a command overwrites its outputs with
byte-identical content and any artifact is reproducible from its output
directory alone.

Exit codes: 0 success, 2 configuration error (including a config value
of the wrong type), 3 data/log format error (including an unreadable
``state.json`` or model checkpoint on ``--resume``), 4 numerical failure (mixture collapse
without a fallback, or training that diverged).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field, fields, replace
from itertools import count, takewhile
from pathlib import Path

import numpy as np
import yaml

from . import evaluation, logio, selection
from .errors import (
    ConfigError,
    LogFormatError,
    MixtureFitError,
    TrainerCommandError,
)
from .mixture import FitConfig, MixtureFit
from .selection import RoundConfig
from .trainer import (
    DynamicsModel,
    SGDTrainer,
    ToyDataset,
    TrainerConfig,
    circular_class_map,
    inject_asymmetric_noise,
    inject_symmetric_noise,
    make_blobs,
    simulate_dynamics,
)

DEFAULT_BINS = 40


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Validated view of one experiment config file.

    ``trainer`` is the built-in sgd trainer's ``TrainerConfig``, or the
    section itself for an external trainer.
    """

    raw: dict
    output_dir: Path
    dataset: dict | None = None
    noise: dict | None = None
    trainer: TrainerConfig | dict | None = None
    round_config: RoundConfig = field(default_factory=RoundConfig)
    fit_config: FitConfig = field(default_factory=FitConfig)
    simulate: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict, output_dir: str | None = None) -> "ExperimentConfig":
        out = output_dir or raw.get("output_dir")
        if not out:
            raise ConfigError("output_dir is required (config key or --output-dir)")
        cfg = cls(raw=raw, output_dir=Path(out))
        cfg.dataset = _validate_dataset(raw.get("dataset"))
        cfg.noise = _validate_noise(raw.get("noise"))
        cfg.trainer = _parse_trainer(raw.get("trainer"))
        cfg.round_config = _build(RoundConfig, raw.get("round") or {}, "round")
        cfg.fit_config = _build(FitConfig, raw.get("fit") or {}, "fit")
        cfg.simulate = raw.get("simulate")
        return cfg


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_type(value, kind, name: str) -> None:
    """ConfigError naming ``name`` unless ``value`` is a ``kind``.

    ``kind`` is a type or a field annotation: float takes any number,
    ``X | None`` takes None too, and ``list[X]`` any list.
    """
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return
        kind = typing.get_args(kind)[0]
    kind = typing.get_origin(kind) or kind
    expected = (int, float) if kind is float else kind
    if not isinstance(value, expected) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


# config keys that differ from the name of their dataclass field
CONFIG_NAMES = {"lam": "lambda", "metric_kind": "metric"}
# the simulate keys beside the DynamicsModel ones: simulate_dynamics' sizes
SIMULATE_SIZES = ("n_clean", "n_noisy", "epochs", "seed")


def config_keys(cls) -> dict:
    """Config key -> field name, for each field of the dataclass ``cls``."""
    return {CONFIG_NAMES.get(f.name, f.name): f.name for f in fields(cls)}


def _build(cls, section: dict, where: str, extra=()):
    """``cls`` from a config section; bad keys and values are ConfigErrors.

    The section's keys are the fields of ``cls`` (see ``config_keys``) plus
    the ``extra`` keys that the caller reads itself; absent fields keep the
    dataclass defaults. A value that does not match its field's annotation
    is rejected by key, so a YAML string such as ``1e8`` never reaches the
    dataclass.
    """
    keys = config_keys(cls)
    _reject_unknown(section, set(keys) | set(extra), where)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, name in keys.items():
        if key in section:
            value = kwargs[name] = section[key]
            _check_type(value, hints[name], f"{where}.{key}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}")


# make_blobs parameters, by type; all but test_per_class are required
BLOB_TYPES = {"n_classes": int, "per_class": int, "dim": int, "spread": float,
              "seed": int, "test_per_class": int}


def _validate_dataset(section):
    if section is None:
        return None
    _reject_unknown(section, {"blobs", "csv"}, "dataset")
    sources = [k for k in ("blobs", "csv") if section.get(k) is not None]
    if len(sources) != 1:
        raise ConfigError("dataset must name exactly one source: blobs or csv")
    if "csv" in sources:
        _check_type(section["csv"], str, "dataset.csv")
        return section
    blobs = section["blobs"]
    _reject_unknown(blobs, set(BLOB_TYPES), "dataset.blobs")
    for key, kind in BLOB_TYPES.items():
        if key in blobs:
            _check_type(blobs[key], kind, f"dataset.blobs.{key}")
        elif key != "test_per_class":
            raise ConfigError(f"dataset.blobs.{key} is required (seeds are explicit)")
    return section


def _validate_noise(section):
    if section is None:
        return None
    _reject_unknown(section, {"type", "ratio", "seed", "class_map"}, "noise")
    kind = section.get("type", "none")
    if kind not in ("none", "symmetric", "asymmetric"):
        raise ConfigError(f"noise.type must be none|symmetric|asymmetric, got {kind!r}")
    if kind != "none":
        if "ratio" not in section:
            raise ConfigError("noise.ratio is required")
        if "seed" not in section:
            raise ConfigError("noise.seed is required (seeds are explicit)")
        _check_type(section["ratio"], float, "noise.ratio")
        _check_type(section["seed"], int, "noise.seed")
    if kind == "asymmetric":
        class_map = section.get("class_map")
        if class_map != "circular" and not isinstance(class_map, dict):
            raise ConfigError("noise.class_map must be 'circular' or a class -> class "
                              "mapping for asymmetric noise")
    return section


def _parse_trainer(section):
    """The sgd trainer's ``TrainerConfig``, or an external trainer's section."""
    if section is None:
        return None
    kind = section.get("kind", "sgd")
    if kind == "external":
        _reject_unknown(section, {"kind", "command", "seed"}, "trainer")
        if not section.get("command"):
            raise ConfigError("trainer.command is required for an external trainer")
        return section
    if kind != "sgd":
        raise ConfigError(f"trainer.kind must be sgd or external, got {kind!r}")
    config = _build(TrainerConfig, section, "trainer", extra=("kind",))
    if "seed" not in section:
        raise ConfigError("trainer.seed is required (seeds are explicit)")
    return config


def _check_small_loss_epoch(rc: RoundConfig, epochs: int) -> None:
    """ConfigError unless ``round.small_loss_epoch`` indexes one of ``epochs``."""
    k = rc.small_loss_epoch
    if k is not None and not -epochs <= k < epochs:
        raise ConfigError(f"round.small_loss_epoch={k} is out of range for "
                          f"{epochs} epochs (need {-epochs} <= k < {epochs})")


def load_config(path, overrides=(), output_dir=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for item in overrides:
        raw = _apply_override(raw, item)
    return ExperimentConfig.from_dict(raw, output_dir=output_dir)


def _apply_override(raw: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigError(f"--set expects key.path=value, got {item!r}")
    dotted, text = item.split("=", 1)
    keys = dotted.strip().split(".")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError:
        value = text
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-mapping node")
    node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# builders


def build_dataset(cfg: ExperimentConfig) -> ToyDataset:
    section = cfg.dataset
    if section is None:
        raise ConfigError("config section 'dataset' is required for this command")
    if section.get("csv"):
        return logio.read_dataset_csv(section["csv"])
    try:
        return make_blobs(**section["blobs"])
    except ValueError as exc:
        raise ConfigError(f"dataset.blobs: {exc}")


def apply_noise(ds: ToyDataset, cfg: ExperimentConfig) -> ToyDataset:
    section = cfg.noise
    if section is None or section.get("type", "none") == "none":
        return ds
    try:
        if section["type"] == "symmetric":
            return inject_symmetric_noise(ds, section["ratio"], section["seed"])
        class_map = section["class_map"]
        if class_map == "circular":
            class_map = circular_class_map(ds.n_classes)
        else:
            class_map = {int(k): int(v) for k, v in class_map.items()}
        return inject_asymmetric_noise(ds, section["ratio"], class_map, section["seed"])
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}")


def build_trainer(cfg: ExperimentConfig, ds: ToyDataset, workdir: Path):
    section = cfg.trainer
    if section is None:
        raise ConfigError("config section 'trainer' is required for this command")
    if isinstance(section, TrainerConfig):
        return SGDTrainer(ds.features.shape[1], ds.n_classes, section)
    return logio.ExternalTrainer(
        section["command"], workdir / "dataset.csv", workdir / "external",
        seed=section.get("seed", 0),
    )


def build_dynamics_model(cfg: ExperimentConfig) -> tuple[DynamicsModel, dict]:
    section = cfg.simulate
    if section is None:
        raise ConfigError("config section 'simulate' is required for this command")
    model = _build(DynamicsModel, section, "simulate", extra=SIMULATE_SIZES)
    for key in SIMULATE_SIZES:
        if key not in section:
            raise ConfigError(f"simulate.{key} is required")
        _check_type(section[key], int, f"simulate.{key}")
    return model, section


# ---------------------------------------------------------------------------
# deterministic writers


def write_json(path: Path, doc) -> None:
    """Write ``doc`` atomically: a crash mid-write leaves the old file intact."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


def capture_config(cfg: ExperimentConfig, outdir: Path) -> None:
    write_json(outdir / "config_used.json", cfg.raw)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_stats_csv(path: Path, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "kept", "precision", "recall", "test_accuracy",
             "threshold", "converged"]
        )
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_scores_csv(path: Path, ids, values) -> None:
    values = np.asarray(values, dtype=float)
    # metric scores take few distinct values: format each one once, keyed on
    # its bit pattern so that -0.0 and 0.0 keep their own repr
    distinct, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = [repr(v) for v in distinct.view(np.float64).tolist()]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score"])
        writer.writerows(zip(ids, map(texts.__getitem__, which.tolist())))


def read_scores_csv(path: Path) -> tuple[list, np.ndarray]:
    """The id and score columns of a scores file, in file order."""
    ids, values = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "score"]:
            raise LogFormatError("expected header id,score", path=path, line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise LogFormatError(str(exc), path=path, line=lineno)
            ids.append(row[0])
    return ids, np.array(values, dtype=float)


# a checkpoint's arrays, by state_dict key: one <stem>_<index>.npy file each
CHECKPOINT_ARRAYS = {"params": "param", "velocity": "velocity"}


def save_model(trainer: SGDTrainer, outdir: Path) -> None:
    """Write ``trainer.state_dict()``: its arrays as .npy files, the rest as meta.json."""
    state = trainer.state_dict()
    outdir.mkdir(parents=True, exist_ok=True)
    for key, stem in CHECKPOINT_ARRAYS.items():
        for idx, array in enumerate(state.pop(key)):
            np.save(outdir / f"{stem}_{idx}.npy", array)
    write_json(outdir / "meta.json", state)


def load_model(outdir: Path) -> SGDTrainer:
    try:
        state = json.loads((outdir / "meta.json").read_text())
        for key, stem in CHECKPOINT_ARRAYS.items():
            paths = takewhile(Path.exists, (outdir / f"{stem}_{idx}.npy" for idx in count()))
            state[key] = [np.load(path) for path in paths]
        return SGDTrainer.from_state_dict(state)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # JSON errors included
        raise LogFormatError(f"cannot resume from a damaged model checkpoint: "
                             f"{type(exc).__name__}: {exc}", path=outdir) from None


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ExperimentConfig) -> int:
    model, section = build_dynamics_model(cfg)
    log = simulate_dynamics(
        section["n_clean"], section["n_noisy"], model,
        epochs=section["epochs"], seed=section["seed"],
    )
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    logio.write_prediction_log(outdir / "simulated_log.jsonl", log)
    write_json(outdir / "clean_mask.json", dict(zip(log.ids, log.clean_mask().tolist())))
    capture_config(cfg, outdir)
    print(f"wrote {len(log)} records to {outdir / 'simulated_log.jsonl'}")
    return 0


def cmd_inject_noise(cfg: ExperimentConfig) -> int:
    ds = apply_noise(build_dataset(cfg), cfg)
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    logio.write_dataset_csv(outdir / "dataset.csv", ds)
    capture_config(cfg, outdir)
    print(
        f"wrote {len(ds.ids)} rows ({ds.noise_ratio():.1%} train noise) "
        f"to {outdir / 'dataset.csv'}"
    )
    return 0


def _stats_row(result) -> list:
    st = result.stats
    return [
        result.round_index,
        len(result.selected_ids),
        None if st is None else st.precision,
        None if st is None else st.recall,
        result.test_accuracy,
        result.threshold,
        None if result.fit is None else result.fit.converged,
    ]


def _read_state(path: Path) -> dict:
    try:
        state = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"cannot resume from a damaged checkpoint: {exc.msg}",
                             path=path, line=exc.lineno)
    if not isinstance(state, dict):
        raise LogFormatError("cannot resume: checkpoint is not a JSON object", path=path)
    return state


def run_pipeline(cfg: ExperimentConfig, outdir: Path, resume: bool = False) -> list:
    """One full multi-round pipeline with per-round artifacts and checkpoints.

    The rounds themselves run in ``selection.run_multiround``; this writes
    what each round leaves behind. Returns the stats rows (one per
    completed round).
    """
    ds = apply_noise(build_dataset(cfg), cfg)
    trainer = build_trainer(cfg, ds, outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    logio.write_dataset_csv(outdir / "dataset.csv", ds)
    capture_config(cfg, outdir)

    state_path = outdir / "state.json"
    start_round, ids, stats_rows = 1, None, []
    if resume and state_path.exists():
        state = _read_state(state_path)
        if state.get("config") != cfg.raw:
            raise ConfigError(
                "state.json belongs to a different config; rerun without --resume"
            )
        done = state["completed_rounds"]
        start_round, ids, stats_rows = done + 1, state["current_ids"], state["stats_rows"]
        if state.get("truncated"):
            # the selection emptied: no round is left to run, and the final
            # ids are the ones the emptying round trained on
            start_round = cfg.round_config.rounds + 1
            ids = (logio.read_ids(outdir / f"selected_ids_round{done - 1}.txt")
                   if done > 1 else ds.train_ids)
        model_dir = outdir / f"model_round{done}"
        if model_dir.exists():
            trainer = load_model(model_dir)

    def on_round(result, log):
        k = result.round_index
        # labels come from the dataset whichever trainer wrote the log
        pos = ds.positions_of(log.ids)
        logio.write_prediction_log(
            outdir / f"log_round{k}.jsonl",
            replace(log, labels=ds.observed_labels[pos], true_labels=ds.true_labels[pos]),
        )
        write_scores_csv(outdir / f"scores_round{k}.csv", log.ids, result.scores)
        logio.write_ids(outdir / f"selected_ids_round{k}.txt", result.selected_ids)
        if result.fit is not None:
            write_json(outdir / f"mixture_round{k}.json", result.fit.to_json_dict())
        stats_rows.append(_stats_row(result))
        write_stats_csv(outdir / "stats.csv", stats_rows)
        if isinstance(trainer, SGDTrainer):
            save_model(trainer, outdir / f"model_round{k}")
        write_json(
            state_path,
            {
                "completed_rounds": k,
                "current_ids": result.selected_ids,
                "stats_rows": stats_rows,
                "truncated": not result.selected_ids,
                "config": cfg.raw,
            },
        )
        if result.warning:
            print(f"round {k}: {result.warning}")

    multi = selection.run_multiround(
        ds, trainer, cfg.round_config, cfg.fit_config,
        ids=ids, start_round=start_round, on_round=on_round,
    )
    logio.write_ids(outdir / "selected_ids_final.txt", multi.final_ids)
    if isinstance(trainer, SGDTrainer):
        save_model(trainer, outdir / "model_final")
    if multi.truncated:
        print("selection emptied; stopped early")
    return stats_rows


def cmd_run(cfg: ExperimentConfig, trials: int = 1, resume: bool = False) -> int:
    if cfg.round_config.strategy == "small_loss":
        _check_small_loss_epoch(cfg.round_config, cfg.round_config.epochs)
    if trials <= 1:
        rows = run_pipeline(cfg, cfg.output_dir, resume=resume)
        for row in rows:
            print(
                f"round {row[0]}: kept={row[1]} precision={_fmt(row[2]) or 'n/a'} "
                f"recall={_fmt(row[3]) or 'n/a'} accuracy={_fmt(row[4]) or 'n/a'}"
            )
        return 0
    return _run_trials(cfg, trials)


def _trial_payload(cfg: ExperimentConfig, trial: int) -> dict:
    raw = json.loads(json.dumps(cfg.raw))  # deep copy
    for section, key in (("noise", "seed"), ("trainer", "seed"), ("fit", "seed")):
        if raw.get(section, {}).get(key) is not None:
            raw[section][key] = raw[section][key] + trial
    raw["output_dir"] = str(cfg.output_dir / f"trial_{trial:02d}")
    return raw


def _trial_worker(raw: dict) -> list:
    cfg = ExperimentConfig.from_dict(raw)
    return run_pipeline(cfg, cfg.output_dir)


def _run_trials(cfg: ExperimentConfig, trials: int) -> int:
    payloads = [_trial_payload(cfg, t) for t in range(trials)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(trials, 4)) as pool:
        results = list(pool.map(_trial_worker, payloads))
    finals = [rows[-1] for rows in results if rows]
    metrics = {"precision": 2, "recall": 3, "test_accuracy": 4}
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "aggregate.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "stddev", "trials"])
        for name, col in metrics.items():
            values = [row[col] for row in finals if row[col] is not None]
            if not values:
                writer.writerow([name, "", "", 0])
                continue
            writer.writerow(
                [name, _fmt(float(np.mean(values))), _fmt(float(np.std(values))),
                 len(values)]
            )
    capture_config(cfg, outdir)
    print(f"aggregated {trials} trials into {outdir / 'aggregate.csv'}")
    return 0


def cmd_select(cfg: ExperimentConfig, log_path) -> int:
    log = logio.read_prediction_log(log_path)
    if cfg.round_config.strategy == "small_loss":
        if log.losses is None:
            raise LogFormatError("the small_loss strategy needs 'losses' in every record",
                                 path=log_path)
        _check_small_loss_epoch(cfg.round_config, log.bits.shape[1])
    result = selection.select_round(log, cfg.round_config, cfg.fit_config, 1)

    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    write_scores_csv(outdir / "scores.csv", log.ids, result.scores)
    logio.write_ids(outdir / "selected_ids.txt", result.selected_ids)
    if result.fit is not None:
        write_json(outdir / "mixture.json", result.fit.to_json_dict())
    clean = log.clean_mask()
    if clean is not None:
        write_json(outdir / "clean_mask.json", dict(zip(log.ids, clean.tolist())))
        stats = result.stats = evaluation.selection_precision_recall(result.keep, clean)
        write_stats_csv(outdir / "stats.csv", [_stats_row(result)])
        print(
            f"selected {stats.kept}/{len(log)} "
            f"(precision={_fmt(stats.precision) or 'n/a'} recall={_fmt(stats.recall) or 'n/a'})"
        )
    else:
        print(f"selected {len(result.selected_ids)}/{len(log)}")
    if result.warning:
        print(result.warning)
    capture_config(cfg, outdir)
    return 0


def _load_clean_mask(outputs: Path) -> tuple[list, np.ndarray]:
    """The ground truth in an outputs dir: training ids and their clean mask."""
    dataset_csv = outputs / "dataset.csv"
    if dataset_csv.exists():
        ds = logio.read_dataset_csv(dataset_csv)
        return ds.train_ids, ds.clean_mask()
    mask_json = outputs / "clean_mask.json"
    if mask_json.exists():
        doc = json.loads(mask_json.read_text())
        return list(doc), np.array([bool(v) for v in doc.values()], dtype=bool)
    raise LogFormatError(
        "no ground truth in outputs dir (need dataset.csv or clean_mask.json)",
        path=outputs,
    )


def _discover_rounds(outputs: Path) -> list[tuple[int, Path]]:
    rounds = []
    for path in sorted(outputs.glob("scores_round*.csv")):
        rounds.append((int(path.stem.replace("scores_round", "")), path))
    if not rounds and (outputs / "scores.csv").exists():
        rounds.append((1, outputs / "scores.csv"))
    if not rounds:
        raise LogFormatError("no score files found in outputs dir", path=outputs)
    return sorted(rounds)


def cmd_eval(cfg: ExperimentConfig, outputs: Path | None, bins: int) -> int:
    if bins < 2:
        raise ConfigError(f"--bins must be >= 2, got {bins}")
    outputs = Path(outputs) if outputs else cfg.output_dir
    truth_ids, clean = _load_clean_mask(outputs)
    row_of = {i: row for row, i in enumerate(truth_ids)}

    def truth_rows(ids, path) -> np.ndarray:
        try:
            return np.array([row_of[i] for i in ids], dtype=np.intp)
        except KeyError as exc:
            raise LogFormatError(f"id {exc.args[0]!r} is not in the ground truth",
                                 path=path) from None

    rows = []
    for round_index, scores_path in _discover_rounds(outputs):
        score_ids, values = read_scores_csv(scores_path)
        names = (f"selected_ids_round{round_index}.txt", "selected_ids.txt")
        ids_path = next((outputs / n for n in names if (outputs / n).exists()), None)
        if ids_path is None:
            raise LogFormatError(f"no selected ids for round {round_index} "
                                 f"(need {names[0]} or {names[1]})", path=outputs)
        selected = np.zeros(clean.size, dtype=bool)
        selected[truth_rows(logio.read_ids(ids_path), ids_path)] = True
        stats = evaluation.selection_precision_recall(selected, clean)
        rows.append([round_index, stats.kept, stats.precision, stats.recall,
                     None, None, None])
        fit = None
        fit_path = outputs / f"mixture_round{round_index}.json"
        if not fit_path.exists():
            fit_path = outputs / "mixture.json"
        if fit_path.exists():
            try:
                fit = MixtureFit.from_json_dict(json.loads(fit_path.read_text()))
            except (KeyError, TypeError, ValueError) as exc:  # JSON errors included
                raise LogFormatError(f"not a mixture fit: {type(exc).__name__}: {exc}",
                                     path=fit_path) from None
        hist_csv, overlay = evaluation.histogram_export(
            values, clean[truth_rows(score_ids, scores_path)], bins, fit)
        (outputs / f"histogram_round{round_index}.csv").write_text(hist_csv)
        if overlay is not None:
            write_json(outputs / f"overlay_round{round_index}.json", overlay)
    write_stats_csv(outputs / "eval_stats.csv", rows)
    print(f"evaluated {len(rows)} round(s) into {outputs / 'eval_stats.csv'}")
    return 0


def _read_stats_csv(path: Path) -> list[dict]:
    if not path.exists():
        raise LogFormatError("stats.csv not found; run the pipeline first", path=path)
    rows = []
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(row)
    return rows


def cmd_report(cfg: ExperimentConfig, outputs: Path | None, compare: bool) -> int:
    outputs = Path(outputs) if outputs else cfg.output_dir
    outputs.mkdir(parents=True, exist_ok=True)
    if compare:
        return _write_comparison(cfg, outputs)
    stats_rows = _read_stats_csv(outputs / "stats.csv")
    trend = io.StringIO()
    writer = csv.writer(trend)
    writer.writerow(["round", "precision", "recall", "accuracy"])
    dataset_csv = outputs / "dataset.csv"
    if dataset_csv.exists():
        # round 0: the untouched training set (select-all baseline)
        ds = logio.read_dataset_csv(dataset_csv)
        writer.writerow([0, _fmt(1.0 - ds.noise_ratio()), _fmt(1.0), ""])
    for row in stats_rows:
        writer.writerow(
            [row["round"], row["precision"], row["recall"], row["test_accuracy"]]
        )
    (outputs / "trend.csv").write_text(trend.getvalue())
    print(f"wrote {outputs / 'trend.csv'}")
    return 0


def _write_comparison(cfg: ExperimentConfig, outputs: Path) -> int:
    if isinstance(cfg.trainer, dict):  # an external trainer's section
        raise ConfigError("report --compare needs the built-in sgd trainer")
    _check_small_loss_epoch(cfg.round_config, cfg.round_config.epochs)
    ds = apply_noise(build_dataset(cfg), cfg)
    rows = selection.compare_strategies(
        ds,
        lambda: build_trainer(cfg, ds, outputs),
        cfg.round_config,
        cfg.fit_config,
    )
    with (outputs / "comparison.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "kept", "precision", "recall", "accuracy"])
        for row in rows:
            writer.writerow(
                [row["strategy"], row["kept"], _fmt(row["precision"]),
                 _fmt(row["recall"]), _fmt(row["accuracy"])]
            )
    capture_config(cfg, outputs)
    print(f"wrote {outputs / 'comparison.csv'}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfselect",
        description="Clean-sample selection via memorization/forgetting dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", required=True, help="YAML/JSON config file")
        p.add_argument("--output-dir", "-o", help="overrides the config's output_dir")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY.PATH=VALUE", help="override a config value",
        )

    common(sub.add_parser("simulate", help="generate synthetic dynamics and a log"))
    common(sub.add_parser("inject-noise", help="build a dataset CSV with label noise"))

    run_p = sub.add_parser("run", help="multi-round training and selection")
    common(run_p)
    run_p.add_argument("--trials", type=int, default=1,
                       help="seed-varied repetitions, aggregated mean/stddev")
    run_p.add_argument("--resume", action="store_true",
                       help="continue from the last completed round's checkpoint")

    select_p = sub.add_parser("select", help="offline selection from a prediction log")
    common(select_p)
    select_p.add_argument("--log", required=True, help="prediction log (jsonl)")

    eval_p = sub.add_parser("eval", help="score selections against ground truth")
    common(eval_p)
    eval_p.add_argument("--dir", help="outputs dir (defaults to output_dir)")
    eval_p.add_argument("--bins", type=int, default=DEFAULT_BINS)

    report_p = sub.add_parser("report", help="trend table or strategy comparison")
    common(report_p)
    report_p.add_argument("--dir", help="outputs dir (defaults to output_dir)")
    report_p.add_argument("--compare", action="store_true",
                          help="run all strategies and tabulate them")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args.overrides,
                          output_dir=args.output_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "inject-noise":
            return cmd_inject_noise(cfg)
        if args.command == "run":
            return cmd_run(cfg, trials=args.trials, resume=args.resume)
        if args.command == "select":
            return cmd_select(cfg, args.log)
        if args.command == "eval":
            return cmd_eval(cfg, args.dir, args.bins)
        if args.command == "report":
            return cmd_report(cfg, args.dir, args.compare)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LogFormatError, TrainerCommandError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (MixtureFitError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
