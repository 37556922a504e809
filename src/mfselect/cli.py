"""Config-driven command-line surface.

One YAML/JSON config file describes an experiment (dataset, noise,
trainer, rounds, fit); each command runs one stage and writes its outputs
into the config's output directory. All randomness is seeded from the
config, outputs contain no timestamps, and the resolved config is copied
next to the results, so re-running a command overwrites its outputs with
byte-identical content and any artifact is reproducible from its output
directory alone.

Each round, of a ``run`` or a ``select``, writes its files as it selects
(``round_files``): scores, kept ids, the mixture fit, and the histogram of
its scores by the log's ground truth with the fit's densities to overlay.
Only a run's directory holds ground truth files, which ``report`` reads for
the run's select-all baseline.

Exit codes: 0 success, 2 configuration error (including a config value
of the wrong type), 3 data error (a bad or unreadable input, such as
``state.json`` on ``--resume``, an output that cannot be written, or a
failed external trainer command), 4 numerical failure (training that diverged).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import traceback
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from . import evaluation, logio, selection
from .errors import ConfigError, LogFormatError
from .mixture import FitConfig
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

# the bins of each round's histogram
HISTOGRAM_BINS = 40


# ---------------------------------------------------------------------------
# configuration


@dataclass
class BlobsConfig:
    """``make_blobs``' parameters; all but ``test_per_class`` are required."""

    n_classes: int
    per_class: int
    dim: int
    spread: float
    seed: int
    test_per_class: int = 0


@dataclass
class DatasetConfig:
    """The dataset section: exactly one source, blobs or a dataset CSV."""

    blobs: BlobsConfig | None = None
    csv: str | None = None

    def __post_init__(self):
        if (self.blobs is None) == (self.csv is None):
            raise ValueError("name exactly one source: blobs or csv")


@dataclass
class NoiseConfig:
    """The noise section: a ``ratio`` flips labels, symmetrically or by
    ``class_map``; without one the labels stay as they are."""

    ratio: float | None = None
    seed: int | None = None
    class_map: str | dict[int | str, int] | None = None

    def __post_init__(self):
        if self.ratio is not None and self.seed is None:
            raise ValueError("a ratio needs a seed (seeds are explicit)")
        given = [key for key in ("seed", "class_map") if getattr(self, key) is not None]
        if self.ratio is None and given:
            raise ValueError(f"{given[0]} needs a ratio: without one no label is flipped")
        if isinstance(self.class_map, str) and self.class_map != "circular":
            raise ValueError(f"class_map must be 'circular' or a mapping, got {self.class_map!r}")
        if isinstance(self.class_map, dict):  # JSON writes each class key as a string
            self.class_map = {int(k): v for k, v in self.class_map.items()}


@dataclass(kw_only=True)
class SGDConfig(TrainerConfig):
    """The built-in trainer's section: a ``TrainerConfig`` with an explicit seed."""

    seed: int = field()  # no default: without field(), TrainerConfig's would do


@dataclass
class ExternalTrainerConfig:
    """An external trainer's section: its command template and seed."""

    command: str
    seed: int = 0

    def __post_init__(self):
        try:
            logio.split_command(self.command)
        except ValueError as exc:  # named by key: _build would name only the section
            raise ConfigError(f"trainer.command: {exc}") from None


@dataclass(kw_only=True)
class SimulateConfig(DynamicsModel):
    """The simulate section: the chain's parameters and ``simulate_dynamics``' sizes."""

    n_clean: int
    n_noisy: int
    epochs: int
    seed: int


@dataclass
class ExperimentConfig:
    """Validated view of one experiment config file; ``raw`` is the file's
    mapping as given, and each section is its dataclass (None when absent)."""

    raw: dict
    output_dir: Path
    dataset: DatasetConfig | None
    noise: NoiseConfig
    trainer: SGDConfig | ExternalTrainerConfig | None
    round_config: RoundConfig
    fit_config: FitConfig
    simulate: SimulateConfig | None

    @classmethod
    def from_dict(cls, raw: dict, output_dir: str | None = None) -> "ExperimentConfig":
        _reject_unknown(raw, ROOT_KEYS)
        _check_type(raw.get("output_dir"), str | None, "output_dir")
        out = output_dir or raw.get("output_dir")
        if not out:
            raise ConfigError("output_dir is required (config key or --output-dir)")

        def optional(kind, key):  # an absent or null section is None
            return None if raw.get(key) is None else _build(kind, raw[key], key)

        # a command makes the trainer the external one
        external = isinstance(raw.get("trainer"), dict) and "command" in raw["trainer"]
        trainer = optional(ExternalTrainerConfig if external else SGDConfig, "trainer")
        return cls(raw=raw, output_dir=Path(out), dataset=optional(DatasetConfig, "dataset"),
                   noise=_build(NoiseConfig, raw.get("noise"), "noise"), trainer=trainer,
                   round_config=_build(RoundConfig, raw.get("round"), "round"),
                   fit_config=_build(FitConfig, raw.get("fit"), "fit"),
                   simulate=optional(SimulateConfig, "simulate"))


# the sections of a config file, and its one top-level value
ROOT_KEYS = {"output_dir", "dataset", "noise", "trainer", "round", "fit", "simulate"}


def _reject_unknown(section: dict, allowed: set, where: str = "") -> None:
    """ConfigError unless the ``where`` section (the root when empty) is a
    mapping; else one naming, by dotted path, each key not in ``allowed``."""
    _check_type(section, dict, where or "config root")
    unknown = sorted(map(str, set(section) - allowed))
    if unknown:
        prefix = f"{where}." if where else ""
        raise ConfigError("unknown config key(s): " + ", ".join(prefix + k for k in unknown))


def _check_type(value, kind, name: str) -> None:
    """ConfigError naming ``name`` unless ``value`` is a ``kind``.

    ``kind`` is a type or a field annotation: float takes any finite number,
    bool is no int, a union takes a value of any of its members, ``list[X]``
    and ``dict[K, X]`` check each element (and key), naming it ``name[i]``,
    and a string must not be empty.
    """
    def is_a(kind):  # at the top level
        kind = typing.get_origin(kind) or kind
        expected = (int, float) if kind is float else kind
        return isinstance(value, expected) and isinstance(value, bool) == (kind is bool)

    if isinstance(kind, types.UnionType):  # the member of the value's own type
        kind = next(filter(is_a, typing.get_args(kind)), kind)
    if isinstance(kind, types.UnionType) or not is_a(kind):
        raise ConfigError(f"{name} must be {getattr(kind, '__name__', kind)}, got {value!r}")
    if value == "":
        raise ConfigError(f"{name} must not be empty")
    if kind is float and not -np.inf < value < np.inf:  # NaN included
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if typing.get_origin(kind) in (list, dict):  # each element, by its index or key
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(value, dict):
                _check_type(key, typing.get_args(kind)[0], f"{name} key {key!r}")
            _check_type(item, typing.get_args(kind)[-1], f"{name}[{key!r}]")


# config keys that differ from the name of their dataclass field
CONFIG_NAMES = {"lam": "lambda", "metric_kind": "metric"}


def config_keys(cls) -> dict:
    """Config key -> field name, for each field of the dataclass ``cls``."""
    return {CONFIG_NAMES.get(f.name, f.name): f.name for f in fields(cls)}


# evaluating a class's string annotations costs more than the rest of a build
_type_hints = functools.cache(typing.get_type_hints)


def _build(cls, section: dict, where: str):
    """``cls`` from a config section; bad keys and values are ConfigErrors.

    The section's keys are the fields of ``cls`` (see ``config_keys``). A
    field without a default is required; the others keep their defaults
    when absent, as all do in an absent (None) section. A value that does
    not match its field's annotation is rejected by key, so a YAML string
    such as ``1e8`` never reaches the dataclass; a dataclass-typed field is
    built from its mapping the same way.
    """
    if section is None:
        section = {}
    _reject_unknown(section, set(config_keys(cls)), where)
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = CONFIG_NAMES.get(f.name, f.name)
        if key not in section:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}.{key} is required")
            continue
        value = section[key]
        nested = next(filter(is_dataclass, typing.get_args(hints[f.name])), None)
        if nested is not None and value is not None:
            value = _build(nested, value, f"{where}.{key}")
        else:
            _check_type(value, hints[f.name], f"{where}.{key}")
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # the message names the field; say it by its config key
        message = str(exc)
        for field_name, key in CONFIG_NAMES.items():
            message = re.sub(rf"\b{field_name}\b", key, message)
        raise ConfigError(f"{where}: {message}")


# libyaml's parser, where PyYAML was built with it: the same dicts, ~8x faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path, overrides=(), output_dir=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(logio.read_text(path), Loader=YAML_LOADER)
    except LogFormatError as exc:
        raise ConfigError(str(exc)) from None
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
        value = yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError):  # libyaml's: a lone surrogate from argv
        value = text
    node = raw
    for key in keys[:-1]:
        if node.get(key) is None:  # a null section is an empty one
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} crosses a non-mapping node")
    node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# builders


def _section(cfg: ExperimentConfig, name: str):
    """The ``name`` section of ``cfg``; a config error when it is absent."""
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError(f"config section {name!r} is required for this command")
    return value


def build_dataset(cfg: ExperimentConfig) -> ToyDataset:
    source = _section(cfg, "dataset")
    if source.csv is not None:
        return logio.read_dataset_csv(source.csv)
    try:
        return make_blobs(**vars(source.blobs))
    except ValueError as exc:
        raise ConfigError(f"dataset.blobs: {exc}")


def apply_noise(ds: ToyDataset, cfg: ExperimentConfig) -> ToyDataset:
    noise = cfg.noise
    if noise.ratio is None:
        return ds
    try:
        if noise.class_map is None:
            return inject_symmetric_noise(ds, noise.ratio, noise.seed)
        class_map = noise.class_map
        if class_map == "circular":
            class_map = circular_class_map(ds.n_classes)
        return inject_asymmetric_noise(ds, noise.ratio, class_map, noise.seed)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}")


def build_trainer(cfg: ExperimentConfig, ds: ToyDataset, workdir: Path):
    config = _section(cfg, "trainer")
    if isinstance(config, TrainerConfig):
        return SGDTrainer(ds.features.shape[1], ds.n_classes, config)
    return logio.ExternalTrainer(config.command, workdir / "dataset.csv",
                                 workdir / "external", seed=config.seed)


# ---------------------------------------------------------------------------
# deterministic writers


def write_json(path: Path, doc) -> None:
    """Write ``doc`` atomically: a crash mid-write leaves the old file intact."""
    logio.write_atomic(path, [json.dumps(doc, sort_keys=True, indent=2), "\n"])


# a run's ground truth, which report reads: its clean ids, then its noisy ones
TRUTH_FILES = ("clean_ids.txt", "noisy_ids.txt")


def write_truth(outdir: Path, ids, clean) -> None:
    """Write the ``TRUTH_FILES`` of ``ids``: those whose ``clean`` flag is set,
    then the others, each in the order of ``ids``."""
    for name, flags in zip(TRUTH_FILES, (clean, ~clean)):
        logio.write_ids(outdir / name, selection.ids_where(ids, flags))


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


def write_summary(path: Path, header, rows) -> None:
    """The table of ``rows``, lists of cells, each cell through ``_fmt``."""
    logio.write_table(path, header, [[_fmt(row[j]) for row in rows]
                                     for j in range(len(header))])


STATS_HEADER = ["round", "kept", "precision", "recall", "test_accuracy",
                "threshold", "converged"]


def _true_or_false(cell: str) -> None:
    if cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")


# what checks each stats column's cells; an empty cell passes every check
STATS_KINDS = dict(zip(STATS_HEADER, [int, int, float, float, float, float, _true_or_false]))


def _read_stats(path: Path, done: int | None) -> list[list[str]]:
    """The first ``done`` rows (all when None) of the stats table at ``path`` as text;
    a data error naming it unless the header is ``STATS_HEADER``, each cell passes
    its column's check and ``done`` rows are there (a crash may leave more)."""
    header, columns = logio.read_table(path)
    if header != STATS_HEADER:
        raise LogFormatError(f"expected header {','.join(STATS_HEADER)}", path=path, line=1)
    for name, cells in zip(header, columns):
        for line, cell in enumerate(cells, start=2):
            if cell:
                try:
                    STATS_KINDS[name](cell)
                except ValueError as exc:
                    raise LogFormatError(f"{name}: {exc}", path=path, line=line) from None
    rows = [list(row) for row in zip(*columns)][:done]
    if done is not None and len(rows) < done:
        raise LogFormatError(f"fewer than the {done} rows state.json committed", path=path)
    return rows


def write_scores_csv(path: Path, ids, values) -> None:
    """The scores table: each id and its score as ``repr``."""
    logio.write_table(path, ["id", "score"], [ids, np.asarray(values, dtype=float)])


def round_files(outdir: Path, suffix: str) -> list[Path]:
    """The scores, kept-ids, mixture-fit, histogram and overlay files of one
    round in ``outdir``; ``suffix`` is ``_round<k>`` for a run's round k and
    empty for a select."""
    return [outdir / f"{stem}{suffix}.{ext}" for stem, ext in (
        ("scores", "csv"), ("selected_ids", "txt"), ("mixture", "json"),
        ("histogram", "csv"), ("overlay", "json"))]


def write_round(outdir: Path, suffix: str, log, result) -> None:
    """Write a round's ``round_files``: the histogram of its scores by the
    log's truth, at ``HISTOGRAM_BINS`` bins, only with that truth, and the fit
    and its overlay only with a fit. An earlier histogram, fit or overlay
    that the round does not write again is removed."""
    scores_path, ids_path, fit_path, histogram_path, overlay_path = round_files(outdir, suffix)
    write_scores_csv(scores_path, log.ids, result.scores)
    logio.write_ids(ids_path, result.selected_ids)
    header, rows, overlay = evaluation.histogram_export(result.scores, log.clean_mask(),
                                                        HISTOGRAM_BINS, result.fit)
    if rows is None:
        logio.remove_earlier(histogram_path, "histogram")
    else:
        write_summary(histogram_path, header, rows)
    fit = None if result.fit is None else result.fit.to_json_dict()
    for path, doc, what in ((fit_path, fit, "fit"), (overlay_path, overlay, "overlay")):
        if doc is None:
            logio.remove_earlier(path, what)
        else:
            write_json(path, doc)


def save_model(trainer: SGDTrainer, outdir: Path) -> None:
    """Write ``trainer.state_dict()``: params.npy, velocity.npy and the RNG state
    as meta.json. The run's config and dataset decide the rest of the trainer."""
    state = trainer.state_dict()
    for key in ("params", "velocity"):
        with logio.atomic_path(outdir / f"{key}.npy", "wb") as fh:
            np.save(fh, state.pop(key))
    write_json(outdir / "meta.json", state)


def load_model(trainer: SGDTrainer, outdir: Path) -> None:
    """Fill ``trainer``, as ``build_trainer`` made it, from the checkpoint in ``outdir``."""
    try:  # each array's own file names its errors: from_state_dict fails only on rng_state
        state = {"rng_state": json.loads(logio.read_text(outdir / "meta.json"))["rng_state"]}
        for key, like in (("params", trainer.flat_params), ("velocity", trainer.flat_velocity)):
            state[key] = logio.read_npy(outdir / f"{key}.npy", like.shape)
        trainer.from_state_dict(state)
    except (KeyError, TypeError, ValueError) as exc:  # JSON errors included
        raise LogFormatError(f"cannot resume from a damaged model checkpoint: "
                             f"{type(exc).__name__}: {exc}", path=outdir / "meta.json") from None
    for key in ("params", "velocity"):  # as a momentum step that overflowed leaves them
        if not np.isfinite(state[key]).all():
            raise FloatingPointError(f"{outdir / key}.npy: cannot resume from a checkpoint "
                                     "that holds a NaN or an infinity")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: ExperimentConfig) -> int:
    sim = _section(cfg, "simulate")
    try:
        log = simulate_dynamics(sim.n_clean, sim.n_noisy, sim, epochs=sim.epochs, seed=sim.seed)
    except ValueError as exc:  # sizes out of range, or a ramp shorter than epochs
        raise ConfigError(f"simulate: {exc}")
    outdir = cfg.output_dir
    logio.write_prediction_log(outdir / "simulated_log.jsonl", log)
    capture_config(cfg, outdir)
    print(f"wrote {len(log)} records to {outdir / 'simulated_log.jsonl'}")
    return 0


def cmd_inject_noise(cfg: ExperimentConfig) -> int:
    ds = apply_noise(build_dataset(cfg), cfg)
    outdir = cfg.output_dir
    logio.write_dataset_csv(outdir / "dataset.csv", ds)
    capture_config(cfg, outdir)
    print(
        f"wrote {len(ds.ids)} rows ({ds.noise_ratio():.1%} train noise) "
        f"to {outdir / 'dataset.csv'}"
    )
    return 0


def _check_lambda(lam: float, epochs: int) -> None:
    """A config error unless round.lambda times the scored logs' ``epochs`` is finite."""
    if not lam * epochs <= sys.float_info.max:  # an int lambda multiplies exactly
        raise ConfigError(f"round.lambda: {lam} times {epochs} epochs is not finite")


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
    """The checkpoint in ``path``: the rounds it completed and its config."""
    try:
        state = json.loads(logio.read_text(path))
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"damaged checkpoint: {exc.msg}", path=path,
                             line=exc.lineno) from None
    if not isinstance(state, dict):
        raise LogFormatError("damaged checkpoint: not a JSON object", path=path)
    done = state.get("completed_rounds")
    if type(done) is not int or done < 0:  # bool is no int here
        raise LogFormatError("checkpoint has no nonnegative int 'completed_rounds'", path=path)
    return state


def _completed_rounds(outputs: Path) -> int | None:
    """The rounds ``state.json`` in ``outputs`` committed; None without one (a select)."""
    state_path = outputs / "state.json"
    return _read_state(state_path)["completed_rounds"] if state_path.exists() else None


@contextlib.contextmanager
def _round_writer(outdir: Path):
    """Yield ``submit(write, what)``, which runs ``write()`` in a forked
    child process while the caller goes on.

    One child runs at a time: ``submit`` and the end of the block first
    wait for the previous one, so the writes finish in the order submitted
    and no child outlives the block, whatever ends it. The child sees this
    process as it was at the fork. A LogFormatError in the child is raised
    again here with its message, and so is one naming ``outdir`` and
    ``what`` the child wrote when it ends without a report (a signal, say);
    any other failure of the child raises a RuntimeError with the child's
    traceback. Without ``os.fork``, on one CPU (where a child only takes
    turns) or when the fork fails, it writes here.
    """
    running = []  # the child's pid, the read end of its pipe and what it writes
    forks = hasattr(os, "fork") and (not hasattr(os, "sched_getaffinity")
                                     or len(os.sched_getaffinity(0)) > 1)

    def wait():
        if running:
            pid, fd, what = running.pop()
            try:  # read to EOF before the wait: a long report cannot block the child
                with open(fd, "rb") as pipe:
                    report = pipe.read().decode(errors="surrogatepass")
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status and report.startswith("L"):
                raise LogFormatError(report[1:])
            if status and not report:  # killed, or gone by os._exit: not a bug of the write
                how = (f"was killed by signal {-status}" if status < 0
                       else f"exited with status {status}")
                raise LogFormatError(f"the process writing {what} {how} before it finished",
                                     path=outdir)
            if status:  # an exception's traceback
                raise RuntimeError(f"the round writer exited with status {status}\n"
                                   f"{report[1:]}".rstrip())

    def submit(write, what):
        wait()
        read_fd, write_fd = os.pipe()
        pid = None
        with contextlib.suppress(OSError):  # a failed fork (say, EAGAIN) made no child
            pid = os.fork() if forks else None
        if pid == 0:  # the child leaves only by _exit: no atexit, no return to the caller
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as pipe:
                    try:
                        write()
                        status = 0
                    except LogFormatError as exc:
                        pipe.write(f"L{exc}".encode(errors="surrogatepass"))
                    except BaseException:
                        pipe.write(f"E{traceback.format_exc()}".encode(errors="surrogatepass"))
            finally:
                os._exit(status)
        os.close(write_fd)
        if pid is None:  # no child: write here
            os.close(read_fd)
            write()
        else:
            running.append((pid, read_fd, what))

    try:
        yield submit
    finally:
        wait()


def _write_run_round(cfg: ExperimentConfig, trainer, log, result, stats_rows) -> None:
    """Write the files of a run's round ``result``, ``state.json`` last."""
    outdir, k = cfg.output_dir, result.round_index
    logio.write_prediction_log(outdir / f"log_round{k}.jsonl", log)
    write_round(outdir, f"_round{k}", log, result)
    write_summary(outdir / "stats.csv", STATS_HEADER, stats_rows)
    if isinstance(trainer, SGDTrainer):
        save_model(trainer, outdir / f"model_round{k}")
    # written last, it commits the round: resume reads the files above
    write_json(outdir / "state.json", {"completed_rounds": k, "config": cfg.raw})


def run_pipeline(cfg: ExperimentConfig, resume: bool = False) -> list:
    """One full multi-round pipeline with per-round artifacts and checkpoints.

    The rounds themselves run in ``selection.run_multiround``; this writes
    what each round leaves behind in ``cfg.output_dir``. Returns the stats
    rows (one per completed round).
    """
    outdir = cfg.output_dir
    ds = apply_noise(build_dataset(cfg), cfg)
    trainer = build_trainer(cfg, ds, outdir)
    # the resume point is read in full before anything is written: a refused
    # resume leaves the run it refuses as it was
    state_path = outdir / "state.json"
    start_round, rows, final_ids, stats_rows = 1, None, None, []
    if resume and state_path.exists():
        state = _read_state(state_path)
        if state.get("config") != cfg.raw:
            raise ConfigError("state.json belongs to a different config; "
                              "rerun without --resume")
        done = state["completed_rounds"]
        if done > cfg.round_config.rounds:
            raise LogFormatError(f"cannot resume: checkpoint 'completed_rounds' is "
                                 f"{done}, more than round.rounds "
                                 f"({cfg.round_config.rounds})", path=state_path)
        if isinstance(trainer, SGDTrainer):
            if done:  # a missing checkpoint fails here, naming its meta.json
                load_model(trainer, outdir / f"model_round{done}")
        else:  # the external trainer's files go on from the next round's number
            trainer.round_counter = done
        start_round = done + 1
        if done:
            stats_rows = _read_stats(outdir / "stats.csv", done)
            path = round_files(outdir, f"_round{done}")[1]
            final_ids = logio.read_ids(path)
            rows = logio.rows_of(dict(zip(ds.train_ids, ds.train_positions.tolist())),
                                 final_ids, path, "cannot resume: ids that are not training ids")
            if not rows.size:  # only an older version left a round that kept none
                raise LogFormatError("cannot resume: the round kept no ids", path=path)
            if stats_rows[-1][1] != str(rows.size):  # a truncated file reads as fewer ids
                raise LogFormatError(f"cannot resume: {rows.size} ids, but row {done} of "
                                     f"stats.csv says kept={stats_rows[-1][1]}", path=path)
    capture_config(cfg, outdir)

    # each write overlaps the next round's training; an external command reads dataset.csv first
    with _round_writer(outdir) as submit:
        def write_inputs():
            logio.write_dataset_csv(outdir / "dataset.csv", ds)
            write_truth(outdir, ds.train_ids, ds.clean_mask())
        if isinstance(trainer, SGDTrainer):
            submit(write_inputs, "dataset.csv and the ground truth")
        else:
            write_inputs()
        for result, log in selection.run_multiround(ds, trainer, cfg.round_config,
                                                    cfg.fit_config, rows, start_round):
            k = result.round_index
            stats_rows.append(_stats_row(result))
            if result.warning:
                print(f"round {k}: {result.warning}")
            submit(functools.partial(_write_run_round, cfg, trainer, log, result, stats_rows),
                   f"round {k}")
            del log  # free this round's sequences before the next round trains
            final_ids = result.selected_ids
    logio.write_ids(outdir / "selected_ids_final.txt", final_ids)
    if isinstance(trainer, SGDTrainer):
        save_model(trainer, outdir / "model_final")
    return stats_rows


def cmd_run(cfg: ExperimentConfig, trials: int = 1, resume: bool = False) -> int:
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    _check_lambda(cfg.round_config.lam, cfg.round_config.epochs)
    if trials > 1:  # each trial starts afresh: resumed stats rows are rounded text
        if resume:
            raise ConfigError(f"--resume cannot be combined with --trials {trials}")
        return _run_trials(cfg, trials)
    for row in run_pipeline(cfg, resume=resume):
        print(
            f"round {row[0]}: kept={row[1]} precision={_fmt(row[2]) or 'n/a'} "
            f"recall={_fmt(row[3]) or 'n/a'} accuracy={_fmt(row[4]) or 'n/a'}"
        )
    return 0


def _trial_payload(cfg: ExperimentConfig, trial: int) -> dict:
    raw = json.loads(json.dumps(cfg.raw))  # deep copy
    for section, key in (("noise", "seed"), ("trainer", "seed"), ("fit", "seed")):
        if (raw.get(section) or {}).get(key) is not None:  # null: no section
            raw[section][key] = raw[section][key] + trial
    raw["output_dir"] = str(cfg.output_dir / f"trial_{trial:02d}")
    return raw


def _trial_worker(raw: dict) -> list:
    return run_pipeline(ExperimentConfig.from_dict(raw))


def _run_trials(cfg: ExperimentConfig, trials: int) -> int:
    import concurrent.futures  # here, not at the top: only --trials starts a pool

    payloads = [_trial_payload(cfg, t) for t in range(trials)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(trials, 4)) as pool:
        results = list(pool.map(_trial_worker, payloads))
    finals = [rows[-1] for rows in results]
    metrics = {"precision": 2, "recall": 3, "test_accuracy": 4}
    outdir = cfg.output_dir
    rows = []
    for name, col in metrics.items():
        values = [row[col] for row in finals if row[col] is not None]
        rows.append([name, float(np.mean(values)), float(np.std(values)), len(values)]
                    if values else [name, None, None, 0])
    write_summary(outdir / "aggregate.csv", ["metric", "mean", "stddev", "trials"], rows)
    capture_config(cfg, outdir)
    print(f"aggregated {trials} trials into {outdir / 'aggregate.csv'}")
    return 0


def cmd_select(cfg: ExperimentConfig, log_path) -> int:
    log = logio.read_prediction_log(log_path)
    if cfg.round_config.strategy == "small_loss" and log.losses is None:
        raise LogFormatError("the small_loss strategy needs 'losses' in every record",
                             path=log_path)
    _check_lambda(cfg.round_config.lam, log.bits.shape[1])
    result = selection.select_round(log, cfg.round_config, cfg.fit_config, 1)

    outdir = cfg.output_dir
    write_round(outdir, "", log, result)
    clean = log.clean_mask()
    summary = f"selected {len(result.selected_ids)}/{len(log)}"
    if clean is not None:
        stats = result.stats = evaluation.selection_precision_recall(result.keep, clean)
        summary += (f" (precision={_fmt(stats.precision) or 'n/a'} "
                    f"recall={_fmt(stats.recall) or 'n/a'})")
    write_summary(outdir / "stats.csv", STATS_HEADER, [_stats_row(result)])
    print(summary)
    if result.warning:
        print(result.warning)
    capture_config(cfg, outdir)
    return 0


def _count_truth(outputs: Path) -> tuple[int, int]:
    """The numbers of clean and of noisy ids in a run's ground truth, its
    ``TRUTH_FILES``; a data error naming a file that is missing or lists an
    id twice."""
    paths = [outputs / name for name in TRUTH_FILES]
    if not any(path.exists() for path in paths):  # with one of them, read_ids names the other
        raise LogFormatError(f"no ground truth in outputs dir (need {' and '.join(TRUTH_FILES)})",
                             path=outputs)
    clean_ids, noisy_ids = map(logio.read_ids, paths)
    ids = clean_ids + noisy_ids
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) < len(ids):  # the first repeated id, named in the file of its last listing
        first = next(k for k, i in enumerate(ids) if row_of[i] != k)
        raise LogFormatError(f"id {ids[first]!r} appears more than once in the ground truth",
                             path=paths[row_of[ids[first]] >= len(clean_ids)])
    return len(clean_ids), len(noisy_ids)


def cmd_report(cfg: ExperimentConfig, compare: bool) -> int:
    outputs = cfg.output_dir
    if compare:
        return _write_comparison(cfg, outputs)
    done = _completed_rounds(outputs)
    # round, precision, recall and test accuracy
    rows = [[row[0], *row[2:5]] for row in _read_stats(outputs / "stats.csv", done)]
    if done is not None:  # a run's round 0: the untouched training set (select-all baseline)
        n_clean, n_noisy = _count_truth(outputs)
        rows.insert(0, [0, 1.0 - n_noisy / max(n_clean + n_noisy, 1), 1.0, None])
    write_summary(outputs / "trend.csv", ["round", "precision", "recall", "accuracy"], rows)
    print(f"wrote {outputs / 'trend.csv'}")
    return 0


def _write_comparison(cfg: ExperimentConfig, outputs: Path) -> int:
    if isinstance(cfg.trainer, ExternalTrainerConfig):
        raise ConfigError("report --compare needs the built-in trainer, not a trainer.command")
    _check_lambda(cfg.round_config.lam, cfg.round_config.epochs)
    ds = apply_noise(build_dataset(cfg), cfg)
    rows = selection.compare_strategies(ds, build_trainer(cfg, ds, outputs),
                                        cfg.round_config, cfg.fit_config)
    header = ["strategy", "kept", "precision", "recall", "accuracy"]
    write_summary(outputs / "comparison.csv", header,
                  [[row[key] for key in header] for row in rows])
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

    report_p = sub.add_parser("report", help="trend table or strategy comparison")
    common(report_p)
    report_p.add_argument("--compare", action="store_true",
                          help="run all strategies and tabulate them")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=args.overrides,
                          output_dir=args.output_dir)
        commands = {
            "simulate": lambda: cmd_simulate(cfg),
            "inject-noise": lambda: cmd_inject_noise(cfg),
            "run": lambda: cmd_run(cfg, trials=args.trials, resume=args.resume),
            "select": lambda: cmd_select(cfg, args.log),
            "report": lambda: cmd_report(cfg, args.compare),
        }
        return commands[args.command]()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LogFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
