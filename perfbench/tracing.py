"""Span tracing of the mfselect layers, installed from outside the package.

Each probe replaces one function where its caller looks it up (a module
attribute or a class attribute) with a wrapper that records a span:
name, start, end and the index of the enclosing span. Spans stay in memory;
``layer_metrics`` reduces one iteration's spans to the per-layer metrics and
the runner writes the raw spans out when the benchmark ends.

A probe whose target no longer exists is reported as missing and skipped;
it is never an error, because refactors may rename the functions below.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _info_fit_round(args, kwargs, result):
    # fit_round(self, dataset, ids, epochs)
    ids, epochs = args[2], args[3]
    return {"instance_epochs": len(ids) * int(epochs)}


def _info_write_log(args, kwargs, result):
    return {"bytes": _size(args[0]), "records": len(args[1])}


def _info_read_log(args, kwargs, result):
    return {"bytes": _size(args[0]), "records": len(result)}


def _info_scored(args, kwargs, result):
    return {"instances": len(result)}


def _info_strategy(args, kwargs, result):
    # _apply_strategy(scores, log, config, fit_config, round_index)
    return {"kept": len(result.selected_ids), "scored": len(args[0])}


def _info_fit(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "degenerate": bool(result.degenerate),
    }


# (module, attribute path, span name, info callback). The info callback runs
# after the span has ended, so its cost is not charged to the layer.
PROBES = [
    ("mfselect.cli", "main", "cli", None),
    ("mfselect.trainer", "SGDTrainer.fit_round", "trainer.fit_round", _info_fit_round),
    ("mfselect.cli", "make_blobs", "trainer.dataset", None),
    ("mfselect.cli", "inject_symmetric_noise", "trainer.dataset", None),
    ("mfselect.logio", "write_prediction_log", "logio.write_log", _info_write_log),
    ("mfselect.logio", "read_prediction_log", "logio.read_log", _info_read_log),
    ("mfselect.logio", "records_to_round_log", "logio.to_round_log", None),
    ("mfselect.logio", "write_dataset_csv", "logio.write_dataset", None),
    ("mfselect.cli", "score_sequences", "dynamics.score", _info_scored),
    ("mfselect.selection", "score_sequences", "dynamics.score", _info_scored),
    ("mfselect.selection", "_apply_strategy", "selection.strategy", _info_strategy),
    ("mfselect.selection", "fit_metric_scores", "mixture.fit", _info_fit),
    ("mfselect.mixture", "em_fit", "mixture.em", None),
    ("mfselect.mixture", "weighted_weibull_mle", "mixture.mle", None),
    ("mfselect.selection", "select_by_threshold", "selection.threshold", None),
    ("mfselect.selection", "select_by_ratio", "selection.ratio", None),
    ("mfselect.selection", "small_loss_select", "selection.small_loss", None),
    ("mfselect.selection", "run_multiround", "selection.driver", None),
    ("mfselect.evaluation", "selection_precision_recall", "evaluation.precision_recall", None),
    ("mfselect.evaluation", "test_accuracy", "evaluation.test_accuracy", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``uninstall`` restores every target."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, probes=PROBES) -> None:
        self.missing = []
        for module_name, path, span_name, info in probes:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, info))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, info):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the target changed its signature or result type
                    if f"{name} (counters)" not in tracer.missing:
                        tracer.missing.append(f"{name} (counters)")
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[Span]:
        """Return and clear the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


# (metric, unit) in the order BENCHMARK.json lists them, trace.* last.
LAYER_METRICS = [
    ("trainer.fit_round_s", "s"),
    ("trainer.fit_round_calls", "count"),
    ("trainer.instance_epochs", "count"),
    ("trainer.dataset_s", "s"),
    ("logio.write_log_s", "s"),
    ("logio.write_log_bytes", "bytes"),
    ("logio.read_log_s", "s"),
    ("logio.read_log_bytes", "bytes"),
    ("logio.records", "count"),
    ("logio.to_round_log_s", "s"),
    ("logio.write_dataset_s", "s"),
    ("dynamics.score_s", "s"),
    ("dynamics.instances_scored", "count"),
    ("dynamics.score_ns_per_instance", "ns"),
    ("mixture.fit_s", "s"),
    ("mixture.em_s", "s"),
    ("mixture.mle_s", "s"),
    ("mixture.mle_calls", "count"),
    ("mixture.fits", "count"),
    ("mixture.em_iterations", "count"),
    ("mixture.converged_ratio", "ratio"),
    ("mixture.degenerate_fits", "count"),
    ("selection.threshold_s", "s"),
    ("selection.ratio_s", "s"),
    ("selection.small_loss_s", "s"),
    ("selection.driver_self_s", "s"),
    ("selection.kept_ratio", "ratio"),
    ("evaluation.precision_recall_s", "s"),
    ("evaluation.test_accuracy_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans_missing", "count"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one iteration's spans to the per-layer metrics.

    Times are summed over every span of a name; ``*_self_s`` and
    ``mixture.em_s`` subtract the time of their direct children. A layer that
    did not run reports 0. ``cli.output_bytes`` and the ``trace.*`` metrics
    are measured by the runner, not from spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_time(name):
        return sum(spans[i].duration - child_time[i]
                   for i, s in enumerate(spans) if s.name == name)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in named(name))

    fits = named("mixture.fit")
    scored = info_sum("dynamics.score", "instances")
    strategy_scored = info_sum("selection.strategy", "scored")
    return {
        "trainer.fit_round_s": total("trainer.fit_round"),
        "trainer.fit_round_calls": len(named("trainer.fit_round")),
        "trainer.instance_epochs": info_sum("trainer.fit_round", "instance_epochs"),
        "trainer.dataset_s": total("trainer.dataset"),
        "logio.write_log_s": total("logio.write_log"),
        "logio.write_log_bytes": info_sum("logio.write_log", "bytes"),
        "logio.read_log_s": total("logio.read_log"),
        "logio.read_log_bytes": info_sum("logio.read_log", "bytes"),
        "logio.records": info_sum("logio.write_log", "records")
        + info_sum("logio.read_log", "records"),
        "logio.to_round_log_s": total("logio.to_round_log"),
        "logio.write_dataset_s": total("logio.write_dataset"),
        "dynamics.score_s": total("dynamics.score"),
        "dynamics.instances_scored": scored,
        "dynamics.score_ns_per_instance": total("dynamics.score") / scored * 1e9
        if scored else 0.0,
        "mixture.fit_s": total("mixture.fit"),
        "mixture.em_s": self_time("mixture.em"),
        "mixture.mle_s": total("mixture.mle"),
        "mixture.mle_calls": len(named("mixture.mle")),
        "mixture.fits": len(fits),
        "mixture.em_iterations": info_sum("mixture.fit", "iterations"),
        "mixture.converged_ratio": info_sum("mixture.fit", "converged") / len(fits)
        if fits else 0.0,
        "mixture.degenerate_fits": info_sum("mixture.fit", "degenerate"),
        "selection.threshold_s": total("selection.threshold"),
        "selection.ratio_s": total("selection.ratio"),
        "selection.small_loss_s": total("selection.small_loss"),
        "selection.driver_self_s": self_time("selection.driver"),
        "selection.kept_ratio": info_sum("selection.strategy", "kept") / strategy_scored
        if strategy_scored else 0.0,
        "evaluation.precision_recall_s": total("evaluation.precision_recall"),
        "evaluation.test_accuracy_s": total("evaluation.test_accuracy"),
        "cli.self_s": self_time("cli"),
    }
