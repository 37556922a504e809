"""One selection round and the multi-round driver.

A round trains for E epochs while recording each instance's per-epoch
status, scores every instance, fits the score mixture, thresholds at the
noisy component's scale parameter, and hands the surviving instances (and
the trained model) to the next round. Ratio-based and small-loss selectors
are provided as baselines and as the fallback when the mixture fit
degenerates.

Instance ids are opaque strings and every selector keeps the input order
of its scores; ties at a ratio cut go to the earlier instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import evaluation
from .dynamics import score_sequences
from .errors import LogFormatError, MixtureFitError
from .mixture import FitConfig, MixtureFit, fit_metric_scores, threshold

STRATEGIES = ("mixture_threshold", "ratio", "small_loss")


@dataclass
class RoundConfig:
    epochs: int = 30
    rounds: int = 1
    lam: float = 1.0
    metric_kind: str = "simplified"
    strategy: str = "mixture_threshold"
    ratio: float = 0.9
    reset_model_per_round: bool = False
    # small-loss ranks at this epoch index (None -> final)
    small_loss_epoch: int | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.rounds < 1:
            raise ValueError("epochs and rounds must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.metric_kind not in ("full", "simplified"):
            raise ValueError(f"unknown metric_kind {self.metric_kind!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")


@dataclass
class SelectionResult:
    round_index: int
    selected_ids: list
    metric_scores: dict
    threshold: float | None = None
    fit: MixtureFit | None = None
    stats: evaluation.SelectionStats | None = None
    test_accuracy: float | None = None
    used_fallback: bool = False
    warning: str | None = None


@dataclass
class MultiRoundResult:
    rounds: list[SelectionResult]
    final_ids: list
    truncated: bool = False


def select_by_threshold(scores, tau: float, round_index: int = 0) -> SelectionResult:
    """Keep every instance whose score is strictly below ``tau``."""
    if not scores:
        raise ValueError("scores must be nonempty")
    selected = [i for i, s in scores.items() if s < tau]
    warning = None
    if not selected:
        warning = f"threshold {tau:.6g} lies below every score; selection is empty"
    return SelectionResult(
        round_index=round_index,
        selected_ids=selected,
        metric_scores=dict(scores),
        threshold=tau,
        warning=warning,
    )


def select_by_ratio(scores, ratio: float, round_index: int = 0) -> SelectionResult:
    """Keep the ceil(ratio * n) smallest-scoring instances.

    The kept ids stay in input order. Ties at the cut are broken by input
    position, which makes the selection deterministic.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    if not scores:
        raise ValueError("scores must be nonempty")
    keep = math.ceil(ratio * len(scores))
    values = np.fromiter(scores.values(), dtype=float, count=len(scores))
    kept = np.zeros(values.size, dtype=bool)
    kept[np.argsort(values, kind="stable")[:keep]] = True
    selected = [i for i, k in zip(scores, kept.tolist()) if k]
    return SelectionResult(
        round_index=round_index,
        selected_ids=selected,
        metric_scores=dict(scores),
    )


def small_loss_select(
    ids, losses, ratio: float, epoch: int | None = None, round_index: int = 0
) -> SelectionResult:
    """Keep the ratio fraction with the smallest loss at the chosen epoch.

    ``losses`` is the (n, E) per-epoch loss matrix whose rows follow
    ``ids``; ``epoch`` indexes its columns (None means the final epoch).
    """
    at_epoch = np.asarray(losses)[:, -1 if epoch is None else epoch]
    return select_by_ratio(dict(zip(ids, at_epoch.tolist())), ratio,
                           round_index=round_index)


def _apply_strategy(scores, log, config: RoundConfig, fit_config: FitConfig,
                    round_index: int) -> SelectionResult:
    if config.strategy == "mixture_threshold":
        if len(set(scores.values())) == 1:
            # every instance scored identically: no separation evidence, and
            # a ratio cut would drop instances purely by position; keep them all
            return SelectionResult(
                round_index=round_index,
                selected_ids=list(scores),
                metric_scores=dict(scores),
                warning="all scores identical; kept the full set",
            )
        try:
            fit = fit_metric_scores(list(scores.values()), fit_config)
            if fit.degenerate:
                # no separable noisy component: the clean/noisy roles are
                # arbitrary, so thresholding at the noisy scale would cut
                # instances at random; keep everything instead
                return SelectionResult(
                    round_index=round_index,
                    selected_ids=list(scores),
                    metric_scores=dict(scores),
                    fit=fit,
                    warning="degenerate mixture fit (no separable noisy "
                    "component); kept the full set",
                )
            tau = threshold(fit, fit_config.threshold_rule)
            result = select_by_threshold(scores, tau, round_index=round_index)
            result.fit = fit
            return result
        except MixtureFitError as exc:
            result = select_by_ratio(scores, config.ratio, round_index=round_index)
            result.used_fallback = True
            result.warning = f"mixture fit failed ({exc}); fell back to ratio selection"
            return result
    if config.strategy == "ratio":
        return select_by_ratio(scores, config.ratio, round_index=round_index)
    # small_loss
    if log.losses is None:
        raise LogFormatError("the small_loss strategy needs 'losses' in every record")
    return small_loss_select(log.ids, log.losses, config.ratio,
                             epoch=config.small_loss_epoch, round_index=round_index)


def select_round(log, config: RoundConfig, fit_config: FitConfig | None = None,
                 round_index: int = 1) -> SelectionResult:
    """Score one round's log and apply the configured selection strategy.

    ``metric_scores`` of the result holds the round's metric scores, in the
    log's order, whichever strategy made the cut.
    """
    values = score_sequences(log.bits, config.metric_kind, config.lam)
    scores = dict(zip(log.ids, values.tolist()))
    result = _apply_strategy(scores, log, config, fit_config or FitConfig(), round_index)
    result.metric_scores = scores
    return result


def run_round(
    dataset,
    trainer,
    config: RoundConfig,
    fit_config: FitConfig | None = None,
    ids=None,
    round_index: int = 1,
    clean_mask=None,
):
    """Train for one round, score the dynamics, and select.

    Returns (SelectionResult, trainer); the trainer keeps its model state
    for the next round. When ``clean_mask`` is given the result carries
    precision/recall against it, and when the dataset has a test split and
    the trainer can predict, the round's test accuracy as well.
    """
    result, _ = _train_and_select(dataset, trainer, config, fit_config, ids,
                                  round_index, clean_mask)
    return result, trainer


def _train_and_select(dataset, trainer, config, fit_config, ids, round_index,
                      clean_mask):
    ids = list(dataset.train_ids if ids is None else ids)
    if not ids:
        raise ValueError("cannot run a round on an empty training set")

    log = trainer.fit_round(dataset, ids, config.epochs)
    result = select_round(log, config, fit_config, round_index)

    if clean_mask is not None:
        result.stats = evaluation.selection_precision_recall(
            result.selected_ids, clean_mask, round_index=round_index
        )
    if hasattr(trainer, "predict") and dataset is not None:
        test_pos = getattr(dataset, "test_positions", None)
        if test_pos is not None and len(test_pos):
            result.test_accuracy = evaluation.test_accuracy(
                trainer,
                dataset.features[test_pos],
                dataset.true_labels[test_pos],
            )
    return result, log


def run_multiround(
    dataset,
    trainer,
    config: RoundConfig,
    fit_config: FitConfig | None = None,
    ids=None,
    start_round: int = 1,
    on_round=None,
) -> MultiRoundResult:
    """Iterate selection rounds, each training on the previous survivors.

    Rounds ``start_round``..``config.rounds`` run on ``ids`` first (default:
    the dataset's training ids in row order), then on each round's
    selection. ``on_round(result, log)``, when given, is called after every
    round, before the next one starts. Sequences are rebuilt from scratch
    every round; the model carries over unless
    ``config.reset_model_per_round`` is set. Recall in the per-round stats
    is always measured against the clean instances of the *original*
    training set, so the round trend is comparable. Stops early, flagged
    truncated, if a round selects nothing.
    """
    current_ids = list(dataset.train_ids if ids is None else ids)
    full_mask = dataset.clean_mask() if hasattr(dataset, "clean_mask") else None
    rounds: list[SelectionResult] = []
    truncated = False
    for round_index in range(start_round, config.rounds + 1):
        if config.reset_model_per_round and round_index > 1 and hasattr(trainer, "reset"):
            trainer.reset()
        result, log = _train_and_select(
            dataset, trainer, config, fit_config, current_ids, round_index, full_mask
        )
        rounds.append(result)
        if on_round is not None:
            on_round(result, log)
        del log  # free this round's sequences before the next round trains
        if not result.selected_ids:
            truncated = True
            break
        current_ids = result.selected_ids
    return MultiRoundResult(rounds=rounds, final_ids=current_ids, truncated=truncated)


def compare_strategies(
    dataset,
    make_trainer,
    config: RoundConfig,
    fit_config: FitConfig | None = None,
    strategies=STRATEGIES,
):
    """Run the same benchmark once per strategy and tabulate the outcome.

    ``make_trainer`` is a zero-argument factory so every strategy starts
    from an identical model. Returns one dict per strategy with the final
    round's kept count, precision, recall and test accuracy.
    """
    rows = []
    for strategy in strategies:
        result = run_multiround(
            dataset,
            make_trainer(),
            replace(config, strategy=strategy),
            fit_config,
        )
        last = result.rounds[-1]
        rows.append(
            {
                "strategy": strategy,
                "kept": len(last.selected_ids),
                "precision": last.stats.precision if last.stats else None,
                "recall": last.stats.recall if last.stats else None,
                "accuracy": last.test_accuracy,
            }
        )
    return rows
