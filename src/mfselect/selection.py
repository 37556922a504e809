"""One selection round and the multi-round driver.

A round trains for E epochs while recording each instance's per-epoch
status, scores every instance, fits the score mixture, thresholds at the
noisy component's scale parameter, and hands the surviving instances (and
the trained model) to the next round. Ratio-based and small-loss selectors
are provided as baselines and as the fallback when the mixture fit
degenerates.

A round's selection is two arrays over the rows of its log: the float64
``scores`` and the bool ``keep`` mask. Every selector takes arrays and
returns the mask; ties at a ratio cut go to the earlier row. Instance ids
are opaque strings, and ``selected_ids`` lists the kept ones in log order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import compress

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
    """One round's selection over the rows of its log.

    ``scores`` holds the round's metric scores and ``keep`` marks the kept
    rows, whichever strategy made the cut; ``selected_ids`` lists the ids
    of the kept rows in log order.
    """

    round_index: int
    scores: np.ndarray
    keep: np.ndarray
    selected_ids: list
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


def select_by_threshold(scores, tau: float) -> np.ndarray:
    """Mask of the scores strictly below ``tau``."""
    return np.asarray(scores, dtype=float) < tau


def select_by_ratio(scores, ratio: float) -> np.ndarray:
    """Mask of the ceil(ratio * n) smallest scores.

    Ties at the cut go to the earlier position, which makes the selection
    deterministic.
    """
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    scores = np.asarray(scores, dtype=float)
    if not scores.size:
        raise ValueError("scores must be nonempty")
    keep = np.zeros(scores.size, dtype=bool)
    keep[np.argsort(scores, kind="stable")[:math.ceil(ratio * scores.size)]] = True
    return keep


def small_loss_select(losses, ratio: float, epoch: int | None = None) -> np.ndarray:
    """Mask of the ratio fraction of rows with the smallest loss at ``epoch``.

    ``losses`` is the (n, E) per-epoch loss matrix; ``epoch`` indexes its
    columns (None means the final epoch).
    """
    return select_by_ratio(np.asarray(losses)[:, -1 if epoch is None else epoch], ratio)


def _apply_strategy(scores, log, config: RoundConfig, fit_config: FitConfig,
                    round_index: int) -> SelectionResult:
    """Select among the rows of ``log``, whose metric scores are ``scores``."""
    tau = fit = warning = None
    used_fallback = False
    if config.strategy == "mixture_threshold":
        if scores.min() == scores.max():
            # every instance scored identically: no separation evidence, and
            # a ratio cut would drop instances purely by position; keep them all
            keep = np.ones(scores.size, dtype=bool)
            warning = "all scores identical; kept the full set"
        else:
            try:
                fit = fit_metric_scores(scores, fit_config)
            except MixtureFitError as exc:
                keep = select_by_ratio(scores, config.ratio)
                used_fallback = True
                warning = f"mixture fit failed ({exc}); fell back to ratio selection"
            else:
                if fit.degenerate:
                    # no separable noisy component: the clean/noisy roles are
                    # arbitrary, so thresholding at the noisy scale would cut
                    # instances at random; keep everything instead
                    keep = np.ones(scores.size, dtype=bool)
                    warning = ("degenerate mixture fit (no separable noisy "
                               "component); kept the full set")
                else:
                    tau = threshold(fit, fit_config.threshold_rule)
                    keep = select_by_threshold(scores, tau)
                    if not keep.any():
                        warning = (f"threshold {tau:.6g} lies below every score; "
                                   "selection is empty")
    elif config.strategy == "ratio":
        keep = select_by_ratio(scores, config.ratio)
    else:  # small_loss
        if log.losses is None:
            raise LogFormatError("the small_loss strategy needs 'losses' in every record")
        keep = small_loss_select(log.losses, config.ratio, config.small_loss_epoch)
    return SelectionResult(
        round_index=round_index,
        scores=scores,
        keep=keep,
        selected_ids=list(compress(log.ids, keep.tolist())),
        threshold=tau,
        fit=fit,
        used_fallback=used_fallback,
        warning=warning,
    )


def select_round(log, config: RoundConfig, fit_config: FitConfig | None = None,
                 round_index: int = 1) -> SelectionResult:
    """Score one round's log and apply the configured selection strategy."""
    scores = score_sequences(log.bits, config.metric_kind, config.lam)
    return _apply_strategy(scores, log, config, fit_config or FitConfig(), round_index)


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
    clean = dataset.clean_mask() if hasattr(dataset, "clean_mask") else None
    if clean is not None:
        # the current rows within the original training set, so that recall
        # counts against every clean instance the run started with
        rows = (np.arange(clean.size) if ids is None else np.searchsorted(
            dataset.train_positions, dataset.positions_of(current_ids)))
    test_pos = getattr(dataset, "test_positions", None)
    rounds: list[SelectionResult] = []
    truncated = False
    for round_index in range(start_round, config.rounds + 1):
        if not current_ids:
            raise ValueError("cannot run a round on an empty training set")
        if config.reset_model_per_round and round_index > 1 and hasattr(trainer, "reset"):
            trainer.reset()
        log = trainer.fit_round(dataset, current_ids, config.epochs)
        result = select_round(log, config, fit_config, round_index)
        if clean is not None:
            rows = rows[result.keep]
            selected = np.zeros(clean.size, dtype=bool)
            selected[rows] = True
            result.stats = evaluation.selection_precision_recall(selected, clean)
        if test_pos is not None and len(test_pos) and hasattr(trainer, "predict"):
            result.test_accuracy = evaluation.test_accuracy(
                trainer, dataset.features[test_pos], dataset.true_labels[test_pos]
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
