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

The round loop, the generator ``run_multiround``, trains a round only when
the caller asks for it. It carries dataset row positions, an intp array
``rows``: a round trainer's ``fit_round(dataset, rows, epochs)`` logs
``rows[r]`` in its row ``r``, and the next round trains on ``rows[keep]``.
Ids stand for rows only where a file is written or read.
"""

from __future__ import annotations

import copy
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


def small_loss_select(losses, ratio: float) -> np.ndarray:
    """Mask of the ratio fraction of rows with the smallest final-epoch loss.

    ``losses`` is the (n, E) per-epoch loss matrix.
    """
    losses = np.asarray(losses)
    if losses.ndim != 2:
        raise ValueError(f"losses must be an (n, E) matrix, got shape {losses.shape}")
    return select_by_ratio(losses[:, -1], ratio)


def ids_where(ids, mask) -> list:
    """The ids whose ``mask`` entry is true, in order; a non-bool mask keeps
    the ids at its nonzero entries."""
    # a bool array's bytes are each 0 or 1: compress reads them with no list built
    return list(compress(ids, np.asarray(mask, dtype=bool).tobytes()))


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
                if fit.degenerate:
                    # no separable noisy component: the clean/noisy roles are
                    # arbitrary, so thresholding at the noisy scale would cut
                    # instances at random; keep everything instead
                    keep = np.ones(scores.size, dtype=bool)
                    warning = ("degenerate mixture fit (no separable noisy "
                               "component); kept the full set")
                else:
                    tau = threshold(fit)
                    keep = select_by_threshold(scores, tau)
                    if not keep.any():  # a round always keeps rows
                        raise MixtureFitError(f"threshold {tau:.6g} lies below every score")
            except MixtureFitError as exc:
                tau = fit = None
                keep = select_by_ratio(scores, config.ratio)
                used_fallback = True
                warning = f"mixture fit failed ({exc}); fell back to ratio selection"
    elif config.strategy == "ratio":
        keep = select_by_ratio(scores, config.ratio)
    else:  # small_loss
        if log.losses is None:
            raise LogFormatError("the small_loss strategy needs 'losses' in every record")
        keep = small_loss_select(log.losses, config.ratio)
    return SelectionResult(
        round_index=round_index,
        scores=scores,
        keep=keep,
        selected_ids=ids_where(log.ids, keep),
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


def _finish_round(dataset, trainer, log, rows, config: RoundConfig,
                  fit_config: FitConfig | None, round_index: int) -> SelectionResult:
    """Select among the rows of one round's ``log``, trained on the dataset
    rows ``rows``, and measure the selection.

    Precision and recall count against the clean instances of the
    *original* training set, so the round trend is comparable; test
    accuracy is the trained model's. Either is left None when ``dataset``
    or ``trainer`` cannot provide it.
    """
    result = select_round(log, config, fit_config, round_index)
    if hasattr(dataset, "clean_mask"):
        selected = np.zeros(len(dataset.ids), dtype=bool)
        selected[rows] = result.keep
        result.stats = evaluation.selection_precision_recall(
            selected[dataset.train_positions], dataset.clean_mask())
    test_pos = getattr(dataset, "test_positions", None)
    if test_pos is not None and len(test_pos) and hasattr(trainer, "predict"):
        result.test_accuracy = evaluation.test_accuracy(
            trainer, dataset.features[test_pos], dataset.true_labels[test_pos]
        )
    return result


def run_multiround(
    dataset,
    trainer,
    config: RoundConfig,
    fit_config: FitConfig | None = None,
    rows=None,
    start_round: int = 1,
):
    """Yield ``(result, log)`` for each round, each training on the previous survivors.

    Rounds ``start_round``..``config.rounds`` run on the dataset rows
    ``rows`` first (default: ``dataset.train_positions``), then on the rows
    each round kept. A round trains when the next item is asked for, and
    no log is held across rounds. Sequences are rebuilt every round; the
    model carries over. Recall in the per-round stats is always measured
    against the clean instances of the *original* training set, so the
    round trend is comparable. Every round keeps at least one row.
    """
    rows = np.asarray(dataset.train_positions if rows is None else rows, dtype=np.intp)
    if not rows.size:
        raise ValueError("cannot run a round on an empty training set")
    for round_index in range(start_round, config.rounds + 1):
        log = trainer.fit_round(dataset, rows, config.epochs)
        result = _finish_round(dataset, trainer, log, rows, config, fit_config,
                               round_index)
        yield result, log
        del log  # free this round's sequences before the next round trains
        rows = rows[result.keep]


def compare_strategies(
    dataset,
    trainer,
    config: RoundConfig,
    fit_config: FitConfig | None = None,
):
    """Run the same benchmark once per strategy in ``STRATEGIES`` and
    tabulate the outcome.

    ``trainer`` trains round 1 once on the training rows, since its
    training does not depend on the strategy, and every strategy selects
    from that one log. Each strategy then runs its later rounds on its own
    copy of the trained model, exactly as if it had trained round 1 itself;
    ``trainer`` is left as round 1 left it. Returns one dict per strategy
    with the final round's kept count, precision, recall and test accuracy.
    """
    configs = [replace(config, strategy=strategy) for strategy in STRATEGIES]
    rows = dataset.train_positions
    log = trainer.fit_round(dataset, rows, config.epochs)
    firsts = [_finish_round(dataset, trainer, log, rows, cfg, fit_config, 1)
              for cfg in configs]
    del log  # free round 1's sequences before round 2 trains
    table = []
    for cfg, last in zip(configs, firsts):
        if config.rounds > 1:
            for last, log in run_multiround(dataset, copy.deepcopy(trainer), cfg, fit_config,
                                            rows=rows[last.keep], start_round=2):
                del log  # free this round's sequences before the next round trains
        table.append(
            {
                "strategy": cfg.strategy,
                "kept": len(last.selected_ids),
                "precision": last.stats.precision if last.stats else None,
                "recall": last.stats.recall if last.stats else None,
                "accuracy": last.test_accuracy,
            }
        )
    return table
