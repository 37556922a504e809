"""Per-instance learning-dynamics records and selection metrics.

An instance's training history within one round is a binary sequence with
one entry per epoch: 1 when the model's argmax prediction matched the
dataset label at that epoch (memorized), 0 otherwise (misclassified).
Splitting the sequence into maximal constant runs gives the segment
decomposition from which the memorization/forgetting difficulties and the
selection scores are computed. Instances that are quick to memorize and
slow to forget score low and are the likely-clean ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISCLASSIFIED = 0
MEMORIZED = 1


@dataclass(frozen=True)
class SegmentDecomposition:
    """Maximal runs of equal status, in sequence order.

    ``statuses[j]`` is the run's status (0 misclassified / 1 memorized) and
    ``lengths[j]`` its length. Adjacent runs always differ in status and the
    lengths sum to the sequence length. The per-status run counts and epoch
    totals are computed once by ``segment``; every metric reads them.
    """

    statuses: np.ndarray
    lengths: np.ndarray
    n_misclassified: int  # number of misclassified (u) segments
    n_memorized: int  # number of memorized (l) segments
    misclassified_epochs: int
    memorized_epochs: int

    @property
    def segments(self) -> list[tuple[int, int]]:
        return list(zip(self.statuses.tolist(), self.lengths.tolist()))

    @property
    def total_epochs(self) -> int:
        return self.misclassified_epochs + self.memorized_epochs

    def reconstruct(self) -> np.ndarray:
        """Expand the runs back into the original bit sequence."""
        return np.repeat(self.statuses, self.lengths)


def segment(bits) -> SegmentDecomposition:
    """Split a status sequence into maximal constant runs.

    Raises ValueError on an empty sequence (no epochs recorded yet).
    """
    arr = np.asarray(bits, dtype=np.int8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d status sequence")
    n = arr.size
    if n == 0:
        raise ValueError("cannot segment an empty sequence: no epochs recorded")
    # one reduction: negative values wrap to >= 128 in the unsigned view
    if arr.view(np.uint8).max() > 1:
        raise ValueError("status values must be 0 or 1")
    # run boundaries: the two ends plus every position where the bit changes
    is_bound = np.empty(n + 1, dtype=bool)
    is_bound[0] = is_bound[n] = True
    np.not_equal(arr[1:], arr[:-1], out=is_bound[1:n])
    bounds = is_bound.nonzero()[0]
    starts = bounds[:-1]
    # runs alternate in status, so the first status fixes both run counts
    n_runs = starts.size
    n_memorized = (n_runs + int(arr[0])) // 2
    memorized_epochs = int(np.count_nonzero(arr))
    return SegmentDecomposition(
        statuses=arr[starts],
        lengths=bounds[1:] - starts,
        n_misclassified=n_runs - n_memorized,
        n_memorized=n_memorized,
        misclassified_epochs=n - memorized_epochs,
        memorized_epochs=memorized_epochs,
    )


def memorization_difficulty(d: SegmentDecomposition) -> float:
    """Mean misclassified-segment length; 0 when memorized from the start."""
    if d.n_misclassified == 0:
        return 0.0
    return d.misclassified_epochs / d.n_misclassified


def forgetting_difficulty(d: SegmentDecomposition) -> float:
    """Mean memorized-segment length; 0 when the instance was never memorized."""
    if d.n_memorized == 0:
        return 0.0
    return d.memorized_epochs / d.n_memorized


def metric_full(d: SegmentDecomposition, lam: float = 1.0) -> float:
    """Memorization difficulty minus ``lam`` times forgetting difficulty."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return memorization_difficulty(d) - lam * forgetting_difficulty(d)


def metric_simplified(d: SegmentDecomposition, lam: float = 1.0) -> float:
    """Total misclassified epochs minus ``lam`` times total memorized epochs.

    Same as the full metric with the segment counts dropped; with lam=1 it
    equals the number of zeros minus the number of ones in the raw sequence.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    return float(d.misclassified_epochs - lam * d.memorized_epochs)


def score_sequences(bits, metric_kind: str = "simplified", lam: float = 1.0):
    """Score every row of an (n, E) 0/1 status matrix at once.

    Returns a float64 array in row order, equal to ``metric_full`` or
    ``metric_simplified`` of ``segment(row)`` for each row: the same counts
    enter the same floating-point operations.
    """
    if metric_kind not in ("full", "simplified"):
        raise ValueError(f"metric_kind must be 'full' or 'simplified', got {metric_kind!r}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    bits = np.asarray(bits)
    memorized = np.count_nonzero(bits, axis=1)
    misclassified = bits.shape[1] - memorized
    if metric_kind == "simplified":
        return misclassified - float(lam) * memorized
    # runs alternate in status, so the first status fixes both run counts
    n_runs = 1 + np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    n_memorized = (n_runs + bits[:, 0]) // 2
    n_misclassified = n_runs - n_memorized
    # a status with no run has difficulty 0, as in the scalar metrics
    memorization = np.divide(misclassified, n_misclassified, out=np.zeros(len(bits)),
                             where=n_misclassified > 0)
    forgetting = np.divide(memorized, n_memorized, out=np.zeros(len(bits)),
                           where=n_memorized > 0)
    return memorization - lam * forgetting
