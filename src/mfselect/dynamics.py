"""Per-instance learning-dynamics selection metrics.

An instance's training history within one round is a binary sequence with
one entry per epoch: 1 when the model's argmax prediction matched the
dataset label at that epoch (memorized), 0 otherwise (misclassified).
Splitting the sequence into maximal constant runs (segments) gives the
memorization difficulty (mean misclassified-run length) and the forgetting
difficulty (mean memorized-run length). Instances that are quick to
memorize and slow to forget score low and are the likely-clean ones.
"""

import numpy as np

ROW_BLOCK = 8192  # rows per block of status counts: 400 KB of bools at 50 epochs


def score_sequences(bits, metric_kind: str = "simplified", lam: float = 1.0):
    """Score every row of an (n, E) 0/1 status matrix at once.

    Any nonzero entry counts as memorized.

    Returns a float64 array in row order. ``full`` is the memorization
    difficulty minus ``lam`` times the forgetting difficulty, a status with
    no run having difficulty 0. ``simplified`` drops the run counts: the
    misclassified epochs minus ``lam`` times the memorized epochs.

    Raises ValueError on input that is not 2-D, no epochs or a ``lam`` that
    is negative, NaN or overflows the scores.
    """
    if metric_kind not in ("full", "simplified"):
        raise ValueError(f"metric_kind must be 'full' or 'simplified', got {metric_kind!r}")
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"bits must be an (n, E) matrix, got shape {bits.shape}")
    if bits.shape[1] == 0:
        raise ValueError("cannot score an empty sequence: no epochs recorded")
    try:
        finite = 0 <= float(lam) * bits.shape[1] < np.inf  # NaN included; no overflow warning
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"lam must be finite and nonnegative, also times the epochs, got {lam}")
    # The counts go block by block of rows, so the bool status of a block
    # and its changes stay small; for the whole matrix they would hold two
    # more copies of its bits. int32 sums of bools beat count_nonzero along
    # a short row; int32 would wrap only on a row of 2**31 epochs.
    full = metric_kind == "full"
    memorized = np.empty(len(bits), dtype=np.int32)
    changes = np.empty_like(memorized)
    first = np.empty(len(bits), dtype=bool)
    for start in range(0, len(bits), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        status = bits[rows] != 0
        status.sum(axis=1, dtype=np.int32, out=memorized[rows])
        if full:
            (status[:, 1:] != status[:, :-1]).sum(axis=1, dtype=np.int32, out=changes[rows])
            first[rows] = status[:, 0]
    misclassified = bits.shape[1] - memorized
    if not full:
        return misclassified - float(lam) * memorized
    # runs alternate in status, so the first status fixes both run counts
    n_runs = changes + 1
    n_memorized = (n_runs + first) // 2
    n_misclassified = n_runs - n_memorized
    memorization = np.divide(misclassified, n_misclassified, out=np.zeros(len(bits)),
                             where=n_misclassified > 0)
    forgetting = np.divide(memorized, n_memorized, out=np.zeros(len(bits)),
                           where=n_memorized > 0)
    return memorization - lam * forgetting
