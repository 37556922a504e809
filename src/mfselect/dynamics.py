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


def score_sequences(bits, metric_kind: str = "simplified", lam: float = 1.0):
    """Score every row of an (n, E) 0/1 status matrix at once.

    Returns a float64 array in row order. ``full`` is the memorization
    difficulty minus ``lam`` times the forgetting difficulty, a status with
    no run having difficulty 0. ``simplified`` drops the run counts: the
    misclassified epochs minus ``lam`` times the memorized epochs.

    Raises ValueError on no epochs or a ``lam`` that is negative, NaN or overflows the scores.
    """
    if metric_kind not in ("full", "simplified"):
        raise ValueError(f"metric_kind must be 'full' or 'simplified', got {metric_kind!r}")
    bits = np.asarray(bits)
    if bits.shape[1] == 0:
        raise ValueError("cannot score an empty sequence: no epochs recorded")
    if not 0 <= float(lam) * bits.shape[1] < np.inf:  # NaN included; no overflow warning
        raise ValueError(f"lam must be finite and nonnegative, also times the epochs, got {lam}")
    memorized = np.count_nonzero(bits, axis=1)
    misclassified = bits.shape[1] - memorized
    if metric_kind == "simplified":
        return misclassified - float(lam) * memorized
    # runs alternate in status, so the first status fixes both run counts
    n_runs = 1 + np.count_nonzero(bits[:, 1:] != bits[:, :-1], axis=1)
    n_memorized = (n_runs + bits[:, 0]) // 2
    n_misclassified = n_runs - n_memorized
    memorization = np.divide(misclassified, n_misclassified, out=np.zeros(len(bits)),
                             where=n_misclassified > 0)
    forgetting = np.divide(memorized, n_memorized, out=np.zeros(len(bits)),
                           where=n_memorized > 0)
    return memorization - lam * forgetting
