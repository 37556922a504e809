"""Selection quality scoring and plot-data export.

Selections and ground truth are bool arrays over the same rows: the kept
rows and the clean ones. Precision and recall treat the clean class as
positive: precision is the clean fraction of what was kept, recall the
kept fraction of everything clean. Selecting the whole set therefore
scores recall 1.0 and precision equal to the clean fraction. Undefined
ratios (empty selection, no clean instances) are reported as absent
rather than 0 so degenerate rounds stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import MixtureFit, threshold, weibull_pdf


@dataclass
class SelectionStats:
    precision: float | None
    recall: float | None
    kept: int


def selection_precision_recall(selected, clean) -> SelectionStats:
    """Score a keep mask against the clean mask of the same rows."""
    selected = np.asarray(selected, dtype=bool)
    clean = np.asarray(clean, dtype=bool)
    if selected.shape != clean.shape:
        raise ValueError(f"selection and clean mask cover different rows "
                         f"({selected.size} vs {clean.size})")
    kept = int(np.count_nonzero(selected))
    true_kept = int(np.count_nonzero(selected & clean))
    n_clean = int(np.count_nonzero(clean))
    precision = true_kept / kept if kept else None
    recall = true_kept / n_clean if n_clean else None
    return SelectionStats(precision=precision, recall=recall, kept=kept)


def test_accuracy(model, features, labels) -> float:
    """Fraction of argmax predictions matching the true labels."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("test split is empty")
    return float(np.mean(model.predict(np.asarray(features)) == labels))


def histogram_export(values, is_clean, bins: int, fit: MixtureFit | None = None):
    """Per-bin clean/noisy counts plus mixture-density samples for overlay.

    ``values`` are the scores and ``is_clean`` the ground truth of the same
    rows, or None without one. Returns (header, rows, overlay_dict). Each row
    holds a bin's edges, as ``repr`` text, and its counts split by ground
    truth; rows is None without truth. The overlay dict samples the fitted
    component densities over the score range in original score units, with
    the fit's threshold, or is None when no fit is given.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    rows = None
    if is_clean is not None:
        is_clean = np.asarray(is_clean, dtype=bool)
        if values.shape != is_clean.shape:
            raise ValueError(f"scores and clean mask cover different rows "
                             f"({values.size} vs {is_clean.size})")
        edges = np.histogram_bin_edges(values, bins=bins, range=(lo, hi) if lo < hi else None)
        clean_counts, _ = np.histogram(values[is_clean], bins=edges)
        noisy_counts, _ = np.histogram(values[~is_clean], bins=edges)
        edge_text = list(map(repr, edges.tolist()))
        rows = list(zip(edge_text[:-1], edge_text[1:],
                        clean_counts.tolist(), noisy_counts.tolist()))

    overlay = None
    if fit is not None:
        x = np.linspace(lo, hi, 256)
        shifted = x - fit.shift + fit.epsilon
        shifted = np.maximum(shifted, fit.epsilon * 1e-6 if fit.epsilon else 1e-12)
        overlay = {
            "x": x.tolist(),
            "density_clean": (fit.k_clean * weibull_pdf(shifted, fit.clean)).tolist(),
            "density_noisy": (fit.k_noisy * weibull_pdf(shifted, fit.noisy)).tolist(),
            "threshold": threshold(fit),
        }
    return ["bin_left", "bin_right", "clean_count", "noisy_count"], rows, overlay
