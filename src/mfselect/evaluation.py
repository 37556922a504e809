"""Selection quality scoring and plot-data export.

Precision and recall treat the clean class as positive: precision is the
clean fraction of what was kept, recall the kept fraction of everything
clean. Selecting the whole set therefore scores recall 1.0 and precision
equal to the clean fraction. Undefined ratios (empty selection, no clean
instances) are reported as absent rather than 0 so degenerate rounds stay
visible.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from .mixture import MixtureFit, threshold, weibull_pdf


@dataclass
class SelectionStats:
    precision: float | None
    recall: float | None
    f1: float | None
    kept: int
    round_index: int = 0


def selection_precision_recall(selected_ids, clean_mask, round_index: int = 0) -> SelectionStats:
    """Score a selected id set against a ground-truth clean mask."""
    selected = list(selected_ids)
    missing = [i for i in selected if i not in clean_mask]
    if missing:
        raise ValueError(
            f"clean mask does not cover selected ids, e.g. {missing[:5]}"
        )
    true_kept = sum(1 for i in selected if clean_mask[i])
    n_clean = sum(1 for v in clean_mask.values() if v)
    precision = true_kept / len(selected) if selected else None
    recall = true_kept / n_clean if n_clean else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return SelectionStats(
        precision=precision,
        recall=recall,
        f1=f1,
        kept=len(selected),
        round_index=round_index,
    )


def test_accuracy(model, features, labels) -> float:
    """Fraction of argmax predictions matching the true labels."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("test split is empty")
    return float(np.mean(model.predict(np.asarray(features)) == labels))


def histogram_export(scores, clean_mask, bins: int, fit: MixtureFit | None = None):
    """Per-bin clean/noisy counts plus mixture-density samples for overlay.

    Returns (csv_text, overlay_dict). The CSV holds bin edges and counts
    split by ground truth; the overlay dict samples the fitted component
    densities over the score range in original score units (None when no
    fit is given).
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    ids = list(scores)
    missing = [i for i in ids if i not in clean_mask]
    if missing:
        raise ValueError(f"clean mask does not cover score ids, e.g. {missing[:5]}")
    values = np.array([scores[i] for i in ids], dtype=float)
    is_clean = np.array([clean_mask[i] for i in ids], dtype=bool)
    lo, hi = float(values.min()), float(values.max())
    edges = np.histogram_bin_edges(values, bins=bins, range=(lo, hi) if lo < hi else None)
    clean_counts, _ = np.histogram(values[is_clean], bins=edges)
    noisy_counts, _ = np.histogram(values[~is_clean], bins=edges)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["bin_left", "bin_right", "clean_count", "noisy_count"])
    for j in range(len(edges) - 1):
        writer.writerow(
            [repr(float(edges[j])), repr(float(edges[j + 1])),
             int(clean_counts[j]), int(noisy_counts[j])]
        )

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
    return buf.getvalue(), overlay
