import numpy as np
import pytest

from mfselect.evaluation import (
    SelectionStats,
    histogram_export,
    selection_precision_recall,
)
from mfselect.evaluation import test_accuracy as compute_accuracy
from mfselect.mixture import FitConfig, fit_metric_scores, threshold


def pr(selected_ids, clean_mask):
    """selection_precision_recall on the masks of an id list and an id -> clean dict."""
    chosen = set(selected_ids)
    return selection_precision_recall([i in chosen for i in clean_mask],
                                      list(clean_mask.values()))


def hist(scores, clean_mask, bins, fit=None):
    """histogram_export on the values of an id -> score dict."""
    return histogram_export(list(scores.values()), [clean_mask[i] for i in scores],
                            bins, fit)


def brute_force_pr(selected, clean_mask):
    selected = set(selected)
    clean = {i for i, v in clean_mask.items() if v}
    tp = len(selected & clean)
    return (
        tp / len(selected) if selected else None,
        tp / len(clean) if clean else None,
    )


# ---------------------------------------------------------------------------
# precision / recall


def test_perfect_selection():
    mask = {i: i % 2 == 0 for i in range(10)}
    clean = [i for i in range(10) if i % 2 == 0]
    stats = pr(clean, mask)
    assert stats.precision == 1.0
    assert stats.recall == 1.0
    assert stats.kept == 5


def test_select_all_baseline():
    mask = {i: i >= 20 for i in range(100)}  # 20% noise
    stats = pr(list(range(100)), mask)
    assert stats.precision == pytest.approx(0.8)
    assert stats.recall == 1.0


def test_partial_selection_counts():
    mask = {i: i < 100 for i in range(120)}
    selected = list(range(85)) + list(range(100, 105))  # 85 clean + 5 noisy
    stats = pr(selected, mask)
    assert stats.precision == pytest.approx(85 / 90)
    assert stats.recall == pytest.approx(0.85)


def test_empty_selection_has_absent_precision():
    mask = {0: True, 1: False}
    stats = pr([], mask)
    assert stats.precision is None
    assert stats.recall == 0.0
    assert stats.kept == 0


def test_no_clean_instances_has_absent_recall():
    mask = {0: False, 1: False}
    stats = pr([0], mask)
    assert stats.precision == 0.0
    assert stats.recall is None


def test_uncovered_ids_rejected():
    with pytest.raises(ValueError, match="cover"):
        selection_precision_recall(np.array([True, True]), np.array([True]))


def test_matches_brute_force_on_random_subsets():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(2, 200))
        mask = {i: bool(rng.random() < 0.6) for i in range(n)}
        selected = [i for i in range(n) if rng.random() < 0.5]
        stats = pr(selected, mask)
        p, r = brute_force_pr(selected, mask)
        assert stats.precision == p
        assert stats.recall == r


# ---------------------------------------------------------------------------
# test accuracy


class ConstantModel:
    def __init__(self, label):
        self.label = label

    def predict(self, x):
        return np.full(len(x), self.label)


class PerfectModel:
    def __init__(self, labels):
        self.labels = np.asarray(labels)

    def predict(self, x):
        return self.labels


def test_accuracy_constant_model_on_balanced_set():
    labels = np.repeat(np.arange(4), 25)
    acc = compute_accuracy(ConstantModel(2), np.zeros((100, 3)), labels)
    assert acc == pytest.approx(0.25)


def test_accuracy_perfect_model():
    labels = np.arange(10) % 3
    assert compute_accuracy(PerfectModel(labels), np.zeros((10, 2)), labels) == 1.0


def test_accuracy_empty_split_rejected():
    with pytest.raises(ValueError):
        compute_accuracy(ConstantModel(0), np.zeros((0, 2)), np.array([]))


# ---------------------------------------------------------------------------
# histogram export


def test_histogram_single_value_occupies_one_bin():
    scores = {i: 2.5 for i in range(8)}
    mask = {i: i < 4 for i in range(8)}
    _, rows, overlay = hist(scores, mask, bins=5)
    occupied = [r for r in rows if int(r[2]) + int(r[3]) > 0]
    assert len(occupied) == 1
    assert overlay is None


def test_histogram_two_bins_splits_counts():
    scores = {"a": -1.0, "b": -1.0, "c": 1.0, "d": 1.0}
    mask = {k: True for k in scores}
    _, rows, _ = hist(scores, mask, bins=2)
    assert [int(r[2]) for r in rows] == [2, 2]


def test_histogram_counts_sum_and_edges_cover_range():
    rng = np.random.default_rng(2)
    scores = {i: float(v) for i, v in enumerate(rng.normal(0, 3, size=500))}
    mask = {i: bool(rng.random() < 0.5) for i in scores}
    _, rows, _ = hist(scores, mask, bins=13)
    assert len(rows) == 13
    total = sum(int(r[2]) + int(r[3]) for r in rows)
    assert total == 500
    values = list(scores.values())
    assert float(rows[0][0]) == min(values)
    assert float(rows[-1][1]) == max(values)


def test_histogram_overlay_densities():
    rng = np.random.default_rng(31)
    raw = np.concatenate([rng.normal(-30, 3, 400), rng.normal(20, 6, 350)])
    scores = {i: float(v) for i, v in enumerate(raw)}
    mask = {i: i < 400 for i in scores}
    fit = fit_metric_scores(raw, FitConfig())
    _, rows, overlay = hist(scores, mask, bins=20, fit=fit)
    assert overlay is not None
    assert len(overlay["x"]) == len(overlay["density_clean"]) == 256
    assert overlay["threshold"] == pytest.approx(threshold(fit))
    assert all(v >= 0 for v in overlay["density_clean"])
    # clean mass sits left of noisy mass
    centers = [(float(r[0]) + float(r[1])) / 2 for r in rows]
    clean_counts = [int(r[2]) for r in rows]
    noisy_counts = [int(r[3]) for r in rows]
    clean_mean = np.average(centers, weights=clean_counts)
    noisy_mean = np.average(centers, weights=noisy_counts)
    assert clean_mean < noisy_mean


def test_histogram_validates_input():
    with pytest.raises(ValueError):
        histogram_export(np.array([1.0]), np.array([True]), bins=1)
    with pytest.raises(ValueError, match="cover"):
        histogram_export(np.array([1.0, 2.0]), np.array([True]), bins=4)
