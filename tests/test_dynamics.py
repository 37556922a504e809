import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfselect.dynamics import (
    forgetting_difficulty,
    memorization_difficulty,
    metric_full,
    metric_simplified,
    score_sequences,
    segment,
)

# ---------------------------------------------------------------------------
# independent oracles: plain scans over the raw bit list, no numpy run logic


def runs_oracle(bits):
    """(status, length) runs via itertools.groupby."""
    return [(k, len(list(g))) for k, g in itertools.groupby(bits)]


def metric_full_oracle(bits, lam=1.0):
    runs = runs_oracle(bits)
    u = [n for s, n in runs if s == 0]
    l = [n for s, n in runs if s == 1]
    m = sum(u) / len(u) if u else 0.0
    f = sum(l) / len(l) if l else 0.0
    return m - lam * f


def metric_simplified_oracle(bits, lam=1.0):
    return bits.count(0) - lam * bits.count(1)


bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=400)


# ---------------------------------------------------------------------------
# segmentation


def test_segment_example():
    d = segment([0, 0, 1, 1, 0, 1])
    assert d.segments == [(0, 2), (1, 2), (0, 1), (1, 1)]
    assert d.n_misclassified == 2
    assert d.n_memorized == 2


def test_segment_constant_and_singleton():
    d = segment([1, 1, 1, 1])
    assert d.segments == [(1, 4)]
    assert (d.n_misclassified, d.n_memorized) == (0, 1)
    d = segment([0])
    assert d.segments == [(0, 1)]
    assert (d.n_misclassified, d.n_memorized) == (1, 0)


def test_segment_empty_rejected():
    with pytest.raises(ValueError, match="no epochs"):
        segment([])


def test_segment_rejects_non_binary():
    with pytest.raises(ValueError):
        segment([0, 2, 1])


@given(bit_lists)
def test_segment_round_trip(bits):
    d = segment(bits)
    assert d.reconstruct().tolist() == bits
    assert d.total_epochs == len(bits)
    assert d.n_misclassified + d.n_memorized == len(d.segments)
    statuses = [s for s, _ in d.segments]
    assert all(a != b for a, b in zip(statuses, statuses[1:]))


def test_segment_round_trip_long_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = rng.integers(0, 2, size=rng.integers(1, 10_001)).tolist()
        assert segment(bits).reconstruct().tolist() == bits


# ---------------------------------------------------------------------------
# difficulty scores


def test_memorization_difficulty_examples():
    assert memorization_difficulty(segment([0, 0, 1, 1, 0, 1])) == 1.5
    assert memorization_difficulty(segment([1, 1, 1, 1])) == 0.0
    assert memorization_difficulty(segment([0, 0, 0, 0, 0])) == 5.0


def test_forgetting_difficulty_examples():
    assert forgetting_difficulty(segment([0, 0, 1, 1, 0, 1])) == 1.5
    assert forgetting_difficulty(segment([0, 0, 0, 0])) == 0.0
    assert forgetting_difficulty(segment([1, 1, 1, 0, 1, 1, 1])) == 3.0


def test_metric_full_examples():
    assert metric_full(segment([0, 0, 1, 1, 0, 1]), 1.0) == 0.0
    p = 9
    assert metric_full(segment([1] * p), 2.5) == -2.5 * p
    assert metric_full(segment([0] * p), 2.5) == p


def test_metric_simplified_examples():
    assert metric_simplified(segment([0, 0, 1, 1, 0, 1]), 1.0) == 0
    assert metric_simplified(segment([1, 1, 1, 1]), 1.0) == -4
    assert metric_simplified(segment([0, 0, 1, 1]), 0.5) == 1.0


def test_negative_lambda_rejected():
    d = segment([0, 1])
    with pytest.raises(ValueError):
        metric_full(d, -0.1)
    with pytest.raises(ValueError):
        metric_simplified(d, -0.1)


@given(bit_lists, st.floats(0, 5))
def test_full_metric_matches_oracle(bits, lam):
    assert metric_full(segment(bits), lam) == metric_full_oracle(bits, lam)


@given(bit_lists)
def test_simplified_metric_matches_count_oracle(bits):
    assert metric_simplified(segment(bits), 1.0) == metric_simplified_oracle(bits, 1.0)


@given(bit_lists, st.floats(0, 5))
def test_simplified_metric_appending_monotonicity(bits, lam):
    base = metric_simplified(segment(bits), lam)
    assert metric_simplified(segment(bits + [0]), lam) >= base
    assert metric_simplified(segment(bits + [1]), lam) <= base


@given(bit_lists, st.floats(0, 5))
def test_metric_bounds(bits, lam):
    p = len(bits)
    d = segment(bits)
    assert -lam * p <= metric_simplified(d, lam) <= p
    assert 0 <= memorization_difficulty(d) <= p
    assert 0 <= forgetting_difficulty(d) <= p


# ---------------------------------------------------------------------------
# batch scoring


def test_score_sequences_orders_and_permutes():
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=(40, 20)).astype(np.int8)
    scores = score_sequences(bits, "simplified", 1.0)
    assert scores.dtype == np.float64 and scores.shape == (40,)
    # per-instance purity: permuting the rows permutes outputs identically
    perm = rng.permutation(40)
    assert np.array_equal(score_sequences(bits[perm], "simplified", 1.0), scores[perm])
    for row, score in zip(bits.tolist(), scores.tolist()):
        assert score == metric_simplified_oracle(row)


def test_score_sequences_full_kind():
    bits = np.array([[0, 0, 1], [1, 0, 1]], dtype=np.int8)
    scores = score_sequences(bits, "full", 2.0)
    assert scores[0] == metric_full_oracle([0, 0, 1], 2.0)
    assert scores[1] == metric_full_oracle([1, 0, 1], 2.0)
    with pytest.raises(ValueError):
        score_sequences(bits, "weird")
    with pytest.raises(ValueError):
        score_sequences(bits, "full", -0.1)


@pytest.mark.parametrize("epochs", [1, 2, 7, 50])
def test_score_sequences_equals_scalar_metrics(epochs):
    rng = np.random.default_rng(epochs)
    bits = rng.integers(0, 2, size=(300, epochs)).astype(np.int8)
    bits[0] = 0
    bits[1] = 1
    for lam in (0, 0.0, 0.3, 1.0, 2.5):
        for kind, scalar in (("full", metric_full), ("simplified", metric_simplified)):
            want = [scalar(segment(row), lam) for row in bits]
            got = score_sequences(bits, kind, lam)
            assert got.dtype == np.float64
            assert got.tolist() == want, (kind, lam)
