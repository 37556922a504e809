import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfselect.dynamics import score_sequences

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


def score(bits, kind, lam):
    """``score_sequences`` of the one-row matrix ``[bits]``."""
    return score_sequences(np.array([bits], dtype=np.int8), kind, lam)[0]


def memorization(bits):
    """The full metric at lam = 0 is the memorization difficulty alone."""
    return score(bits, "full", 0.0)


def forgetting(bits):
    """The forgetting difficulty of a row is the memorization difficulty of
    its complement: memorized runs become misclassified ones."""
    return memorization([1 - b for b in bits])


bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=400)


# ---------------------------------------------------------------------------
# segments (maximal constant runs), seen through the full metric


def test_segment_example():
    rows = [
        [0, 0, 1, 1, 0, 1],  # (0, 2) (1, 2) (0, 1) (1, 1)
        [1, 0, 0, 0, 0, 1],  # (1, 1) (0, 4) (1, 1)
        [0, 1, 0, 1, 0, 1],  # six runs of one
        [1, 1, 1, 1, 1, 0],  # (1, 5) (0, 1)
    ]
    bits = np.array(rows, dtype=np.int8)
    assert score_sequences(bits, "full", 0.0).tolist() == [1.5, 4.0, 1.0, 1.0]
    assert score_sequences(1 - bits, "full", 0.0).tolist() == [1.5, 1.0, 1.0, 5.0]
    assert score_sequences(bits, "full", 1.0).tolist() == [0.0, 3.0, 0.0, -4.0]


def test_segment_constant_and_singleton():
    # one memorized segment: no misclassified run, so memorization is 0
    assert (memorization([1, 1, 1, 1]), forgetting([1, 1, 1, 1])) == (0.0, 4.0)
    assert score([1, 1, 1, 1], "full", 1.0) == -4.0
    # a single epoch is a single segment
    assert (memorization([0]), forgetting([0])) == (1.0, 0.0)
    assert (memorization([1]), forgetting([1])) == (0.0, 1.0)
    one_epoch = np.array([[0], [1]], dtype=np.int8)
    assert score_sequences(one_epoch, "full", 2.0).tolist() == [1.0, -2.0]


def test_score_sequences_no_epochs_rejected():
    for kind in ("full", "simplified"):
        with pytest.raises(ValueError, match="no epochs"):
            score_sequences(np.zeros((3, 0), dtype=np.int8), kind)


@pytest.mark.parametrize("kind", ["full", "simplified"])
@pytest.mark.parametrize("bits, shape", [
    ([0, 1, 1], "(3,)"),
    (np.zeros((2, 3, 4), dtype=np.int8), "(2, 3, 4)"),
    (np.int8(1), "()"),
])
def test_score_sequences_rejects_input_not_2d(bits, shape, kind):
    with pytest.raises(ValueError, match=re.escape(f"an (n, E) matrix, got shape {shape}")):
        score_sequences(bits, kind)


# ---------------------------------------------------------------------------
# difficulty scores


def test_memorization_difficulty_examples():
    assert memorization([0, 0, 1, 1, 0, 1]) == 1.5
    assert memorization([1, 1, 1, 1]) == 0.0
    assert memorization([0, 0, 0, 0, 0]) == 5.0


def test_forgetting_difficulty_examples():
    assert forgetting([0, 0, 1, 1, 0, 1]) == 1.5
    assert forgetting([0, 0, 0, 0]) == 0.0
    assert forgetting([1, 1, 1, 0, 1, 1, 1]) == 3.0


def test_metric_full_examples():
    assert score([0, 0, 1, 1, 0, 1], "full", 1.0) == 0.0
    p = 9
    assert score([1] * p, "full", 2.5) == -2.5 * p
    assert score([0] * p, "full", 2.5) == p


def test_metric_simplified_examples():
    assert score([0, 0, 1, 1, 0, 1], "simplified", 1.0) == 0
    assert score([1, 1, 1, 1], "simplified", 1.0) == -4
    assert score([0, 0, 1, 1], "simplified", 0.5) == 1.0


def test_negative_lambda_rejected():
    for kind in ("full", "simplified"):
        with pytest.raises(ValueError):
            score([0, 1], kind, -0.1)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_non_finite_lambda_rejected(lam):
    for kind in ("full", "simplified"):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            score([0, 1], kind, lam)


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_int_lambda_beyond_the_float_range_rejected(kind):
    for lam in (10**400, -10**400):  # float(lam) overflows
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            score_sequences(np.array([[0, 1]]), kind, lam)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_lambda_that_overflows_times_the_epochs_rejected(kind):
    # lam times the 2 epochs overflows at 1e308, not at 8e307
    message = r"^lam must be finite and nonnegative, also times the epochs, got 1e\+308$"
    with pytest.raises(ValueError, match=message):
        score([0, 1], kind, 1e308)
    with pytest.raises(ValueError, match=message):
        score_sequences(np.array([[0, 1]]), kind, np.float64(1e308))
    assert np.isfinite(score([0, 1], kind, 8e307))


@given(bit_lists, st.floats(0, 5))
def test_full_metric_matches_oracle(bits, lam):
    assert score(bits, "full", lam) == metric_full_oracle(bits, lam)
    assert memorization(bits) == metric_full_oracle(bits, 0.0)


@given(bit_lists)
def test_simplified_metric_matches_count_oracle(bits):
    assert score(bits, "simplified", 1.0) == metric_simplified_oracle(bits, 1.0)


@given(bit_lists, st.floats(0, 5))
def test_simplified_metric_appending_monotonicity(bits, lam):
    base = score(bits, "simplified", lam)
    assert score(bits + [0], "simplified", lam) >= base
    assert score(bits + [1], "simplified", lam) <= base


@given(bit_lists, st.floats(0, 5))
def test_metric_bounds(bits, lam):
    p = len(bits)
    assert -lam * p <= score(bits, "simplified", lam) <= p
    assert 0 <= memorization(bits) <= p
    assert 0 <= forgetting(bits) <= p


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
    for row, value in zip(bits.tolist(), scores.tolist()):
        assert value == metric_simplified_oracle(row)


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
    """Each row's score equals the scalar oracle of that row alone."""
    rng = np.random.default_rng(epochs)
    bits = rng.integers(0, 2, size=(300, epochs)).astype(np.int8)
    bits[0] = 0
    bits[1] = 1
    for lam in (0, 0.0, 0.3, 1.0, 2.5):
        for kind, oracle in (("full", metric_full_oracle),
                             ("simplified", metric_simplified_oracle)):
            want = [oracle(row, lam) for row in bits.tolist()]
            got = score_sequences(bits, kind, lam)
            assert got.dtype == np.float64
            assert got.tolist() == want, (kind, lam)


@pytest.mark.parametrize("kind", ["full", "simplified"])
def test_any_nonzero_status_scores_as_memorized(kind):
    """A status matrix with entries 0-3 scores like its 0/1 mask."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 4, size=(300, 12))
    bits[0, 0] = 2  # the first status is where the run counts start
    mask = (bits != 0).astype(np.int8)
    want = score_sequences(mask, kind, 0.7)
    assert score_sequences(bits, kind, 0.7).tobytes() == want.tobytes()
    assert score_sequences(bits != 0, kind, 0.7).tobytes() == want.tobytes()
    assert score_sequences([[2, 0]], kind).tolist() == score_sequences([[1, 0]], kind).tolist()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3, finding B: score_sequences "
                   "rounds M and F separately, then subtracts")
def test_equal_exact_full_scores_are_equal_floats():
    # every 12-epoch status, grouped by its exact M - F: today 4 of the 61
    # exact values get two floats, e.g. 2/3 as 0.6666666666666665 and ...667
    bits = np.array(list(itertools.product([0, 1], repeat=12)), dtype=np.int8)
    floats = {}
    for row, value in zip(bits.tolist(), score_sequences(bits, "full", 1.0).tolist()):
        runs = runs_oracle(row)
        u = [n for s, n in runs if s == 0]
        l = [n for s, n in runs if s == 1]
        m = Fraction(sum(u), len(u)) if u else Fraction(0)
        f = Fraction(sum(l), len(l)) if l else Fraction(0)
        floats.setdefault(m - f, set()).add(value)
    assert len(floats) == 61
    assert {exact: v for exact, v in floats.items() if len(v) > 1} == {}
