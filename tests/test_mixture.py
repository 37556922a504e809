import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mfselect import mixture as mixture_mod
from mfselect.errors import (
    ComponentCollapseError,
    DegenerateSamplesError,
    MixtureFitError,
    NewtonDivergenceError,
)
from mfselect.mixture import (
    FitConfig,
    MixtureFit,
    WeibullParams,
    em_fit,
    fit_metric_scores,
    identify_components,
    threshold,
    weibull_mean,
    weibull_pdf,
    weighted_weibull_mle,
)
from mfselect.selection import RoundConfig, select_by_ratio, select_round
from mfselect.trainer import simulate_dynamics

import mixture_reference


def sample_mixture(n, seed=7):
    """0.6 * Weibull(alpha=2, beta=1.5) + 0.4 * Weibull(alpha=8, beta=3)."""
    rng = np.random.default_rng(seed)
    in_first = rng.random(n) < 0.6
    return np.where(
        in_first, 2.0 * rng.weibull(1.5, n), 8.0 * rng.weibull(3.0, n)
    )


# ---------------------------------------------------------------------------
# weibull_pdf / weibull_mean


def test_pdf_values():
    assert weibull_pdf(1.0, WeibullParams(1, 1)) == pytest.approx(math.exp(-1))
    for beta in (0.5, 1.0, 2.0, 7.0):
        p = WeibullParams(3.0, beta)
        assert weibull_pdf(3.0, p) == pytest.approx(beta / 3.0 * math.exp(-1))
    assert weibull_pdf(2.0, WeibullParams(2, 3)) == pytest.approx(1.5 * math.exp(-1))


def test_pdf_rejects_nonpositive():
    with pytest.raises(ValueError):
        weibull_pdf(0.0, WeibullParams(1, 1))
    with pytest.raises(ValueError):
        weibull_pdf(np.array([1.0, -2.0]), WeibullParams(1, 1))


def test_params_validated():
    with pytest.raises(ValueError):
        WeibullParams(0.0, 1.0)
    with pytest.raises(ValueError):
        WeibullParams(1.0, -2.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_pdf_integrates_to_one(alpha, beta):
    p = WeibullParams(alpha, beta)
    total, _ = quad(lambda x: weibull_pdf(x, p), 0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_mean_values():
    assert weibull_mean(WeibullParams(1, 1)) == pytest.approx(1.0)
    assert weibull_mean(WeibullParams(5, 1)) == pytest.approx(5.0)
    assert weibull_mean(WeibullParams(2, 2)) == pytest.approx(math.sqrt(math.pi))


def test_mean_matches_monte_carlo():
    rng = np.random.default_rng(1234)
    for alpha, beta in [(0.5, 0.8), (2.0, 1.5), (8.0, 3.0)]:
        draws = alpha * rng.weibull(beta, size=1_000_000)
        mc = draws.mean()
        assert weibull_mean(WeibullParams(alpha, beta)) == pytest.approx(
            mc, rel=5e-3
        )


# ---------------------------------------------------------------------------
# weighted MLE


def mle(samples, weights):
    """``weighted_weibull_mle`` of a positive sample, its arguments built as
    ``em_fit`` builds them: (x / max, log of that, max)."""
    x = np.asarray(samples, dtype=float)
    x_scaled = x / x.max()
    return weighted_weibull_mle(x_scaled, np.log(x_scaled), float(x.max()),
                                np.asarray(weights, dtype=float))


def test_mle_consistency_unit_weights():
    rng = np.random.default_rng(42)
    x = 3.0 * rng.weibull(2.0, size=10_000)
    p = mle(x, np.ones_like(x))
    assert abs(p.alpha - 3.0) / 3.0 < 0.03
    assert abs(p.beta - 2.0) / 2.0 < 0.05


def test_mle_degenerate_identical_samples():
    with pytest.raises(DegenerateSamplesError):
        mle(np.ones(50), np.ones(50))


def test_mle_beats_grid_on_two_samples():
    x = np.array([1.0, math.e])
    w = np.ones(2)
    fitted = mle(x, w)

    def loglik(params):
        with np.errstate(divide="ignore"):
            return float(np.log(weibull_pdf(x, params)).sum())

    best = loglik(fitted)
    assert best >= loglik(WeibullParams(1.0, 1.0))
    for alpha in np.linspace(0.2, 5.0, 25):
        for beta in np.linspace(0.1, 10.0, 25):
            assert best >= loglik(WeibullParams(alpha, beta)) - 1e-9


def test_mle_respects_weights():
    # zero-weight samples must not influence the fit
    rng = np.random.default_rng(5)
    x = 3.0 * rng.weibull(2.0, size=2_000)
    junk = np.full(500, 123.4)
    merged = np.concatenate([x, junk])
    w = np.concatenate([np.ones_like(x), np.zeros_like(junk)])
    a = mle(x, np.ones_like(x))
    b = mle(merged, w)
    assert b.alpha == pytest.approx(a.alpha, rel=1e-9)
    assert b.beta == pytest.approx(a.beta, rel=1e-9)


def test_mle_restores_numpy_error_state(monkeypatch):
    """The solver silences numpy only while it runs: the caller's error
    state is back after a normal return and after each of its raises."""
    x = 3.0 * np.random.default_rng(42).weibull(2.0, size=1_000)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        before = np.geterr()
        mle(x, np.ones_like(x))
        assert np.geterr() == before
        with pytest.raises(DegenerateSamplesError):
            mle(np.ones(50), np.ones(50))
        assert np.geterr() == before
        monkeypatch.setattr(mixture_mod, "NEWTON_MAX_ITERS", 1)
        with pytest.raises(NewtonDivergenceError):
            mle(x, np.ones_like(x))
        assert np.geterr() == before


def test_newton_divergence_raises_and_the_round_falls_back_to_ratio(monkeypatch):
    monkeypatch.setattr(mixture_mod, "NEWTON_MAX_ITERS", 1)
    x = 3.0 * np.random.default_rng(42).weibull(2.0, size=1_000)
    with pytest.raises(NewtonDivergenceError) as info:
        mle(x, np.ones_like(x))
    lo, hi = mixture_mod.BETA_BRACKET
    assert lo < info.value.last_beta < hi
    result = select_round(simulate_dynamics(300, 300, epochs=20, seed=0),
                          RoundConfig(epochs=20), FitConfig())
    assert result.used_fallback and result.fit is None
    assert "shape solver did not converge" in result.warning
    assert "fell back to ratio selection" in result.warning
    assert np.array_equal(result.keep, select_by_ratio(result.scores, 0.9))


# ---------------------------------------------------------------------------
# support shift


def test_shift_examples(monkeypatch):
    # the EM fits shifted = s - min(s) + SHIFT_EPSILON; the fit records both
    fitted = []
    real_em_fit = mixture_mod.em_fit

    def spy(shifted):
        fitted.append(shifted.copy())
        return real_em_fit(shifted)

    monkeypatch.setattr(mixture_mod, "em_fit", spy)
    for offset in (-3.0, 0.0, 2.0):
        raw = np.r_[offset, sample_mixture(300) + offset]
        fit = fit_metric_scores(raw, FitConfig(dequantize=False))
        assert fit.shift == offset and fit.epsilon == 1e-3
        assert np.array_equal(fitted[-1], np.sort(raw) - offset + 1e-3)
        assert fitted[-1].min() == 1e-3


# ---------------------------------------------------------------------------
# EM fit


def test_em_recovers_synthetic_mixture():
    x = sample_mixture(5000, seed=7)
    fit = em_fit(x)
    assert fit.converged
    assert abs(fit.clean.alpha - 2.0) / 2.0 < 0.10
    assert abs(fit.noisy.alpha - 8.0) / 8.0 < 0.10
    assert abs(fit.clean.beta - 1.5) / 1.5 < 0.15
    assert abs(fit.noisy.beta - 3.0) / 3.0 < 0.15
    assert abs(fit.k_clean - 0.6) < 0.05
    assert abs(fit.k_noisy - 0.4) < 0.05
    assert fit.k_clean + fit.k_noisy == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate


def test_em_loglik_nondecreasing():
    for seed in (7, 21, 77):
        fit = em_fit(sample_mixture(3000, seed=seed))
        trace = np.asarray(fit.loglik_trace)
        assert trace.size == fit.iterations
        assert np.all(np.diff(trace) >= -1e-9)


def test_em_single_population_is_degenerate_or_collapses():
    rng = np.random.default_rng(3)
    x = 3.0 * rng.weibull(2.0, size=2000)
    try:
        fit = em_fit(x)
    except MixtureFitError:
        return
    assert fit.converged
    assert fit.degenerate


def test_fit_requires_ten_scores():
    for n in (0, 9):
        with pytest.raises(DegenerateSamplesError, match="at least 10 scores"):
            fit_metric_scores(np.linspace(1, 2, n))


def test_em_rejects_two_valued_scores():
    x = np.array([1.0] * 30 + [2.0] * 30)
    with pytest.raises(DegenerateSamplesError):
        em_fit(x)


def test_em_deterministic():
    x = sample_mixture(2000, seed=9)
    a = em_fit(x)
    b = em_fit(x)
    assert a.clean == b.clean and a.noisy == b.noisy
    assert a.k_clean == b.k_clean
    assert a.loglik_trace == b.loglik_trace


# ---------------------------------------------------------------------------
# role assignment and threshold


def make_fit(clean, noisy, k_clean=0.5, shift=0.0, epsilon=0.0):
    return MixtureFit(
        k_clean=k_clean,
        k_noisy=1.0 - k_clean,
        clean=clean,
        noisy=noisy,
        shift=shift,
        epsilon=epsilon,
    )


def test_identify_components_orders_by_mean():
    fit = make_fit(WeibullParams(1.8, 1.0), WeibullParams(7.1, 1.0))
    fit = identify_components(fit)
    assert weibull_mean(fit.noisy) > weibull_mean(fit.clean)
    # reversed input gets swapped
    fit = make_fit(WeibullParams(7.1, 1.0), WeibullParams(1.8, 1.0), k_clean=0.7)
    fit = identify_components(fit)
    assert fit.clean.alpha == 1.8
    assert fit.k_clean == pytest.approx(0.3)
    assert not fit.degenerate  # means differ by far more than the tolerance


def test_identify_components_tie_breaks_toward_larger_alpha():
    # equal means: alpha * gamma(1 + 1/beta) identical by construction
    a = WeibullParams(1.0, 1.0)  # mean 1
    b = WeibullParams(1.0 / math.gamma(1.5), 2.0)  # mean 1
    fit = identify_components(make_fit(a, b))
    assert fit.degenerate
    assert fit.noisy.alpha == max(a.alpha, b.alpha)


def test_threshold_maps_back_through_shift():
    # original = shifted + shift - epsilon
    fit = make_fit(
        WeibullParams(1.0, 1.0), WeibullParams(6.0, 2.0), shift=-3.0, epsilon=1e-3
    )
    assert threshold(fit) == pytest.approx(2.999)
    fit = make_fit(
        WeibullParams(0.5, 1.0), WeibullParams(4.0, 2.0), shift=0.0, epsilon=1e-3
    )
    assert threshold(fit) == pytest.approx(4.0 - 1e-3)
    fit = make_fit(WeibullParams(0.5, 1.0), WeibullParams(1.0, 1.0))
    assert threshold(fit) == pytest.approx(1.0)


def test_fit_metric_scores_handles_negative_scores():
    rng = np.random.default_rng(23)
    raw = np.concatenate(
        [rng.normal(-40, 4, size=800), rng.normal(25, 8, size=700)]
    )
    fit = fit_metric_scores(raw, FitConfig())
    tau = threshold(fit)
    assert -40 < tau < 40
    kept = raw < tau
    # the low cluster is kept in full
    assert kept[:800].all()


def test_fit_json_round_trip_keys():
    fit = fit_metric_scores(sample_mixture(1000, seed=29) - 5.0, FitConfig())
    doc = fit.to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    for key in (
        "k_clean",
        "k_noisy",
        "clean",
        "noisy",
        "shift",
        "threshold",
        "loglik_trace",
        "converged",
    ):
        assert key in parsed
    assert parsed["clean"].keys() == {"alpha", "beta"}
    assert parsed["threshold"] == pytest.approx(threshold(fit))


def test_fit_json_reads_back_to_the_same_fit():
    fit = fit_metric_scores(sample_mixture(1000, seed=29) - 5.0, FitConfig())
    assert fit.shift != 0.0 and fit.epsilon != 0.0  # the support translation is kept
    doc = json.loads(json.dumps(fit.to_json_dict(), sort_keys=True))
    back = MixtureFit.from_json_dict(doc)
    assert back == fit
    assert back.to_json_dict() == doc


def test_component_collapse_reported():
    # one extreme outlier - the far component's responsibility mass shrinks
    # below the floor once EM localizes it
    x = np.concatenate([np.linspace(1.0, 2.0, 200)])
    rng = np.random.default_rng(0)
    x = np.concatenate([2.0 + 0.05 * rng.random(400), [2000.0]])
    with pytest.raises((ComponentCollapseError, DegenerateSamplesError)):
        em_fit(x)


# ---------------------------------------------------------------------------
# bit-identity with the straightforward formulas (tests/mixture_reference.py)


def fit_outcome(fit_fn, *args):
    """The fit as canonical JSON text (so -0.0 and 0.0 differ), or the exception type."""
    try:
        return json.dumps(fit_fn(*args).to_json_dict(), sort_keys=True)
    except Exception as exc:  # compared by type with the reference's
        return type(exc)


@st.composite
def score_multisets(draw):
    """Lattice, continuous and normal score multisets of 10 to 2000 values."""
    kind = draw(st.sampled_from(["lattice", "continuous", "normal"]))
    n = draw(st.integers(10, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        step = draw(st.sampled_from([1.0, 0.5, 1 / 3]))
        scores = step * rng.integers(-draw(st.integers(1, 60)), 60, n)
    elif kind == "continuous":
        in_first = rng.random(n) < draw(st.floats(0.05, 0.95))
        scores = np.where(in_first, rng.weibull(draw(st.floats(0.3, 5.0)), n),
                          draw(st.floats(1.0, 20.0)) * rng.weibull(3.0, n))
    else:
        scores = np.concatenate([rng.normal(-40, 4, n // 2),
                                 rng.normal(draw(st.floats(-45, 45)), 8, n - n // 2)])
    config = FitConfig(seed=draw(st.integers(0, 3)), dequantize=draw(st.booleans()))
    return scores, config


@settings(max_examples=60, deadline=None)
@given(score_multisets())
def test_fit_is_bit_identical_to_reference(case):
    scores, config = case
    assert fit_outcome(fit_metric_scores, scores, config) == fit_outcome(
        mixture_reference.fit_metric_scores, scores, config
    )


@pytest.mark.parametrize("dequantize", [True, False], ids=["dithered", "tied"])
def test_large_lattice_fit_is_bit_identical_to_reference(dequantize):
    # 10^5 lattice scores: dithered they are tie-free, so every step runs
    # over 10^5 values; undithered they take 51 values with counts
    rng = np.random.default_rng(0)
    noisy = rng.random(100_000) < 0.3
    scores = 1.5 * rng.binomial(50, np.where(noisy, 0.8, 0.2)) - 25.0
    config = FitConfig(dequantize=dequantize)
    outcome = fit_outcome(fit_metric_scores, scores, config)
    assert isinstance(outcome, str)  # a fit, not an exception
    assert outcome == fit_outcome(mixture_reference.fit_metric_scores, scores, config)


def per_row_em_fit(scores):
    """The reference fit over every row: unit counts on the raw rows."""
    return mixture_reference.em_fit_counts(scores, np.ones(scores.size))


def positive_lattice(draw, rng, n):
    """``n`` positive scores on a lattice of 3 to 60 values, so mostly ties."""
    step = draw(st.sampled_from([1.0, 0.5, 1 / 3, 1 / 42]))
    return step * rng.integers(0, draw(st.integers(3, 60)), n) + draw(
        st.sampled_from([1e-3, 1.0, 17.5]))


@st.composite
def tie_free_samples(draw):
    """Continuous and dithered-lattice positive samples of 10 to 2000 rows,
    each with an EM tolerance."""
    n = draw(st.integers(10, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        in_first = rng.random(n) < draw(st.floats(0.05, 0.95))
        x = np.where(in_first, rng.weibull(draw(st.floats(0.3, 5.0)), n),
                     draw(st.floats(1.0, 20.0)) * rng.weibull(3.0, n))
    else:
        x = positive_lattice(draw, rng, n)
        x = x + rng.uniform(0.0, 1e-3, n)
    return x, draw(st.sampled_from([1e-6, 1e-9]))


@settings(max_examples=60, deadline=None)
@given(tie_free_samples())
def test_tie_free_fit_is_bit_identical_to_per_row_formulas(case):
    x, tol = case
    assume(np.unique(x).size == x.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixture_mod, "EM_TOL", tol)
        mp.setattr(mixture_reference, "EM_TOL", tol)
        assert fit_outcome(em_fit, x) == fit_outcome(per_row_em_fit, x)


@st.composite
def tied_samples(draw):
    """Positive lattice samples of 10 to 3000 rows, most of them tied."""
    n = draw(st.integers(10, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return positive_lattice(draw, rng, n)


@settings(max_examples=80, deadline=None)
@given(tied_samples())
def test_tied_fit_matches_per_row_fit_on_the_expanded_sample(x):
    outcomes = []
    for fit_fn in (em_fit, per_row_em_fit):
        try:
            outcomes.append(fit_fn(x))
        except Exception as exc:  # compared by type
            outcomes.append(type(exc))
    grouped, per_row = outcomes
    if isinstance(per_row, type) or isinstance(grouped, type):
        assert grouped == per_row
        return
    assert grouped.degenerate == per_row.degenerate
    tau, tau_rows = threshold(grouped), threshold(per_row)
    assert abs(tau - tau_rows) <= 1e-9 * abs(tau_rows)
    assert np.array_equal(x < tau, x < tau_rows)


@settings(max_examples=40, deadline=None)
@given(tied_samples(), st.integers(0, 2**32 - 1))
def test_fit_ignores_row_order_within_first_occurrence_order(x, seed):
    # each distinct value once, in first-occurrence order, then the repeats
    # shuffled: the same values, counts and first-occurrence order
    _, first = np.unique(x, return_index=True)
    first = np.sort(first)
    repeats = np.delete(x, first)
    np.random.default_rng(seed).shuffle(repeats)
    reordered = np.concatenate([x[first], repeats])
    assert fit_outcome(em_fit, reordered) == fit_outcome(em_fit, x)


def test_em_passes_only_distinct_values_to_the_mle(monkeypatch):
    rng = np.random.default_rng(0)
    noisy = rng.random(100_000) < 0.3
    x = 1.0 + rng.binomial(50, np.where(noisy, 0.8, 0.2)).astype(float)
    distinct = np.unique(x).size
    assert distinct <= 51
    calls = []
    real_mle = mixture_mod.weighted_weibull_mle

    def spy(x_scaled, log_x, scale_ref, w):
        calls.append((x_scaled, log_x, w.shape))
        return real_mle(x_scaled, log_x, scale_ref, w)

    monkeypatch.setattr(mixture_mod, "weighted_weibull_mle", spy)
    em_fit(x)
    assert len(calls) > 1
    # one scaled sample per fit: every call gets the same two arrays
    x_scaled, log_x, _ = calls[0]
    assert all(c[0] is x_scaled and c[1] is log_x for c in calls)
    assert x_scaled.shape == log_x.shape == (distinct,)
    assert {c[2] for c in calls} == {(distinct,)}


def test_underflowing_power_sums_fit_without_numpy_warnings():
    # one score far above the rest: the M-step's weighted power sums underflow
    # to 0 and weibull_mean overflows; the fit still matches the reference
    rng = np.random.default_rng(0)
    scores = np.r_[rng.choice([1e12, 2e12, 3e12], size=10_000), 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = fit_outcome(fit_metric_scores, scores, FitConfig())
    with np.errstate(all="ignore"):  # the reference formulas still warn
        reference = fit_outcome(mixture_reference.fit_metric_scores, scores, FitConfig())
    assert outcome == reference
    assert isinstance(outcome, str)  # a fit, not an exception


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_public_mle_and_logpdf_match_reference(n, seed, scale):
    rng = np.random.default_rng(seed)
    x = scale * (rng.weibull(rng.uniform(0.3, 6.0), n) + 1e-9)
    w = rng.random(n) * (rng.random(n) < 0.8)
    w[0] += 0.1

    def outcome(mle):
        try:
            return mle(x, w)
        except Exception as exc:
            return type(exc)

    assert outcome(mle) == outcome(mixture_reference.weighted_weibull_mle)
    p = WeibullParams(float(np.median(x)), rng.uniform(0.05, 40.0))
    assert np.array_equal(mixture_mod._logpdf(np.log(x), p),
                          mixture_reference.weibull_logpdf(x, p))


# ---------------------------------------------------------------------------
# adversarial multisets: a finite fit or a MixtureFitError, nothing else


@st.composite
def adversarial_multisets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["outlier", "ties", "magnitude", "span"]))
    if kind == "outlier":
        # ties on two values and one far outlier
        n = draw(st.integers(10, 3000))
        scores = rng.integers(0, 2, n).astype(float)
        scores[rng.integers(n)] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
            st.integers(1, 300))
    elif kind == "ties":
        # at least 10^4 ties on 3 values
        n = draw(st.integers(10_000, 12_000))
        values = np.array(draw(st.lists(st.integers(-50, 50), min_size=3, max_size=3,
                                        unique=True)), dtype=float)
        scores = values[rng.integers(0, 3, n)]
    elif kind == "magnitude":
        # 1e12 magnitudes and offsets on lattice and continuous scores
        n = draw(st.integers(10, 3000))
        base = rng.integers(0, 50, n).astype(float) + rng.random(n) * draw(st.booleans())
        scores = (base * draw(st.sampled_from([1.0, 1e12, 1e-12]))
                  + draw(st.sampled_from([0.0, 1e12, -1e12])))
    else:
        # spans near the largest double
        n = draw(st.integers(10, 3000))
        top = draw(st.sampled_from([1e306, 1e307, 1e308, 1.7e308]))
        scores = top * rng.random(n) * draw(st.sampled_from([1.0, -1.0]))
        if draw(st.booleans()):
            scores[: n // 2] *= -1.0
    return scores, FitConfig(dequantize=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(adversarial_multisets())
def test_fit_is_finite_or_raises_mixture_fit_error(case):
    scores, config = case
    with np.errstate(all="ignore"):
        try:
            fit = fit_metric_scores(scores, config)
        except MixtureFitError:
            return
    doc = fit.to_json_dict()
    numbers = [doc["k_clean"], doc["k_noisy"], doc["shift"], doc["threshold"],
               *doc["clean"].values(), *doc["noisy"].values(), *doc["loglik_trace"]]
    assert all(math.isfinite(v) for v in numbers)


def test_non_finite_moment_start_raises_mixture_fit_error():
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"), pytest.raises(MixtureFitError):
        fit_metric_scores(-rng.random(1000) * 1e308)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_raise_mixture_fit_error(bad):
    with pytest.raises(MixtureFitError):
        fit_metric_scores(np.r_[np.arange(20.0), bad])


@pytest.mark.parametrize("n_nan", [1, 2, 3])
def test_distinct_count_treats_nans_as_one_value(n_nan):
    # as in np.unique, any number of NaNs is one distinct value
    with pytest.raises(DegenerateSamplesError, match="fewer than 3 distinct"):
        fit_metric_scores(np.r_[np.zeros(10), [math.nan] * n_nan])
    with pytest.raises(MixtureFitError, match="not finite"):
        fit_metric_scores(np.r_[np.zeros(5), np.ones(5), [math.nan] * n_nan])


def test_scores_spanning_beyond_float_range_raise_mixture_fit_error():
    with pytest.raises(MixtureFitError):
        fit_metric_scores(np.r_[-1.7e308, np.arange(20.0), 1.7e308])
