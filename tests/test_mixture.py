import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mfselect.errors import (
    ComponentCollapseError,
    DegenerateSamplesError,
    MixtureFitError,
)
from mfselect.mixture import (
    FitConfig,
    MixtureFit,
    WeibullParams,
    em_fit,
    fit_metric_scores,
    identify_components,
    shift_to_support,
    threshold,
    weibull_logpdf,
    weibull_mean,
    weibull_pdf,
    weighted_weibull_mle,
)

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


def test_mle_consistency_unit_weights():
    rng = np.random.default_rng(42)
    x = 3.0 * rng.weibull(2.0, size=10_000)
    p = weighted_weibull_mle(x, np.ones_like(x))
    assert abs(p.alpha - 3.0) / 3.0 < 0.03
    assert abs(p.beta - 2.0) / 2.0 < 0.05


def test_mle_degenerate_identical_samples():
    with pytest.raises(DegenerateSamplesError):
        weighted_weibull_mle(np.ones(50), np.ones(50))


def test_mle_beats_grid_on_two_samples():
    x = np.array([1.0, math.e])
    w = np.ones(2)
    fitted = weighted_weibull_mle(x, w)

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
    a = weighted_weibull_mle(x, np.ones_like(x))
    b = weighted_weibull_mle(merged, w)
    assert b.alpha == pytest.approx(a.alpha, rel=1e-9)
    assert b.beta == pytest.approx(a.beta, rel=1e-9)


def test_mle_input_validation():
    with pytest.raises(ValueError):
        weighted_weibull_mle(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        weighted_weibull_mle(np.array([1.0, -1.0]), np.ones(2))
    with pytest.raises(ValueError):
        weighted_weibull_mle(np.array([1.0, 2.0]), np.zeros(2))


# ---------------------------------------------------------------------------
# support shift


def test_shift_examples():
    shifted, shift = shift_to_support([-3.0, 0.0, 5.0], 1e-3)
    assert shift == -3.0
    assert shifted.tolist() == pytest.approx([1e-3, 3.001, 8.001])
    shifted, shift = shift_to_support([2.0, 4.0], 0.5)
    assert shift == 2.0
    assert shifted.tolist() == pytest.approx([0.5, 2.5])
    shifted, shift = shift_to_support([0.0], 1e-3)
    assert shifted.tolist() == pytest.approx([1e-3])
    assert shift == 0.0


def test_shift_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_to_support([], 1e-3)
    with pytest.raises(ValueError):
        shift_to_support([1.0], 0.0)


# ---------------------------------------------------------------------------
# EM fit


def test_em_recovers_synthetic_mixture():
    x = sample_mixture(5000, seed=7)
    fit = em_fit(x, FitConfig())
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
        fit = em_fit(sample_mixture(3000, seed=seed), FitConfig())
        trace = np.asarray(fit.loglik_trace)
        assert trace.size == fit.iterations
        assert np.all(np.diff(trace) >= -1e-9)


def test_em_single_population_is_degenerate_or_collapses():
    rng = np.random.default_rng(3)
    x = 3.0 * rng.weibull(2.0, size=2000)
    try:
        fit = em_fit(x, FitConfig())
    except MixtureFitError:
        return
    assert fit.converged
    assert fit.degenerate


def test_em_requires_ten_samples():
    with pytest.raises(ValueError):
        em_fit(np.linspace(1, 2, 9), FitConfig())


def test_em_requires_positive_scores():
    x = np.linspace(-1, 5, 50)
    with pytest.raises(ValueError):
        em_fit(x, FitConfig())


def test_em_rejects_two_valued_scores():
    x = np.array([1.0] * 30 + [2.0] * 30)
    with pytest.raises(DegenerateSamplesError):
        em_fit(x, FitConfig())


def test_em_deterministic():
    x = sample_mixture(2000, seed=9)
    a = em_fit(x, FitConfig())
    b = em_fit(x, FitConfig())
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


def test_threshold_crossover_rule_sits_between_means():
    x = sample_mixture(4000, seed=17)
    fit = em_fit(x, FitConfig())
    tau_scale = threshold(fit, "scale")
    tau_cross = threshold(fit, "crossover")
    assert weibull_mean(fit.clean) < tau_cross < weibull_mean(fit.noisy)
    # the crossover rule is the aggressive one: it cuts deeper than alpha_2
    assert tau_cross < tau_scale
    with pytest.raises(ValueError):
        threshold(fit, "nope")


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
        em_fit(x, FitConfig())


# ---------------------------------------------------------------------------
# bit-identity with the straightforward formulas (tests/mixture_reference.py)


def fit_outcome(fit_fn, scores, config):
    """The fit as canonical JSON text (so -0.0 and 0.0 differ), or the exception type."""
    try:
        return json.dumps(fit_fn(scores, config).to_json_dict(), sort_keys=True)
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

    assert outcome(weighted_weibull_mle) == outcome(mixture_reference.weighted_weibull_mle)
    p = WeibullParams(float(np.median(x)), rng.uniform(0.05, 40.0))
    assert np.array_equal(weibull_logpdf(x, p), mixture_reference.weibull_logpdf(x, p))
    assert weibull_logpdf(float(x[0]), p) == mixture_reference.weibull_logpdf(float(x[0]), p)


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


def test_scores_spanning_beyond_float_range_raise_mixture_fit_error():
    with pytest.raises(MixtureFitError):
        fit_metric_scores(np.r_[-1.7e308, np.arange(20.0), 1.7e308])
