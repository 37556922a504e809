"""Straightforward mixture fit kept as the oracle for ``mfselect.mixture``.

The package's fit uses these same formulas, with two differences in form:
its E-step works on one array per component instead of an (m, 2) array,
and it sums each mixing weight with a running sum in row order, which adds
as this module's ``sum(axis=0)`` does. Like the package's fit, ``em_fit``
groups the scores into distinct values with counts; ``em_fit_counts`` with
unit counts on raw rows is the fit over every row. The package's fit must
give bit-identical results; tests compare the two.
"""

from __future__ import annotations

import math

import numpy as np

from mfselect.errors import MixtureFitError
from mfselect.mixture import (
    BETA_BRACKET,
    MIN_COMPONENT_WEIGHT,
    MIN_EFFECTIVE_SAMPLES,
    FitConfig,
    MixtureFit,
    WeibullParams,
    identify_components,
)

# the fit's constants, kept here so that the oracle does not read them from
# the package: EM stops when the log-likelihood moves by at most
# EM_TOL * max(1, |ll|) or after EM_MAX_ITERS iterations, and the shifted
# scores start at SHIFT_EPSILON
EM_TOL = 1e-6
EM_MAX_ITERS = 500
SHIFT_EPSILON = 1e-3


def weibull_logpdf(x, p: WeibullParams):
    """Log-density; preferred inside EM for numerical stability.

    Returns -inf where the density underflows (sharp components far from
    their scale), which the EM treats as zero responsibility.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("weibull_logpdf requires x > 0")
    lz = np.log(x) - math.log(p.alpha)
    with np.errstate(over="ignore"):
        out = math.log(p.beta / p.alpha) + (p.beta - 1.0) * lz - np.exp(p.beta * lz)
    return out if out.ndim else float(out)


def _profile_terms(x_scaled, w, log_x, beta):
    t = w * x_scaled**beta
    a0 = t.sum()
    a1 = (t * log_x).sum()
    a2 = (t * log_x * log_x).sum()
    return a0, a1, a2


def weighted_weibull_mle(
    samples,
    weights,
    newton_tol: float = 1e-10,
    newton_max_iters: int = 100,
) -> WeibullParams | None:
    """Weighted maximum-likelihood Weibull parameters.

    The shape is the root of the weighted profile-likelihood score equation,
    found by damped Newton iteration with a bisection fallback on the
    bracket ``BETA_BRACKET``; the scale then follows in closed form as
    (sum w x^beta / sum w)^(1/beta).

    Returns None when the samples carry no spread (the likelihood is
    unbounded in beta) and raises MixtureFitError, naming the last iterate,
    if the solver fails to converge.
    """
    x = np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != w.shape or x.ndim != 1:
        raise ValueError("samples and weights must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(x <= 0):
        raise ValueError("samples must be positive")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    w_total = w.sum()
    if w_total <= 0:
        raise ValueError("total weight must be positive")

    # beta is invariant to rescaling x; work on x/max(x) to avoid overflow
    # in x**beta for large beta.
    scale_ref = float(x.max())
    x_scaled = x / scale_ref
    log_x = np.log(x_scaled)
    log_mean = float((w * log_x).sum() / w_total)

    log_sd = math.sqrt(max(float((w * (log_x - log_mean) ** 2).sum() / w_total), 0.0))
    if log_sd < 1e-9:
        return None

    def score(beta):
        a0, a1, _ = _profile_terms(x_scaled, w, log_x, beta)
        return a1 / a0 - 1.0 / beta - log_mean

    def score_and_derivative(beta):
        a0, a1, a2 = _profile_terms(x_scaled, w, log_x, beta)
        ratio = a1 / a0
        g = ratio - 1.0 / beta - log_mean
        gp = (a2 / a0 - ratio * ratio) + 1.0 / (beta * beta)
        return g, gp

    # The score equation is monotone increasing on the bracket; a root
    # outside it means a component sharper/flatter than the parameter space
    # allows (e.g. near-identical samples), so clamp to the boundary, which
    # is the constrained maximizer.
    lo, hi = BETA_BRACKET
    if score(lo) >= 0:
        beta = lo
    elif score(hi) <= 0:
        beta = hi
    else:
        # Moment start: Var(log X) = (pi^2/6)/beta^2 for a Weibull.
        beta = min(max((math.pi / math.sqrt(6.0)) / log_sd, lo * 1.5), hi / 1.5)
        converged = False
        for _ in range(newton_max_iters):
            g, gp = score_and_derivative(beta)
            if g < 0:
                lo = beta
            else:
                hi = beta
            candidate = beta - g / gp
            if not (lo < candidate < hi) or not math.isfinite(candidate):
                candidate = 0.5 * (lo + hi)
            if abs(candidate - beta) <= newton_tol * max(1.0, abs(beta)):
                beta = candidate
                converged = True
                break
            beta = candidate
        if not converged:
            raise MixtureFitError(
                f"shape solver did not converge in {newton_max_iters} iterations "
                f"(last iterate beta={beta:.6g})"
            )

    a0 = float((w * x_scaled**beta).sum())
    alpha = scale_ref * (a0 / w_total) ** (1.0 / beta)
    return WeibullParams(alpha=alpha, beta=beta)


def _moment_init(x) -> WeibullParams:
    """Method-of-moments starting point for one component."""
    mean = float(np.mean(x))
    sd = float(np.std(x))
    if sd < 1e-12 or mean <= 0:
        return WeibullParams(alpha=max(mean, 1e-12), beta=1.0)
    beta = (mean / sd) ** 1.086
    beta = min(max(beta, 0.05), 40.0)
    alpha = mean / math.gamma(1.0 + 1.0 / beta)
    return WeibullParams(alpha=alpha, beta=beta)


def em_fit(scores) -> MixtureFit:
    """Fit the two-component mixture to positive scores by EM.

    The scores are grouped into their distinct values, in first-occurrence
    order, each with its count, and ``em_fit_counts`` fits those. Raises
    ValueError for fewer than 10 samples and MixtureFitError when the data
    cannot support two components.
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1:
        raise ValueError("em_fit requires at least 10 samples")
    distinct, first, counts = np.unique(x, return_index=True, return_counts=True)
    order = np.argsort(first)
    return em_fit_counts(distinct[order], counts[order].astype(float))


def em_fit_counts(values, counts) -> MixtureFit:
    """EM on the sample that holds each of ``values`` ``counts[i]`` times.

    Every sum over the sample is a sum over ``values`` weighted by
    ``counts``. Called with unit counts on raw rows, this is the fit that
    runs every step over every row.

    Initialization splits the sorted sample at the median and seeds each
    component with method-of-moments estimates, which makes the fit fully
    deterministic.
    """
    n = counts.sum()
    if n < 10:
        raise ValueError("em_fit requires at least 10 samples")
    if np.any(values <= 0):
        raise ValueError("em_fit requires positive scores; shift them first")
    if np.unique(values).size < 3:
        raise MixtureFitError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )
    ascending = np.argsort(values, kind="stable")
    x_sorted = np.repeat(values[ascending], counts[ascending].astype(np.intp))
    half = x_sorted.size // 2
    params = [_moment_init(x_sorted[:half]), _moment_init(x_sorted[half:])]
    k = np.array([0.5, 0.5])

    trace: list[float] = []
    prev_ll = -math.inf
    converged = False
    iterations = 0
    resp = None
    for iterations in range(1, EM_MAX_ITERS + 1):
        # E-step in log space
        lp = np.stack(
            [np.log(k[j]) + weibull_logpdf(values, params[j]) for j in range(2)], axis=1
        )
        m = lp.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            log_norm = m + np.log(np.exp(lp - m).sum(axis=1, keepdims=True))
        if not np.all(np.isfinite(log_norm)):
            raise MixtureFitError("a sample has zero density under both components")
        resp = np.exp(lp - log_norm)
        ll = float((counts[:, None] * log_norm).sum())
        trace.append(ll)
        if math.isfinite(prev_ll) and abs(ll - prev_ll) <= EM_TOL * max(
            1.0, abs(prev_ll)
        ):
            converged = True
            break
        prev_ll = ll

        # M-step
        new_params = []
        for j in range(2):
            w = resp[:, j] * counts
            w_sum = float(w.sum())
            if w_sum / n < MIN_COMPONENT_WEIGHT:
                raise MixtureFitError(f"component {j} collapsed: mixing weight {w_sum / n:.3g}")
            if w_sum < MIN_EFFECTIVE_SAMPLES:
                raise MixtureFitError(f"component {j} collapsed: effective sample size "
                                      f"{w_sum:.3g} below {MIN_EFFECTIVE_SAMPLES}")
            component = weighted_weibull_mle(values, w)
            if component is None:
                # Responsibilities concentrated on a single score atom
                # (common on lattice-valued metrics, e.g. everything
                # memorized from epoch one). The boundary-constrained
                # estimate is the sharpest allowed spike at that atom.
                center = math.exp(float((w * np.log(values)).sum() / w_sum))
                component = WeibullParams(alpha=center, beta=BETA_BRACKET[1])
            new_params.append(component)
        params = new_params
        k = (resp * counts[:, None]).sum(axis=0) / n

    fit = MixtureFit(
        k_clean=float(k[0]),
        k_noisy=float(k[1]),
        clean=params[0],
        noisy=params[1],
        loglik_trace=trace,
        iterations=iterations,
        converged=converged,
    )
    fit = identify_components(fit)
    if not fit.degenerate:
        fit.degenerate = _prefers_single_component(values, counts, trace[-1])
    return fit


def _prefers_single_component(values, counts, mixture_ll: float) -> bool:
    """BIC check: does one Weibull explain the scores as well as two?

    A two-component fit that fails this comparison found no second
    population worth the three extra parameters; thresholding such a fit is
    still well-defined, but the caller should not trust the clean/noisy
    split.
    """
    try:
        single = weighted_weibull_mle(values, counts)
    except MixtureFitError:
        return True
    if single is None:
        return True
    single_ll = float((counts * weibull_logpdf(values, single)).sum())
    return 2.0 * (mixture_ll - single_ll) <= 3.0 * math.log(counts.sum())


def fit_metric_scores(scores, config: FitConfig | None = None) -> MixtureFit:
    """Shift raw (possibly negative) scores to positive support and fit.

    Lattice-valued scores are dequantized first (when config.dequantize is
    set) with one lattice step of seeded uniform dither; the dither is a
    function of position only, so adding a constant to every raw score
    leaves the fitted components, and hence the selected set, unchanged.
    The returned fit records the translation so ``threshold`` reports in
    the original score units. Fewer than 10 scores, or fewer than 3
    distinct ones, raise MixtureFitError.
    """
    config = config or FitConfig()
    raw = np.asarray(scores, dtype=float)
    if raw.ndim != 1:
        raise ValueError("scores must be a 1-d sequence")
    if raw.size < 10:
        raise MixtureFitError("need at least 10 scores to fit the mixture")
    distinct = np.unique(raw)
    if distinct.size < 3:
        raise MixtureFitError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )
    # the fit depends only on the score multiset, never on the caller's
    # ordering, so dither assignment is keyed to the sorted array
    values = np.sort(raw)
    if config.dequantize:
        step = float(np.diff(distinct).min())
        rng = np.random.default_rng(config.seed)
        dither = rng.uniform(-0.5 * step, 0.5 * step, size=values.size)
        # fold the minimum atom's dither upward so the fitted support stays
        # anchored at the observed minimum; the threshold then can never
        # undercut the most-clean-looking instances
        at_min = values == values[0]
        dither[at_min] = np.abs(dither[at_min])
        values = values + dither
    shift = float(values.min())
    fit = em_fit(values - shift + SHIFT_EPSILON)
    fit.shift = shift
    fit.epsilon = SHIFT_EPSILON
    return fit
