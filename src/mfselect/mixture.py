"""Two-component Weibull mixture fitting for selection scores.

The selection scores of clean and falsely-labeled instances form two
overlapping populations; each is modeled with a Weibull density and the
pair is fitted by EM. The component with the larger mean models the
falsely-labeled data, and its scale parameter (mapped back through the
support shift) is the selection threshold.

Scores can be negative while the Weibull support is x > 0, so scores are
translated to positive support before fitting: shifted = s - shift +
epsilon with shift = min(s), hence original = shifted + shift - epsilon.
Translation preserves score ordering, so the selected set is unchanged by
the mapping. Lattice-valued scores are additionally dequantized before
the shift; see ``fit_metric_scores``.

``em_fit`` computes what every E- and M-step reuses once per fit: log x,
x/max(x) and its log, in a private prepared sample that also holds the
scratch arrays the steps write into. The steps keep the floating-point
operations and their order of the straightforward formulas, so a fit is
bit-identical to one that recomputes everything. A fit whose parameters
leave the floating-point range raises ``MixtureFitError``, so a selection
round falls back to the ratio cut.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (
    ComponentCollapseError,
    DegenerateSamplesError,
    MixtureFitError,
    NewtonDivergenceError,
)

# Bracket for the shape-parameter profile score equation; the equation is
# monotone increasing on it for non-degenerate data.
BETA_BRACKET = (0.02, 50.0)

MIN_COMPONENT_WEIGHT = 1e-4
MIN_EFFECTIVE_SAMPLES = 2.0
# Components whose means agree within this relative tolerance cannot be
# meaningfully told apart; the fit is flagged degenerate.
DEGENERATE_MEAN_RTOL = 0.15


@dataclass(frozen=True)
class WeibullParams:
    """Scale/shape pair of one Weibull component."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


@dataclass
class FitConfig:
    tol: float = 1e-6
    max_iters: int = 500
    shift_epsilon: float = 1e-3
    seed: int = 0
    newton_tol: float = 1e-10
    newton_max_iters: int = 100
    # "scale" thresholds at the noisy component's scale parameter; the
    # "crossover" alternative thresholds where the weighted component
    # densities are equal (tends to cut recall hard over multiple rounds).
    threshold_rule: str = "scale"
    # metric scores live on a lattice (integer epoch counts); dequantizing
    # with one lattice step of seeded uniform dither before fitting keeps
    # the continuous mixture well-posed on heavily atomic distributions
    dequantize: bool = True

    def __post_init__(self):
        for name in ("tol", "shift_epsilon", "newton_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1 or self.newton_max_iters < 1:
            raise ValueError("iteration limits must be positive")
        if self.threshold_rule not in ("scale", "crossover"):
            raise ValueError(f"unknown threshold_rule {self.threshold_rule!r}")


@dataclass
class MixtureFit:
    """Fitted mixture with roles already assigned.

    ``shift``/``epsilon`` record the support translation of the scores the
    fit was computed on: original = shifted + shift - epsilon. A fit built
    directly from positive scores carries shift=epsilon=0 (identity).
    """

    k_clean: float
    k_noisy: float
    clean: WeibullParams
    noisy: WeibullParams
    shift: float = 0.0
    epsilon: float = 0.0
    loglik_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = True
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        """Every field as JSON data, plus the fit's threshold."""
        return {**asdict(self), "threshold": threshold(self)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MixtureFit":
        """The fit that ``to_json_dict`` wrote ``doc`` from."""
        kwargs = {f.name: doc[f.name] for f in fields(cls)}
        return cls(**{**kwargs, "clean": WeibullParams(**doc["clean"]),
                      "noisy": WeibullParams(**doc["noisy"])})


def weibull_pdf(x, p: WeibullParams):
    """Density (beta/alpha) (x/alpha)^(beta-1) exp(-(x/alpha)^beta), x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("weibull_pdf requires x > 0")
    z = x / p.alpha
    with np.errstate(over="ignore"):
        out = (p.beta / p.alpha) * z ** (p.beta - 1.0) * np.exp(-(z**p.beta))
    return out if out.ndim else float(out)


def weibull_logpdf(x, p: WeibullParams):
    """Log-density; preferred inside EM for numerical stability.

    Returns -inf where the density underflows (sharp components far from
    their scale), which the EM treats as zero responsibility.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("weibull_logpdf requires x > 0")
    out = np.log(x, out=np.empty(x.shape))
    _logpdf_into(out, p, out, np.empty(x.shape))
    return out if out.ndim else float(out)


def _logpdf_into(log_x, p: WeibullParams, out, tmp):
    """Write the Weibull log-density at exp(log_x) into ``out``; ``tmp`` is scratch.

    ``out`` may be ``log_x`` itself.
    """
    lz = np.subtract(log_x, math.log(p.alpha), out=out)
    with np.errstate(over="ignore"):
        np.exp(np.multiply(p.beta, lz, out=tmp), out=tmp)
    np.multiply(p.beta - 1.0, lz, out=out)
    np.add(math.log(p.beta / p.alpha), out, out=out)
    return np.subtract(out, tmp, out=out)


def weibull_mean(p: WeibullParams) -> float:
    """alpha * Gamma(1 + 1/beta); inf when that overflows."""
    with np.errstate(over="ignore"):
        return p.alpha * math.gamma(1.0 + 1.0 / p.beta)


def shift_to_support(scores, epsilon: float = 1e-3):
    """Translate scores onto positive support.

    Returns ``(shifted, shift)`` with shifted = scores - shift + epsilon
    and shift = min(scores), so every output is >= epsilon > 0.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("scores must be nonempty")
    shift = float(arr.min())
    return arr - shift + epsilon, shift


def _component(alpha, beta) -> WeibullParams:
    """Fitted component parameters; MixtureFitError if they left float range."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise MixtureFitError(
            f"component parameters out of floating-point range (alpha={alpha}, beta={beta})"
        )
    return WeibullParams(alpha=alpha, beta=beta)


class _Sample:
    """Per-fit invariants of a positive 1-d sample, plus scratch arrays.

    The shape estimate is invariant to rescaling x, so the MLE works on
    x/max(x), which keeps x**beta from overflowing for large beta. Build
    one per fit and pass it wherever the samples are expected; the scratch
    arrays go when it does.
    """

    def __init__(self, x):
        if np.any(x <= 0):
            raise ValueError("samples must be positive")
        self.x = x
        self.scale_ref = float(x.max())
        self.x_scaled = x / self.scale_ref
        self.log_x_scaled = np.log(self.x_scaled)
        self.log_x = np.log(x)
        self.scratch = (np.empty(x.size), np.empty(x.size))


def weighted_weibull_mle(
    samples,
    weights,
    newton_tol: float = 1e-10,
    newton_max_iters: int = 100,
) -> WeibullParams:
    """Weighted maximum-likelihood Weibull parameters.

    The shape is the root of the weighted profile-likelihood score equation,
    found by damped Newton iteration with a bisection fallback on the
    bracket ``BETA_BRACKET``; the scale then follows in closed form as
    (sum w x^beta / sum w)^(1/beta). ``samples`` may also be the prepared
    sample of a fit, which spares recomputing its invariants.

    Raises DegenerateSamplesError when the samples carry no spread (the
    likelihood is unbounded in beta), NewtonDivergenceError, carrying the
    last iterate, if the solver fails to converge, and MixtureFitError if
    the scale leaves the floating-point range.
    """
    sample = samples if isinstance(samples, _Sample) else None
    x = sample.x if sample else np.asarray(samples, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.shape != w.shape or x.ndim != 1:
        raise ValueError("samples and weights must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    sample = sample or _Sample(x)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    w_total = w.sum()
    if w_total <= 0:
        raise ValueError("total weight must be positive")

    x_scaled, log_x = sample.x_scaled, sample.log_x_scaled
    t, tl = sample.scratch
    log_mean = float(np.multiply(w, log_x, out=t).sum() / w_total)
    dev = np.subtract(log_x, log_mean, out=t)
    dev = np.multiply(w, np.multiply(dev, dev, out=dev), out=dev)
    log_sd = math.sqrt(max(float(dev.sum() / w_total), 0.0))
    if log_sd < 1e-9:
        raise DegenerateSamplesError(
            "samples are (effectively) all identical; shape parameter is unbounded"
        )

    def weighted_power(beta):
        """w * x_scaled**beta, written into t."""
        return np.multiply(w, _power(x_scaled, beta, t), out=t)

    # Power sums that underflow to 0 make the score NaN; the Newton loop
    # takes a NaN step as a miss and bisects, so numpy need not warn.
    def score(beta):
        a0 = weighted_power(beta).sum()
        a1 = np.multiply(t, log_x, out=tl).sum()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return a1 / a0 - 1.0 / beta - log_mean

    def score_and_derivative(beta):
        a0 = weighted_power(beta).sum()
        a1 = np.multiply(t, log_x, out=tl).sum()
        a2 = np.multiply(tl, log_x, out=tl).sum()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = a1 / a0
            g = ratio - 1.0 / beta - log_mean
            gp = (a2 / a0 - ratio * ratio) + 1.0 / (beta * beta)
        return g, gp

    # The score equation is monotone increasing on the bracket; a root
    # outside it means a component sharper/flatter than the parameter space
    # allows (e.g. near-identical samples), so clamp to the boundary, which
    # is the constrained maximizer. a1/a0 averages log(x/max(x)) <= 0, so
    # score(lo) >= 0 needs -1/lo - log_mean >= 0; the rounding of each step
    # is monotone, so skipping score(lo) otherwise changes no result.
    lo, hi = BETA_BRACKET
    if -1.0 / lo - log_mean >= 0 and score(lo) >= 0:
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
            raise NewtonDivergenceError(
                f"shape solver did not converge in {newton_max_iters} iterations",
                last_beta=beta,
            )

    a0 = float(weighted_power(beta).sum())
    alpha = sample.scale_ref * (a0 / w_total) ** (1.0 / beta)
    return _component(alpha, beta)


# exponents for which ``array ** e`` may take a dedicated ufunc
# (square, sqrt, reciprocal, ...) instead of ``np.power``
_POWER_FAST_PATHS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _power(base, beta: float, out):
    """``base ** beta`` written into ``out``, with the operator's exact results."""
    if beta in _POWER_FAST_PATHS:
        out[...] = base**beta
        return out
    return np.power(base, beta, out=out)


def _moment_init(x) -> WeibullParams:
    """Method-of-moments starting point for one component."""
    # scores near the float limit overflow here; _component reports that
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        sd = float(np.std(x))
    if sd < 1e-12 or mean <= 0:
        return _component(max(mean, 1e-12), 1.0)
    beta = (mean / sd) ** 1.086
    beta = min(max(beta, 0.05), 40.0)
    alpha = mean / math.gamma(1.0 + 1.0 / beta)
    return _component(alpha, beta)


def em_fit(scores, config: FitConfig | None = None) -> MixtureFit:
    """Fit the two-component mixture to positive scores by EM.

    Initialization splits the sorted scores at the median and seeds each
    component with method-of-moments estimates, which makes the fit fully
    deterministic. Raises ValueError for fewer than 10 samples,
    DegenerateSamplesError / ComponentCollapseError when the data cannot
    support two components and MixtureFitError when a parameter leaves the
    floating-point range.
    """
    config = config or FitConfig()
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise ValueError("em_fit requires at least 10 samples")
    if np.any(x <= 0):
        raise ValueError("em_fit requires positive scores; shift them first")
    if np.unique(x).size < 3:
        raise DegenerateSamplesError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )

    x_sorted = np.sort(x)
    half = x.size // 2
    params = [_moment_init(x_sorted[:half]), _moment_init(x_sorted[half:])]
    del x_sorted
    k = np.array([0.5, 0.5])

    sample = _Sample(x)
    a, b = sample.scratch
    lp = np.empty((x.size, 2))
    resp = np.empty((x.size, 2))
    trace: list[float] = []
    prev_ll = -math.inf
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        # E-step in log space
        for j in range(2):
            _logpdf_into(sample.log_x, params[j], a, b)
            np.add(np.log(k[j]), a, out=lp[:, j])
        m = np.maximum(lp[:, 0], lp[:, 1], out=a)
        with np.errstate(invalid="ignore"):
            e = np.exp(np.subtract(lp, m[:, None], out=resp), out=resp)
            np.add(e[:, 0], e[:, 1], out=b)
            log_norm = np.add(m, np.log(b, out=b), out=a)
        if not np.all(np.isfinite(log_norm)):
            raise DegenerateSamplesError(
                "a sample has zero density under both components"
            )
        np.exp(np.subtract(lp, log_norm[:, None], out=resp), out=resp)
        ll = float(log_norm.sum())
        trace.append(ll)
        if math.isfinite(prev_ll) and abs(ll - prev_ll) <= config.tol * max(
            1.0, abs(prev_ll)
        ):
            converged = True
            break
        prev_ll = ll

        # M-step
        new_params = []
        for j in range(2):
            w = resp[:, j]
            w_sum = float(w.sum())
            if w_sum / x.size < MIN_COMPONENT_WEIGHT:
                raise ComponentCollapseError(j, f"mixing weight {w_sum / x.size:.3g}")
            if w_sum < MIN_EFFECTIVE_SAMPLES:
                raise ComponentCollapseError(
                    j, f"effective sample size {w_sum:.3g} below {MIN_EFFECTIVE_SAMPLES}"
                )
            try:
                new_params.append(
                    weighted_weibull_mle(
                        sample, w, config.newton_tol, config.newton_max_iters
                    )
                )
            except DegenerateSamplesError:
                # Responsibilities concentrated on a single score atom
                # (common on lattice-valued metrics, e.g. everything
                # memorized from epoch one). The boundary-constrained
                # estimate is the sharpest allowed spike at that atom.
                log_center = np.multiply(w, sample.log_x, out=a).sum() / w_sum
                center = math.exp(float(log_center))
                new_params.append(_component(center, BETA_BRACKET[1]))
        params = new_params
        # reduced down the (n, 2) array: a sum of each column on its own
        # would add in another order and round differently
        k = resp.mean(axis=0)

    del lp, resp
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
        fit.degenerate = _prefers_single_component(sample, trace[-1], config)
    return fit


def _prefers_single_component(sample: _Sample, mixture_ll: float,
                              config: FitConfig) -> bool:
    """BIC check: does one Weibull explain the scores as well as two?

    A two-component fit that fails this comparison found no second
    population worth the three extra parameters; thresholding such a fit is
    still well-defined, but the caller should not trust the clean/noisy
    split.
    """
    n = sample.x.size
    try:
        single = weighted_weibull_mle(
            sample, np.ones(n), config.newton_tol, config.newton_max_iters
        )
    except (DegenerateSamplesError, NewtonDivergenceError):
        return True
    logpdf = _logpdf_into(sample.log_x, single, *sample.scratch)
    single_ll = float(logpdf.sum())
    return 2.0 * (mixture_ll - single_ll) <= 3.0 * math.log(n)


def identify_components(fit: MixtureFit) -> MixtureFit:
    """Assign the larger-mean component the noisy role.

    Falsely-labeled instances are hard to memorize and easy to forget, so
    their score distribution sits to the right. Exactly equal means are
    broken toward the larger scale parameter and flagged degenerate; nearly
    equal means (within DEGENERATE_MEAN_RTOL) are flagged too.
    """
    mean_clean = weibull_mean(fit.clean)
    mean_noisy = weibull_mean(fit.noisy)
    if mean_clean == mean_noisy:
        swap = fit.clean.alpha > fit.noisy.alpha
        fit.degenerate = True
    else:
        swap = mean_clean > mean_noisy
    if swap:
        fit.clean, fit.noisy = fit.noisy, fit.clean
        fit.k_clean, fit.k_noisy = fit.k_noisy, fit.k_clean
        mean_clean, mean_noisy = min(mean_clean, mean_noisy), max(mean_clean, mean_noisy)
    if mean_noisy > 0 and abs(mean_noisy - mean_clean) <= DEGENERATE_MEAN_RTOL * abs(
        mean_noisy
    ):
        fit.degenerate = True
    return fit


def fit_metric_scores(scores, config: FitConfig | None = None) -> MixtureFit:
    """Shift raw (possibly negative) scores to positive support and fit.

    Lattice-valued scores are dequantized first (when config.dequantize is
    set) with one lattice step of seeded uniform dither; the dither is a
    function of position only, so adding a constant to every raw score
    leaves the fitted components, and hence the selected set, unchanged.
    The returned fit records the translation so ``threshold`` reports in
    the original score units. Fewer than 10 scores, or fewer than 3
    distinct ones, raise DegenerateSamplesError; non-finite scores, or a
    spread the shifted scores cannot hold, raise MixtureFitError.
    """
    config = config or FitConfig()
    raw = np.asarray(scores, dtype=float)
    if raw.ndim != 1:
        raise ValueError("scores must be a 1-d sequence")
    if raw.size < 10:
        raise DegenerateSamplesError("need at least 10 scores to fit the mixture")
    distinct = np.unique(raw)
    if distinct.size < 3:
        raise DegenerateSamplesError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )
    if not math.isfinite(float(distinct[-1]) - float(distinct[0])):
        raise MixtureFitError("scores are not finite or span beyond the float range")
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
    shifted, shift = shift_to_support(values, config.shift_epsilon)
    if not math.isfinite(shifted.max()):
        raise MixtureFitError("dequantized scores span beyond the float range")
    fit = em_fit(shifted, config)
    fit.shift = shift
    fit.epsilon = config.shift_epsilon
    return fit


def threshold(fit: MixtureFit, rule: str = "scale") -> float:
    """Selection threshold in original (unshifted) score units.

    The default rule returns the noisy component's scale parameter; the
    "crossover" rule returns the point between the component means where the
    weighted densities are equal.
    """
    if rule == "scale":
        shifted_tau = fit.noisy.alpha
    elif rule == "crossover":
        shifted_tau = _crossover_point(fit)
    else:
        raise ValueError(f"unknown threshold rule {rule!r}")
    return float(shifted_tau + fit.shift - fit.epsilon)


def _crossover_point(fit: MixtureFit) -> float:
    """Equal-weighted-density point between the component means (shifted units)."""

    def diff(x):
        return (
            math.log(fit.k_clean)
            + weibull_logpdf(x, fit.clean)
            - math.log(fit.k_noisy)
            - weibull_logpdf(x, fit.noisy)
        )

    lo = weibull_mean(fit.clean)
    hi = weibull_mean(fit.noisy)
    if lo >= hi:
        return fit.noisy.alpha
    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo <= 0 or d_hi >= 0:
        # densities never cross between the means; fall back to the scale rule
        return fit.noisy.alpha
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if diff(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
