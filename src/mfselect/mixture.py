"""Two-component Weibull mixture fitting for selection scores.

The selection scores of clean and falsely-labeled instances form two
overlapping populations; each is modeled with a Weibull density and the
pair is fitted by EM. The component with the larger mean models the
falsely-labeled data, and its scale parameter (mapped back through the
support shift) is the selection threshold.

Scores can be negative while the Weibull support is x > 0, so scores are
translated to positive support before fitting: shifted = s - shift +
epsilon with shift = min(s) and epsilon = SHIFT_EPSILON, hence original =
shifted + shift - epsilon.
Translation preserves score ordering, so the selected set is unchanged by
the mapping. Lattice-valued scores are additionally dequantized before
the shift; see ``fit_metric_scores``.

``em_fit`` groups its sample once into distinct values, in first-occurrence
order, each with its count. Every step after the moment start runs on those
values, with each sum over the sample a sum weighted by the counts, so a
fit costs in proportion to the number of distinct values, not of rows. On a
tie-free sample every count is 1 and the values are the rows in order, so
the fit equals the per-row fit bit for bit; with ties it agrees up to the
order of summation. Lattice scores dithered by a whole lattice step (see
``fit_metric_scores``) come out tie-free, one value per row.

Every step is a plain array expression with the floating-point operations,
in their order, of the straightforward formulas. The E-step works on one
array per component; x/max(x) and its log are computed once per fit, and
each weighted MLE call builds the power sums of each Newton step in one
array; each mixing weight is a running sum in row order, the order in which
a sum down both components' columns adds. A fit whose parameters leave the
floating-point range raises ``MixtureFitError``, so a selection round falls
back to the ratio cut. Only ``fit_metric_scores`` checks the fit's input.
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
# The shape solver stops once a Newton step moves beta by at most
# NEWTON_TOL * max(1, beta), and gives up after NEWTON_MAX_ITERS steps.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 100
# EM stops once the log-likelihood moves by at most EM_TOL * max(1, |ll|),
# or after EM_MAX_ITERS iterations, and reports whether it converged.
EM_TOL = 1e-6
EM_MAX_ITERS = 500
# the smallest shifted score: shifted = s - min(s) + SHIFT_EPSILON
SHIFT_EPSILON = 1e-3

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
    seed: int = 0
    # metric scores live on a lattice (integer epoch counts); dequantizing
    # with one lattice step of seeded uniform dither before fitting keeps
    # the continuous mixture well-posed on heavily atomic distributions
    dequantize: bool = True

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
        """The fit that ``to_json_dict`` wrote ``doc`` from; ValueError naming
        a number field, such as ``noisy.alpha``, that holds anything but an
        int or a float (a bool is neither)."""
        numbers = [(name, doc[name]) for name in ("k_clean", "k_noisy", "shift", "epsilon")]
        numbers += [(f"{part}.{key}", doc[part][key])
                    for part in ("clean", "noisy") for key in ("alpha", "beta")]
        for name, value in numbers:
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, got {value!r}")
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


def _logpdf(log_x, p: WeibullParams):
    """The Weibull log-density at exp(log_x); -inf where it underflows, which
    the EM treats as zero responsibility."""
    lz = log_x - math.log(p.alpha)
    with np.errstate(over="ignore"):
        return math.log(p.beta / p.alpha) + (p.beta - 1.0) * lz - np.exp(p.beta * lz)


def weibull_mean(p: WeibullParams) -> float:
    """alpha * Gamma(1 + 1/beta); inf when that overflows."""
    with np.errstate(over="ignore"):
        return p.alpha * math.gamma(1.0 + 1.0 / p.beta)


def _component(alpha, beta) -> WeibullParams:
    """Fitted component parameters; MixtureFitError if they left float range."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise MixtureFitError(
            f"component parameters out of floating-point range (alpha={alpha}, beta={beta})"
        )
    return WeibullParams(alpha=alpha, beta=beta)


def weighted_weibull_mle(x_scaled, log_x, scale_ref: float, w) -> WeibullParams:
    """Weighted maximum-likelihood Weibull parameters of x_scaled * scale_ref.

    ``em_fit`` passes positive values over their max ``scale_ref`` (beta is
    invariant to rescaling, and values <= 1 keep x**beta from overflowing),
    their log, and nonnegative weights with a positive total.

    The shape is the root of the weighted profile-likelihood score equation,
    found by damped Newton iteration with a bisection fallback on the
    bracket ``BETA_BRACKET``; the scale then follows in closed form as
    scale_ref * (sum w x_scaled^beta / sum w)^(1/beta).

    Raises DegenerateSamplesError when the samples carry no spread (the
    likelihood is unbounded in beta), NewtonDivergenceError, carrying the
    last iterate, if the solver fails to converge, and MixtureFitError if
    the scale leaves the floating-point range.
    """
    w_total = w.sum()
    log_mean = float((w * log_x).sum() / w_total)
    log_sd = math.sqrt(max(float((w * (log_x - log_mean) ** 2).sum() / w_total), 0.0))
    if log_sd < 1e-9:
        raise DegenerateSamplesError(
            "samples are (effectively) all identical; shape parameter is unbounded"
        )

    def score_and_derivative(beta):
        t = x_scaled**beta
        t *= w
        a0 = t.sum()
        t *= log_x
        a1 = t.sum()
        t *= log_x
        a2 = t.sum()
        ratio = a1 / a0
        g = ratio - 1.0 / beta - log_mean
        gp = (a2 / a0 - ratio * ratio) + 1.0 / (beta * beta)
        return g, gp

    # Power sums that underflow to 0 make the score NaN; the Newton loop
    # takes a NaN step as a miss and bisects, so numpy need not warn. The
    # errstate is entered once per solve, not once per score (~1.5 us each).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The score equation is monotone increasing on the bracket; a root
        # outside it means a component sharper/flatter than the parameter space
        # allows (e.g. near-identical samples), so clamp to the boundary, which
        # is the constrained maximizer. a1/a0 averages log(x/max(x)) <= 0, so
        # g(lo) >= 0 needs -1/lo - log_mean >= 0; the rounding of each step is
        # monotone, so skipping g(lo) otherwise changes no result.
        lo, hi = BETA_BRACKET
        if -1.0 / lo - log_mean >= 0 and score_and_derivative(lo)[0] >= 0:
            beta = lo
        elif score_and_derivative(hi)[0] <= 0:
            beta = hi
        else:
            # Moment start: Var(log X) = (pi^2/6)/beta^2 for a Weibull.
            beta = min(max((math.pi / math.sqrt(6.0)) / log_sd, lo * 1.5), hi / 1.5)
            converged = False
            for _ in range(NEWTON_MAX_ITERS):
                g, gp = score_and_derivative(beta)
                if g < 0:
                    lo = beta
                else:
                    hi = beta
                candidate = beta - g / gp
                if not (lo < candidate < hi) or not math.isfinite(candidate):
                    candidate = 0.5 * (lo + hi)
                if abs(candidate - beta) <= NEWTON_TOL * max(1.0, abs(beta)):
                    beta = candidate
                    converged = True
                    break
                beta = candidate
            if not converged:
                raise NewtonDivergenceError(
                    f"shape solver did not converge in {NEWTON_MAX_ITERS} iterations",
                    last_beta=beta,
                )

    a0 = float((w * x_scaled**beta).sum())
    alpha = scale_ref * (a0 / w_total) ** (1.0 / beta)
    return _component(alpha, beta)


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


def em_fit(scores) -> MixtureFit:
    """Fit the two-component mixture to positive scores by EM.

    ``scores`` is a float array of at least 10 finite positive values.
    Initialization splits the sorted scores at the median and seeds each
    component with method-of-moments estimates, which makes the fit fully
    deterministic. EM then runs on the distinct scores weighted by their
    counts (see the module docstring). Raises DegenerateSamplesError /
    ComponentCollapseError when the data cannot support two components and
    MixtureFitError when a parameter leaves the floating-point range.
    """
    sorted_values, first, sorted_counts = np.unique(
        scores, return_index=True, return_counts=True
    )
    if sorted_values.size < 3:
        raise DegenerateSamplesError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )
    n = scores.size

    # the repeated distinct values are np.sort(scores), element for element
    x_sorted = np.repeat(sorted_values, sorted_counts)
    half = n // 2
    params = [_moment_init(x_sorted[:half]), _moment_init(x_sorted[half:])]
    del x_sorted
    k = np.array([0.5, 0.5])

    # every later step runs on the distinct values in first-occurrence order,
    # each weighted by its count: a tie-free sample is its own rows, in order
    order = np.argsort(first)
    values = sorted_values[order]
    counts = sorted_counts[order].astype(float)
    log_x = np.log(values)
    x_scaled = values / sorted_values[-1]
    scaled = (x_scaled, np.log(x_scaled), float(sorted_values[-1]))
    trace: list[float] = []
    prev_ll = -math.inf
    converged = False
    iterations = 0
    for iterations in range(1, EM_MAX_ITERS + 1):
        # E-step in log space, one array per component
        lp = [np.log(k[j]) + _logpdf(log_x, params[j]) for j in range(2)]
        top = np.maximum(lp[0], lp[1])
        with np.errstate(invalid="ignore"):
            log_norm = top + np.log(np.exp(lp[0] - top) + np.exp(lp[1] - top))
        if not np.all(np.isfinite(log_norm)):
            raise DegenerateSamplesError(
                "a sample has zero density under both components"
            )
        ll = float((counts * log_norm).sum())
        trace.append(ll)
        if math.isfinite(prev_ll) and abs(ll - prev_ll) <= EM_TOL * max(
            1.0, abs(prev_ll)
        ):
            converged = True
            break
        prev_ll = ll

        # M-step, on each value's responsibility times its count
        new_params, k = [], []
        for j in range(2):
            w = np.exp(lp[j] - log_norm) * counts
            w_sum = float(w.sum())
            if w_sum / n < MIN_COMPONENT_WEIGHT:
                raise ComponentCollapseError(j, f"mixing weight {w_sum / n:.3g}")
            if w_sum < MIN_EFFECTIVE_SAMPLES:
                raise ComponentCollapseError(
                    j, f"effective sample size {w_sum:.3g} below {MIN_EFFECTIVE_SAMPLES}"
                )
            try:
                new_params.append(weighted_weibull_mle(*scaled, w))
            except DegenerateSamplesError:
                # Responsibilities concentrated on a single score atom
                # (common on lattice-valued metrics, e.g. everything
                # memorized from epoch one). The boundary-constrained
                # estimate is the sharpest allowed spike at that atom.
                center = math.exp(float((w * log_x).sum() / w_sum))
                new_params.append(_component(center, BETA_BRACKET[1]))
            # a row-order sum, as sum(axis=0) of both columns adds: the same bits
            k.append(np.cumsum(w)[-1] / n)
        params = new_params

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
        fit.degenerate = _prefers_single_component(scaled, log_x, counts, trace[-1])
    return fit


def _prefers_single_component(scaled, log_x, counts, mixture_ll: float) -> bool:
    """BIC check: does one Weibull explain the scores as well as two?

    ``scaled`` holds the MLE's first arguments, ``log_x`` the log of the
    values and ``counts`` how often each occurs. A two-component fit that
    fails this comparison found no second population worth the three extra
    parameters; thresholding such a fit is still well-defined, but the
    caller should not trust the clean/noisy split.
    """
    try:
        single = weighted_weibull_mle(*scaled, counts)
    except (DegenerateSamplesError, NewtonDivergenceError):
        return True
    single_ll = float((counts * _logpdf(log_x, single)).sum())
    return 2.0 * (mixture_ll - single_ll) <= 3.0 * math.log(counts.sum())


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
    # the fit depends only on the score multiset, never on the caller's
    # ordering, so dither assignment is keyed to the sorted array
    values = np.sort(raw)
    # the first of each run of equal values; NaNs sort last and, as in
    # np.unique, count as one value
    distinct = values[np.r_[True, (values[1:] != values[:-1]) & ~np.isnan(values[:-1])]]
    if distinct.size < 3:
        raise DegenerateSamplesError(
            "fewer than 3 distinct score values; a two-component fit is meaningless"
        )
    if not math.isfinite(float(distinct[-1]) - float(distinct[0])):
        raise MixtureFitError("scores are not finite or span beyond the float range")
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
    shifted = values - shift + SHIFT_EPSILON
    if not math.isfinite(shifted.max()):
        raise MixtureFitError("dequantized scores span beyond the float range")
    fit = em_fit(shifted)
    fit.shift = shift
    fit.epsilon = SHIFT_EPSILON
    return fit


def threshold(fit: MixtureFit) -> float:
    """Selection threshold in original (unshifted) score units: the noisy
    component's scale parameter alpha_2, mapped back through the shift."""
    return float(fit.noisy.alpha + fit.shift - fit.epsilon)
