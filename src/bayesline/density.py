"""Log densities, constraint transforms and gradients for the regression model.

The target model is

    Y_i ~ Normal(a * X_i + b, sigma),   i = 1..M

with independent priors on the slope ``a``, the intercept ``b >= 0`` and the
noise scale ``sigma > 0``. Samplers work in unconstrained coordinates

    z = (a, log b, log sigma)

so the unconstrained log posterior carries the change-of-variables terms
``z_b + z_sigma``. Everything is computed in natural logs; impossible states
(outside a prior's support, or an overflowed transform) evaluate to ``-inf``
rather than raising, so samplers can treat them as automatic rejections.

The likelihood has two forms. ``gaussian_log_likelihood`` works from the
dataset's centred sufficient statistics (``Dataset.stats``) in O(1): its
residual sum of squares is ``SufficientStats.rss``, three nonnegative terms
that lose no digits near the optimum. The samplers' target, the gradient
and the evidence all use it. ``log_likelihood`` is the per-point reference:
a left fold over the data points in order, so appending a data point
changes it by exactly that point's term. Tests hold both to exact rational
values.

The unconstrained log posterior and its gradient have one implementation,
``posterior_kernels(spec, data)``: three closures, built once per fit, that
read the sufficient statistics and the priors' constants from their
enclosing scope and take and return plain float lists. The log posterior
is ``log_prior + gaussian_log_likelihood + jacobian`` in that order; its
prior terms and ``log_prior`` share one body, ``_log_prior_term``, which
the public Normal and HalfNormal densities also evaluate. The gradient has
one body too, inside ``trajectory``, HMC's leapfrog integrator for this
target: the step loop evaluates it inline, and ``grad`` enters the same
body without moving. ``log_posterior_unconstrained`` and
``grad_log_posterior_unconstrained`` are thin wrappers for a single state,
the second returning an ndarray. Each call builds the one closure it
needs, so a loop over many states should build the kernels once instead.

The prior convention: ``b`` and ``sigma`` are positive, so a Normal prior on
``b`` is truncated at 0. ``log_prior`` uses the untruncated Normal density
for it; that differs from the truncated, renormalised density by a constant,
which MCMC never sees. ``sample_prior`` draws from the truncated,
renormalised prior, which is what the evidence estimate and the samplers'
starting points need. Prior scales lie in [1.5e-154, 9.48e153] (see
``modelspec``), so every density here can divide by their squares.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import Dataset, SufficientStats
from .modelspec import DistributionSpec, ModelSpec

__all__ = [
    "ParamVector",
    "gaussian_log_likelihood",
    "grad_log_posterior_unconstrained",
    "inverse_transform",
    "log_density_half_normal",
    "log_density_normal",
    "log_likelihood",
    "log_posterior_unconstrained",
    "log_prior",
    "posterior_kernels",
    "sample_prior",
    "transform",
]

LOG_TWO_PI = math.log(2.0 * math.pi)
LOG_TWO = math.log(2.0)

# exp() overflows float64 just above this; map overflow to +inf instead of
# raising so the density layer stays total.
_EXP_MAX = 709.0


class ParamVector(NamedTuple):
    """Model parameters on the constrained scale."""

    a: float
    b: float
    sigma: float


def _safe_exp(v: float) -> float:
    return math.inf if v > _EXP_MAX else math.exp(v)


def _normal_constants(scale: float) -> tuple[float, float]:
    """(2·scale², -0.5·log 2π - log scale): what a scale fixes in a Normal log density."""
    return 2.0 * scale * scale, -0.5 * LOG_TWO_PI - math.log(scale)


def _log_prior_term(x: float, half: bool, location: float, two_var: float, prefix: float) -> float:
    """log N(x | location, scale), folded at 0 if ``half``, from ``_normal_constants(scale)``.

    The one body of the Normal and HalfNormal log densities: the public
    densities, ``log_prior`` and the posterior kernels all evaluate it.
    """
    if half and x < 0:
        return -math.inf
    d = x - location
    term = prefix - d * d / two_var
    return LOG_TWO + term if half else term


def log_density_normal(x: float, mu: float, sigma: float) -> float:
    """log N(x | mu, sigma) with sigma the standard deviation."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return _log_prior_term(x, False, mu, *_normal_constants(sigma))


def log_density_half_normal(x: float, scale: float) -> float:
    """log density of a normal folded at 0; -inf for x < 0."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return _log_prior_term(x, True, 0.0, *_normal_constants(scale))


def transform(p: ParamVector) -> np.ndarray:
    """Map constrained parameters to z = (a, log b, log sigma)."""
    if not p.b > 0:
        raise ValueError(f"b must be positive to transform, got {p.b}")
    if not p.sigma > 0:
        raise ValueError(f"sigma must be positive to transform, got {p.sigma}")
    return np.array([p.a, math.log(p.b), math.log(p.sigma)], dtype=float)


def inverse_transform(z: Sequence[float]) -> ParamVector:
    """Map unconstrained z back to (a, exp(z_b), exp(z_sigma))."""
    return ParamVector(float(z[0]), _safe_exp(float(z[1])), _safe_exp(float(z[2])))


def _dist_logpdf(dist: DistributionSpec, x: float) -> float:
    if dist.kind == "Normal":
        return log_density_normal(x, dist.location, dist.scale)
    return log_density_half_normal(x, dist.scale)


def _draw(dist: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    if dist.kind == "HalfNormal":
        return np.abs(rng.normal(0.0, dist.scale, n))
    return rng.normal(dist.location, dist.scale, n)


def _draw_positive(dist: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws truncated at 0: every value <= 0 is redrawn, in place, until none is."""
    values = _draw(dist, rng, n)
    for _ in range(10_000):
        bad = values <= 0.0
        if not bad.any():
            return values
        values[bad] = _draw(dist, rng, int(bad.sum()))
    raise ValueError(f"prior {dist} has essentially no mass above 0")


def sample_prior(spec: ModelSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n prior draws of (a, b, sigma), shaped (n, 3), with b and sigma truncated to > 0.

    All n values of a are drawn first, then b, then sigma, so a size-1 draw
    uses the generator exactly as drawing a, b and sigma one at a time does.
    """
    return np.column_stack(
        [
            _draw(spec.slope_prior, rng, n),
            _draw_positive(spec.intercept_prior, rng, n),
            _draw_positive(spec.noise_prior, rng, n),
        ]
    )


def log_prior(p: ParamVector, spec: ModelSpec) -> float:
    """Sum of the prior log densities of a, b and sigma, in that order.

    A Normal prior on b enters untruncated; see the module docstring.
    """
    total = _dist_logpdf(spec.slope_prior, p.a)
    total += _dist_logpdf(spec.intercept_prior, p.b)
    total += _dist_logpdf(spec.noise_prior, p.sigma)
    return total


def log_likelihood(p: ParamVector, data: Dataset) -> float:
    """Sum over observations of log N(y_i | a*x_i + b, sigma), point by point.

    The reference fold: accumulated left to right over the data points, so
    extending the dataset by one point changes the result by exactly that
    point's term. The samplers and the evidence use ``gaussian_log_likelihood``.
    """
    if data.size < 1:
        raise ValueError("likelihood requires at least one observation")
    if not p.sigma > 0:
        raise ValueError(f"sigma must be positive, got {p.sigma}")
    a, b, sigma = p
    const = -0.5 * LOG_TWO_PI - math.log(sigma)
    inv_two_var = 1.0 / (2.0 * sigma * sigma)
    total = 0.0
    for point in data.points:
        r = point.y - (a * point.x + b)
        total += const - r * r * inv_two_var
    return total


def gaussian_log_likelihood(stats: SufficientStats, a, b, sigma, log_sigma):
    """log_likelihood from sufficient statistics, for floats or arrays of draws."""
    m = stats.m
    return -0.5 * m * LOG_TWO_PI - m * log_sigma - stats.rss(a, b) / (2.0 * sigma * sigma)


def _prior_constants(dist: DistributionSpec):
    """(is HalfNormal, location, scale², 2·scale², -0.5·log 2π - log scale) of a prior.

    The arguments of ``_log_prior_term`` and the prior score, which the
    kernels compute once per fit instead of on every call.
    """
    half = dist.kind == "HalfNormal"
    two_var, prefix = _normal_constants(dist.scale)
    return half, 0.0 if half else dist.location, dist.scale * dist.scale, two_var, prefix


def _require_data(data: Dataset) -> None:
    if data.size < 1:
        raise ValueError("posterior requires at least one observation")


def _logp_kernel(spec: ModelSpec, data: Dataset) -> Callable[[list[float]], float]:
    _require_data(data)
    stats = data.stats
    a_half, a_loc, _, a_two_var, a_prefix = _prior_constants(spec.slope_prior)
    b_half, b_loc, _, b_two_var, b_prefix = _prior_constants(spec.intercept_prior)
    s_half, s_loc, _, s_two_var, s_prefix = _prior_constants(spec.noise_prior)
    exp, isfinite, inf = math.exp, math.isfinite, math.inf

    def logp(z):
        a, z_b, z_sigma = z
        b = inf if z_b > _EXP_MAX else exp(z_b)
        sigma = inf if z_sigma > _EXP_MAX else exp(z_sigma)
        # a variance that underflows to 0 (sigma below about 1e-162) is as
        # impossible as sigma == 0: the likelihood would divide by it
        if not (isfinite(b) and isfinite(sigma)) or 2.0 * sigma * sigma == 0.0 or b == 0.0:
            return -inf
        # log_prior: the slope, intercept and noise terms, summed in that order
        lp = _log_prior_term(a, a_half, a_loc, a_two_var, a_prefix)
        lp += _log_prior_term(b, b_half, b_loc, b_two_var, b_prefix)
        lp += _log_prior_term(sigma, s_half, s_loc, s_two_var, s_prefix)
        if lp == -inf:
            return -inf
        return lp + gaussian_log_likelihood(stats, a, b, sigma, z_sigma) + (z_b + z_sigma)

    return logp


def _trajectory_kernel(spec: ModelSpec, data: Dataset) -> Callable:
    _require_data(data)
    m, x_mean, y_mean, sxx, slope, rss_min = data.stats
    a_half, a_loc, a_var, _, _ = _prior_constants(spec.slope_prior)
    b_half, b_loc, b_var, _, _ = _prior_constants(spec.intercept_prior)
    s_half, s_loc, s_var, _, _ = _prior_constants(spec.noise_prior)
    exp, inf, nan = math.exp, math.inf, math.nan

    def trajectory(z, p, g, eps, n_steps):
        za, zb, zs = z
        moving = p is not None
        if moving:
            pa, pb, ps = p
            ga, gb, gs = g
        half = 0.5 * eps
        h = half
        # with no momentum, one pass that only evaluates the gradient at z
        for _ in range(n_steps if moving else 1):
            if moving:
                # the step uses every gradient entry: one that is not
                # finite ends the trajectory (g < inf is False for NaN)
                if not (-inf < ga < inf and -inf < gb < inf and -inf < gs < inf):
                    return None
                pa = pa + h * ga
                za = za + eps * pa
                pb = pb + h * gb
                zb = zb + eps * pb
                ps = ps + h * gs
                zs = zs + eps * ps
                h = eps
            # the gradient at (za, zb, zs)
            b = inf if zb > _EXP_MAX else exp(zb)
            sigma = inf if zs > _EXP_MAX else exp(zs)
            s2 = sigma * sigma
            # extreme states (overflowed/underflowed transforms) yield NaN
            # entries rather than raising; b >= 0 and s2 >= 0 unless NaN
            if not (b < inf and 0.0 < s2 < inf):
                ga = gb = gs = nan
                continue
            d = y_mean - za * x_mean - b
            e = za - slope
            r_sum = m * d
            rx_sum = x_mean * r_sum - sxx * e
            rr_sum = rss_min + sxx * e * e + r_sum * d  # SufficientStats.rss, sharing d and e
            inv_var = 1.0 / s2
            # each prior's score, d/dx of its log density: 0 outside a
            # HalfNormal's support, where the density is -inf. Written out: a
            # helper call per score adds about a tenth to a step's time.
            if a_half:
                score = 0.0 if za < 0 else -za / a_var
            else:
                score = -(za - a_loc) / a_var
            ga = inv_var * rx_sum + score
            if b_half:
                score = 0.0 if b < 0 else -b / b_var
            else:
                score = -(b - b_loc) / b_var
            gb = (inv_var * r_sum + score) * b + 1.0
            if s_half:
                score = 0.0 if sigma < 0 else -sigma / s_var
            else:
                score = -(sigma - s_loc) / s_var
            gs = (rr_sum * inv_var / sigma - m / sigma + score) * sigma + 1.0
        if not moving:
            return [ga, gb, gs]
        if not (-inf < ga < inf and -inf < gb < inf and -inf < gs < inf):
            return None
        return [za, zb, zs], [pa + half * ga, pb + half * gb, ps + half * gs], [ga, gb, gs]

    return trajectory


def posterior_kernels(spec: ModelSpec, data: Dataset) -> tuple[Callable, Callable, Callable]:
    """The log posterior, its gradient and HMC's leapfrog, as closures over one fit.

    Returns ``(logp, grad, trajectory)``. Each takes z = (a, log b, log sigma)
    as three floats; the statistics and the priors' constants are read once,
    here. ``logp`` evaluates ``_log_prior_term`` and ``gaussian_log_likelihood``,
    as ``log_prior`` and the evidence do. ``trajectory(z, p, g, eps, n_steps)``
    is ``sampler._leapfrog`` for this target, bit for bit, with the gradient
    inline in the step loop. ``grad(z)`` enters the same body without moving
    and returns the gradient at z as a list.
    """
    trajectory = _trajectory_kernel(spec, data)

    def grad(z):
        return trajectory(z, None, None, 0.0, 0)

    return _logp_kernel(spec, data), grad, trajectory


def _floats(z: Sequence[float]) -> list[float]:
    return [float(z[0]), float(z[1]), float(z[2])]


def log_posterior_unconstrained(z: Sequence[float], spec: ModelSpec, data: Dataset) -> float:
    """Unnormalized log posterior in z, including the log-Jacobian z_b + z_sigma.

    ``log_prior + gaussian_log_likelihood + (z_b + z_sigma)``, evaluated by
    the ``logp`` closure of ``posterior_kernels``. The marginal data density is a constant in z and
    is omitted. Returns -inf wherever the state is impossible.
    """
    return _logp_kernel(spec, data)(_floats(z))


def grad_log_posterior_unconstrained(
    z: Sequence[float], spec: ModelSpec, data: Dataset
) -> np.ndarray:
    """Analytic gradient of log_posterior_unconstrained w.r.t. (z_a, z_b, z_sigma).

    Derivatives on the constrained scale are chained through b = exp(z_b)
    and sigma = exp(z_sigma); each log transform contributes +1 from its
    Jacobian term. The residual sums come from the sufficient statistics:
    with r_i = y_i - (a x_i + b) and d = ȳ - a x̄ - b, Σ r_i = m d and
    Σ r_i x_i = x̄ Σ r_i - Sxx (a - slope). Evaluated by the trajectory
    closure of ``posterior_kernels`` without moving; all three entries are
    NaN where b or sigma² overflows or sigma² underflows.
    """
    return np.array(_trajectory_kernel(spec, data)(_floats(z), None, None, 0.0, 0))
