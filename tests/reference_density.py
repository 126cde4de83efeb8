"""The unconstrained log posterior and its gradient as they were written before
``density.posterior_kernels``, kept verbatim as bit-for-bit references.

The kernels and every sampler run built on them must reproduce these
functions' bits; the tests compare them with ``==`` on the packed doubles.
``log_prior`` and the densities it calls are kept verbatim too, because the
library's now share one body with the kernels. ``gaussian_log_likelihood``
is the library's own, which these functions always called.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from bayesline.corpus import Dataset
from bayesline.density import LOG_TWO, LOG_TWO_PI, ParamVector, gaussian_log_likelihood
from bayesline.modelspec import DistributionSpec, ModelSpec

_EXP_MAX = 709.0


def _safe_exp(v: float) -> float:
    return math.inf if v > _EXP_MAX else math.exp(v)


def inverse_transform(z: Sequence[float]) -> ParamVector:
    """Map unconstrained z back to (a, exp(z_b), exp(z_sigma))."""
    return ParamVector(float(z[0]), _safe_exp(float(z[1])), _safe_exp(float(z[2])))


def log_density_normal(x: float, mu: float, sigma: float) -> float:
    """log N(x | mu, sigma) with sigma the standard deviation."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = x - mu
    return -0.5 * LOG_TWO_PI - math.log(sigma) - d * d / (2.0 * sigma * sigma)


def log_density_half_normal(x: float, scale: float) -> float:
    """log density of a normal folded at 0; -inf for x < 0."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if x < 0:
        return -math.inf
    return LOG_TWO + log_density_normal(x, 0.0, scale)


def _dist_logpdf(dist: DistributionSpec, x: float) -> float:
    if dist.kind == "Normal":
        return log_density_normal(x, dist.location, dist.scale)
    return log_density_half_normal(x, dist.scale)


def log_prior(p: ParamVector, spec: ModelSpec) -> float:
    """Sum of the prior log densities of a, b and sigma, in that order.

    A Normal prior on b enters untruncated; see the module docstring.
    """
    total = _dist_logpdf(spec.slope_prior, p.a)
    total += _dist_logpdf(spec.intercept_prior, p.b)
    total += _dist_logpdf(spec.noise_prior, p.sigma)
    return total


def _dist_score(dist: DistributionSpec, x: float) -> float:
    """d/dx of the log prior density; 0 outside the support (density is -inf there)."""
    if dist.kind == "Normal":
        return -(x - dist.location) / (dist.scale * dist.scale)
    if x < 0:
        return 0.0
    return -x / (dist.scale * dist.scale)


def log_posterior_unconstrained(z: Sequence[float], spec: ModelSpec, data: Dataset) -> float:
    """Unnormalized log posterior in z, including the log-Jacobian z_b + z_sigma.

    The marginal data density is a constant in z and is omitted. Returns
    -inf wherever the state is impossible.
    """
    if data.size < 1:
        raise ValueError("posterior requires at least one observation")
    p = inverse_transform(z)
    # a variance that underflows to 0 (sigma below about 1e-162) is as
    # impossible as sigma == 0: the likelihood would divide by it
    if (
        not (math.isfinite(p.b) and math.isfinite(p.sigma))
        or 2.0 * p.sigma * p.sigma == 0.0
        or p.b == 0.0
    ):
        return -math.inf
    lp = log_prior(p, spec)
    if lp == -math.inf:
        return -math.inf
    z_sigma = float(z[2])
    return lp + gaussian_log_likelihood(data.stats, *p, z_sigma) + (float(z[1]) + z_sigma)


def grad_log_posterior_unconstrained(
    z: Sequence[float], spec: ModelSpec, data: Dataset
) -> np.ndarray:
    """Analytic gradient of log_posterior_unconstrained w.r.t. (z_a, z_b, z_sigma).

    Derivatives on the constrained scale are chained through b = exp(z_b)
    and sigma = exp(z_sigma); each log transform contributes +1 from its
    Jacobian term. The residual sums come from the sufficient statistics:
    with r_i = y_i - (a x_i + b) and d = ȳ - a x̄ - b, Σ r_i = m d and
    Σ r_i x_i = x̄ Σ r_i - Sxx (a - slope).
    """
    if data.size < 1:
        raise ValueError("posterior requires at least one observation")
    # inverse_transform inlined: this runs once per leapfrog step
    a = float(z[0])
    z_b = float(z[1])
    z_sigma = float(z[2])
    b = math.inf if z_b > _EXP_MAX else math.exp(z_b)
    sigma = math.inf if z_sigma > _EXP_MAX else math.exp(z_sigma)
    s2 = sigma * sigma
    # extreme states (overflowed/underflowed transforms) yield non-finite
    # entries rather than raising; integrators treat those as rejections
    if not (math.isfinite(b) and math.isfinite(s2)) or s2 == 0.0:
        return np.full(3, math.nan)
    m, x_mean, y_mean, sxx, slope, rss_min = data.stats
    d = y_mean - a * x_mean - b
    e = a - slope
    r_sum = m * d
    rx_sum = x_mean * r_sum - sxx * e
    rr_sum = rss_min + sxx * e * e + r_sum * d  # SufficientStats.rss, sharing d and e
    inv_var = 1.0 / s2
    d_a = inv_var * rx_sum + _dist_score(spec.slope_prior, a)
    d_b = inv_var * r_sum + _dist_score(spec.intercept_prior, b)
    d_sigma = rr_sum * inv_var / sigma - m / sigma + _dist_score(spec.noise_prior, sigma)
    return np.array([d_a, d_b * b + 1.0, d_sigma * sigma + 1.0])
