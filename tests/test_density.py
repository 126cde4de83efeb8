import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bayesline.corpus import DataPoint, Dataset
from bayesline.density import (
    LOG_TWO_PI,
    ParamVector,
    gaussian_log_likelihood,
    grad_log_posterior_unconstrained,
    inverse_transform,
    log_density_half_normal,
    log_density_normal,
    log_likelihood,
    log_posterior_unconstrained,
    log_prior,
    posterior_kernels,
    transform,
)
from bayesline.modelspec import DistributionSpec, ModelSpec
from exact_oracle import ExactSums, exact_gradient
import reference_density


def test_normal_log_density_values():
    assert log_density_normal(0, 0, 1) == pytest.approx(-0.9189385332, abs=1e-10)
    assert log_density_normal(1, 0, 1) == pytest.approx(-1.4189385332, abs=1e-10)


def test_normal_peak_value_any_parameters():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rng.normal(0, 5)
        sigma = rng.uniform(0.1, 4)
        expected = -0.5 * math.log(2 * math.pi * sigma * sigma)
        assert log_density_normal(mu, mu, sigma) == pytest.approx(expected, rel=1e-14)


def test_normal_rejects_bad_sigma():
    with pytest.raises(ValueError):
        log_density_normal(0, 0, 0)
    with pytest.raises(ValueError):
        log_density_normal(0, 0, -1)


def test_half_normal_values():
    assert log_density_half_normal(0, 1) == pytest.approx(-0.2257913526, abs=1e-10)
    assert log_density_half_normal(-1, 1) == -math.inf
    with pytest.raises(ValueError):
        log_density_half_normal(1, 0)


def test_half_normal_empirical_mean():
    n = 1_000_000
    draws = np.abs(np.random.default_rng(7).normal(0, 1, n))
    analytic_mean = math.sqrt(2 / math.pi)
    analytic_sd = math.sqrt(1 - 2 / math.pi)
    assert abs(draws.mean() - analytic_mean) < 3 * analytic_sd / math.sqrt(n)


def test_densities_normalize_by_quadrature():
    total, _ = quad(lambda x: math.exp(log_density_normal(x, 0, 1)), -10, 10)
    assert total == pytest.approx(1.0, abs=1e-8)
    total, _ = quad(lambda x: math.exp(log_density_half_normal(x, 1)), 0, 10)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_transform_known_points():
    assert np.allclose(transform(ParamVector(1, 1, 1)), [1.0, 0.0, 0.0])
    z = transform(ParamVector(0.0, math.e, math.e**2))
    assert np.allclose(z, [0.0, 1.0, 2.0], rtol=1e-14)


def test_transform_boundary_errors():
    with pytest.raises(ValueError):
        transform(ParamVector(0, 0, 1))
    with pytest.raises(ValueError):
        transform(ParamVector(0, 1, 0))


@given(
    a=st.floats(-50, 50, allow_nan=False),
    b=st.floats(1e-8, 1e8, allow_nan=False),
    sigma=st.floats(1e-8, 1e8, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_transform_round_trip(a, b, sigma):
    p = ParamVector(a, b, sigma)
    back = inverse_transform(transform(p))
    assert back.a == p.a
    assert back.b == pytest.approx(p.b, rel=1e-14)
    assert back.sigma == pytest.approx(p.sigma, rel=1e-14)


def _point_term(point, p):
    return log_density_normal(point.y, p.a * point.x + p.b, p.sigma)


def test_posterior_additivity_is_exact(words3, model):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(0, 1, 3)
        p = inverse_transform(z)
        lp = log_prior(p, model)
        ll = gaussian_log_likelihood(words3.stats, p.a, p.b, p.sigma, float(z[2]))
        jac = float(z[1]) + float(z[2])
        assert log_posterior_unconstrained(z, model, words3) == lp + ll + jac


def test_posterior_single_point_hand_computed(model):
    data = Dataset((DataPoint("origin", 0.0, 0.0),))
    z = np.zeros(3)  # a=0, b=1, sigma=1
    expected = (
        log_density_normal(0, 0, 1)  # slope prior at 0
        + log_density_half_normal(1, 1)  # intercept prior at 1
        + log_density_half_normal(1, 1)  # noise prior at 1
        + log_density_normal(0, 1, 1)  # y=0 against mean a*0+b=1
        + 0.0  # z_b jacobian
        + 0.0  # z_sigma jacobian
    )
    assert log_posterior_unconstrained(z, model, data) == pytest.approx(expected, rel=1e-12)


def test_appending_a_point_changes_likelihood_by_its_term(words3):
    extra = DataPoint("extra", 210.0, 7.0)
    bigger = Dataset(words3.points + (extra,))
    p = ParamVector(0.01, 2.0, 1.5)
    assert log_likelihood(p, bigger) == log_likelihood(p, words3) + _point_term(extra, p)


def _loop_log_likelihood(p, data):
    """The per-point left fold that log_likelihood must reproduce bit for bit."""
    a, b, sigma = p
    const = -0.5 * LOG_TWO_PI - math.log(sigma)
    inv_two_var = 1.0 / (2.0 * sigma * sigma)
    total = 0.0
    for point in data.points:
        r = point.y - (a * point.x + b)
        total += const - r * r * inv_two_var
    return total


def _word_like_dataset(rng, m):
    """m points with x from 1e0 to 1e7 and y a fraction of x, as counts give."""
    x = 10.0 ** rng.uniform(0, 7, m)
    y = np.floor(x * 10.0 ** rng.uniform(-3, 0, m))
    return Dataset(tuple(DataPoint(f"w{i}", float(xi), float(yi)) for i, (xi, yi) in enumerate(zip(x, y))))


def _random_state(rng):
    return ParamVector(
        float(rng.normal() * 10.0 ** rng.uniform(-4, 1)),
        float(abs(rng.normal()) * 10.0 ** rng.uniform(-2, 4)),
        float(10.0 ** rng.uniform(-3, 6)),
    )


@pytest.mark.parametrize("m", [1, 3, 47, 48, 1000])
def test_likelihood_equals_per_point_fold_exactly(m):
    rng = np.random.default_rng(m)
    data = _word_like_dataset(rng, m)
    for _ in range(300):
        p = _random_state(rng)
        assert log_likelihood(p, data) == _loop_log_likelihood(p, data)


def test_appending_a_point_is_exact_across_vector_threshold():
    rng = np.random.default_rng(11)
    full = _word_like_dataset(rng, 48)
    head = Dataset(full.points[:-1])
    for _ in range(300):
        p = _random_state(rng)
        term = log_likelihood(p, Dataset(full.points[-1:]))
        assert log_likelihood(p, full) == log_likelihood(p, head) + term


# Exact oracles for the sufficient-statistics likelihood and gradient: word-like
# data at several sizes, and 47 points that share one x (Sxx = 0).
ORACLE_CASES = [1, 3, 47, 1000, "equal_x"]


def _oracle_dataset(case):
    if case == "equal_x":
        data = _word_like_dataset(np.random.default_rng(7), 47)
        return Dataset(tuple(DataPoint(p.label, 12345.0, p.y) for p in data.points))
    return _word_like_dataset(np.random.default_rng(case), case)


def _near_optimum_state(rng, stats):
    """A state within a few least-squares standard errors of the fit, b folded
    to positive and sigma near the residual scale."""
    m, x_mean, y_mean, sxx, slope, rss_min = stats
    # the residual scale; an exact fit (M = 1) has none, so use the data's own
    s = math.sqrt(rss_min / m) if rss_min > 0 else abs(y_mean) + 1.0
    closeness = 10.0 ** rng.uniform(-3, 0.5)
    sd_a = s / math.sqrt(sxx) if sxx > 0 else s / max(abs(x_mean), 1.0)
    a = slope + rng.normal() * closeness * sd_a
    b = abs(y_mean - slope * x_mean + rng.normal() * closeness * s / math.sqrt(m)) + 1e-3
    return ParamVector(a, b, s * math.exp(0.1 * rng.normal()))


def _oracle_states(data, n=200):
    """n states, alternately random and near the least-squares optimum; b and
    sigma are exp(log(.)), the values the unconstrained functions see."""
    rng = np.random.default_rng(101)
    for k in range(n):
        p = _near_optimum_state(rng, data.stats) if k % 2 else _random_state(rng)
        yield inverse_transform(transform(p))


def _within(value, truth, rel, scale=None):
    scale = abs(truth) if scale is None else scale
    return abs(Fraction(float(value)) - truth) <= Fraction(rel) * scale


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_rss_matches_exact_value(case):
    data = _oracle_dataset(case)
    exact = ExactSums(data)
    for p in _oracle_states(data):
        assert _within(data.stats.rss(p.a, p.b), exact.rss(p.a, p.b), 1e-12), p


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_gaussian_term_and_fold_match_exact_likelihood(case):
    data = _oracle_dataset(case)
    exact = ExactSums(data)
    for p in _oracle_states(data):
        truth, scale = exact.log_likelihood(p.a, p.b, p.sigma)
        term = gaussian_log_likelihood(data.stats, p.a, p.b, p.sigma, math.log(p.sigma))
        assert _within(term, truth, 1e-12, scale), p
        assert _within(log_likelihood(p, data), truth, 1e-12, scale), p


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_gradient_matches_exact_value(case, model):
    data = _oracle_dataset(case)
    exact = ExactSums(data)
    for p in _oracle_states(data):
        g = grad_log_posterior_unconstrained(transform(p), model, data)
        truth = exact_gradient(exact, model, p.a, p.b, p.sigma)
        for value, t in zip(g, truth):
            assert _within(value, t, 1e-9, max(abs(t), 1)), p
        # d/dz_sigma balances Σr²/σ² against M near the optimum
        assert _within(g[2], truth[2], 1e-12, max(abs(truth[2]), 1)), p


def test_doubling_dataset_doubles_likelihood(words3):
    doubled = Dataset(words3.points + words3.points)
    p = ParamVector(0.02, 1.0, 2.0)
    assert log_likelihood(p, doubled) == pytest.approx(2 * log_likelihood(p, words3), rel=1e-12)


def test_likelihood_requires_data(model):
    with pytest.raises(ValueError):
        log_likelihood(ParamVector(0, 1, 1), Dataset(()))
    with pytest.raises(ValueError):
        log_posterior_unconstrained(np.zeros(3), model, Dataset(()))


def _fd_gradient(z, model, data, h=1e-5):
    g = np.empty(3)
    for i in range(3):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (
            log_posterior_unconstrained(zp, model, data)
            - log_posterior_unconstrained(zm, model, data)
        ) / (2 * h)
    return g


def test_gradient_matches_finite_differences(words3, model):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        z = rng.normal(0, 1, 3)
        analytic = grad_log_posterior_unconstrained(z, model, words3)
        fd = _fd_gradient(z, model, words3)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6


def test_gradient_on_randomized_datasets(model):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(1, 12))
        data = Dataset(
            tuple(
                DataPoint(f"p{i}", float(rng.uniform(-5, 5)), float(rng.normal(0, 3)))
                for i in range(m)
            )
        )
        z = rng.normal(0, 1, 3)
        analytic = grad_log_posterior_unconstrained(z, model, data)
        fd = _fd_gradient(z, model, data)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6


def test_prior_score_vanishes_at_slope_prior_mean(words3):
    spec = ModelSpec(
        slope_prior=DistributionSpec.normal(0.25, 2.0),
        intercept_prior=DistributionSpec.half_normal(1.0),
        noise_prior=DistributionSpec.half_normal(1.0),
    )
    z = transform(ParamVector(0.25, 1.0, 1.0))
    g = grad_log_posterior_unconstrained(z, spec, words3)
    x, y = words3.x, words3.y
    sx, sxx, sxy = float(x.sum()), float(x @ x), float(x @ y)
    data_term = (sxy - 0.25 * sxx - 1.0 * sx) / 1.0
    assert g[0] == pytest.approx(data_term, rel=1e-12)


def test_symmetric_zero_data_gives_zero_slope_gradient(model):
    data = Dataset((DataPoint("l", -1.0, 0.0), DataPoint("r", 1.0, 0.0)))
    z = transform(ParamVector(0.0, 1e-6, 1.0))
    g = grad_log_posterior_unconstrained(z, model, data)
    assert g[0] == 0.0  # likelihood term cancels by symmetry, prior score is 0 at 0


def test_posterior_handles_extreme_unconstrained_points(model, words3):
    for z in ([0.0, 800.0, 0.0], [0.0, 0.0, -800.0], [0.0, -800.0, 800.0]):
        value = log_posterior_unconstrained(np.array(z), model, words3)
        assert value == -math.inf


def test_posterior_is_minus_inf_where_the_variance_underflows(model, words3):
    # sigma = exp(-400) is positive, but 2 * sigma**2 underflows to 0
    for z in ([0.0, 0.0, -400.0], np.array([0.0, 0.0, -400.0])):
        assert log_posterior_unconstrained(z, model, words3) == -math.inf


# The kernels against the verbatim pre-kernel functions of reference_density,
# bit for bit: packed doubles compare -0.0, NaN and -inf exactly.
_TINY, _HUGE = 1.5e-154, 9.48e153  # prior scales at modelspec's limits
KERNEL_MODELS = {
    "default": ModelSpec(
        DistributionSpec.normal(0.0, 1.0),
        DistributionSpec.half_normal(1.0),
        DistributionSpec.half_normal(1.0),
    ),
    "halfnormal_slope": ModelSpec(
        DistributionSpec.half_normal(1.0),
        DistributionSpec.half_normal(1.0),
        DistributionSpec.half_normal(1.0),
    ),
    "normal_intercept": ModelSpec(
        DistributionSpec.normal(0.0, 1.0),
        DistributionSpec.normal(2.0, 3.0),
        DistributionSpec.half_normal(1.0),
    ),
    "tiny_scales": ModelSpec(
        DistributionSpec.normal(0.0, _TINY),
        DistributionSpec.normal(0.0, _TINY),
        DistributionSpec.half_normal(_TINY),
    ),
    "huge_scales": ModelSpec(
        DistributionSpec.normal(1e3, _HUGE),
        DistributionSpec.half_normal(_HUGE),
        DistributionSpec.half_normal(_HUGE),
    ),
}


def _bits(v):
    return struct.pack("<d", v)


def _kernel_states(data):
    """A random grid, states near the least-squares fit, and the edges: z_b or
    z_sigma past exp's range, sigma² or b underflowing to 0, ±inf and NaN."""
    rng = np.random.default_rng(5)
    states = []
    for _ in range(150):
        states.append([float(rng.normal() * 10.0 ** rng.uniform(-4, 1)), *rng.uniform(-8, 8, 2)])
    for _ in range(150):
        p = _near_optimum_state(rng, data.stats)
        states.append([p.a, math.log(p.b), math.log(p.sigma)])
    slope = data.stats.slope
    for a in (-math.inf, -1.0, -1e-3, -0.0, 0.0, slope, 1.0, math.inf, math.nan):
        for z_b in (-800.0, -745.5, -20.0, -0.0, 0.0, 2.0, 709.0, 709.5, math.inf, math.nan):
            for z_sigma in (-800.0, -373.5, -372.4, -354.0, -20.0, 0.0, 1.5, 709.0, 709.5, 800.0,
                            -math.inf, math.inf, math.nan):
                states.append([a, z_b, z_sigma])
    return [[float(v) for v in z] for z in states]


@pytest.mark.parametrize("model_name", list(KERNEL_MODELS))
@pytest.mark.parametrize("case", [1, 3, 1000, "equal_x"])
def test_kernels_match_reference_functions_bit_for_bit(case, model_name):
    spec, data = KERNEL_MODELS[model_name], _oracle_dataset(case)
    logp, grad = posterior_kernels(spec, data)
    for z in _kernel_states(data):
        want = reference_density.log_posterior_unconstrained(z, spec, data)
        assert _bits(logp(z)) == _bits(want), z
        assert _bits(log_posterior_unconstrained(np.array(z), spec, data)) == _bits(want), z
        want_g = reference_density.grad_log_posterior_unconstrained(z, spec, data)
        g = grad(z)
        assert type(g) is list and [_bits(v) for v in g] == [_bits(v) for v in want_g], z
        wrapped = grad_log_posterior_unconstrained(np.array(z), spec, data)
        assert wrapped.dtype == want_g.dtype and wrapped.tobytes() == want_g.tobytes(), z


def test_prior_densities_match_reference_functions_bit_for_bit():
    """The public densities and log_prior, which now evaluate _log_prior_term."""
    xs = (-math.inf, -1e300, -2.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 1e300, math.inf,
          math.nan)
    for x in xs:
        for scale in (_TINY, 1e-3, 1.0, 3.0, _HUGE):
            for mu in (-2.0, 0.0, 2.0, 1e3):
                got = log_density_normal(x, mu, scale)
                assert _bits(got) == _bits(reference_density.log_density_normal(x, mu, scale))
            got = log_density_half_normal(x, scale)
            assert _bits(got) == _bits(reference_density.log_density_half_normal(x, scale))
    for spec in KERNEL_MODELS.values():
        for z in _kernel_states(_oracle_dataset(3)):
            p = reference_density.inverse_transform(z)
            assert _bits(log_prior(p, spec)) == _bits(reference_density.log_prior(p, spec)), z


def test_kernel_states_reach_every_branch():
    """The states above hit the early returns and the HalfNormal support edge."""
    spec, data = KERNEL_MODELS["halfnormal_slope"], _oracle_dataset("equal_x")
    logp, grad = posterior_kernels(spec, data)
    values = [logp(z) for z in _kernel_states(data)]
    assert any(v == -math.inf for v in values)
    assert any(math.isnan(v) for v in values)
    assert any(math.isfinite(v) for v in values)
    assert any(math.isnan(g[0]) for g in map(grad, _kernel_states(data)))
    assert logp([-1.0, 0.0, 0.0]) == -math.inf  # a < 0 is outside the slope prior's support


def test_kernels_require_data(model):
    with pytest.raises(ValueError):
        posterior_kernels(model, Dataset(()))
    with pytest.raises(ValueError):
        grad_log_posterior_unconstrained(np.zeros(3), model, Dataset(()))
