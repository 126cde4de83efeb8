"""density.sample_prior: the one truncated-prior sampler, checked against the
scalar and matrix samplers it replaced, which are kept here verbatim."""

import math

import numpy as np
import pytest

from bayesline import density, sampler
from bayesline.modelspec import DistributionSpec, ModelSpec, default_model

# b ~ Normal(-1, 1) keeps 16% of its draws and Normal(-1.5, 1) under 7%, so
# most starting points of those specs go through truncation retries.
SPECS = {
    "default": default_model(),
    "b_normal_minus_1": ModelSpec(
        DistributionSpec.normal(0.5, 2.0),
        DistributionSpec.normal(-1.0, 1.0),
        DistributionSpec.half_normal(3.0),
    ),
    "b_normal_minus_1_5": ModelSpec(
        DistributionSpec.normal(-3.0, 1e-3),
        DistributionSpec.normal(-1.5, 1.0),
        DistributionSpec.half_normal(1e-3),
    ),
}


def _ref_sample_prior_value(dist, rng, positive):
    """One prior draw; priors on positive parameters are truncated at 0."""
    for _ in range(10_000):
        if dist.kind == "HalfNormal":
            v = abs(rng.normal(0.0, dist.scale))
        else:
            v = rng.normal(dist.location, dist.scale)
        if not positive or v > 0.0:
            return v
    raise sampler.InitializationError(f"prior {dist} has essentially no mass above 0")


def _ref_prior_init(spec):
    def init(rng):
        a = _ref_sample_prior_value(spec.slope_prior, rng, positive=False)
        b = _ref_sample_prior_value(spec.intercept_prior, rng, positive=True)
        sigma = _ref_sample_prior_value(spec.noise_prior, rng, positive=True)
        return density.transform(density.ParamVector(a, b, sigma))

    return init


def _ref_sample_prior_matrix(spec, rng, n):
    def draw(dist, positive):
        if dist.kind == "HalfNormal":
            return np.abs(rng.normal(0.0, dist.scale, n))
        values = rng.normal(dist.location, dist.scale, n)
        if positive:
            # truncate at 0 by redrawing; the model constrains b >= 0
            for _ in range(10_000):
                bad = values <= 0.0
                if not bad.any():
                    break
                values[bad] = rng.normal(dist.location, dist.scale, int(bad.sum()))
            else:
                raise ValueError(f"prior {dist} has essentially no mass above 0")
        return values

    a = draw(spec.slope_prior, positive=False)
    b = draw(spec.intercept_prior, positive=True)
    sigma = draw(spec.noise_prior, positive=True)
    return np.column_stack([a, b, sigma])


def _first_b_draw_rejected(spec, seed):
    rng = np.random.default_rng(seed)
    rng.standard_normal()  # the draw of a
    return rng.normal(spec.intercept_prior.location, spec.intercept_prior.scale) <= 0.0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_prior_init_equals_scalar_reference(name):
    spec = SPECS[name]
    new_init, ref_init = sampler._prior_init(spec), _ref_prior_init(spec)
    for seed in range(3000):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(new_init(rng_new), ref_init(rng_ref))
        # the generator is left in the same state: the next draw agrees
        assert rng_new.random() == rng_ref.random()
    if spec.intercept_prior.kind == "Normal":
        assert sum(_first_b_draw_rejected(spec, seed) for seed in range(3000)) > 2000


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_sample_prior_equals_matrix_reference(name, n):
    spec = SPECS[name]
    for seed in range(20):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = density.sample_prior(spec, rng_new, n)
        assert new.shape == (n, 3)
        assert np.array_equal(new, _ref_sample_prior_matrix(spec, rng_ref, n))
        assert rng_new.random() == rng_ref.random()


NO_MASS_ABOVE_ZERO = ModelSpec(
    DistributionSpec.normal(0.0, 1.0),
    DistributionSpec.normal(-40.0, 1.0),
    DistributionSpec.half_normal(1.0),
)


def test_sample_prior_without_mass_above_zero_raises():
    with pytest.raises(ValueError, match="no mass above 0"):
        density.sample_prior(NO_MASS_ABOVE_ZERO, np.random.default_rng(0), 5)


@pytest.mark.parametrize("sample", [sampler.sample_hmc, sampler.sample_rwm])
def test_samplers_report_a_prior_without_mass_above_zero_as_initialization_error(sample, words3):
    cfg = sampler.SamplerConfig(n_chains=1, n_draws=10, n_warmup=10)
    with pytest.raises(sampler.InitializationError, match="no mass above 0"):
        sample(NO_MASS_ABOVE_ZERO, words3, cfg)


def test_truncated_normal_intercept_has_the_truncated_mean():
    # b ~ Normal(-1, 1) truncated to b > 0: mean -1 + phi(1) / (1 - Phi(1))
    spec = SPECS["b_normal_minus_1"]
    b = density.sample_prior(spec, np.random.default_rng(11), 200_000)[:, 1]
    phi = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    tail = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    expected = -1.0 + phi / tail
    assert expected == pytest.approx(0.5251, abs=1e-4)
    assert b.min() > 0.0
    mcse = b.std(ddof=1) / math.sqrt(b.size)
    assert abs(b.mean() - expected) < 4 * mcse


def test_sample_prior_b_and_sigma_are_positive():
    for spec in SPECS.values():
        draws = density.sample_prior(spec, np.random.default_rng(3), 5000)
        assert np.all(draws[:, 1] > 0.0) and np.all(draws[:, 2] > 0.0)
