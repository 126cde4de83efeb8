import math
from dataclasses import replace

import numpy as np
import pytest

import reference_density
from bayesline import sampler
from bayesline.corpus import DataPoint, Dataset
from bayesline.inference import ConjugateNormalState, ess, sequential_update
from bayesline.modelspec import DistributionSpec
from bayesline.sampler import (
    InitializationError,
    SamplerConfig,
    hmc_chains,
    rwm_chains,
    sample_hmc,
    sample_rwm,
)

SMALL = SamplerConfig(n_chains=2, n_draws=300, n_warmup=200, seed=3)


def conjugate_target(seed=42, n_obs=5, true_mean=1.2):
    """1-D Normal-mean posterior with prior N(0,1) and unit observation noise."""
    ys = np.random.default_rng(seed).normal(true_mean, 1.0, n_obs)
    s_y, n = float(ys.sum()), len(ys)

    def log_prob(z):
        mu = float(z[0])
        return -0.5 * mu * mu - 0.5 * float(((ys - mu) ** 2).sum())

    def grad(z):
        mu = float(z[0])
        return np.array([-mu + (s_y - n * mu)])

    analytic = sequential_update(ConjugateNormalState(0.0, 1.0), ys, 1.0)
    return log_prob, grad, analytic


def std_normal_init(rng):
    return rng.normal(0.0, 1.0, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_chains=0)
    with pytest.raises(ValueError):
        SamplerConfig(target_accept=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(algorithm="nuts")


def test_fixed_seed_is_bit_identical(words3, model):
    first = sample_rwm(model, words3, SMALL)
    second = sample_rwm(model, words3, SMALL)
    assert np.array_equal(first.draws, second.draws)
    third = sample_hmc(model, words3, SMALL)
    fourth = sample_hmc(model, words3, SMALL)
    assert np.array_equal(third.draws, fourth.draws)


@pytest.mark.parametrize("sample", [sample_hmc, sample_rwm], ids=["hmc", "rwm"])
def test_chain_k_equals_single_chain_of_seed_xor_k(words3, model, sample):
    cfg = SamplerConfig(n_chains=4, n_draws=200, n_warmup=100, seed=5)
    chains = sample(model, words3, cfg)
    for k in range(cfg.n_chains):
        alone = sample(model, words3, replace(cfg, n_chains=1, seed=5 ^ k))
        assert np.array_equal(chains.draws[k], alone.draws[0])
        assert chains.accept_rates[k] == alone.accept_rates[0]
        assert chains.divergences[k] == alone.divergences[0]


def test_draws_respect_constraints(words3, model):
    for chains in (sample_rwm(model, words3, SMALL), sample_hmc(model, words3, SMALL)):
        assert np.all(chains.per_chain("b") >= 0)
        assert np.all(chains.per_chain("sigma") > 0)


def test_chain_metadata(words3, model):
    chains = sample_hmc(model, words3, SMALL)
    assert chains.draws.shape == (2, 300, 3)
    assert chains.total_draws == 600
    assert chains.stream_ids == (3 ^ 0, 3 ^ 1)
    assert chains.config.algorithm == "hmc"
    assert all(0.0 <= r <= 1.0 for r in chains.accept_rates)


def test_huge_rwm_step_rejects_everything(words3, model):
    cfg = SamplerConfig(n_chains=2, n_draws=500, n_warmup=50, seed=0, rwm_step=1e6)
    chains = sample_rwm(model, words3, cfg)
    assert all(r < 0.01 for r in chains.accept_rates)


def test_tiny_step_conserves_energy():
    log_prob, grad, _ = conjugate_target()
    cfg = SamplerConfig(
        n_chains=2, n_draws=400, n_warmup=0, seed=5, hmc_step=1e-6, hmc_leapfrog=2
    )
    chains = hmc_chains(log_prob, grad, cfg, init=std_normal_init, param_names=("mu",))
    assert all(r > 0.999 for r in chains.accept_rates)


def test_initialization_error():
    cfg = SamplerConfig(n_chains=1, n_draws=10, n_warmup=0, seed=0)
    with pytest.raises(InitializationError):
        rwm_chains(lambda z: -math.inf, cfg, init=std_normal_init, param_names=("mu",))


@pytest.mark.parametrize("kernel", ["rwm", "hmc"])
def test_conjugate_recovery(kernel):
    log_prob, grad, analytic = conjugate_target()
    cfg = SamplerConfig(n_chains=4, n_draws=1500, n_warmup=500, seed=11, rwm_step=0.5)
    if kernel == "rwm":
        chains = rwm_chains(log_prob, cfg, init=std_normal_init, param_names=("mu",))
    else:
        chains = hmc_chains(log_prob, grad, cfg, init=std_normal_init, param_names=("mu",))
    pooled = chains.pooled("mu")
    mcse = pooled.std(ddof=1) / math.sqrt(ess(chains, "mu"))
    assert abs(pooled.mean() - analytic.mean) < 3 * mcse
    assert pooled.var(ddof=1) == pytest.approx(analytic.variance, rel=0.15)


def test_hmc_acceptance_in_band_on_conjugate_target():
    log_prob, grad, _ = conjugate_target()
    cfg = SamplerConfig(n_chains=4, n_draws=1000, n_warmup=500, seed=2)
    chains = hmc_chains(log_prob, grad, cfg, init=std_normal_init, param_names=("mu",))
    for rate in chains.accept_rates:
        assert 0.6 <= rate <= 0.95


def test_hmc_ess_dominates_rwm(words3, model):
    hmc_scores, rwm_scores = [], []
    # seeds spaced beyond n_chains: seed XOR chain-index reuses streams
    # between seeds that differ only in their low bits
    for seed in (0, 8, 16, 24, 32):
        cfg = SamplerConfig(n_chains=2, n_draws=500, n_warmup=300, seed=seed)
        h = sample_hmc(model, words3, cfg)
        r = sample_rwm(model, words3, cfg)
        hmc_scores.append(min(ess(h, p) for p in h.param_names))
        rwm_scores.append(min(ess(r, p) for p in r.param_names))
    assert np.median(hmc_scores) > np.median(rwm_scores)


def test_full_default_budget_yields_16000_draws(chains16k):
    assert chains16k.total_draws == 16_000
    assert chains16k.draws.shape == (4, 4000, 3)
    assert not chains16k.divergence_warning


def test_hmc_means_match_quadrature_oracle(words3, chains16k):
    """Posterior means vs dense midpoint-rule integration of the same density.

    The oracle writes the unnormalized posterior out by hand (standard-normal
    slope prior, half-normal intercept/noise priors, Normal likelihood), so it
    shares no code with the density module or the sampler.
    """
    x, y = words3.x, words3.y
    grids = (
        np.linspace(-0.01, 0.06, 160),
        np.linspace(1e-9, 6.0, 160),
        np.linspace(1e-9, 6.0, 160),
    )
    a, b, sigma = np.meshgrid(*grids, indexing="ij")
    log_post = -0.5 * a**2 - 0.5 * b**2 - 0.5 * sigma**2
    for xi, yi in zip(x, y):
        r = yi - (a * xi + b)
        log_post += -np.log(sigma) - r * r / (2 * sigma * sigma)
    weights = np.exp(log_post - log_post.max())
    total = weights.sum()
    expected = {
        "a": float((weights * a).sum() / total),
        "b": float((weights * b).sum() / total),
        "sigma": float((weights * sigma).sum() / total),
    }
    for name, target in expected.items():
        pooled = chains16k.pooled(name)
        mcse = pooled.std(ddof=1) / math.sqrt(ess(chains16k, name))
        assert abs(float(pooled.mean()) - target) < 3 * mcse, name


# ---------------------------------------------------------------------------
# The ndarray kernels the plain-float hot loop replaced, kept verbatim as the
# reference that every draw, acceptance rate and divergence count must match.


def _ref_find_start(log_prob, init, rng):
    for _ in range(sampler.MAX_INIT_RETRIES):
        z = np.asarray(init(rng), dtype=float)
        lp = log_prob(z)
        if math.isfinite(lp):
            return z, lp
    raise InitializationError("no start")


def _ref_rwm_chain(log_prob, cfg, dim, init, constrain, stream):
    rng = np.random.default_rng(stream)
    z, lp = _ref_find_start(log_prob, init, rng)
    out = np.empty((cfg.n_draws, dim))
    accepted = 0
    total = cfg.n_warmup + cfg.n_draws
    for it in range(total):
        prop = z + cfg.rwm_step * rng.standard_normal(dim)
        lp_prop = sampler._finite(log_prob(prop))
        took = False
        if lp_prop > -math.inf:
            u = rng.random()
            log_u = math.log(u) if u > 0.0 else -math.inf
            if log_u < lp_prop - lp:
                z, lp = prop, lp_prop
                took = True
        if it >= cfg.n_warmup:
            out[it - cfg.n_warmup] = constrain(z)
            accepted += took
    return out, accepted / cfg.n_draws, 0


def _ref_all_finite(v):
    for x in v:
        if not math.isfinite(x):
            return False
    return True


def _ref_leapfrog(z, p, eps, n_steps, grad):
    g = grad(z)
    if not _ref_all_finite(g):
        return None
    p = p + 0.5 * eps * g
    for step in range(n_steps):
        z = z + eps * p
        g = grad(z)
        if not _ref_all_finite(g):
            return None
        # full momentum step between position updates, half step at the end
        p = p + (eps if step < n_steps - 1 else 0.5 * eps) * g
    return z, p


def _ref_kinetic(p):
    total = 0.0
    for v in p:
        fv = float(v)
        total += fv * fv
    return 0.5 * total


def _ref_hmc_chain(log_prob, grad, cfg, dim, init, constrain, stream):
    rng = np.random.default_rng(stream)
    z, lp = _ref_find_start(log_prob, init, rng)
    eps = cfg.hmc_step
    adapt = sampler._DualAveraging(eps, cfg.target_accept)
    restart_at = cfg.n_warmup // 2
    out = np.empty((cfg.n_draws, dim))
    accepted = 0
    divergences = 0
    total = cfg.n_warmup + cfg.n_draws
    for it in range(total):
        p0 = rng.standard_normal(dim)
        eps_it = eps * (0.9 + 0.2 * rng.random())
        h0 = -lp + _ref_kinetic(p0)
        result = _ref_leapfrog(z, p0, eps_it, cfg.hmc_leapfrog, grad)
        if result is None:
            delta = math.inf
        else:
            z_new, p_new = result
            lp_new = sampler._finite(log_prob(z_new))
            delta = (-lp_new + _ref_kinetic(p_new)) - h0
        diverged = not math.isfinite(delta) or abs(delta) > sampler.DIVERGENCE_DELTA
        alpha = 0.0 if diverged else min(1.0, math.exp(min(-delta, 0.0)))
        took = False
        if not diverged:
            u = rng.random()
            log_u = math.log(u) if u > 0.0 else -math.inf
            if log_u < -delta:
                z, lp = z_new, lp_new
                took = True
        if it < cfg.n_warmup:
            if it == restart_at and it > 0:
                adapt = sampler._DualAveraging(eps, cfg.target_accept)
            eps = adapt.update(alpha)
            if it == cfg.n_warmup - 1:
                eps = adapt.frozen()
        else:
            out[it - cfg.n_warmup] = constrain(z)
            accepted += took
            divergences += diverged
    return out, accepted / cfg.n_draws, divergences


def _regression_target(spec, data):
    """The reference chains' target: the verbatim pre-kernel density functions,
    ndarray in and out; the run under test is the public sampler."""
    reference = (
        lambda z: reference_density.log_posterior_unconstrained(z, spec, data),
        lambda z: reference_density.grad_log_posterior_unconstrained(z, spec, data),
        3,
        sampler._prior_init(spec),
        lambda z: np.asarray(reference_density.inverse_transform(z), dtype=float),
    )
    runs = {"hmc": sample_hmc, "rwm": sample_rwm}
    return reference, lambda kind, cfg: runs[kind](spec, data, cfg)


def _counts_like_dataset(m=64):
    """m deterministic Zipf-like points: x = 1e6 / rank, y saturating at 2000."""
    points = []
    for rank in range(1, m + 1):
        x = float(round(1e6 / rank))
        y = float(round(2000.0 * (1.0 - math.exp(-x / 8000.0))))
        points.append(DataPoint(f"w{rank}", x, y))
    return Dataset(tuple(points))


def _target(name, words3, model):
    if name == "words3":
        return _regression_target(model, words3)
    if name == "counts64":
        return _regression_target(model, _counts_like_dataset())
    if name == "halfnormal_slope":
        spec = replace(model, slope_prior=DistributionSpec.half_normal(1.0))
        return _regression_target(spec, words3)
    if name == "normal_intercept":
        spec = replace(model, intercept_prior=DistributionSpec.normal(2.0, 3.0))
        return _regression_target(spec, words3)
    log_prob, grad, _ = conjugate_target()

    def run(kind, cfg):
        if kind == "rwm":
            return rwm_chains(log_prob, cfg, init=std_normal_init, param_names=("mu",))
        return hmc_chains(log_prob, grad, cfg, init=std_normal_init, param_names=("mu",))

    return (log_prob, grad, 1, std_normal_init, lambda z: z), run


EXACT_CFG = SamplerConfig(n_chains=3, n_draws=300, n_warmup=200, seed=9)
TARGETS = ["words3", "counts64", "conjugate", "halfnormal_slope", "normal_intercept"]


@pytest.mark.parametrize("target", TARGETS)
def test_hmc_chain_matches_ndarray_reference_exactly(target, words3, model):
    (log_prob, grad, dim, init, constrain), run = _target(target, words3, model)
    overflowed = 0

    def counted_grad(z):
        nonlocal overflowed
        g = grad(z)
        overflowed += not np.all(np.isfinite(g))
        return g

    new = run("hmc", EXACT_CFG)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(EXACT_CFG.n_chains):
            stream = sampler._stream_id(EXACT_CFG.seed, k)
            ref = _ref_hmc_chain(log_prob, counted_grad, EXACT_CFG, dim, init, constrain, stream)
            assert np.array_equal(new.draws[k], ref[0])
            assert new.accept_rates[k] == ref[1]
            assert new.divergences[k] == ref[2]
    if target == "counts64":
        # warmup's long steps overflow the gradient at x ~ 1e6: those
        # trajectories are divergences that steer the step-size adaptation
        assert overflowed > 0


@pytest.mark.parametrize("target", TARGETS)
def test_rwm_chain_matches_ndarray_reference_exactly(target, words3, model):
    (log_prob, _, dim, init, constrain), run = _target(target, words3, model)
    rejected_outright = 0

    def counted_log_prob(z):
        nonlocal rejected_outright
        lp = log_prob(z)
        rejected_outright += lp == -math.inf
        return lp

    # the long step sends z_b or z_sigma past exp's range, so some proposals
    # have no density at all and draw no uniform
    for cfg in (EXACT_CFG, replace(EXACT_CFG, rwm_step=400.0)):
        new = run("rwm", cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(cfg.n_chains):
                stream = sampler._stream_id(cfg.seed, k)
                ref = _ref_rwm_chain(counted_log_prob, cfg, dim, init, constrain, stream)
                assert np.array_equal(new.draws[k], ref[0])
                assert new.accept_rates[k] == ref[1]
    if target != "conjugate":
        assert rejected_outright > 0


@pytest.mark.parametrize(
    "g",
    [
        [3.0, -2.0, 0.5],
        [1e308, 1e308, -1e308],  # each entry finite, though their sum is not
        [1.0, math.inf, 0.0],
        [0.0, 1.0, math.nan],
    ],
)
def test_leapfrog_matches_ndarray_reference_on_extreme_gradients(g):
    def grad(z):
        return np.array(g) * (1.0 + abs(float(z[0])))

    z, p = [0.1, -0.2, 0.3], [0.5, 1.5, -1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        new = sampler._leapfrog(z, p, grad(z).tolist(), 0.3, 4, lambda z: grad(z).tolist())
        ref = _ref_leapfrog(np.array(z), np.array(p), 0.3, 4, grad)
    if ref is None:
        assert new is None
    else:
        assert np.array_equal(new[0], ref[0], equal_nan=True)
        assert np.array_equal(new[1], ref[1], equal_nan=True)
        # the gradient at the end point comes back for the next trajectory
        assert np.array_equal(new[2], grad(ref[0]), equal_nan=True)


def test_hmc_reuses_the_gradient_at_the_current_state():
    """A trajectory of L steps calls the gradient L times: the gradient at its
    start comes from the start point or the last accepted trajectory."""
    log_prob, grad, _ = conjugate_target()
    calls = 0

    def counted_grad(z):
        nonlocal calls
        calls += 1
        return grad(z)

    cfg = SamplerConfig(n_chains=1, n_draws=300, n_warmup=200, seed=4, hmc_leapfrog=7)
    chains = hmc_chains(log_prob, counted_grad, cfg, init=std_normal_init, param_names=("mu",))
    assert 0.0 < chains.accept_rates[0] < 1.0
    assert calls == (cfg.n_warmup + cfg.n_draws) * cfg.hmc_leapfrog + 1


def test_sample_hmc_evaluates_grad_only_at_chain_starts(words3, model, monkeypatch):
    """The regression target's trajectory computes its gradients inline, so
    ``grad`` runs once per chain start and ``trajectory`` once per iteration."""
    calls = {"grad": 0, "trajectory": 0}
    kernels = sampler.density.posterior_kernels

    def counted_kernels(spec, data):
        logp, grad, trajectory = kernels(spec, data)

        def counted_grad(z):
            calls["grad"] += 1
            return grad(z)

        def counted_trajectory(*args):
            calls["trajectory"] += 1
            return trajectory(*args)

        return logp, counted_grad, counted_trajectory

    cfg = SamplerConfig(n_chains=3, n_draws=200, n_warmup=100, seed=6)
    plain = sample_hmc(model, words3, cfg)
    monkeypatch.setattr(sampler.density, "posterior_kernels", counted_kernels)
    counted = sample_hmc(model, words3, cfg)
    assert np.array_equal(counted.draws, plain.draws)
    n_iter = cfg.n_warmup + cfg.n_draws
    assert calls == {"grad": cfg.n_chains, "trajectory": cfg.n_chains * n_iter}
