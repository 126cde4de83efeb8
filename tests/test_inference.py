import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesline import density, inference
from bayesline.corpus import DataPoint, Dataset
from bayesline.density import LOG_TWO_PI
from bayesline.inference import (
    BayesFactorOverflowError,
    ConjugateNormalState,
    DegenerateEvidenceError,
    DiagnosticError,
    EvidenceEstimate,
    bayes_factor,
    conjugate_posterior,
    conjugate_update,
    draw_line_ensemble,
    ess,
    estimate_evidence,
    evidence_mc,
    posterior_predictive,
    sequential_update,
    split_rhat,
    summarize,
)
from bayesline.sampler import Chains
from exact_oracle import ExactSums


def make_iid_chains(n_chains=4, n_draws=4000, loc=0.0, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    draws = rng.normal(loc, scale, (n_chains, n_draws, 1))
    return Chains(draws=draws, param_names=("x",))


def constant_chains(value=2.5, n_chains=2, n_draws=16, n_params=3):
    draws = np.full((n_chains, n_draws, n_params), value)
    return Chains(draws=draws, param_names=("a", "b", "sigma")[:n_params])


# ---------------------------------------------------------------------------
# diagnostics


def test_rhat_iid_chains_near_one():
    chains = make_iid_chains(n_chains=4, n_draws=4000, seed=1)
    assert 0.99 <= split_rhat(chains, "x") <= 1.01


def test_rhat_displaced_chains():
    rng = np.random.default_rng(2)
    draws = np.stack([rng.normal(0, 1, (1000, 1)), rng.normal(10, 1, (1000, 1))])
    chains = Chains(draws=draws, param_names=("x",))
    assert split_rhat(chains, "x") > 3


def test_rhat_constant_chains_undefined():
    with pytest.raises(DiagnosticError):
        split_rhat(constant_chains(), "a")


def test_rhat_needs_four_draws():
    with pytest.raises(ValueError):
        split_rhat(make_iid_chains(n_draws=3), "x")


def test_rhat_handles_odd_length_chains():
    chains = make_iid_chains(n_chains=4, n_draws=4001, seed=6)
    assert 0.99 <= split_rhat(chains, "x") <= 1.01


def test_ess_iid_chains():
    chains = make_iid_chains(n_chains=4, n_draws=4000, seed=3)
    n = chains.total_draws
    assert 0.8 * n <= ess(chains, "x") <= 1.2 * n


def test_ess_ar1_chain():
    rng = np.random.default_rng(4)
    rho, n_draws, n_chains = 0.9, 4000, 4
    innovation_sd = math.sqrt(1 - rho * rho)
    chains_data = np.empty((n_chains, n_draws, 1))
    for c in range(n_chains):
        x = rng.normal(0, 1)
        for t in range(n_draws):
            x = rho * x + innovation_sd * rng.normal()
            chains_data[c, t, 0] = x
    chains = Chains(draws=chains_data, param_names=("x",))
    analytic = n_chains * n_draws * (1 - rho) / (1 + rho)
    assert ess(chains, "x") == pytest.approx(analytic, rel=0.3)


def test_ess_antithetic_chain_superefficient():
    n = 2000
    alternating = np.tile(np.array([1.0, -1.0]), n // 2).reshape(1, n, 1)
    chains = Chains(draws=np.vstack([alternating, alternating]), param_names=("x",))
    assert ess(chains, "x") >= chains.total_draws


def test_ess_constant_chains_undefined():
    with pytest.raises(DiagnosticError):
        ess(constant_chains(), "a")


# ---------------------------------------------------------------------------
# summaries, ensembles, predictive draws


def test_summary_constant_chains():
    summary = summarize(constant_chains(value=2.5))
    s = summary.params["a"]
    assert s.mean == 2.5 and s.sd == 0.0
    assert s.q2_5 == s.median == s.q97_5 == 2.5
    assert s.rhat is None and s.ess is None


def test_summary_median_interpolation():
    draws = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1)
    summary = summarize(Chains(draws=draws, param_names=("a",)))
    assert summary.params["a"].median == 2.5


def test_summary_ess_capped_at_total_draws():
    n = 2000
    alternating = np.tile(np.array([1.0, -1.0]), n // 2).reshape(1, n, 1)
    chains = Chains(draws=np.vstack([alternating, alternating]), param_names=("a",))
    assert summarize(chains).params["a"].ess == chains.total_draws


def test_line_ensemble_thinning_stride(chains16k):
    ensemble = draw_line_ensemble(chains16k, 500)
    assert len(ensemble.lines) == 500
    pooled_a = chains16k.pooled("a")
    pooled_b = chains16k.pooled("b")
    for i, (slope, intercept) in enumerate(ensemble.lines):
        assert slope == pooled_a[i * 32]
        assert intercept == pooled_b[i * 32]


def test_line_ensemble_identity_when_n_equals_total(chains16k):
    ensemble = draw_line_ensemble(chains16k, chains16k.total_draws)
    assert np.array_equal([l[0] for l in ensemble.lines], chains16k.pooled("a"))


def test_line_ensemble_errors(chains16k):
    with pytest.raises(ValueError, match=">= 1"):
        draw_line_ensemble(chains16k, 0)
    with pytest.raises(ValueError):
        draw_line_ensemble(chains16k, chains16k.total_draws + 1)


def test_ensemble_mean_matches_summary_mean(chains16k):
    ensemble = draw_line_ensemble(chains16k, chains16k.total_draws)
    slopes = np.array([l[0] for l in ensemble.lines])
    assert slopes.mean() == summarize(chains16k).params["a"].mean


def test_posterior_predictive_degenerate_noise():
    draws = np.tile(np.array([2.0, 1.0, 1e-12]), (1, 40, 1)).reshape(1, 40, 3)
    chains = Chains(draws=draws, param_names=("a", "b", "sigma"))
    values = posterior_predictive(chains, x=3.0, n=40, seed=0)
    assert all(v == pytest.approx(7.0, abs=1e-9) for v in values)


def test_posterior_predictive_mean(chains16k):
    n = 2000
    values = np.array(posterior_predictive(chains16k, x=200.0, n=n, seed=5))
    idx = np.arange(n) * (chains16k.total_draws // n)
    line_means = chains16k.pooled("a")[idx] * 200.0 + chains16k.pooled("b")[idx]
    sigma = chains16k.pooled("sigma")[idx]
    total_sd = math.sqrt(float(np.var(line_means) + np.mean(sigma**2)))
    assert values.mean() == pytest.approx(line_means.mean(), abs=3 * total_sd / math.sqrt(n))


def test_posterior_predictive_deterministic(chains16k):
    first = posterior_predictive(chains16k, 100.0, 64, seed=9)
    second = posterior_predictive(chains16k, 100.0, 64, seed=9)
    assert first == second


# ---------------------------------------------------------------------------
# evidence


def conjugate_evidence_parts(y=2.0):
    def log_lik(theta):
        mu = theta[:, 0]
        return -0.5 * math.log(2 * math.pi) - 0.5 * (y - mu) ** 2

    def sample_prior(rng, n):
        return rng.normal(0.0, 1.0, (n, 1))

    analytic = -0.5 * math.log(2 * math.pi * 2.0) - y * y / 4.0
    return log_lik, sample_prior, analytic


def test_evidence_conjugate_analytic():
    log_lik, sample_prior, analytic = conjugate_evidence_parts()
    assert analytic == pytest.approx(-2.2655, abs=5e-5)
    estimate = evidence_mc(log_lik, sample_prior, 100_000, seed=0)
    assert abs(estimate.log_evidence - analytic) < 3 * estimate.mc_standard_error


def test_evidence_error_scaling():
    log_lik, sample_prior, _ = conjugate_evidence_parts()
    small = np.mean(
        [evidence_mc(log_lik, sample_prior, 20_000, seed=i).mc_standard_error for i in range(10)]
    )
    large = np.mean(
        [
            evidence_mc(log_lik, sample_prior, 40_000, seed=100 + i).mc_standard_error
            for i in range(10)
        ]
    )
    assert large / small == pytest.approx(1 / math.sqrt(2), rel=0.2)


def test_evidence_degenerate():
    def log_lik(theta):
        return np.full(theta.shape[0], -math.inf)

    with pytest.raises(DegenerateEvidenceError):
        evidence_mc(log_lik, lambda rng, n: rng.normal(0, 1, (n, 1)), 1000, seed=0)


def test_evidence_requires_samples():
    log_lik, sample_prior, _ = conjugate_evidence_parts()
    with pytest.raises(ValueError):
        evidence_mc(log_lik, sample_prior, 99, seed=0)


def test_evidence_effective_samples_is_the_kish_ess_of_the_weights():
    def sample(rng, n):
        return rng.normal(0, 1, (n, 1))

    def estimate(log_lik):
        return evidence_mc(log_lik, sample, 1000, seed=0).effective_samples

    assert estimate(lambda t: np.zeros(t.shape[0])) == 1000.0
    assert estimate(lambda t: np.where(np.arange(t.shape[0]) < 250, 0.0, -1e4)) == 250.0
    # weights 1 and 1/2, half each: (500 + 250)² / (500 + 125)
    halves = estimate(lambda t: np.where(np.arange(t.shape[0]) % 2, 0.0, math.log(0.5)))
    assert halves == pytest.approx(900.0, rel=1e-12)
    # one draw holds all the weight
    assert estimate(lambda t: np.where(np.arange(t.shape[0]) == 3, 0.0, -1e4)) == 1.0


def test_model_evidence_prefers_matching_model(words3, model):
    estimate = estimate_evidence(model, words3, 50_000, seed=1)
    assert math.isfinite(estimate.log_evidence)
    assert estimate.n_prior_samples == 50_000


def _full_matrix_log_lik(theta, x, y):
    """The (n_samples x M) residual-matrix expression estimate_evidence used to evaluate."""
    m = x.size
    a = theta[:, 0:1]
    b = theta[:, 1:2]
    sigma = theta[:, 2:3]
    resid = y[None, :] - (a * x[None, :] + b)
    return (
        -0.5 * m * LOG_TWO_PI
        - m * np.log(sigma[:, 0])
        - (resid ** 2).sum(axis=1) / (2.0 * sigma[:, 0] ** 2)
    )


@pytest.mark.parametrize("m, n_samples", [(1, 70_001), (3, 50_000), (1000, 1_000), (70_000, 101)])
def test_evidence_blocks_match_full_matrix_exactly(m, n_samples, model, monkeypatch):
    """The evidence's log-likelihood vector, and the full residual matrix it
    replaced, both lie within rel 1e-12 of the exact values on a fixed
    subsample of prior draws."""
    rng = np.random.default_rng(m)
    x = 10.0 ** rng.uniform(0, 7, m)
    y = np.floor(x * 10.0 ** rng.uniform(-3, 0, m))
    data = Dataset(tuple(DataPoint(f"w{i}", float(xi), float(yi)) for i, (xi, yi) in enumerate(zip(x, y))))
    seen = {}

    def spy(log_lik, sample_prior, n, seed):
        seen["theta"] = sample_prior(np.random.default_rng(seed), n)
        seen["log_lik"] = log_lik(seen["theta"])
        return evidence_mc(log_lik, sample_prior, n, seed)

    monkeypatch.setattr(inference, "evidence_mc", spy)
    estimate = estimate_evidence(model, data, n_samples, seed=5)
    rows = np.linspace(0, n_samples - 1, 25).astype(int)
    theta = seen["theta"][rows]
    reference = _full_matrix_log_lik(theta, data.x, data.y)
    exact = ExactSums(data)
    for (a, b, sigma), value, ref in zip(theta.tolist(), seen["log_lik"][rows], reference):
        truth, _ = exact.log_likelihood(a, b, sigma)
        for v in (value, ref):
            assert abs(Fraction(float(v)) - truth) <= Fraction(1e-12) * abs(truth)
    expected = evidence_mc(
        lambda theta: density.gaussian_log_likelihood(
            data.stats, theta[:, 0], theta[:, 1], theta[:, 2], np.log(theta[:, 2])
        ),
        lambda g, n: density.sample_prior(model, g, n),
        n_samples,
        seed=5,
    )
    assert estimate == expected


def test_bayes_factor_overflow_is_a_value_error():
    big = EvidenceEstimate(-10.0, 0.1, 100)
    tiny = EvidenceEstimate(-1000.0, 0.1, 100)
    with pytest.raises(BayesFactorOverflowError, match="990.0"):
        bayes_factor(big, tiny)
    assert issubclass(BayesFactorOverflowError, ValueError)
    assert bayes_factor(tiny, big) == 0.0


def test_bayes_factor_identities():
    e1 = EvidenceEstimate(-1.0, 0.01, 1000)
    e2 = EvidenceEstimate(-2.0, 0.01, 1000)
    assert bayes_factor(e1, e1) == 1.0
    assert bayes_factor(e1, e2) == pytest.approx(math.e, rel=1e-12)
    log_ab = e1.log_evidence - e2.log_evidence
    log_ba = e2.log_evidence - e1.log_evidence
    assert log_ab + log_ba == 0.0
    with pytest.raises(ValueError):
        bayes_factor(EvidenceEstimate(-math.inf, 0.0, 100), e2)


# ---------------------------------------------------------------------------
# conjugate updating


def test_conjugate_update_unit_case():
    post = conjugate_update(ConjugateNormalState(0.0, 1.0), 2.0, 1.0)
    assert post.mean == pytest.approx(1.0, abs=1e-15)
    assert post.variance == pytest.approx(0.5, abs=1e-15)


def test_conjugate_update_uninformative_observation():
    post = conjugate_update(ConjugateNormalState(0.3, 2.0), 100.0, 1e9)
    assert abs(post.mean - 0.3) < 1e-8
    assert post.variance == pytest.approx(2.0, rel=1e-8)


def test_conjugate_update_dogmatic_prior():
    post = conjugate_update(ConjugateNormalState(0.7, 1e-12), 100.0, 1.0)
    assert post.mean == pytest.approx(0.7, abs=1e-9)


def test_conjugate_update_rejects_bad_sd():
    with pytest.raises(ValueError):
        conjugate_update(ConjugateNormalState(0, 1), 1.0, 0.0)


def test_conjugate_rejects_obs_sd_whose_square_underflows():
    prior = ConjugateNormalState(0.0, 1.0)
    with pytest.raises(ValueError, match="obs_sd"):
        conjugate_update(prior, 1.0, 1e-300)
    with pytest.raises(ValueError, match="obs_sd"):
        conjugate_posterior(prior, [1.0], 1e-300)


def test_sequential_empty_is_identity():
    prior = ConjugateNormalState(0.4, 1.7)
    assert sequential_update(prior, [], 1.0) == prior


def test_sequential_matches_batch_two_observations():
    prior = ConjugateNormalState(0.0, 1.0)
    seq = sequential_update(prior, [1.0, 3.0], 2.0)
    batch = conjugate_posterior(prior, [1.0, 3.0], 2.0)
    assert seq.mean == pytest.approx(batch.mean, abs=1e-12)
    assert seq.variance == pytest.approx(batch.variance, abs=1e-12)


@given(
    prior_mean=st.floats(-100, 100, allow_nan=False),
    prior_var=st.floats(1e-6, 1e4, allow_nan=False),
    obs_sd=st.floats(1e-3, 1e3, allow_nan=False),
    ys=st.lists(st.floats(-100, 100, allow_nan=False), max_size=12),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_sequential_equals_batch_and_is_exchangeable(prior_mean, prior_var, obs_sd, ys, data):
    prior = ConjugateNormalState(prior_mean, prior_var)
    seq = sequential_update(prior, ys, obs_sd)
    batch = conjugate_posterior(prior, ys, obs_sd)
    assert seq.mean == pytest.approx(batch.mean, abs=1e-12, rel=1e-12)
    assert seq.variance == pytest.approx(batch.variance, abs=1e-12, rel=1e-12)
    perm = data.draw(st.permutations(ys))
    shuffled = sequential_update(prior, perm, obs_sd)
    assert shuffled.mean == pytest.approx(seq.mean, abs=1e-12, rel=1e-12)
    assert shuffled.variance == pytest.approx(seq.variance, abs=1e-12, rel=1e-12)
