"""End-to-end acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and prints a single PASS line on
success, so `pytest tests/test_acceptance.py -v` doubles as a checklist.
Criterion 4 needs the full ten-word dataset, which is not bundled; point
BAYESLINE_REFERENCE_TSV at a TSV copy (or drop it at
tests/data/reference_words.tsv) to enable it.
"""

import json
import math
import os
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from bayesline.cli import run
from bayesline.corpus import format_dataset_tsv, load_dataset_tsv
from bayesline.density import grad_log_posterior_unconstrained, log_posterior_unconstrained
from bayesline.export import PlotSpec, render_scatter_svg
from bayesline.inference import (
    ConjugateNormalState,
    conjugate_posterior,
    draw_line_ensemble,
    ess,
    evidence_mc,
    sequential_update,
    split_rhat,
)
from bayesline.modelspec import (
    DistributionSpec,
    DuplicateParameterError,
    LikelihoodError,
    MissingParameterError,
    ModelSpec,
    ModelSpecError,
    NoisePriorError,
    NonPositiveScaleError,
    SpecSyntaxError,
    UnknownDistributionError,
    format_model_spec,
    parse_model_spec,
)
from bayesline.ols import lse, ols_fit
from bayesline.sampler import Chains, SamplerConfig, hmc_chains, rwm_chains, sample_hmc


def report(tag: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared conjugate harness at the default budget


@pytest.fixture(scope="module")
def conjugate_runs():
    rng = np.random.default_rng(123)
    ys = rng.normal(0.8, 1.0, 5)
    s_y, n = float(ys.sum()), len(ys)

    def log_prob(z):
        mu = float(z[0])
        return -0.5 * mu * mu - 0.5 * float(((ys - mu) ** 2).sum())

    def grad(z):
        mu = float(z[0])
        return np.array([-mu + (s_y - n * mu)])

    def init(r):
        return r.normal(0.0, 1.0, 1)

    analytic = sequential_update(ConjugateNormalState(0.0, 1.0), ys, 1.0)
    cfg = SamplerConfig(n_chains=4, n_draws=4000, n_warmup=1000, seed=17)
    t0 = time.monotonic()
    hmc = hmc_chains(log_prob, grad, cfg, init=init, param_names=("mu",))
    rwm = rwm_chains(log_prob, cfg, init=init, param_names=("mu",))
    elapsed = time.monotonic() - t0
    return {"analytic": analytic, "hmc": hmc, "rwm": rwm, "seconds": elapsed}


def test_criterion_1_conjugate_oracle(conjugate_runs):
    analytic = conjugate_runs["analytic"]
    for name in ("hmc", "rwm"):
        chains = conjugate_runs[name]
        pooled = chains.pooled("mu")
        mcse = pooled.std(ddof=1) / math.sqrt(ess(chains, "mu"))
        mean_err = abs(float(pooled.mean()) - analytic.mean)
        assert mean_err < 3 * mcse, f"{name}: mean error {mean_err} vs 3*mcse {3 * mcse}"
        var_rel = abs(float(pooled.var(ddof=1)) - analytic.variance) / analytic.variance
        assert var_rel < 0.15, f"{name}: variance off by {var_rel:.1%}"
    assert conjugate_runs["seconds"] < 10.0
    report(
        "1 conjugate-oracle",
        f"(both samplers, 4x4000 in {conjugate_runs['seconds']:.1f}s)",
    )


def test_criterion_2_gradient_correctness(words3, model):
    h = 1e-5
    rng = np.random.default_rng(99)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        z = rng.normal(0.0, 1.0, 3)
        analytic = grad_log_posterior_unconstrained(z, model, words3)
        fd = np.empty(3)
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (
                log_posterior_unconstrained(zp, model, words3)
                - log_posterior_unconstrained(zm, model, words3)
            ) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-6, f"max relative gradient error {worst}"
    assert elapsed < 1.0
    report("2 gradient-vs-finite-differences", f"(max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_ols_oracles(words3):
    from bayesline.corpus import DataPoint, Dataset

    exact = ols_fit(Dataset((DataPoint("p0", 0, 1), DataPoint("p1", 1, 3), DataPoint("p2", 2, 5))))
    assert (exact.slope, exact.intercept, exact.lse) == (2.0, 1.0, 0.0)

    # independent oracle: coarse grid search confirming the basin, refined by
    # a linear-algebra solve on the raw normal equations
    grid_best, grid_args = math.inf, None
    for a in np.linspace(-0.05, 0.05, 101):
        for b in np.linspace(0.0, 10.0, 101):
            value = lse(words3, float(a), float(b))
            if value < grid_best:
                grid_best, grid_args = value, (float(a), float(b))
    design = np.column_stack([words3.x, np.ones(words3.size)])
    solved, *_ = np.linalg.lstsq(design, words3.y, rcond=None)
    assert abs(grid_args[0] - solved[0]) < 1e-3 and abs(grid_args[1] - solved[1]) < 0.1
    fit = ols_fit(words3)
    assert fit.slope == pytest.approx(float(solved[0]), abs=1e-10)
    assert fit.intercept == pytest.approx(float(solved[1]), abs=1e-10)
    report("3 ols-oracles", f"(slope {fit.slope:.7f}, intercept {fit.intercept:.4f})")


REFERENCE_TSV = os.environ.get(
    "BAYESLINE_REFERENCE_TSV", str(Path(__file__).parent / "data" / "reference_words.tsv")
)


def test_criterion_4_reference_dataset_reproduction(tmp_path):
    path = Path(REFERENCE_TSV)
    if not path.exists():
        pytest.skip(
            "full ten-word dataset not available (only 3 of its 10 points are "
            f"published); set BAYESLINE_REFERENCE_TSV or add {path} to enable"
        )
    assert load_dataset_tsv(path).size == 10
    out = tmp_path / "ref"
    # the documented no-flag invocations are the reproduction commands
    assert run(["fit-bayes", str(path), "--out", str(out)]) == 0
    assert run(["fit-ols", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["parameters"]
    assert summary["a"]["mean"] == pytest.approx(0.030, abs=0.01)
    assert summary["b"]["mean"] == pytest.approx(1.065, abs=0.05)
    fit = json.loads((out / "ols.json").read_text())
    published = [(0.016, 4.206), (0.018, 3.979)]
    assert any(
        abs(fit["slope"] - a) <= 0.001 and abs(fit["intercept"] - b) <= 0.05
        for a, b in published
    ), f"OLS ({fit['slope']:.4f}, {fit['intercept']:.3f}) matches neither published pair"
    report("4 reference-dataset-reproduction")


def test_criterion_5_diagnostics(conjugate_runs):
    chains = conjugate_runs["hmc"]
    rhat = split_rhat(chains, "mu")
    effective = ess(chains, "mu")
    assert rhat < 1.01, f"rhat {rhat}"
    assert effective > 400, f"ess {effective}"

    rng = np.random.default_rng(8)
    displaced = Chains(
        draws=np.stack([rng.normal(0, 1, (1000, 1)), rng.normal(10, 1, (1000, 1))]),
        param_names=("x",),
    )
    displaced_rhat = split_rhat(displaced, "x")
    assert displaced_rhat > 3
    report("5 diagnostics", f"(rhat {rhat:.4f}, ess {effective:.0f}, displaced rhat {displaced_rhat:.1f})")


def test_criterion_6_batch_sequential_exactness():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        prior = ConjugateNormalState(float(rng.normal(0, 10)), float(rng.uniform(1e-4, 50)))
        obs_sd = float(rng.uniform(1e-2, 20))
        ys = rng.normal(0, 5, rng.integers(0, 12)).tolist()
        seq = sequential_update(prior, ys, obs_sd)
        batch = conjugate_posterior(prior, ys, obs_sd)
        assert math.isclose(seq.mean, batch.mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(seq.variance, batch.variance, rel_tol=1e-12, abs_tol=1e-12)
        shuffled = list(ys)
        rng.shuffle(shuffled)
        perm = sequential_update(prior, shuffled, obs_sd)
        assert math.isclose(perm.mean, seq.mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(perm.variance, seq.variance, rel_tol=1e-12, abs_tol=1e-12)
    report("6 batch-sequential-exactness", "(1000 randomized cases)")


def test_criterion_7_evidence_coverage():
    y = 2.0
    analytic = -0.5 * math.log(2 * math.pi * 2.0) - y * y / 4.0

    def log_lik(theta):
        return -0.5 * math.log(2 * math.pi) - 0.5 * (y - theta[:, 0]) ** 2

    def sample_prior(rng, n):
        return rng.normal(0.0, 1.0, (n, 1))

    t0 = time.monotonic()
    hits = 0
    for rep in range(40):
        e = evidence_mc(log_lik, sample_prior, 100_000, seed=1000 + rep)
        hits += abs(e.log_evidence - analytic) < 3 * e.mc_standard_error
    elapsed = time.monotonic() - t0
    assert hits >= 38, f"only {hits}/40 within 3 MC standard errors"  # >= 95%
    assert elapsed < 30.0
    report("7 evidence", f"({hits}/40 within 3 mcse, {elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path, words3, model):
    tsv = tmp_path / "words.tsv"
    tsv.write_text(format_dataset_tsv(words3))
    out = tmp_path / "out"
    argv = [
        "fit-bayes", str(tsv), "--out", str(out), "--seed", "1",
        "--chains", "2", "--draws", "250", "--warmup", "150", "--ensemble", "100",
    ]
    assert run(argv) == 0
    names = ("samples.csv", "summary.json", "figure2a.svg", "figure2b.svg")
    first = {n: (out / n).read_bytes() for n in names}
    assert run(argv) == 0
    second = {n: (out / n).read_bytes() for n in names}
    assert first == second

    # chains are independent streams: chain k of seed s is the lone chain of seed s ^ k
    cfg = SamplerConfig(n_chains=4, n_draws=250, n_warmup=150, seed=5)
    chains = sample_hmc(model, words3, cfg)
    for k in range(cfg.n_chains):
        alone = sample_hmc(model, words3, SamplerConfig(n_chains=1, n_draws=250, n_warmup=150, seed=5 ^ k))
        assert np.array_equal(chains.draws[k], alone.draws[0])
    report("8 determinism", "(byte-identical reruns; chain k == lone chain of seed ^ k)")


def test_criterion_9_figure_fidelity(tmp_path, words3, chains16k):
    svg_ns = "{http://www.w3.org/2000/svg}"
    ensemble_path = tmp_path / "figure2b.svg"
    render_scatter_svg(words3, draw_line_ensemble(chains16k, 500), PlotSpec(), ensemble_path)
    root = ET.fromstring(ensemble_path.read_text())
    assert sum(1 for _ in root.iter(f"{svg_ns}path")) == 500
    assert sum(1 for _ in root.iter(f"{svg_ns}circle")) == words3.size

    single_path = tmp_path / "figure1.svg"
    render_scatter_svg(words3, ols_fit(words3), PlotSpec(), single_path)
    root = ET.fromstring(single_path.read_text())
    assert sum(1 for _ in root.iter(f"{svg_ns}path")) == 1
    assert sum(1 for _ in root.iter(f"{svg_ns}circle")) == words3.size
    report("9 figure-fidelity", "(500-line ensemble and single-line figures)")


CURATED_MALFORMED = [
    ("param a ~ Cauchy(0, 1)", UnknownDistributionError, 1),
    ("param a ~ Normal(0, -1)", NonPositiveScaleError, 1),
    ("param a ~ Normal(0, 1)\nparam b ~ HalfNormal(0)", NonPositiveScaleError, 2),
    (
        "param a ~ Normal(0, 1)\nparam b ~ HalfNormal(1)\nparam sigma ~ Normal(0, 1)",
        NoisePriorError,
        3,
    ),
    ("param a ~ Normal(0, 1)\nparam a ~ Normal(1, 1)", DuplicateParameterError, 2),
    (
        "param a ~ Normal(0, 1)\nparam b ~ HalfNormal(1)\n"
        "likelihood Y ~ Normal(a * X + b, sigma)",
        MissingParameterError,
        4,
    ),
    (
        "param a ~ Normal(0, 1)\nparam b ~ HalfNormal(1)\nparam sigma ~ HalfNormal(1)",
        LikelihoodError,
        4,
    ),
    (
        "param a ~ Normal(0, 1)\nparam b ~ HalfNormal(1)\nparam sigma ~ HalfNormal(1)\n"
        "likelihood Y ~ Normal(a * X, sigma)",
        LikelihoodError,
        4,
    ),
    ("param c ~ Normal(0, 1)", SpecSyntaxError, 1),
    ("param a Normal(0, 1)", SpecSyntaxError, 1),
]


def test_criterion_10_parser(words3):
    rng = np.random.default_rng(31)
    for _ in range(200):
        def rand_dist(allow_normal=True):
            if allow_normal and rng.random() < 0.5:
                return DistributionSpec.normal(
                    float(rng.uniform(-1e6, 1e6)), float(rng.uniform(1e-6, 1e6))
                )
            return DistributionSpec.half_normal(float(rng.uniform(1e-6, 1e6)))

        spec = ModelSpec(
            slope_prior=rand_dist(),
            intercept_prior=rand_dist(),
            noise_prior=rand_dist(allow_normal=False),
        )
        assert parse_model_spec(format_model_spec(spec)) == spec

    for text, err_type, line in CURATED_MALFORMED:
        with pytest.raises(err_type) as err:
            parse_model_spec(text)
        assert err.value.line == line, f"{text!r}: line {err.value.line} != {line}"
        assert err.value.column >= 1

    fuzz = random.Random(7)
    alphabet = "param likhodNrmlHfYX~()*+,.0123456789-\n\t #\\\"'éλ∞"
    for _ in range(2000):
        text = "".join(fuzz.choice(alphabet) for _ in range(fuzz.randrange(0, 120)))
        try:
            parse_model_spec(text)
        except ModelSpecError:
            pass  # positioned rejection is the contract; anything else would raise
    report("10 parser", "(round trip x200, 10 curated errors, 2000 fuzz cases)")
