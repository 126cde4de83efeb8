"""Posterior diagnostics, summaries, line ensembles, evidence and conjugate updates.

Diagnostics follow standard multi-chain practice: potential scale reduction
is computed on split chains (each chain halved), and effective sample size
sums autocorrelations with Geyer's initial-positive-sequence rule, using
the between/within variance mix in the denominator so poorly mixed chains
report small ESS. Marginal likelihoods are estimated by simple prior-sample
Monte Carlo with a delta-method standard error on the log scale, unbiased in
probability space. The Kish effective sample size of the likelihood weights
comes with it: when a likelihood far narrower than the prior leaves one
draw with all the weight, it is near 1 and the estimate carries no
information. Each draw's regression likelihood comes from the dataset's
sufficient statistics (``Dataset.stats``), so the estimate costs
O(n_samples) time and memory whatever the number of data points.

The conjugate Normal-mean family (unknown mean, known observation noise) is
implemented exactly; it is the reference target that samplers and evidence
estimates are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from . import density
from .corpus import Dataset
from .modelspec import ModelSpec
from .sampler import Chains

__all__ = [
    "BayesFactorOverflowError",
    "ConjugateNormalState",
    "DegenerateEvidenceError",
    "DiagnosticError",
    "EvidenceEstimate",
    "LineEnsemble",
    "MIN_EVIDENCE_ESS",
    "ParamSummary",
    "Summary",
    "bayes_factor",
    "check_ensemble_size",
    "conjugate_posterior",
    "conjugate_update",
    "draw_line_ensemble",
    "ess",
    "estimate_evidence",
    "evidence_mc",
    "posterior_predictive",
    "sequential_update",
    "split_rhat",
    "summarize",
]


class DiagnosticError(ValueError):
    """The diagnostic is undefined for these chains (e.g. zero variance)."""


class DegenerateEvidenceError(ValueError):
    """Every prior sample had zero likelihood."""


class BayesFactorOverflowError(ValueError):
    """The Bayes factor is too large to represent as a float."""


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    sd: float
    q2_5: float
    median: float
    q97_5: float
    rhat: float | None  # None when undefined (constant or too-short chains)
    ess: float | None


@dataclass(frozen=True)
class Summary:
    params: Mapping[str, ParamSummary]


@dataclass(frozen=True)
class LineEnsemble:
    """(slope, intercept) pairs taken verbatim from stored draws."""

    lines: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class EvidenceEstimate:
    log_evidence: float
    mc_standard_error: float
    n_prior_samples: int
    # Kish effective sample size of the likelihood weights; None when unknown
    effective_samples: float | None = None


# Below this many effective prior samples an evidence estimate and its
# standard error say nothing; the CLI warns.
MIN_EVIDENCE_ESS = 10


@dataclass(frozen=True)
class ConjugateNormalState:
    """Normal belief over an unknown mean with known observation noise."""

    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")


# ---------------------------------------------------------------------------
# convergence diagnostics


def _split_halves(draws: np.ndarray) -> np.ndarray:
    """Halve each chain; (m, n) -> (2m, n//2), dropping a middle draw if n is odd."""
    n = draws.shape[1]
    half = n // 2
    return np.vstack([draws[:, :half], draws[:, n - half:]])


def split_rhat(chains: Chains, param: str) -> float:
    """Split-chain potential scale reduction factor.

    Values near 1 indicate the chains agree; large values mean the
    between-group spread dwarfs the within-group spread.
    """
    draws = chains.per_chain(param)
    if draws.shape[1] < 4:
        raise ValueError("split_rhat requires at least 4 draws per chain")
    groups = _split_halves(draws)
    n = groups.shape[1]
    within = groups.var(axis=1, ddof=1).mean()
    if within == 0.0:
        raise DiagnosticError(f"zero within-chain variance for {param!r}")
    between = n * groups.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * within + between / n
    return float(math.sqrt(var_plus / within))


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one chain at all lags, via FFT."""
    n = x.size
    centered = x - x.mean()
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[:n].real
    return acov / n


def ess(chains: Chains, param: str) -> float:
    """Effective sample size pooled across chains.

    Autocorrelations are averaged over chains against the pooled variance
    estimate and summed in consecutive pairs until a pair sum turns
    non-positive (initial positive sequence). Antithetic chains can report
    more effective samples than draws.
    """
    draws = chains.per_chain(param)
    m, n = draws.shape
    if n < 4:
        raise ValueError("ess requires at least 4 draws per chain")
    within = draws.var(axis=1, ddof=1).mean()
    if within == 0.0:
        raise DiagnosticError(f"zero within-chain variance for {param!r}")
    between_over_n = draws.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = (n - 1) / n * within + between_over_n
    acov = np.stack([_autocov(draws[k]) for k in range(m)]).mean(axis=0)
    rho = 1.0 - (within - acov) / var_plus
    tau = 0.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + (rho[k + 1] if k + 1 < n else 0.0)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau -= 1.0  # lag-0 term was counted twice
    total = m * n
    tau = max(tau, 1.0 / math.log10(max(total, 10)))
    return total / tau


# ---------------------------------------------------------------------------
# summaries and ensembles


def _param_summary(chains: Chains, param: str) -> ParamSummary:
    pooled = chains.pooled(param)
    q2_5, median, q97_5 = np.quantile(pooled, [0.025, 0.5, 0.975], method="linear")
    try:
        rhat = split_rhat(chains, param)
    except (DiagnosticError, ValueError):
        rhat = None
    try:
        ess_value = min(ess(chains, param), float(chains.total_draws))
    except (DiagnosticError, ValueError):
        ess_value = None
    return ParamSummary(
        mean=float(pooled.mean()),
        sd=float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0,
        q2_5=float(q2_5),
        median=float(median),
        q97_5=float(q97_5),
        rhat=rhat,
        ess=ess_value,
    )


def summarize(chains: Chains) -> Summary:
    """Pooled-draw statistics per parameter, plus split R-hat and ESS."""
    if chains.total_draws == 0:
        raise ValueError("cannot summarize empty chains")
    return Summary({name: _param_summary(chains, name) for name in chains.param_names})


def check_ensemble_size(n: int, total: int) -> None:
    """Raise ValueError unless 1 <= n <= total, the number of stored draws."""
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    if n > total:
        raise ValueError(f"requested {n} draws but only {total} are stored")


def _thin_indices(total: int, n: int) -> np.ndarray:
    """Evenly spaced draw indices over the pooled sequence; deterministic."""
    check_ensemble_size(n, total)
    stride = total // n
    return np.arange(n) * stride


def draw_line_ensemble(chains: Chains, n: int) -> LineEnsemble:
    """n (slope, intercept) pairs thinned evenly from the pooled draws."""
    idx = _thin_indices(chains.total_draws, n)
    slopes = chains.pooled("a")[idx]
    intercepts = chains.pooled("b")[idx]
    return LineEnsemble(tuple(zip(slopes.tolist(), intercepts.tolist())))


def posterior_predictive(chains: Chains, x: float, n: int, seed: int) -> list[float]:
    """n predictive draws at x: y ~ Normal(a*x + b, sigma) over thinned draws."""
    idx = _thin_indices(chains.total_draws, n)
    a = chains.pooled("a")[idx]
    b = chains.pooled("b")[idx]
    sigma = chains.pooled("sigma")[idx]
    rng = np.random.default_rng(seed)
    return (a * x + b + sigma * rng.standard_normal(n)).tolist()


# ---------------------------------------------------------------------------
# evidence


def evidence_mc(
    log_likelihood: Callable[[np.ndarray], np.ndarray],
    sample_prior: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    seed: int,
) -> EvidenceEstimate:
    """Monte Carlo marginal likelihood: average the likelihood over prior draws.

    ``sample_prior(rng, n)`` returns an (n, dim) matrix of prior draws and
    ``log_likelihood`` maps it to n log-likelihood values. The estimate is a
    log-mean-exp; its standard error comes from the delta method, so it is
    only trustworthy when many samples land in the likelihood's bulk. The
    Kish effective sample size (Σu)²/Σu² of the weights u says how many do:
    it is 1 when one draw holds all the weight, and then the standard error
    tends to 1 whatever the true error is.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 prior samples")
    rng = np.random.default_rng(seed)
    theta = sample_prior(rng, n_samples)
    ll = np.asarray(log_likelihood(theta), dtype=float)
    peak = float(ll.max())
    if peak == -math.inf:
        raise DegenerateEvidenceError("all prior samples have zero likelihood")
    u = np.exp(ll - peak)
    mean_u = float(u.mean())
    se = float(u.std(ddof=1)) / (mean_u * math.sqrt(n_samples))
    total = float(u.sum())
    return EvidenceEstimate(
        log_evidence=peak + math.log(mean_u),
        mc_standard_error=se,
        n_prior_samples=n_samples,
        effective_samples=total * total / float(u @ u),
    )


def estimate_evidence(
    spec: ModelSpec, data: Dataset, n_prior_samples: int, seed: int
) -> EvidenceEstimate:
    """Prior-sampling estimate of the marginal data density of the regression model.

    Each draw's log-likelihood comes from the dataset's sufficient
    statistics, so memory is O(n_prior_samples) whatever the dataset size.
    """
    if data.size < 1:
        raise ValueError("evidence requires at least one observation")
    stats = data.stats

    def log_lik(theta: np.ndarray) -> np.ndarray:
        a, b, sigma = theta.T
        return density.gaussian_log_likelihood(stats, a, b, sigma, np.log(sigma))

    return evidence_mc(
        log_lik, lambda rng, n: density.sample_prior(spec, rng, n), n_prior_samples, seed
    )


def bayes_factor(e1: EvidenceEstimate, e2: EvidenceEstimate) -> float:
    """Ratio of marginal likelihoods exp(log p1(Y) - log p2(Y)).

    Raises BayesFactorOverflowError when the ratio exceeds the float range;
    a ratio below it underflows to 0.0.
    """
    if not (math.isfinite(e1.log_evidence) and math.isfinite(e2.log_evidence)):
        raise ValueError("evidence estimates must be finite")
    log_ratio = e1.log_evidence - e2.log_evidence
    try:
        return math.exp(log_ratio)
    except OverflowError:
        raise BayesFactorOverflowError(
            f"Bayes factor exp({log_ratio!r}) overflows a float: log evidences "
            f"{e1.log_evidence!r} and {e2.log_evidence!r}"
        ) from None


# ---------------------------------------------------------------------------
# exact conjugate updating (Normal mean, known noise)


def _obs_variance(obs_sd: float) -> float:
    if not obs_sd > 0:
        raise ValueError(f"obs_sd must be positive, got {obs_sd}")
    obs_var = obs_sd * obs_sd
    if obs_var == 0.0:
        raise ValueError(f"obs_sd {obs_sd!r} is too small: its square underflows to 0")
    return obs_var


def conjugate_update(
    prior: ConjugateNormalState, y: float, obs_sd: float
) -> ConjugateNormalState:
    """Precision-weighted Normal-Normal update for one observation."""
    obs_var = _obs_variance(obs_sd)
    prior_precision = 1.0 / prior.variance
    obs_precision = 1.0 / obs_var
    precision = prior_precision + obs_precision
    mean = (prior.mean * prior_precision + y * obs_precision) / precision
    return ConjugateNormalState(mean=mean, variance=1.0 / precision)


def sequential_update(
    prior: ConjugateNormalState, ys: Iterable[float], obs_sd: float
) -> ConjugateNormalState:
    """Fold conjugate_update over the observations in order."""
    state = prior
    for y in ys:
        state = conjugate_update(state, y, obs_sd)
    return state


def conjugate_posterior(
    prior: ConjugateNormalState, ys: Iterable[float], obs_sd: float
) -> ConjugateNormalState:
    """Batch closed form from sufficient statistics; equals the sequential fold."""
    obs_var = _obs_variance(obs_sd)
    ys = list(ys)
    prior_precision = 1.0 / prior.variance
    obs_precision = len(ys) / obs_var
    precision = prior_precision + obs_precision
    mean = (prior.mean * prior_precision + math.fsum(ys) / obs_var) / precision
    return ConjugateNormalState(mean=mean, variance=1.0 / precision)
