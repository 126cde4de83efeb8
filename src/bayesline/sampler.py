"""Random-walk Metropolis and Hamiltonian Monte Carlo posterior samplers.

Chains are fully independent: chain ``k`` owns a numpy generator seeded with
``seed XOR k``, so every draw is determined by (seed, config, data, model)
alone, and chain ``k`` of ``seed`` equals the single chain of ``seed ^ k``.
Chains run one after another in the calling thread. A corollary: seeds that
differ only in bits below ``n_chains`` permute the same chain streams, so
independent replications should use seeds spaced at least ``n_chains``
apart.

``sample_rwm`` and ``sample_hmc`` target the regression posterior in the
unconstrained coordinates z = (a, log b, log sigma) and store draws on the
constrained scale; each builds its target once per fit with
``density.posterior_kernels``. The underlying kernels ``rwm_chains`` and
``hmc_chains`` accept an arbitrary log density (plus gradient, for HMC) so
that low dimensional targets with known answers, such as the conjugate
Normal-mean posterior, can exercise the exact same machinery.

The per-iteration loop holds the state and the momentum as plain Python
float lists: at three dimensions numpy's per-call overhead costs more than
the arithmetic. Every element sees the same IEEE operations in the same
order as the elementwise array expressions would apply, so the draws are
bit-identical to an ndarray implementation. ``log_prob`` and the gradient
therefore receive ``z`` as a list of floats; the integrator updates that
list in place once the gradient has returned, so a callable must not keep a
reference to it.

Inside the loop the gradient returns a new list of floats, which the chain
keeps with its state: a trajectory starts from the gradient at the current
point, so L leapfrog steps make L gradient calls, and an accepted proposal
hands over the gradient at its end point. The regression kernel returns a
list already; ``hmc_chains`` takes a gradient that returns an ndarray and
adapts it with one ``.tolist()`` per call.

HMC uses a leapfrog integrator with a fixed step count; the step size is
adapted during warmup by the dual-averaging scheme of Hoffman & Gelman
(2014) toward a target acceptance rate, then frozen. A proposal whose
Hamiltonian error exceeds ``DIVERGENCE_DELTA`` in magnitude is rejected and
tallied as a divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import density
from .corpus import Dataset
from .modelspec import ModelSpec

__all__ = [
    "Chains",
    "InitializationError",
    "SamplerConfig",
    "hmc_chains",
    "rwm_chains",
    "sample_hmc",
    "sample_rwm",
]

MAX_INIT_RETRIES = 100
DIVERGENCE_DELTA = 1000.0
DIVERGENCE_WARN_FRACTION = 0.10

LogProb = Callable[[Sequence[float]], float]
GradLogProb = Callable[[Sequence[float]], np.ndarray]


class InitializationError(RuntimeError):
    """No finite-density starting point was found within the retry budget."""


@dataclass(frozen=True)
class SamplerConfig:
    """Run configuration; defaults give 4 chains x 4000 retained draws."""

    n_chains: int = 4
    n_draws: int = 4000
    n_warmup: int = 1000
    seed: int = 0
    algorithm: str = "hmc"  # "hmc" or "rwm"
    rwm_step: float = 0.1  # proposal sd on the unconstrained scale
    hmc_step: float = 0.1  # initial leapfrog step size, adapted in warmup
    hmc_leapfrog: int = 20
    target_accept: float = 0.8

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be >= 0")
        if self.algorithm not in ("hmc", "rwm"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.rwm_step > 0 or not self.hmc_step > 0:
            raise ValueError("step sizes must be positive")
        if self.hmc_leapfrog < 1:
            raise ValueError("hmc_leapfrog must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")


@dataclass(frozen=True)
class Chains:
    """Retained draws, shaped (n_chains, n_draws, n_params)."""

    draws: np.ndarray
    param_names: tuple[str, ...]
    accept_rates: tuple[float, ...] | None = None
    config: SamplerConfig | None = None
    stream_ids: tuple[int, ...] | None = None
    divergences: tuple[int, ...] | None = None
    divergence_warning: bool = False

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[1]

    @property
    def total_draws(self) -> int:
        return self.n_chains * self.n_draws

    def index_of(self, param: str) -> int:
        try:
            return self.param_names.index(param)
        except ValueError:
            raise KeyError(f"no parameter {param!r} in {self.param_names}") from None

    def pooled(self, param: str) -> np.ndarray:
        """Chain-concatenated draws of one parameter, ordered (chain, draw)."""
        return self.draws[:, :, self.index_of(param)].reshape(-1)

    def per_chain(self, param: str) -> np.ndarray:
        return self.draws[:, :, self.index_of(param)]


def _stream_id(seed: int, chain: int) -> int:
    return (seed ^ chain) & 0xFFFFFFFFFFFFFFFF


def _find_start(log_prob: LogProb, init: Callable, rng) -> tuple[list[float], float]:
    for _ in range(MAX_INIT_RETRIES):
        z = np.asarray(init(rng), dtype=float).tolist()
        lp = log_prob(z)
        if math.isfinite(lp):
            return z, lp
    raise InitializationError(
        f"no finite log density found in {MAX_INIT_RETRIES} initialization draws"
    )


def _finite(lp: float) -> float:
    return lp if math.isfinite(lp) else -math.inf


def _accepts(rng, log_ratio: float) -> bool:
    """Metropolis test: draw u ~ U[0, 1) and accept when log u < log_ratio."""
    u = rng.random()
    return (math.log(u) if u > 0.0 else -math.inf) < log_ratio


def _rwm_chain(log_prob, cfg: SamplerConfig, init, constrain, stream):
    rng = np.random.default_rng(stream)
    z, lp = _find_start(log_prob, init, rng)
    dim = len(z)
    out = np.empty((cfg.n_draws, dim))
    step = cfg.rwm_step
    accepted = 0
    total = cfg.n_warmup + cfg.n_draws
    for it in range(total):
        noise = rng.standard_normal(dim).tolist()
        prop = [zi + step * ni for zi, ni in zip(z, noise)]
        lp_prop = _finite(log_prob(prop))
        took = lp_prop > -math.inf and _accepts(rng, lp_prop - lp)
        if took:
            z, lp = prop, lp_prop
        if it >= cfg.n_warmup:
            out[it - cfg.n_warmup] = constrain(z)
            accepted += took
    return out, accepted / cfg.n_draws, 0


class _DualAveraging:
    """Step-size adaptation toward a target acceptance rate.

    Hoffman & Gelman (2014), Algorithm 5 with the published constants; the
    sampler restarts it halfway through warmup so the frozen average is not
    biased by the initial transient.
    """

    _GAMMA = 0.05
    _T0 = 10.0
    _KAPPA = 0.75

    def __init__(self, eps: float, target: float):
        self.mu = math.log(10.0 * eps)
        self.target = target
        self.log_eps_bar = math.log(eps)
        self.h_bar = 0.0
        self.t = 0

    def update(self, alpha: float) -> float:
        """Fold in one acceptance statistic; returns the next step size."""
        self.t += 1
        w = 1.0 / (self.t + self._T0)
        self.h_bar = (1.0 - w) * self.h_bar + w * (self.target - alpha)
        log_eps = self.mu - math.sqrt(self.t) / self._GAMMA * self.h_bar
        eta = self.t ** -self._KAPPA
        self.log_eps_bar = eta * log_eps + (1.0 - eta) * self.log_eps_bar
        return math.exp(log_eps)

    def frozen(self) -> float:
        return math.exp(self.log_eps_bar)


def _leapfrog(z, p, g, eps, n_steps, grad):
    """``n_steps`` leapfrog steps on float lists, from z with g the gradient at z.

    Returns ``(z, p, g)`` at the end of the trajectory, g being the gradient
    there, or None if a gradient is not finite. That makes ``n_steps``
    gradient calls: the gradient at the start comes with the state. Each
    momentum update and the position update after it share one pass over
    the coordinates; per coordinate the operations are the textbook
    ``p_i + h * g_i`` then ``z_i + eps * p_i``, with h = 0.5 * eps for the
    first and last half steps.
    """
    isfinite = math.isfinite
    half = 0.5 * eps
    z = list(z)
    p = list(p)
    coords = range(len(z))
    h = half
    for _ in range(n_steps):
        for i in coords:
            gi = g[i]
            if not isfinite(gi):
                return None
            pi = p[i] + h * gi
            p[i] = pi
            z[i] = z[i] + eps * pi
        h = eps
        g = grad(z)
    for i in coords:
        gi = g[i]
        if not isfinite(gi):
            return None
        p[i] = p[i] + half * gi
    return z, p, g


def _kinetic(p) -> float:
    # plain-float accumulation: overflow becomes inf instead of a warning
    total = 0.0
    for v in p:
        total += v * v
    return 0.5 * total


def _hmc_chain(log_prob, grad, cfg: SamplerConfig, init, constrain, stream):
    rng = np.random.default_rng(stream)
    z, lp = _find_start(log_prob, init, rng)
    g = grad(z)
    dim = len(z)
    eps = cfg.hmc_step
    adapt = _DualAveraging(eps, cfg.target_accept)
    restart_at = cfg.n_warmup // 2
    out = np.empty((cfg.n_draws, dim))
    accepted = 0
    divergences = 0
    total = cfg.n_warmup + cfg.n_draws
    for it in range(total):
        p0 = rng.standard_normal(dim).tolist()
        # +-10% step jitter breaks the phase resonance a fixed trajectory
        # length has on near-Gaussian targets
        eps_it = eps * (0.9 + 0.2 * rng.random())
        h0 = -lp + _kinetic(p0)
        result = _leapfrog(z, p0, g, eps_it, cfg.hmc_leapfrog, grad)
        if result is None:
            delta = math.inf
        else:
            z_new, p_new, g_new = result
            lp_new = _finite(log_prob(z_new))
            delta = (-lp_new + _kinetic(p_new)) - h0
        diverged = not math.isfinite(delta) or abs(delta) > DIVERGENCE_DELTA
        alpha = 0.0 if diverged else min(1.0, math.exp(min(-delta, 0.0)))
        took = not diverged and _accepts(rng, -delta)
        if took:
            z, lp, g = z_new, lp_new, g_new
        if it < cfg.n_warmup:
            if it == restart_at and it > 0:
                adapt = _DualAveraging(eps, cfg.target_accept)
            eps = adapt.update(alpha)
            if it == cfg.n_warmup - 1:
                eps = adapt.frozen()
        else:
            out[it - cfg.n_warmup] = constrain(z)
            accepted += took
            divergences += diverged
    return out, accepted / cfg.n_draws, divergences


def _run(chain_fn, cfg: SamplerConfig, param_names) -> Chains:
    streams = [_stream_id(cfg.seed, k) for k in range(cfg.n_chains)]

    def one_chain(stream):
        # overflow inside a trajectory (for instance in a gradient computed
        # with numpy) is a rejection, not worth a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return chain_fn(stream)

    results = [one_chain(s) for s in streams]
    draws = np.stack([r[0] for r in results])
    draws.setflags(write=False)  # Chains is an immutable result
    rates = tuple(r[1] for r in results)
    divergences = tuple(r[2] for r in results)
    warn = any(d > DIVERGENCE_WARN_FRACTION * cfg.n_draws for d in divergences)
    return Chains(
        draws=draws,
        param_names=tuple(param_names),
        accept_rates=rates,
        config=cfg,
        stream_ids=tuple(streams),
        divergences=divergences,
        divergence_warning=warn,
    )


def rwm_chains(
    log_prob: LogProb,
    cfg: SamplerConfig,
    *,
    init: Callable,
    param_names: Sequence[str],
    constrain: Callable[[Sequence[float]], np.ndarray] | None = None,
) -> Chains:
    """Random-walk Metropolis on an arbitrary log density.

    ``init(rng)`` proposes a starting point (retried while the density is
    not finite); its length sets the dimension. ``constrain`` maps an
    unconstrained state to the stored coordinates (identity by default).
    """
    constrain = constrain if constrain is not None else lambda z: z
    cfg = replace(cfg, algorithm="rwm")
    return _run(lambda s: _rwm_chain(log_prob, cfg, init, constrain, s), cfg, param_names)


def _hmc(log_prob, grad, cfg: SamplerConfig, init, param_names, constrain) -> Chains:
    cfg = replace(cfg, algorithm="hmc")
    return _run(lambda s: _hmc_chain(log_prob, grad, cfg, init, constrain, s), cfg, param_names)


def hmc_chains(
    log_prob: LogProb,
    grad_log_prob: GradLogProb,
    cfg: SamplerConfig,
    *,
    init: Callable,
    param_names: Sequence[str],
    constrain: Callable[[Sequence[float]], np.ndarray] | None = None,
) -> Chains:
    """Hamiltonian Monte Carlo on an arbitrary differentiable log density.

    ``grad_log_prob`` returns an ndarray; one ``.tolist()`` per call turns it
    into the float list the integrator works on.
    """
    constrain = constrain if constrain is not None else lambda z: z
    return _hmc(
        log_prob, lambda z: grad_log_prob(z).tolist(), cfg, init, param_names, constrain
    )


def _prior_init(spec: ModelSpec):
    def init(rng):
        try:
            a, b, sigma = density.sample_prior(spec, rng, 1)[0]
        except ValueError as exc:  # a prior on b or sigma with no mass above 0
            raise InitializationError(str(exc)) from exc
        return density.transform(density.ParamVector(a, b, sigma))

    return init


_PARAM_NAMES = ("a", "b", "sigma")


def _constrain(z: Sequence[float]) -> tuple[float, float, float]:
    """(a, b, sigma) of a stored state, as ``density.inverse_transform`` maps it.

    Only states with a finite log density are stored, so b and sigma are
    finite there and ``exp`` cannot overflow.
    """
    return z[0], math.exp(z[1]), math.exp(z[2])


def sample_rwm(spec: ModelSpec, data: Dataset, cfg: SamplerConfig) -> Chains:
    """Sample the regression posterior by random-walk Metropolis."""
    logp, _ = density.posterior_kernels(spec, data)
    return rwm_chains(
        logp, cfg, init=_prior_init(spec), param_names=_PARAM_NAMES, constrain=_constrain
    )


def sample_hmc(spec: ModelSpec, data: Dataset, cfg: SamplerConfig) -> Chains:
    """Sample the regression posterior by Hamiltonian Monte Carlo."""
    logp, grad = density.posterior_kernels(spec, data)
    return _hmc(logp, grad, cfg, _prior_init(spec), _PARAM_NAMES, _constrain)
