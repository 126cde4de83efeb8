"""Benchmark of the bayesline command line, end to end and layer by layer.

    python3 bench/run.py --workload ref3 --seed 0 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports ``bayesline`` from
``src/``. Load comes from this one process with no extra threads: a closed
loop with one client, in which each CLI step starts when the previous one
has returned. Every step goes through the public ``bayesline.cli.run``. A
pass is the user's pipeline on the workload's generated inputs:

    counts --top-k 1000 -> fit-ols -> fit-bayes -> fit-bayes --sampler rwm
    -> plot -> evidence (default model against slope prior Normal(0, 0.1))

All other flags keep their CLI defaults. A step that takes less than
CHEAP_S is sampled again after every step of each pass, so its samples cover
the whole run. Passes repeat while at least half of the next one fits in
--seconds. Each time is wall time rescaled to a fixed reference speed of the
host (speed.py), because the shared host's own speed swings by up to a
factor of two; each command's end-to-end figure is the median of its
rescaled times in the run. Each step's outputs go through the correctness gate (gate.py); a failure is
counted and never stops the run. --seed makes the inputs and the CLI's --seed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics and the tracing overhead;
its spans go to trace.json in the run directory. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Machine,
versions, commit, failures and the quality figures go to result.json next
to the spans, under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One process, no extra threads: keep numpy's BLAS pools to the calling thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A step whose median so far is below this is sampled CHEAP_REPEATS times
# more after every step of the next pass, so its samples spread over the
# whole run rather than bunching into one moment of the machine's speed, and
# a slow host's few passes still give it some twenty samples. The ref3 RWM
# fit (about 0.3 s) stays clear of the threshold, so the pass structure does
# not change from run to run.
CHEAP_S = 0.2
CHEAP_REPEATS = 2
# Steps run this many times in a row in each pass. On words1k, evidence's
# 1.6 GB of temporaries cost more when the host has not just handed out that
# memory: the first call of a pass is slower than one right after it, and
# either kind alone spreads more from run to run than the two together.
PASS_REPEATS = {"evidence": 2}
SETUP_REPS = 5
# The layer self times of the traced steps must add up to their wall time
# within trace.overhead_frac, or this share when the overhead measures less.
UNACCOUNTED_TOLERANCE = 0.01
# The ref3 quadrature check: HMC means within 5 Monte Carlo standard errors,
# evidence estimates within 4 of their reported standard errors. Its outcome
# is recorded next to the gate, not counted in it.
MEAN_LIMIT_MCSE = 5.0
EVIDENCE_LIMIT_SE = 4.0

# Which end-to-end metric and workload each per-layer metric should move;
# the workload in brackets is the one that bypasses it.
LAYER_MAP = {
    "density.logp_calls": "fit_bayes_rwm_s, fit_bayes_hmc_s on words1k [ref3]",
    "density.logp_us": "fit_bayes_rwm_s, fit_bayes_hmc_s on words1k [ref3]",
    "density.grad_calls": "fit_bayes_hmc_s on ref3 and words1k [counts_s]",
    "density.grad_us": "fit_bayes_hmc_s on ref3 and words1k [counts_s]",
    "density.share": "fit_bayes_*_s on words1k [ref3]",
    "sampler.hmc_s": "fit_bayes_hmc_s on ref3",
    "sampler.rwm_s": "fit_bayes_rwm_s on ref3",
    "sampler.self_s": "fit_bayes_*_s on ref3",
    "sampler.grads_per_ess": "hmc_min_ess_per_s, hmc_max_rhat on ref3 and words1k [counts_s]",
    "sampler.accept_rate": "hmc_min_ess_per_s, hmc_max_rhat on ref3 and words1k [counts_s]",
    "sampler.divergences": "hmc_min_ess_per_s, hmc_max_rhat on ref3 and words1k [counts_s]",
    "sampler.min_ess": "hmc_min_ess_per_s, hmc_max_rhat on ref3 and words1k [counts_s]",
    "inference.evidence_s": "evidence_s on words1k [ref3]",
    "inference.evidence_peak_mb": "peak_rss_mb on words1k [ref3]",
    "inference.summarize_s": "fit_bayes_rwm_s on ref3",
    "inference.ensemble_s": "fit_bayes_rwm_s on ref3",
    "export.csv_write_s": "fit_bayes_rwm_s on ref3",
    "export.csv_write_mb_per_s": "fit_bayes_rwm_s on ref3",
    "export.csv_read_s": "plot_s on ref3",
    "export.svg_s": "plot_s on ref3",
    "corpus.ingest_s": "counts_s on words1k [ref3]",
    "corpus.word_stats_s": "counts_s on words1k [ref3]",
    "corpus.tokens_per_s": "counts_s on words1k [ref3]",
    "corpus.top_k_s": "counts_s on words1k [ref3]",
    "corpus.load_tsv_s": "fit_ols_s, fit_bayes_*_s on words1k [ref3]",
    "ols.fit_s": "fit_ols_s, plot_s [fit_bayes_*_s]",
    "modelspec.parse_s": "evidence_s on ref3",
    "cli.self_s": "every step on ref3",
}
QUALITY = ("hmc_min_ess_per_s", "rwm_min_ess_per_s", "hmc_max_rhat", "rwm_max_rhat")


@dataclass
class Step:
    key: str  # metric stem, e.g. "fit_bayes_hmc"
    argv: list[str]  # the subcommand and its arguments
    out: Path | None  # --out directory, if the command writes files
    check: Callable[[str], list[str]]  # stdout -> problems


@dataclass
class Call:
    """One attempted step."""

    key: str
    start: float  # perf_counter at the start of the call
    seconds: float  # wall time at the reference speed, see speed.py
    wall_s: float  # wall time as measured, speed marks included
    traced: bool
    problems: list[str]
    span: object = None
    min_ess: float | None = None
    max_rhat: float | None = None


class Runner:
    """Runs steps through cli.run, times them and puts their outputs through the gate."""

    def __init__(self, cli, tracer: Tracer | None, meter: SpeedMeter):
        self.cli = cli
        self.tracer = tracer
        self.meter = meter
        self.calls: list[Call] = []
        self._digests: dict[str, str] = {}
        self._fit_quality: tuple[float, float] | None = None
        self.quadrature: list[dict] = []  # one entry per checked HMC fit or evidence call

    def run_step(self, step: Step, traced: bool) -> float:
        if step.out is not None:
            step.out.mkdir(parents=True, exist_ok=True)
            for name in gate.OUTPUT_FILES.get(step.argv[0], ()):
                (step.out / name).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        span = None
        self._fit_quality = None
        t0 = time.perf_counter()
        with self.meter.timing() as timing:
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    if traced:
                        with self.tracer.span("cli." + step.key) as span:
                            code = self.cli.run(step.argv)
                    else:
                        code = self.cli.run(step.argv)
            except Exception as exc:  # a crash is a failed step, not a failed benchmark
                code, error = None, f"raised {exc!r}"
        if code is None:
            problems = [error]
        elif code != 0:
            problems = [f"exit {code}: {stderr.getvalue().strip()[-300:]}"]
        else:
            problems = self._check(step, stdout.getvalue())
        call = Call(step.key, t0, timing.scaled_s, timing.wall_s, traced, problems, span)
        if self._fit_quality is not None and not problems:
            call.min_ess, call.max_rhat = self._fit_quality
        if span is not None:  # spans see wall time, speed marks included
            call.span.attrs["unaccounted_s"] = timing.wall_s - sum(self.tracer.layer_self_times(span).values())
        self.calls.append(call)

    def _check(self, step: Step, stdout: str) -> list[str]:
        problems = gate.missing_files(step.out, step.argv[0]) if step.out else []
        if problems:
            return problems
        try:
            problems = step.check(stdout)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"check raised {exc!r}"]
        digest = gate.digest(step.out, step.argv[0], stdout)
        if self._digests.setdefault(step.key, digest) != digest:
            problems.append("outputs differ from an earlier run with the same seed")
        return problems

    def record_quadrature(self, key: str, errors: dict[str, float], limit: float) -> None:
        self.quadrature.append(
            {"step": key, "errors": errors, "limit": limit, "ok": all(e <= limit for e in errors.values())}
        )

    def fit_check(self, w, inputs, out: Path, reference: dict | None) -> Callable[[str], list[str]]:
        def check(_stdout: str) -> list[str]:
            problems = gate.check_samples(out / "samples.csv", workloads.CHAINS, w.draws)
            params, bad = gate.read_summary(out)
            problems += bad
            if params is not None:
                self._fit_quality = (
                    min(params[p]["ess"] for p in gate.PARAMS),
                    max(params[p]["rhat"] for p in gate.PARAMS),
                )
                if reference is not None:
                    self.record_quadrature("fit_bayes_hmc", gate.mean_errors(params, reference), MEAN_LIMIT_MCSE)
            return problems + gate.check_svg(out, inputs.m, w.ensemble)

        return check


def build_steps(w, inputs, work: Path, cli_seed: int, runner: Runner, refs: dict) -> list[Step]:
    out = work / "out"
    counts_tsv = work / "counts.tsv"
    seed = ["--seed", str(cli_seed)]
    data = str(inputs.dataset)

    def counts_check(stdout: str) -> list[str]:
        counts_tsv.write_text(stdout, encoding="utf-8")
        return gate.check_counts(stdout, refs["counts"])

    def plot_check(_stdout: str) -> list[str]:
        return gate.check_svg(out / "plot", inputs.m, w.ensemble)

    def evidence_check(stdout: str) -> list[str]:
        problems = gate.check_evidence(stdout, w.evidence_samples)
        if not problems and "log_evidence" in refs:
            errors = {
                m.stem: abs(log_ev - ref) / se
                for m, ref, (log_ev, se, _) in zip(inputs.models, refs["log_evidence"], gate.evidence_estimates(stdout))
            }
            runner.record_quadrature("evidence", errors, EVIDENCE_LIMIT_SE)
        return problems

    hmc_ref = refs.get("posterior")
    return [
        Step("counts", ["counts", str(inputs.corpus_dir), "--top-k", str(w.top_k)], None, counts_check),
        Step(
            "fit_ols",
            ["fit-ols", str(counts_tsv), "--out", str(out / "ols")],
            out / "ols",
            lambda _s: gate.check_ols(out / "ols", counts_tsv),
        ),
        Step(
            "fit_bayes_hmc",
            ["fit-bayes", data, *seed, *w.fit_flags(), "--out", str(out / "hmc")],
            out / "hmc",
            runner.fit_check(w, inputs, out / "hmc", hmc_ref),
        ),
        Step(
            "fit_bayes_rwm",
            ["fit-bayes", data, "--sampler", "rwm", *seed, *w.fit_flags(), "--out", str(out / "rwm")],
            out / "rwm",
            runner.fit_check(w, inputs, out / "rwm", None),
        ),
        Step(
            "plot",
            ["plot", data, "--samples", str(out / "hmc" / "samples.csv"), *w.plot_flags(), "--out", str(out / "plot")],
            out / "plot",
            plot_check,
        ),
        Step(
            "evidence",
            ["evidence", data, "--model", str(inputs.models[0]), "--model", str(inputs.models[1]), *seed]
            + w.evidence_flags(),
            None,
            evidence_check,
        ),
    ]


def run_pass(runner: Runner, steps: list[Step], traced: bool, cheap: set[str]) -> None:
    """The pipeline once, in order; after each step, every other cheap step runs
    CHEAP_REPEATS times more. Cheap steps are known only after the first pass,
    by which time every step's inputs exist."""
    for step in steps:
        for _ in range(PASS_REPEATS.get(step.key, 1)):
            runner.run_step(step, traced)
        for _ in range(CHEAP_REPEATS):
            for other in steps:
                if other.key in cheap and other is not step:
                    runner.run_step(other, traced)


# ---------------------------------------------------------------------------
# set-up


def time_import() -> None:
    """A fresh interpreter importing bayesline, as each CLI invocation does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bayesline.cli"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def set_up(w, seed: int, work: Path, meter: SpeedMeter):
    """Import and write the inputs SETUP_REPS times; returns inputs, corpus and
    the times at the reference speed."""
    stopwords = workloads.read_stopwords(ROOT)
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        with meter.timing() as timing:
            time_import()
            corpus = workloads.Corpus(w, seed, stopwords)
            inputs = workloads.write_inputs(w, seed, work / "inputs", corpus)
        times.append(timing.scaled_s)
    return inputs, corpus, times


def references(w, inputs, corpus) -> dict:
    refs = {"counts": corpus.expected_top_k(w.top_k)}
    if w.points == "ref3":
        quad = {name: workloads.quadrature(workloads.REF3, s) for name, s in workloads.MODEL_SLOPE_SCALES.items()}
        refs["posterior"] = quad["default.model"]
        refs["log_evidence"] = [quad[m.name]["log_evidence"] for m in inputs.models]
    return refs


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def step_medians(calls: list[Call], traced: bool) -> dict[str, float]:
    keys = dict.fromkeys(c.key for c in calls)
    return {k: _median(c.seconds for c in calls if c.key == k and c.traced == traced) for k in keys}


def step_stats(calls: list[Call]) -> dict[str, dict]:
    """Untraced times per step at the reference speed: count, median, the
    highest percentile that has at least ten samples beyond it (None below 20
    samples), and every sample in call order with its measured wall time and
    its start offset from the first call."""
    stats = {}
    first = calls[0].start if calls else 0.0
    for key in dict.fromkeys(c.key for c in calls):
        mine = [c for c in calls if c.key == key and not c.traced]
        times = sorted(c.seconds for c in mine)
        n = len(times)
        stats[key] = {
            "n": n,
            "median_s": statistics.median(times) if times else None,
            "tail": {"percentile": 100 * (n - 10) / n, "s": times[n - 11]} if n >= 20 else None,
            "seconds": [c.seconds for c in mine],
            "wall_s": [c.wall_s for c in mine],
            "start_s": [c.start - first for c in mine],
        }
    return stats


def quality(calls: list[Call]) -> dict[str, float]:
    """Min ESS per second of the whole command and max split R-hat, untraced fits."""
    out = {}
    for sampler in ("hmc", "rwm"):
        fits = [c for c in calls if c.key == f"fit_bayes_{sampler}" and not c.traced and c.min_ess]
        out[f"{sampler}_min_ess_per_s"] = _median(c.min_ess / c.seconds for c in fits)
        out[f"{sampler}_max_rhat"] = _median(c.max_rhat for c in fits)
        out[f"{sampler}_min_ess"] = _median(c.min_ess for c in fits)
    return out


def end_to_end(calls: list[Call], setup_times: list[float]) -> dict[str, float]:
    """Median set-up time and, for each command, its median time in the run,
    both at the reference speed."""
    metrics = {"setup_s": statistics.median(setup_times)}
    for key in dict.fromkeys(c.key for c in calls):
        metrics[f"{key}_s"] = statistics.median(c.seconds for c in calls if c.key == key and not c.traced)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics


def per_layer(tracer: Tracer, calls: list[Call], inputs) -> dict[str, float]:
    traced = [c for c in calls if c.traced and c.span is not None]

    def per_call(key: str, value: Callable) -> float:
        return _median(value(c.span) for c in traced if c.key == key)

    def spans(root, name):
        return [s for s in tracer.subtree(root) if s.name == name]

    def total(name):
        return lambda root: sum(s.duration for s in spans(root, name))

    def counted(name, index):
        return lambda root: sum(s.calls.get(name, (0, 0.0))[index] for s in tracer.subtree(root))

    def sampler_self(root):
        return sum(s.self_s for s in tracer.subtree(root) if s.layer == "sampler")

    fits = ("fit_bayes_hmc", "fit_bayes_rwm")
    fit_roots = [c.span for c in traced if c.key in fits]
    density_s = {n: sum(counted(f"density.{n}", 1)(r) for r in fit_roots) for n in ("logp", "grad")}
    density_n = {n: sum(counted(f"density.{n}", 0)(r) for r in fit_roots) for n in ("logp", "grad")}
    sampling_s = sum(total("sampler.hmc")(r) + total("sampler.rwm")(r) for r in fit_roots)
    hmc_spans = [s for c in traced if c.key == "fit_bayes_hmc" for s in spans(c.span, "sampler.hmc")]
    csv_writes = [s for c in traced for s in spans(c.span, "export.csv_write")]
    evidence = [s for c in traced for s in spans(c.span, "inference.evidence")]
    q = quality(calls)
    word_stats_s = per_call("counts", total("corpus.word_stats"))
    grad_calls = per_call("fit_bayes_hmc", counted("density.grad", 0))
    metrics = {
        "density.logp_calls": sum(per_call(k, counted("density.logp", 0)) for k in fits),
        "density.logp_us": 1e6 * density_s["logp"] / density_n["logp"] if density_n["logp"] else 0.0,
        "density.grad_calls": sum(per_call(k, counted("density.grad", 0)) for k in fits),
        "density.grad_us": 1e6 * density_s["grad"] / density_n["grad"] if density_n["grad"] else 0.0,
        "density.share": (density_s["logp"] + density_s["grad"]) / sampling_s if sampling_s else 0.0,
        "sampler.hmc_s": per_call("fit_bayes_hmc", total("sampler.hmc")),
        "sampler.rwm_s": per_call("fit_bayes_rwm", total("sampler.rwm")),
        "sampler.self_s": sum(per_call(k, sampler_self) for k in fits),
        "sampler.grads_per_ess": grad_calls / q["hmc_min_ess"] if q["hmc_min_ess"] else 0.0,
        "sampler.accept_rate": _median(float(np.mean(s.attrs["accept_rates"])) for s in hmc_spans),
        "sampler.divergences": _median(sum(s.attrs["divergences"]) for s in hmc_spans),
        "sampler.min_ess": q["hmc_min_ess"],
        **{k: q[k] for k in QUALITY},
        "inference.evidence_s": per_call("evidence", total("inference.evidence")),
        "inference.evidence_peak_mb": max((s.attrs["peak_bytes"] for s in evidence), default=0) / 1e6,
        "inference.summarize_s": _median(per_call(k, total("inference.summarize")) for k in fits),
        "inference.ensemble_s": _median(per_call(k, total("inference.ensemble")) for k in fits),
        "export.csv_write_s": _median(s.duration for s in csv_writes),
        "export.csv_write_mb_per_s": _median(s.attrs["bytes"] / s.duration / 1e6 for s in csv_writes),
        "export.csv_read_s": per_call("plot", total("export.csv_read")),
        "export.svg_s": per_call("plot", total("export.svg")),
        "corpus.ingest_s": per_call("counts", total("corpus.ingest")),
        "corpus.word_stats_s": word_stats_s,
        "corpus.tokens_per_s": inputs.corpus_tokens / word_stats_s if word_stats_s else 0.0,
        "corpus.top_k_s": per_call("counts", total("corpus.top_k")),
        "corpus.load_tsv_s": per_call("fit_bayes_hmc", total("corpus.load_tsv")),
        "ols.fit_s": per_call("fit_ols", total("ols.fit")),
        "modelspec.parse_s": _median(s.duration for c in traced for s in spans(c.span, "modelspec.parse")),
        "cli.self_s": sum(per_call(k, lambda r: r.self_s) for k in dict.fromkeys(c.key for c in traced)),
    }
    plain, with_trace = step_medians(calls, traced=False), step_medians(calls, traced=True)
    metrics["trace.overhead_frac"] = sum(with_trace.values()) / sum(plain.values()) - 1.0
    # wall time of the traced steps that no layer's self time accounts for
    metrics["trace.unaccounted_frac"] = sum(abs(c.span.attrs["unaccounted_s"]) for c in traced) / sum(
        c.wall_s for c in traced
    )
    return metrics


def check_accounting(calls: list[Call], metrics: dict) -> None:
    """Fail the worst traced step if self times miss more wall time than tracing costs."""
    limit = max(metrics["trace.overhead_frac"], UNACCOUNTED_TOLERANCE)
    if metrics["trace.unaccounted_frac"] > limit:
        worst = max((c for c in calls if c.traced), key=lambda c: abs(c.span.attrs["unaccounted_s"]))
        worst.problems.append(
            f"layer self times miss {metrics['trace.unaccounted_frac']:.2%} of traced wall time (limit {limit:.2%})"
        )


# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run passes for ``seconds`` and return the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bayesline.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise RuntimeError(f"imported bayesline from {cli.__file__}, not from {SRC}")
    meter = SpeedMeter()
    inputs, corpus, setup_times = set_up(w, seed, work, meter)
    refs = references(w, inputs, corpus)
    tracer = Tracer() if trace else None
    runner = Runner(cli, tracer, meter)
    steps = build_steps(w, inputs, work, 4 * seed, runner, refs)
    t0 = time.perf_counter()
    modes = (False, True) if trace else (False,)
    cheap: set[str] = set()
    for n in itertools.count():
        traced = modes[n % len(modes)]
        pass_t0 = time.perf_counter()
        if traced:
            with tracer.instrument():
                run_pass(runner, steps, True, cheap)
        else:
            run_pass(runner, steps, False, cheap)
        cheap = {k for k, v in step_medians(runner.calls, traced=False).items() if v < CHEAP_S}
        # start another pass only if at least half of it fits in the run
        now = time.perf_counter()
        if n + 1 >= len(modes) and now - t0 + (now - pass_t0) / 2 >= seconds:
            break
    calls = runner.calls
    if trace:
        metrics = per_layer(tracer, calls, inputs)
        check_accounting(calls, metrics)
        tracer.dump(work / "trace.json")
    else:
        metrics = end_to_end(calls, setup_times)
    failures = [(c.key, c.problems) for c in calls if c.problems]
    return {
        "metrics": metrics,
        "calls": calls,
        "failures": failures,
        "quality": quality(calls),
        "quadrature": runner.quadrature,
        "setup_times": setup_times,
    }


def quadrature_summary(entries: list[dict]) -> list[dict]:
    """The worst error per checked step, over all its calls in the run."""
    out = []
    for key in dict.fromkeys(e["step"] for e in entries):
        mine = [e for e in entries if e["step"] == key]
        error, worst = max((v, k) for e in mine for k, v in e["errors"].items())
        out.append(
            {"step": key, "calls": len(mine), "worst": worst, "error": error,
             "limit": mine[0]["limit"], "ok": all(e["ok"] for e in mine)}
        )
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The object printed last: correct, attempted, failed and the declared metrics."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    attempted, failed = len(result["calls"]), len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bayesline" / "__init__.py").is_file():
        print(f"error: no bayesline sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    w = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = measure(w, args.seed, args.seconds, bool(args.trace), work)
    line = result_line(result, spec, bool(args.trace))

    steps = step_stats(result["calls"])
    samples = {f"{k}_s": v["n"] for k, v in steps.items()}
    samples["setup_s"] = len(result["setup_times"])
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "machine": machine(),
        "attempted": line["attempted"],
        "failed": line["failed"],
        "fail_frac": line["failed"] / line["attempted"],
        "failures": result["failures"],
        "steps": steps,
        "setup_times": result["setup_times"],
        "metrics": result["metrics"],
        "quality": result["quality"],
        "quadrature": quadrature_summary(result["quadrature"]),
        "layer_map": LAYER_MAP if args.trace else None,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for bulky in ("inputs", "out"):  # the corpus and samples; result.json and trace.json stay
        shutil.rmtree(work / bulky, ignore_errors=True)
    for key, problems in result["failures"]:
        print(f"FAIL {key}: {'; '.join(problems)}", file=sys.stderr)
    for q in record["quadrature"]:
        verdict = "ok" if q["ok"] else "FAIL"
        text = f"quadrature {q['step']}: worst {q['worst']} off by {q['error']:.2f} (limit {q['limit']:g}) {verdict}"
        print(f"  {text}")
        if not q["ok"]:
            print(text, file=sys.stderr)

    print(f"bayesline bench: workload={w.name} seed={args.seed} trace={args.trace} commit={record['commit']}")
    print(f"  machine: {record['machine']}")
    print(f"  attempted={record['attempted']} failed={record['failed']} fail_frac={record['fail_frac']:.4g}")
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {k: v["value"] for k, v in line["metrics"].items()}
    if not args.trace:  # the sampling quality, next to the speed it was bought with
        shown.update({k: result["quality"][k] for k in QUALITY})
    for name, value in shown.items():
        m = declared[name]
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<28} {value:>14.6g} {m['unit']:<8} {m['better']:<6}{n}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
