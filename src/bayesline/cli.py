"""Command-line pipeline: word counts, least-squares and Bayesian fits, figures.

Subcommands:

    counts <dir>        word-count dataset of a directory of .txt articles (TSV to stdout)
    fit-ols <tsv>       closed-form least squares -> ols.json + figure1.svg
    fit-bayes <tsv>     MCMC posterior -> samples.csv, summary.json, figure2a.svg, figure2b.svg
    evidence <tsv>      marginal likelihoods of two model files + Bayes factor (JSON to stdout)
    update              exact conjugate Normal-mean update (JSON to stdout)
    plot <tsv>          regenerate figures from a saved samples.csv

Exit codes: 0 success, 1 usage error, 2 data or model error. Output files
go to --out (default: $BAYESLINE_OUT or the working directory). Every
subcommand is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import export, inference, ols
from .corpus import (
    CorpusError,
    default_stopwords,
    format_dataset_tsv,
    ingest_articles,
    load_dataset_tsv,
    load_stopwords,
    top_k,
    word_stats,
)
from .inference import ConjugateNormalState
from .modelspec import ModelSpecError, default_model, parse_model_spec
from .sampler import InitializationError, SamplerConfig, sample_hmc, sample_rwm

OUT_ENV = "BAYESLINE_OUT"

_DATA_ERRORS = (
    CorpusError,
    ModelSpecError,
    InitializationError,
    inference.DiagnosticError,
    inference.DegenerateEvidenceError,
    ols.InsufficientDataError,
    ols.DegenerateDesignError,
    ValueError,
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this CLI reserves 2 for data errors
    def error(self, message: str):
        raise _UsageError(message)


def _out_dir(ns) -> Path:
    out = Path(ns.out if ns.out is not None else os.environ.get(OUT_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(path: str | None):
    if path is None:
        return default_model()
    return parse_model_spec(Path(path).read_text(encoding="utf-8"))


def _scatter(data, fit, path: Path) -> None:
    export.render_scatter_svg(
        data, fit, export.PlotSpec(), path, x_label="total count", y_label="article count"
    )


def _cmd_counts(ns) -> int:
    directory = Path(ns.directory)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    sources = sorted(directory.glob("*.txt"))
    corpus = ingest_articles(sources)
    stopwords = load_stopwords(ns.stopwords) if ns.stopwords else default_stopwords()
    dataset = top_k(word_stats(corpus, stopwords), ns.top_k)
    sys.stdout.write(format_dataset_tsv(dataset))
    return 0


def _cmd_fit_ols(ns) -> int:
    data = load_dataset_tsv(ns.dataset)
    fit = ols.ols_fit(data)
    out = _out_dir(ns)
    payload = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "lse": fit.lse,
        "residuals": list(fit.residuals),
    }
    (out / "ols.json").write_text(export.json_text(payload), encoding="utf-8")
    _scatter(data, fit, out / "figure1.svg")
    print(f"wrote {out / 'ols.json'} and {out / 'figure1.svg'}", file=sys.stderr)
    return 0


def _sampler_config(ns) -> SamplerConfig:
    return SamplerConfig(
        n_chains=ns.chains,
        n_draws=ns.draws,
        n_warmup=ns.warmup,
        seed=ns.seed,
        algorithm=ns.sampler,
        rwm_step=ns.rwm_step,
        hmc_step=ns.hmc_step,
        hmc_leapfrog=ns.leapfrog,
        target_accept=ns.target_accept,
    )


def _write_figures(data, chains, ensemble_size: int, out: Path) -> None:
    ensemble = inference.draw_line_ensemble(chains, ensemble_size)
    export.render_marginals_svg(chains, export.PlotSpec(), out / "figure2a.svg")
    _scatter(data, ensemble, out / "figure2b.svg")


def _cmd_fit_bayes(ns) -> int:
    data = load_dataset_tsv(ns.dataset)
    spec = _load_model(ns.model)
    cfg = _sampler_config(ns)
    inference.check_ensemble_size(ns.ensemble, cfg.n_chains * cfg.n_draws)
    sample = sample_hmc if cfg.algorithm == "hmc" else sample_rwm
    chains = sample(spec, data, cfg)
    out = _out_dir(ns)
    export.write_samples_csv(chains, out / "samples.csv")
    export.write_summary_json(inference.summarize(chains), out / "summary.json")
    _write_figures(data, chains, ns.ensemble, out)
    if chains.divergence_warning:
        print("warning: more than 10% divergent iterations post-warmup", file=sys.stderr)
    print(f"wrote samples.csv, summary.json and figures to {out}", file=sys.stderr)
    return 0


def _cmd_evidence(ns) -> int:
    data = load_dataset_tsv(ns.dataset)
    if len(ns.model) != 2:
        raise _UsageError("evidence requires exactly two --model files")
    estimates = []
    for path in ns.model:
        e = inference.estimate_evidence(_load_model(path), data, ns.samples, ns.seed)
        if e.effective_samples < inference.MIN_EVIDENCE_ESS:
            print(
                f"warning: the evidence of {path} rests on {e.effective_samples:.3g} effective "
                f"prior samples (fewer than {inference.MIN_EVIDENCE_ESS}); its log evidence and "
                "standard error cannot be trusted",
                file=sys.stderr,
            )
        estimates.append(e)
    payload = {
        "models": [
            {
                "path": path,
                "log_evidence": e.log_evidence,
                "mc_standard_error": e.mc_standard_error,
                "n_prior_samples": e.n_prior_samples,
                "effective_samples": e.effective_samples,
            }
            for path, e in zip(ns.model, estimates)
        ],
        "bayes_factor": inference.bayes_factor(estimates[0], estimates[1]),
    }
    sys.stdout.write(export.json_text(payload))
    return 0


def _cmd_update(ns) -> int:
    state = ConjugateNormalState(mean=ns.prior_mean, variance=ns.prior_var)
    state = inference.sequential_update(state, ns.observations, ns.obs_sd)
    sys.stdout.write(export.json_text({"mean": state.mean, "variance": state.variance}))
    return 0


def _cmd_plot(ns) -> int:
    data = load_dataset_tsv(ns.dataset)
    out = _out_dir(ns)
    samples = Path(ns.samples) if ns.samples else out / "samples.csv"
    chains = export.read_samples_csv(samples)
    for name in ("a", "b"):
        if name not in chains.param_names:
            raise ValueError(f"{samples} has no column {name!r}")
    inference.check_ensemble_size(ns.ensemble, chains.total_draws)
    fit = ols.ols_fit(data)
    _scatter(data, fit, out / "figure1.svg")
    _write_figures(data, chains, ns.ensemble, out)
    print(f"wrote figures to {out}", file=sys.stderr)
    return 0


def _add_out(p) -> None:
    p.add_argument("--out", default=None, help=f"output directory (default: ${OUT_ENV} or .)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bayesline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="word-count dataset from a directory of .txt articles")
    p.add_argument("directory")
    p.add_argument("--top-k", type=int, default=10, help="number of words to keep")
    p.add_argument("--stopwords", default=None, help="newline-delimited stopword file")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("fit-ols", help="closed-form least-squares fit")
    p.add_argument("dataset", help="TSV file: label<TAB>x<TAB>y")
    _add_out(p)
    p.set_defaults(func=_cmd_fit_ols)

    defaults = SamplerConfig()
    p = sub.add_parser("fit-bayes", help="MCMC fit of the Bayesian regression model")
    p.add_argument("dataset", help="TSV file: label<TAB>x<TAB>y")
    p.add_argument("--model", default=None, help="model-spec file (default: built-in priors)")
    p.add_argument("--chains", type=int, default=defaults.n_chains)
    p.add_argument("--draws", type=int, default=defaults.n_draws, help="retained draws per chain")
    p.add_argument("--warmup", type=int, default=defaults.n_warmup)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--sampler", choices=("hmc", "rwm"), default=defaults.algorithm)
    p.add_argument("--rwm-step", type=float, default=defaults.rwm_step)
    p.add_argument("--hmc-step", type=float, default=defaults.hmc_step)
    p.add_argument("--leapfrog", type=int, default=defaults.hmc_leapfrog)
    p.add_argument("--target-accept", type=float, default=defaults.target_accept)
    p.add_argument("--ensemble", type=int, default=500, help="lines in figure2b")
    _add_out(p)
    p.set_defaults(func=_cmd_fit_bayes)

    p = sub.add_parser("evidence", help="marginal likelihoods of two models + Bayes factor")
    p.add_argument("dataset")
    p.add_argument("--model", action="append", required=True, help="model file (give twice)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evidence)

    p = sub.add_parser("update", help="exact conjugate Normal-mean update")
    p.add_argument("--prior-mean", type=float, required=True)
    p.add_argument("--prior-var", type=float, required=True)
    p.add_argument("--obs-sd", type=float, required=True)
    p.add_argument("observations", type=float, nargs="*")
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("plot", help="regenerate figures from a saved samples.csv")
    p.add_argument("dataset")
    p.add_argument("--samples", default=None, help="samples CSV (default: <out>/samples.csv)")
    p.add_argument("--ensemble", type=int, default=500)
    _add_out(p)
    p.set_defaults(func=_cmd_plot)

    return parser


def run(argv: list[str]) -> int:
    """Run the CLI; returns the process exit code instead of calling sys.exit."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
