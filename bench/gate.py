"""Correctness gate: every CLI step's outputs are checked before they count.

Each check returns a list of problems; an empty list means the step passed.
A failed check is counted against the step and never aborts the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Files each command must leave in its --out directory.
OUTPUT_FILES = {
    "fit-ols": ("ols.json", "figure1.svg"),
    "fit-bayes": ("samples.csv", "summary.json", "figure2a.svg", "figure2b.svg"),
    "plot": ("figure1.svg", "figure2a.svg", "figure2b.svg"),
}
PARAMS = ("a", "b", "sigma")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity, which json.loads accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def missing_files(out: Path, command: str) -> list[str]:
    return [f"missing {out / f}" for f in OUTPUT_FILES.get(command, ()) if not (out / f).is_file()]


def digest(out: Path | None, command: str, stdout: str) -> str:
    """Hash of everything a step produced, for the byte-determinism check."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out is not None:
        for name in OUTPUT_FILES.get(command, ()):
            path = out / name
            h.update(name.encode())
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def check_counts(stdout: str, expected: str) -> list[str]:
    if stdout == expected:
        return []
    got, want = stdout.splitlines(), expected.splitlines()
    for i, (g, e) in enumerate(zip(got, want)):
        if g != e:
            return [f"counts line {i + 1}: got {g!r}, expected {e!r}"]
    return [f"counts: got {len(got)} lines, expected {len(want)}"]


def _read_tsv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]
    return (
        np.array([float(r[1]) for r in rows]),
        np.array([float(r[2]) for r in rows]),
    )


def check_ols(out: Path, dataset: Path) -> list[str]:
    """Slope and intercept against numpy.linalg.lstsq, to a relative 1e-9."""
    try:
        fit = strict_json((out / "ols.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"ols.json: {exc}"]
    x, y = _read_tsv(dataset)
    (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y, rcond=None)
    problems = []
    for key, ref in (("slope", slope), ("intercept", intercept)):
        got = fit.get(key)
        if not _finite(got) or not math.isclose(got, float(ref), rel_tol=1e-9):
            problems.append(f"ols {key} {got!r} vs lstsq {float(ref)!r}")
    if len(fit.get("residuals", ())) != x.size or not _finite(fit.get("lse")):
        problems.append("ols.json residuals or lse malformed")
    return problems


def check_samples(path: Path, chains: int, draws: int) -> list[str]:
    """chains x draws rows with finite values, b >= 0 and sigma > 0."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"samples.csv: {exc}"]
    if rows.shape != (chains * draws, 2 + len(PARAMS)):
        return [f"samples.csv shape {rows.shape}, expected ({chains * draws}, {2 + len(PARAMS)})"]
    problems = []
    if not np.isfinite(rows).all():
        problems.append("samples.csv has non-finite values")
    if (rows[:, 3] < 0).any():
        problems.append("samples.csv has b < 0")
    if not (rows[:, 4] > 0).all():
        problems.append("samples.csv has sigma <= 0")
    expected_chain = np.repeat(np.arange(chains), draws)
    if not np.array_equal(rows[:, 0], expected_chain):
        problems.append("samples.csv chain column out of order")
    return problems


def read_summary(out: Path) -> tuple[dict | None, list[str]]:
    """summary.json with finite mean, sd, R-hat and ESS for a, b and sigma."""
    try:
        summary = strict_json((out / "summary.json").read_text(encoding="utf-8"))
        params = summary["parameters"]
        for p in PARAMS:
            for key in ("mean", "sd", "rhat", "ess"):
                if not _finite(params[p][key]):
                    return None, [f"summary.json {p}.{key} = {params[p][key]!r}"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"summary.json: {exc!r}"]
    return params, []


def mean_errors(params: dict, reference: dict) -> dict[str, float]:
    """|sampled mean - reference| in Monte Carlo standard errors (sd / sqrt(ESS))."""
    return {
        p: abs(params[p]["mean"] - reference[p]) / (params[p]["sd"] / math.sqrt(params[p]["ess"]))
        for p in PARAMS
    }


def check_svg(out: Path, m: int, ensemble: int) -> list[str]:
    """figure2b carries one path per ensemble line and one circle per point."""
    text = (out / "figure2b.svg").read_text(encoding="utf-8")
    paths, circles = text.count("<path "), text.count("<circle ")
    if (paths, circles) != (ensemble, m):
        return [f"figure2b.svg has {paths} paths and {circles} circles, expected {ensemble} and {m}"]
    return []


def check_evidence(stdout: str, n_samples: int) -> list[str]:
    """Two finite estimates from n_samples draws and a Bayes factor that matches them."""
    try:
        estimates = evidence_estimates(stdout)
        bf = strict_json(stdout)["bayes_factor"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"evidence JSON: {exc!r}"]
    if len(estimates) != 2:
        return [f"evidence: {len(estimates)} models, expected 2"]
    problems = [
        f"evidence model {i}: {log_ev!r} +- {se!r} from {n!r} samples"
        for i, (log_ev, se, n) in enumerate(estimates)
        if not (_finite(log_ev) and _finite(se)) or n != n_samples
    ]
    if not problems:
        # exp() of a log ratio below about -745 underflows to 0.0, which is still consistent
        try:
            expected_bf = math.exp(estimates[0][0] - estimates[1][0])
        except OverflowError:
            expected_bf = math.inf
        if not (_finite(bf) and math.isclose(bf, expected_bf, rel_tol=1e-12, abs_tol=1e-300)):
            problems.append(f"evidence: bayes_factor {bf!r}, log evidences give {expected_bf!r}")
    return problems


def evidence_estimates(stdout: str) -> list[tuple]:
    """(log evidence, standard error, prior samples) per model of `evidence` output."""
    models = strict_json(stdout)["models"]
    return [(m["log_evidence"], m["mc_standard_error"], m["n_prior_samples"]) for m in models]
