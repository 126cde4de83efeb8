"""Declarative description of the affine-mean Normal regression model.

The model is fixed in shape: three parameters (slope ``a``, intercept ``b``,
noise scale ``sigma``) and the likelihood ``Y ~ Normal(a * X + b, sigma)``.
Only the priors vary. The text format is one statement per line, with ``#``
starting a comment:

    param a ~ Normal(0, 1)
    param b ~ HalfNormal(1)
    param sigma ~ HalfNormal(1)
    likelihood Y ~ Normal(a * X + b, sigma)

All three parameters and the likelihood must be declared; there are no
silent defaults. ``sigma`` must use a HalfNormal prior because the noise
scale has to be positive. A scale must be positive, with a square that is
a normal float and a doubled square that is finite: about 1.5e-154 to
9.5e153, so the densities can divide by both. Every parse failure carries a
1-based line and column.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

__all__ = [
    "DistributionSpec",
    "DuplicateParameterError",
    "LikelihoodError",
    "MissingParameterError",
    "ModelSpec",
    "ModelSpecError",
    "NoisePriorError",
    "NonPositiveScaleError",
    "SpecSyntaxError",
    "UnknownDistributionError",
    "default_model",
    "format_model_spec",
    "parse_model_spec",
]

_PARAM_NAMES = ("a", "b", "sigma")
_DISTRIBUTIONS = ("Normal", "HalfNormal")


class ModelSpecError(Exception):
    """A model-spec text could not be parsed; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class SpecSyntaxError(ModelSpecError):
    """The statement does not match the grammar."""


class UnknownDistributionError(ModelSpecError):
    """A distribution other than Normal or HalfNormal was named."""


class NonPositiveScaleError(ModelSpecError):
    """A scale argument was not positive, or its square underflows or overflows."""


class DuplicateParameterError(ModelSpecError):
    """The same parameter was declared twice."""


class MissingParameterError(ModelSpecError):
    """A required parameter was never declared."""


class NoisePriorError(ModelSpecError):
    """sigma was declared with a prior that allows non-positive values."""


class LikelihoodError(ModelSpecError):
    """The likelihood statement is missing, duplicated, or malformed."""


_SCALE_RANGE = "scale must be positive and lie in about [1.5e-154, 9.5e153]"


def _scale_ok(scale: float) -> bool:
    # densities divide by scale**2 and by 2 * scale**2
    return scale > 0 and scale * scale >= sys.float_info.min and math.isfinite(2 * scale * scale)


@dataclass(frozen=True)
class DistributionSpec:
    """A Normal(location, scale) or HalfNormal(scale) prior."""

    kind: str
    location: float | None
    scale: float

    def __post_init__(self):
        if self.kind not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not _scale_ok(self.scale):
            raise ValueError(f"{_SCALE_RANGE}, got {self.scale}")
        if self.kind == "Normal":
            if self.location is None or not math.isfinite(self.location):
                raise ValueError("Normal requires a finite location")
        elif self.location is not None:
            raise ValueError("HalfNormal is folded at 0 and takes no location")

    @classmethod
    def normal(cls, location: float, scale: float) -> "DistributionSpec":
        return cls("Normal", location, scale)

    @classmethod
    def half_normal(cls, scale: float) -> "DistributionSpec":
        return cls("HalfNormal", None, scale)


@dataclass(frozen=True)
class ModelSpec:
    """Priors for (a, b, sigma) under the fixed affine-mean Normal likelihood."""

    slope_prior: DistributionSpec
    intercept_prior: DistributionSpec
    noise_prior: DistributionSpec

    def __post_init__(self):
        if self.noise_prior.kind != "HalfNormal":
            raise ValueError("the noise prior must have positive support (HalfNormal)")


def default_model() -> ModelSpec:
    """The priors used by the CLI when no model file is given.

    a ~ Normal(0, 1), b ~ HalfNormal(1), sigma ~ HalfNormal(1). The
    intercept and noise scale are nonnegative by construction, so both get
    half-normal priors.
    """
    return ModelSpec(
        slope_prior=DistributionSpec.normal(0.0, 1.0),
        intercept_prior=DistributionSpec.half_normal(1.0),
        noise_prior=DistributionSpec.half_normal(1.0),
    )


_PARAM_RE = re.compile(
    r"^\s*param\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*~\s*(?P<dist>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<args>[^()]*)\)\s*$"
)
_LIKELIHOOD_RE = re.compile(
    r"^\s*likelihood\s+Y\s*~\s*Normal\(\s*a\s*\*\s*X\s*\+\s*b\s*,\s*sigma\s*\)\s*$"
)
_NUMBER_RE = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _parse_args(args_text: str, args_offset: int, line_no: int) -> list[tuple[float, int]]:
    """Split a comma-separated argument list into (value, column) pairs."""
    values = []
    offset = args_offset
    for chunk in args_text.split(","):
        stripped = chunk.strip()
        column = offset + len(chunk) - len(chunk.lstrip()) + 1
        if not _NUMBER_RE.fullmatch(stripped):
            raise SpecSyntaxError(f"expected a number, got {stripped!r}", line_no, column)
        values.append((float(stripped), column))
        offset += len(chunk) + 1
    return values


def _parse_param_line(line: str, line_no: int) -> tuple[str, DistributionSpec]:
    m = _PARAM_RE.match(line)
    if m is None:
        raise SpecSyntaxError(
            "expected: param <name> ~ <Distribution>(<args>)",
            line_no,
            len(line) - len(line.lstrip()) + 1,
        )
    name = m.group("name")
    if name not in _PARAM_NAMES:
        raise SpecSyntaxError(
            f"unknown parameter {name!r} (the model has a, b and sigma)",
            line_no,
            m.start("name") + 1,
        )
    dist = m.group("dist")
    if dist not in _DISTRIBUTIONS:
        raise UnknownDistributionError(
            f"unknown distribution {dist!r} (use Normal or HalfNormal)",
            line_no,
            m.start("dist") + 1,
        )
    args = _parse_args(m.group("args"), m.start("args"), line_no)
    if dist == "Normal":
        if len(args) != 2:
            raise SpecSyntaxError(
                f"Normal takes (location, scale), got {len(args)} argument(s)",
                line_no,
                m.start("args") + 1,
            )
        (location, _), (scale, scale_col) = args
    else:
        if len(args) != 1:
            raise SpecSyntaxError(
                f"HalfNormal takes a single scale, got {len(args)} argument(s)",
                line_no,
                m.start("args") + 1,
            )
        location = None
        scale, scale_col = args[0]
    if not _scale_ok(scale):
        raise NonPositiveScaleError(f"{_SCALE_RANGE}, got {scale:g}", line_no, scale_col)
    if name == "sigma" and dist != "HalfNormal":
        raise NoisePriorError(
            "sigma is a noise scale and must be positive: use HalfNormal",
            line_no,
            m.start("dist") + 1,
        )
    return name, DistributionSpec(dist, location, scale)


def parse_model_spec(text: str) -> ModelSpec:
    """Parse model-spec text; raises a positioned ModelSpecError on failure."""
    params: dict[str, DistributionSpec] = {}
    param_lines: dict[str, int] = {}
    likelihood_line: int | None = None
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        head = line.split(None, 1)[0]
        if head == "param":
            name, dist = _parse_param_line(line, line_no)
            if name in params:
                raise DuplicateParameterError(
                    f"parameter {name!r} already declared on line {param_lines[name]}",
                    line_no,
                    line.find(name, line.find("param") + 5) + 1,
                )
            params[name] = dist
            param_lines[name] = line_no
        elif head == "likelihood":
            if not _LIKELIHOOD_RE.match(line):
                raise LikelihoodError(
                    "likelihood must be exactly: likelihood Y ~ Normal(a * X + b, sigma)",
                    line_no,
                    len(line) - len(line.lstrip()) + 1,
                )
            if likelihood_line is not None:
                raise LikelihoodError(
                    f"likelihood already declared on line {likelihood_line}",
                    line_no,
                    len(line) - len(line.lstrip()) + 1,
                )
            likelihood_line = line_no
        else:
            raise SpecSyntaxError(
                f"expected 'param' or 'likelihood', got {head!r}",
                line_no,
                len(line) - len(line.lstrip()) + 1,
            )
    end_line = len(lines) + 1
    missing = [n for n in _PARAM_NAMES if n not in params]
    if missing:
        raise MissingParameterError(
            f"missing parameter declaration(s): {', '.join(missing)}", end_line, 1
        )
    if likelihood_line is None:
        raise LikelihoodError("missing likelihood declaration", end_line, 1)
    return ModelSpec(
        slope_prior=params["a"],
        intercept_prior=params["b"],
        noise_prior=params["sigma"],
    )


def _format_dist(dist: DistributionSpec) -> str:
    if dist.kind == "Normal":
        return f"Normal({format(dist.location, '.17g')}, {format(dist.scale, '.17g')})"
    return f"HalfNormal({format(dist.scale, '.17g')})"


def format_model_spec(spec: ModelSpec) -> str:
    """Render a ModelSpec as canonical text; parse(format(spec)) == spec."""
    return (
        f"param a ~ {_format_dist(spec.slope_prior)}\n"
        f"param b ~ {_format_dist(spec.intercept_prior)}\n"
        f"param sigma ~ {_format_dist(spec.noise_prior)}\n"
        "likelihood Y ~ Normal(a * X + b, sigma)\n"
    )
