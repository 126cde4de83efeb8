"""Serialization: CSV sample dumps, JSON summaries, SVG scatter/line figures.

Everything here is deterministic: identical inputs produce byte-identical
output. Floats in CSV go out with 17 significant digits so a round trip
recovers every bit of a double. SVG is generated textually (no plotting
dependency); regression lines are the only ``path`` elements and data
points the only ``circle`` elements, so figures can be checked by counting
elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .corpus import Dataset, read_text
from .inference import LineEnsemble, Summary
from .ols import OlsFit
from .sampler import Chains

__all__ = [
    "PlotSpec",
    "json_text",
    "read_samples_csv",
    "render_marginals_svg",
    "render_scatter_svg",
    "write_samples_csv",
    "write_summary_json",
]

_MARGIN_LEFT = 56.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 16.0
_MARGIN_BOTTOM = 44.0
_N_TICKS = 5
_READ_BLOCK_ROWS = 4096


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``: & first, then > and <. Importing saxutils
    also imports urllib.request, http.client and email at every CLI start."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(frozen=True)
class PlotSpec:
    """Figure geometry; axis ranges default to the data extent padded 5%."""

    width: int = 640
    height: int = 480
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None
    point_radius: float = 4.0
    line_opacity: float = 0.05

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        for rng in (self.x_range, self.y_range):
            if rng is not None and not rng[1] > rng[0]:
                raise ValueError(f"axis range must be non-degenerate, got {rng}")
        if not 0.0 < self.line_opacity <= 1.0:
            raise ValueError("line opacity must lie in (0, 1]")


def _write_text(sink: str | Path | IO[str], text: str) -> None:
    """Write text to an open handle, or to a UTF-8 file at a path with LF line ends."""
    if hasattr(sink, "write"):
        sink.write(text)
        return
    with open(Path(sink), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def json_text(payload) -> str:
    """Indented strict JSON with a final newline; a NaN or infinity raises ValueError."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_samples_csv(chains: Chains, sink: str | Path | IO[str]) -> None:
    """Dump draws as `chain,draw,a,b,sigma` rows ordered by (chain, draw)."""
    if chains.total_draws == 0:
        raise ValueError("cannot write empty chains")
    names = chains.param_names
    row = "%d,%d," + ",".join(["%.17g"] * len(names)) + "\n"
    body = "".join(
        row % (c, d, *v) for c, chain in enumerate(chains.draws.tolist()) for d, v in enumerate(chain)
    )
    _write_text(sink, "chain,draw," + ",".join(names) + "\n" + body)


def read_samples_csv(source: str | Path | IO[str]) -> Chains:
    """Rebuild Chains from a samples CSV; run metadata is not recoverable.

    Rows must run chain by chain, each chain numbering its draws 0, 1, ...
    and all chains holding the same number of draws. A row that breaks that
    order, holds a non-numeric field or a non-finite draw, or has more or
    fewer values than the header has columns raises ValueError naming its
    line.
    """
    lines = read_text(source).splitlines()
    if not lines:
        raise ValueError("empty samples file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "chain" or header[1] != "draw":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = len(lines) - 1  # row i is on line i + 2
    if rows == 0:
        raise ValueError("samples file has no draws")
    # parsed and checked as arrays: a per-row check costs about a tenth of
    # `plot`; parsing by blocks keeps the per-row float lists of one block alive
    values = np.empty((rows, len(header)))
    for start in range(0, rows, _READ_BLOCK_ROWS):
        stop = min(start + _READ_BLOCK_ROWS, rows)
        try:
            block = np.array([list(map(float, line.split(","))) for line in lines[start + 1 : stop + 1]])
        except ValueError:
            block = None  # a non-numeric field or a ragged row, located below
        if block is None or block.shape[1] != len(header):
            raise _first_malformed_row(lines, header)
        values[start:stop] = block
    finite = np.isfinite(values[:, 2:]).all(axis=1)
    if not finite.all():
        raise ValueError(f"samples file line {int(finite.argmin()) + 2}: non-finite draw")
    m = int(np.count_nonzero(values[:, 0] == 0))  # draws per chain
    expected_chain, expected_draw = np.divmod(np.arange(rows), max(m, 1))
    misplaced = (values[:, 0] != expected_chain) | (values[:, 1] != expected_draw)
    if misplaced.any():
        line_no = int(misplaced.argmax()) + 2
        raise ValueError(
            f"samples file line {line_no}: expected chain {expected_chain[line_no - 2]}, "
            f"draw {expected_draw[line_no - 2]}"
        )
    if rows % m:
        raise ValueError(f"samples file: the last chain has {rows % m} draws and the others {m}")
    draws = np.ascontiguousarray(values[:, 2:]).reshape(rows // m, m, len(header) - 2)
    return Chains(draws=draws, param_names=tuple(header[2:]))


def _first_malformed_row(lines: list[str], header: list[str]) -> ValueError:
    """The error for the first row that is not one number per header column."""
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            return ValueError(f"samples file line {line_no}: {len(fields) - 2} values for columns {header[2:]}")
        for field in fields:
            try:
                float(field)
            except ValueError:
                return ValueError(f"samples file line {line_no}: non-numeric field {field!r}")
    raise AssertionError("every row parsed")


def _summary_payload(summary: Summary) -> dict:
    params = {}
    for name, s in summary.params.items():
        params[name] = {
            "mean": s.mean,
            "sd": s.sd,
            "quantiles": {"2.5%": s.q2_5, "50%": s.median, "97.5%": s.q97_5},
            "rhat": s.rhat,
            "ess": s.ess,
        }
    return {"parameters": params}


def write_summary_json(summary: Summary, sink: str | Path | IO[str]) -> None:
    """Summary as JSON with a fixed key order; undefined diagnostics are null."""
    _write_text(sink, json_text(_summary_payload(summary)))


# ---------------------------------------------------------------------------
# SVG figures


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    pad = 0.05 * span if span > 0 else 1.0
    return lo - pad, hi + pad


def _px(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    """Maps data coordinates onto the pixel plot area (y axis flipped)."""

    def __init__(self, plot: PlotSpec, x_range, y_range):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.left = _MARGIN_LEFT
        self.right = plot.width - _MARGIN_RIGHT
        self.top = _MARGIN_TOP
        self.bottom = plot.height - _MARGIN_BOTTOM

    def x(self, v: float) -> float:
        t = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + t * (self.right - self.left)

    def y(self, v: float) -> float:
        t = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - t * (self.bottom - self.top)


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<line x1="{_px(frame.left)}" y1="{_px(frame.bottom)}" '
        f'x2="{_px(frame.right)}" y2="{_px(frame.bottom)}" stroke="black"/>',
        f'<line x1="{_px(frame.left)}" y1="{_px(frame.top)}" '
        f'x2="{_px(frame.left)}" y2="{_px(frame.bottom)}" stroke="black"/>',
    ]
    for i in range(_N_TICKS):
        t = i / (_N_TICKS - 1)
        xv = frame.x_lo + t * (frame.x_hi - frame.x_lo)
        xp = frame.x(xv)
        parts.append(
            f'<line x1="{_px(xp)}" y1="{_px(frame.bottom)}" '
            f'x2="{_px(xp)}" y2="{_px(frame.bottom + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_px(xp)}" y="{_px(frame.bottom + 18)}" font-size="11" '
            f'text-anchor="middle">{_escape(f"{xv:.4g}")}</text>'
        )
        yv = frame.y_lo + t * (frame.y_hi - frame.y_lo)
        yp = frame.y(yv)
        parts.append(
            f'<line x1="{_px(frame.left - 5)}" y1="{_px(yp)}" '
            f'x2="{_px(frame.left)}" y2="{_px(yp)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_px(frame.left - 8)}" y="{_px(yp + 4)}" font-size="11" '
            f'text-anchor="end">{_escape(f"{yv:.4g}")}</text>'
        )
    mid_x = (frame.left + frame.right) / 2
    mid_y = (frame.top + frame.bottom) / 2
    parts.append(
        f'<text x="{_px(mid_x)}" y="{_px(frame.bottom + 36)}" font-size="13" '
        f'text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_px(mid_y)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {_px(mid_y)})">{_escape(y_label)}</text>'
    )
    return parts


def _line_path(frame: _Frame, slope: float, intercept: float, opacity: float) -> str:
    x1, x2 = frame.x_lo, frame.x_hi
    y1 = slope * x1 + intercept
    y2 = slope * x2 + intercept
    d = f"M {_px(frame.x(x1))} {_px(frame.y(y1))} L {_px(frame.x(x2))} {_px(frame.y(y2))}"
    op = "" if opacity >= 1.0 else f' stroke-opacity="{opacity:g}"'
    return f'<path d="{d}" stroke="red" stroke-width="1.5" fill="none"{op}/>'


def render_scatter_svg(
    data: Dataset,
    fit: OlsFit | LineEnsemble,
    plot: PlotSpec,
    sink: str | Path | IO[str],
    x_label: str = "x",
    y_label: str = "y",
) -> None:
    """Scatter of the dataset with one regression line (OlsFit) or an ensemble.

    Each data point is one labelled ``circle``; each line is one ``path``
    clipped to the plot area.
    """
    if data.size < 1:
        raise ValueError("cannot plot an empty dataset")
    x_range = plot.x_range or _padded(float(data.x.min()), float(data.x.max()))
    y_range = plot.y_range or _padded(float(data.y.min()), float(data.y.max()))
    frame = _Frame(plot, x_range, y_range)
    lines: list[tuple[float, float]]
    if isinstance(fit, OlsFit):
        lines = [(fit.slope, fit.intercept)]
        opacity = 1.0
    else:
        lines = list(fit.lines)
        opacity = plot.line_opacity
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{plot.width}" height="{plot.height}" '
        f'viewBox="0 0 {plot.width} {plot.height}">',
        "<defs>",
        f'<clipPath id="plotarea"><rect x="{_px(frame.left)}" y="{_px(frame.top)}" '
        f'width="{_px(frame.right - frame.left)}" height="{_px(frame.bottom - frame.top)}"/>'
        "</clipPath>",
        "</defs>",
        f'<rect width="{plot.width}" height="{plot.height}" fill="white"/>',
    ]
    parts.extend(_axes(frame, x_label, y_label))
    parts.append('<g clip-path="url(#plotarea)">')
    for slope, intercept in lines:
        parts.append(_line_path(frame, slope, intercept, opacity))
    parts.append("</g>")
    for point in data.points:
        cx, cy = frame.x(point.x), frame.y(point.y)
        parts.append(
            f'<circle cx="{_px(cx)}" cy="{_px(cy)}" r="{plot.point_radius:g}" '
            f'fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_px(cx + plot.point_radius + 2)}" y="{_px(cy - 4)}" '
            f'font-size="10">{_escape(point.label)}</text>'
        )
    parts.append("</svg>")
    _write_text(sink, "\n".join(parts) + "\n")


def render_marginals_svg(
    chains: Chains,
    plot: PlotSpec,
    sink: str | Path | IO[str],
    params: Sequence[str] = ("a", "b"),
    bins: int = 30,
) -> None:
    """Side-by-side marginal histograms with a mean line per parameter.

    Bars are ``rect`` elements and the mean markers ``line`` elements, so
    these figures never interfere with path/circle counts elsewhere.
    """
    if chains.total_draws == 0:
        raise ValueError("cannot plot empty chains")
    panel_w = plot.width / len(params)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{plot.width}" height="{plot.height}" '
        f'viewBox="0 0 {plot.width} {plot.height}">',
        f'<rect width="{plot.width}" height="{plot.height}" fill="white"/>',
    ]
    for i, name in enumerate(params):
        values = chains.pooled(name)
        counts, edges = np.histogram(values, bins=bins)
        top = float(counts.max()) if counts.max() > 0 else 1.0
        left = i * panel_w + _MARGIN_LEFT
        right = (i + 1) * panel_w - _MARGIN_RIGHT
        bottom = plot.height - _MARGIN_BOTTOM
        height = bottom - _MARGIN_TOP
        lo, hi = float(edges[0]), float(edges[-1])
        span = hi - lo if hi > lo else 1.0
        for k, count in enumerate(counts):
            x0 = left + (edges[k] - lo) / span * (right - left)
            x1 = left + (edges[k + 1] - lo) / span * (right - left)
            h = count / top * height
            parts.append(
                f'<rect x="{_px(x0)}" y="{_px(bottom - h)}" '
                f'width="{_px(max(x1 - x0 - 0.5, 0.5))}" height="{_px(h)}" '
                f'fill="steelblue"/>'
            )
        mean_x = left + (float(values.mean()) - lo) / span * (right - left)
        parts.append(
            f'<line x1="{_px(mean_x)}" y1="{_px(_MARGIN_TOP)}" '
            f'x2="{_px(mean_x)}" y2="{_px(bottom)}" stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_px((left + right) / 2)}" y="{_px(bottom + 18)}" font-size="13" '
            f'text-anchor="middle">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    _write_text(sink, "\n".join(parts) + "\n")
