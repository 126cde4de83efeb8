"""Spans around the CLI's calls into each bayesline module, kept in memory.

The tracer replaces public functions at the sites where the CLI and the
sampler look them up (``bayesline.cli.sample_hmc``,
``bayesline.density.grad_log_posterior_unconstrained``, ...) and restores
them afterwards. Each call becomes a span with a name, start, end and
parent. The per-draw density calls are too many to keep one span each, so
they are aggregated into a call count and a total time on the span that
encloses them. A span's self time is its duration minus its child spans and
aggregated calls; the layer of a span is the part of its name before the
first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, attribute, span name, kind). "span" records a span, "count"
# aggregates into the enclosing span, "memory" also records the
# tracemalloc peak of the call.
SITES = (
    ("bayesline.cli", "sample_hmc", "sampler.hmc", "span"),
    ("bayesline.cli", "sample_rwm", "sampler.rwm", "span"),
    ("bayesline.density", "log_posterior_unconstrained", "density.logp", "count"),
    ("bayesline.density", "grad_log_posterior_unconstrained", "density.grad", "count"),
    ("bayesline.inference", "summarize", "inference.summarize", "span"),
    ("bayesline.inference", "draw_line_ensemble", "inference.ensemble", "span"),
    ("bayesline.inference", "estimate_evidence", "inference.evidence", "memory"),
    ("bayesline.export", "write_samples_csv", "export.csv_write", "span"),
    ("bayesline.export", "read_samples_csv", "export.csv_read", "span"),
    ("bayesline.export", "write_summary_json", "export.summary_write", "span"),
    ("bayesline.export", "render_scatter_svg", "export.svg", "span"),
    ("bayesline.export", "render_marginals_svg", "export.svg", "span"),
    ("bayesline.cli", "ingest_articles", "corpus.ingest", "span"),
    ("bayesline.cli", "default_stopwords", "corpus.stopwords", "span"),
    ("bayesline.cli", "word_stats", "corpus.word_stats", "span"),
    ("bayesline.cli", "top_k", "corpus.top_k", "span"),
    ("bayesline.cli", "format_dataset_tsv", "corpus.format", "span"),
    ("bayesline.cli", "load_dataset_tsv", "corpus.load_tsv", "span"),
    ("bayesline.ols", "ols_fit", "ols.fit", "span"),
    ("bayesline.cli", "parse_model_spec", "modelspec.parse", "span"),
    ("bayesline.cli", "default_model", "modelspec.default", "span"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # covered by child spans and aggregated calls
    calls: dict[str, list] = field(default_factory=dict)  # name -> [count, seconds]
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Nested spans on one thread; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent.id if parent else None, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration

    def _spanned(self, fn, name: str, memory: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        s.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                _annotate(s, args, result)
                return result

        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if self._open:
                    s = self._open[-1]
                    c = s.calls.setdefault(name, [0, 0.0])
                    c[0] += 1
                    c[1] += dt
                    s.child_s += dt

        return counted

    @contextmanager
    def instrument(self):
        """Wrap every site in SITES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, kind in SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:  # the program no longer has this site
                    continue
                saved.append((module, attr, fn))
                wrapped = (
                    self._counted(fn, name) if kind == "count" else self._spanned(fn, name, kind == "memory")
                )
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def subtree(self, root: Span) -> list[Span]:
        """root and its descendants; spans are appended in start order."""
        ids = {root.id}
        out = [root]
        for s in self.spans[root.id + 1 :]:
            if s.parent in ids:
                ids.add(s.id)
                out.append(s)
            elif s.parent is None:
                break  # the next root: spans are appended in start order
        return out

    def layer_self_times(self, root: Span) -> dict[str, float]:
        """Self time per layer under root; aggregated calls count for their own layer."""
        layers: dict[str, float] = {}
        for s in self.subtree(root):
            layers[s.layer] = layers.get(s.layer, 0.0) + s.self_s
            for name, (_, seconds) in s.calls.items():
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


def _annotate(s: Span, args, result) -> None:
    """Keep what per-layer metrics need from a call's arguments or result."""
    if s.name.startswith("sampler."):
        s.attrs["accept_rates"] = list(result.accept_rates or ())
        s.attrs["divergences"] = list(result.divergences or ())
    elif s.name == "export.csv_write" and len(args) > 1 and isinstance(args[1], (str, Path)):
        s.attrs["bytes"] = Path(args[1]).stat().st_size
