"""Corpus ingestion and word-count datasets.

Articles are plain UTF-8 text. Word statistics pair each word's total
occurrence count across the corpus with the number of distinct articles it
appears in. Tokenization is deliberately simple so that counts stay
reproducible: lowercase the text, split on every non-alphabetic character,
drop tokens shorter than two characters. A consequence is that hyphenated
or apostrophized words split into their parts ("non-linear" -> "non",
"linear").

An article whose lowercased text is all ASCII is split by mapping every
non-letter to a space and splitting on whitespace, which gives exactly the
tokens of the Unicode-letter regex; any other article keeps the regex.
Counting runs in C: one `Counter` of occurrences and one of per-article
word sets, with short tokens and stopwords dropped once over the distinct
words.

A `Dataset` holds finite (x, y) points only and rejects any other at
construction. Its `stats` record holds the centred sufficient statistics
of the line y = a*x + b (count, means, Sxx, least-squares slope, minimal
residual sum of squares). The samplers, the evidence and least squares take
every residual sum of squares from it, through `stats.rss(a, b)`.
"""

from __future__ import annotations

import io
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

import numpy as np

__all__ = [
    "Corpus",
    "CorpusError",
    "DataPoint",
    "Dataset",
    "DatasetParseError",
    "DuplicateArticleError",
    "EmptyCorpusError",
    "IngestError",
    "StopwordList",
    "SufficientStats",
    "WordStats",
    "default_stopwords",
    "format_dataset_tsv",
    "ingest_articles",
    "load_dataset_tsv",
    "load_stopwords",
    "top_k",
    "word_stats",
]

# Runs of Unicode letters; digits and underscores split words like any
# other non-alphabetic character.
_TOKEN = re.compile(r"[^\W\d_]+")
# On ASCII text the regex matches exactly the runs of ASCII letters.
_ASCII_NON_LETTERS = str.maketrans(
    {chr(c): " " for c in range(128) if not chr(c).isalpha()}
)

_MIN_TOKEN_LEN = 2


class CorpusError(Exception):
    """Base class for corpus and dataset errors."""


class IngestError(CorpusError):
    """A source document could not be read."""


class DuplicateArticleError(CorpusError):
    """Two articles resolved to the same identifier."""


class EmptyCorpusError(CorpusError):
    """An operation requiring articles was called on an empty corpus."""


class DatasetParseError(CorpusError):
    """A TSV dataset line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class WordStats(NamedTuple):
    word: str
    total_count: int  # occurrences over the whole corpus
    article_count: int  # number of distinct articles containing the word


class DataPoint(NamedTuple):
    label: str
    x: float
    y: float


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of (article-id, body) pairs with unique ids."""

    articles: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for article_id, _ in self.articles:
            if not article_id:
                raise ValueError("article ids must be non-empty")
            if article_id in seen:
                raise DuplicateArticleError(f"duplicate article id {article_id!r}")
            seen.add(article_id)

    def __len__(self) -> int:
        return len(self.articles)


@dataclass(frozen=True)
class StopwordList:
    """Lowercase tokens excluded from word statistics."""

    words: frozenset[str]

    def __post_init__(self):
        for w in self.words:
            if w != w.lower() or any(c.isspace() for c in w):
                raise ValueError(f"stopword {w!r} must be lowercase with no whitespace")

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @classmethod
    def empty(cls) -> "StopwordList":
        return cls(frozenset())


class SufficientStats(NamedTuple):
    """Centred sufficient statistics of a Dataset for the line y = a*x + b.

    ``slope`` is the least-squares slope Sxy / Sxx (0.0 when every x is
    equal) and ``rss_min`` the residual sum of squares of that fit.
    """

    m: int
    x_mean: float
    y_mean: float
    sxx: float
    slope: float
    rss_min: float

    def rss(self, a, b):
        """Σ (y_i - a*x_i - b)² for floats, or elementwise for arrays of (a, b).

        Three nonnegative terms, so no digits cancel near the optimum.
        """
        m, x_mean, y_mean, sxx, slope, rss_min = self
        d = y_mean - a * x_mean - b
        e = a - slope
        return rss_min + sxx * e * e + m * d * d


@dataclass(frozen=True)
class Dataset:
    """Ordered, labelled (x, y) observations; every x and y is finite."""

    points: tuple[DataPoint, ...]

    def __post_init__(self):
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            bad = next(p for p in self.points if not (math.isfinite(p.x) and math.isfinite(p.y)))
            raise ValueError(f"data point {bad.label!r} is not finite: x={bad.x!r}, y={bad.y!r}")

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def x(self) -> np.ndarray:
        return np.array([p.x for p in self.points], dtype=float)

    @cached_property
    def y(self) -> np.ndarray:
        return np.array([p.y for p in self.points], dtype=float)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)

    @cached_property
    def stats(self) -> SufficientStats:
        """The centred sufficient statistics; needs at least one point."""
        if self.size < 1:
            raise ValueError("sufficient statistics need at least one observation")
        x, y = self.x, self.y
        x_mean = float(x.mean())
        y_mean = float(y.mean())
        sxx = float(((x - x_mean) ** 2).sum())
        slope = float(((x - x_mean) * (y - y_mean)).sum()) / sxx if sxx else 0.0
        r = slope * x + (y_mean - slope * x_mean) - y
        return SufficientStats(self.size, x_mean, y_mean, sxx, slope, math.fsum((r * r).tolist()))


def ingest_articles(sources: Iterable[str | Path]) -> Corpus:
    """Read text documents into a Corpus, one article per source.

    Article ids are the source file names without their extension; the
    original source order is preserved.
    """
    articles = []
    for source in sources:
        path = Path(source)
        try:
            body = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise IngestError(f"cannot read article source {path}: {exc}") from exc
        articles.append((path.stem, body))
    return Corpus(tuple(articles))


def _words(text: str) -> list[str]:
    """Lowercase `text` and split it into its runs of letters, short ones included."""
    low = text.lower()
    if low.isascii():
        return low.translate(_ASCII_NON_LETTERS).split()
    return _TOKEN.findall(low)


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it into alphabetic tokens of length >= 2."""
    words = _words(text)
    return list(compress(words, map(_MIN_TOKEN_LEN.__le__, map(len, words))))


def word_stats(corpus: Corpus, stopwords: StopwordList | None = None) -> list[WordStats]:
    """Count total occurrences and article membership for every word.

    Returns one entry per distinct non-stopword token, sorted by word so the
    result is independent of article order.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus has no articles")
    excluded = stopwords.words if stopwords is not None else frozenset()
    totals: Counter[str] = Counter()
    articles: Counter[str] = Counter()  # article ids are unique, so a set per article counts them
    for _, body in corpus.articles:
        words = _words(body)
        totals.update(words)
        articles.update(set(words))
    return [
        WordStats(word, totals[word], articles[word])
        for word in sorted(totals.keys() - excluded)
        if len(word) >= _MIN_TOKEN_LEN
    ]


def top_k(stats: list[WordStats], k: int) -> Dataset:
    """Select the k words with the largest total count as a Dataset.

    Ordered by descending total count; ties broken ascending by word so the
    selection is deterministic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(stats) < k:
        raise CorpusError(f"only {len(stats)} words available, need {k}")
    ranked = sorted(stats, key=lambda s: (-s.total_count, s.word))[:k]
    return Dataset(
        tuple(DataPoint(s.word, float(s.total_count), float(s.article_count)) for s in ranked)
    )


def read_text(source: str | Path | TextIO) -> str:
    """The text of an open handle, or of the UTF-8 file at a path."""
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


def load_dataset_tsv(source: str | Path | TextIO) -> Dataset:
    """Parse a `label<TAB>x<TAB>y` file into a Dataset, in file order.

    Lines starting with '#' are comments; blank lines are skipped. Non-numeric
    and non-finite (nan, inf) values raise a line-numbered DatasetParseError.
    """
    text = read_text(source)
    points = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetParseError(line_no, f"expected 3 fields, got {len(fields)}")
        label, x_text, y_text = fields
        try:
            x = float(x_text)
        except ValueError:
            raise DatasetParseError(line_no, f"non-numeric x value {x_text!r}") from None
        try:
            y = float(y_text)
        except ValueError:
            raise DatasetParseError(line_no, f"non-numeric y value {y_text!r}") from None
        if not math.isfinite(x):
            raise DatasetParseError(line_no, f"non-finite x value {x_text!r}")
        if not math.isfinite(y):
            raise DatasetParseError(line_no, f"non-finite y value {y_text!r}")
        points.append(DataPoint(label, x, y))
    return Dataset(tuple(points))


def format_dataset_tsv(dataset: Dataset) -> str:
    """Render a Dataset as TSV text that round-trips through load_dataset_tsv."""
    lines = [
        f"{p.label}\t{format(p.x, '.17g')}\t{format(p.y, '.17g')}"
        for p in dataset.points
    ]
    return "\n".join(lines) + "\n" if lines else ""


def load_stopwords(source: str | Path | TextIO) -> StopwordList:
    """Load a newline-delimited stopword file, one lowercase token per line."""
    text = read_text(source)
    words = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        word = line.strip()
        if not word:
            continue
        if any(c.isspace() for c in word):
            raise ValueError(f"stopword file line {line_no}: {word!r} contains whitespace")
        words.add(word.lower())
    return StopwordList(frozenset(words))


def default_stopwords() -> StopwordList:
    """The packaged English stopword list."""
    from importlib.resources import files

    text = files("bayesline").joinpath("data/stopwords.txt").read_text(encoding="utf-8")
    return load_stopwords(io.StringIO(text))
