"""Seeded inputs for the benchmark workloads, and the references that check them.

Every input is a pure function of the workload and the seed. The generators
also return what the program's outputs must equal (the exact top-k word
counts) or approximate (the grid-quadrature posterior of the reference
points); computing those references is not part of the timed set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's three published points of its ten-word dataset.
REF3 = (("machine", 132, 7), ("people", 139, 6), ("probability", 331, 8))

DEFAULT_MODEL = """param a ~ Normal(0, 1)
param b ~ HalfNormal(1)
param sigma ~ HalfNormal(1)
likelihood Y ~ Normal(a * X + b, sigma)
"""
# Same model with a tight slope prior: the second model of `evidence`.
NARROW_MODEL = DEFAULT_MODEL.replace("Normal(0, 1)", "Normal(0, 0.1)", 1)
MODEL_SLOPE_SCALES = {"default.model": 1.0, "narrow.model": 0.1}

TOP_K = 1000
CHAINS = 4  # the CLI default, never changed here
VOCAB_SIZE = 20_000
STOPWORD_SHARE = 0.35
SENTENCE_WORDS = 12

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the points to fit and the corpus to count.

    ``points`` is "ref3" (the three published points) or "words" (``n_words``
    seeded word-like points with Zipf counts up to about ``top_count``).
    The sampler and evidence budgets are the CLI defaults; only the
    self-test shrinks them.
    """

    name: str
    points: str
    articles: int
    tokens_per_article: int
    n_words: int = 0
    top_count: float = 1e6
    draws: int = 4000
    warmup: int = 1000
    evidence_samples: int = 100_000
    ensemble: int = 500
    top_k: int = TOP_K

    def fit_flags(self) -> list[str]:
        flags = []
        for flag, value, default in (
            ("--draws", self.draws, 4000),
            ("--warmup", self.warmup, 1000),
            ("--ensemble", self.ensemble, 500),
        ):
            if value != default:
                flags += [flag, str(value)]
        return flags

    def evidence_flags(self) -> list[str]:
        if self.evidence_samples == 100_000:
            return []
        return ["--samples", str(self.evidence_samples)]

    def plot_flags(self) -> list[str]:
        return [] if self.ensemble == 500 else ["--ensemble", str(self.ensemble)]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="ref3", points="ref3", articles=40, tokens_per_article=1500),
        Workload(name="words1k", points="words", n_words=1000, articles=500, tokens_per_article=3000),
    )
}


@dataclass
class Inputs:
    """The generated files of one workload."""

    dataset: Path
    corpus_dir: Path
    models: tuple[Path, Path]
    m: int
    corpus_tokens: int  # alphabetic tokens, stopwords included


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def word_list(rng: np.random.Generator, n: int, exclude: frozenset[str]) -> list[str]:
    """n distinct lowercase pseudo-words of 4 to 9 letters, none in ``exclude``."""
    words: list[str] = []
    seen = set(exclude)
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    while len(words) < n:
        batch = 2 * (n - len(words))
        parts = rng.integers(len(syllables), size=(batch, 4))
        lengths = rng.integers(2, 5, size=batch)
        tails = rng.integers(-len(_CONSONANTS), len(_CONSONANTS), size=batch)
        for row, k, tail in zip(parts.tolist(), lengths.tolist(), tails.tolist()):
            word = "".join(syllables[i] for i in row[:k]) + (_CONSONANTS[tail] if tail >= 0 else "")
            if word not in seen and len(words) < n:
                seen.add(word)
                words.append(word)
    return words


def read_stopwords(root: Path) -> list[str]:
    """The packaged stopword list, read as a user of `counts` would see it."""
    text = (root / "src" / "bayesline" / "data" / "stopwords.txt").read_text(encoding="utf-8")
    return sorted({w.strip() for w in text.splitlines() if w.strip()})


class Corpus:
    """A seeded Zipf corpus: token ids per article over content words + stopwords."""

    def __init__(self, w: Workload, seed: int, stopwords: list[str]):
        rng = _rng(seed, 2)
        alpha = [s for s in stopwords if s.isalpha() and s.islower()]
        self.content = word_list(rng, VOCAB_SIZE, frozenset(stopwords))
        self.vocab = self.content + alpha
        v, s = len(self.content), len(alpha)
        content_p = 1.0 / (np.arange(v) + 2.7)
        stop_p = 1.0 / (np.arange(s) + 1.0)
        p = np.concatenate(
            [(1 - STOPWORD_SHARE) * content_p / content_p.sum(), STOPWORD_SHARE * stop_p / stop_p.sum()]
        )
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        # article lengths spread evenly over [n/2, 3n/2] in seeded order, so
        # every seed gives the same total number of tokens to count
        n = w.tokens_per_article
        lengths = rng.permutation(np.linspace(n // 2, 3 * n // 2, w.articles).round().astype(int))
        self.ids = [np.searchsorted(cdf, rng.random(int(n)), side="right") for n in lengths]
        self.number_at = [rng.random(int(n) // SENTENCE_WORDS + 1) < 0.3 for n in lengths]
        self.n_content = v

    def write(self, directory: Path) -> int:
        """Write one .txt per article; returns the number of alphabetic tokens."""
        directory.mkdir(parents=True, exist_ok=True)
        vocab = np.array(self.vocab, dtype=object)
        total = 0
        for i, (ids, numbers) in enumerate(zip(self.ids, self.number_at)):
            words = vocab[ids].tolist()
            total += len(words)
            sentences = []
            for k, start in enumerate(range(0, len(words), SENTENCE_WORDS)):
                chunk = words[start : start + SENTENCE_WORDS]
                chunk[0] = chunk[0].capitalize()
                if numbers[k]:
                    chunk.append(f"{1900 + start % 120},")  # digits are not tokens
                sentences.append(" ".join(chunk) + ".")
            body = "\n".join(" ".join(sentences[j : j + 8]) for j in range(0, len(sentences), 8))
            (directory / f"article-{i:04d}.txt").write_text(body + "\n", encoding="utf-8")
        return total

    def expected_top_k(self, k: int) -> str:
        """The exact `counts --top-k k` output: (-total, word) order, stopwords dropped."""
        totals = np.zeros(self.n_content, dtype=np.int64)
        articles = np.zeros(self.n_content, dtype=np.int64)
        for ids in self.ids:
            content = ids[ids < self.n_content]
            totals += np.bincount(content, minlength=self.n_content)
            articles[np.unique(content)] += 1
        ranked = sorted(
            (i for i in range(self.n_content) if totals[i] > 0),
            key=lambda i: (-int(totals[i]), self.content[i]),
        )[:k]
        return "".join(
            f"{self.content[i]}\t{float(totals[i]):.17g}\t{float(articles[i]):.17g}\n" for i in ranked
        )


def words_points(w: Workload, seed: int) -> list[tuple[str, int, int]]:
    """Zipf total counts (top about ``top_count``) and article counts (at most 2000)."""
    rng = _rng(seed, 1)
    labels = word_list(rng, w.n_words, frozenset())
    ranks = np.arange(1, w.n_words + 1)
    x = np.maximum(np.rint(w.top_count / ranks * rng.lognormal(0.0, 0.1, w.n_words)), 1.0)
    y = rng.binomial(2000, 1.0 - np.exp(-x / 8000.0))
    return [(lab, int(a), int(b)) for lab, a, b in zip(labels, x, y)]


def write_inputs(w: Workload, seed: int, directory: Path, corpus: Corpus) -> Inputs:
    """Write the dataset TSV, both model files and the corpus under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    points = REF3 if w.points == "ref3" else words_points(w, seed)
    dataset = directory / "data.tsv"
    dataset.write_text("".join(f"{lab}\t{x}\t{y}\n" for lab, x, y in points), encoding="utf-8")
    models = []
    for name, text in (("default.model", DEFAULT_MODEL), ("narrow.model", NARROW_MODEL)):
        models.append(directory / name)
        models[-1].write_text(text, encoding="utf-8")
    tokens = corpus.write(directory / "corpus")
    return Inputs(dataset, directory / "corpus", (models[0], models[1]), len(points), tokens)


# ---------------------------------------------------------------------------
# grid quadrature of the reference posterior


def quadrature(points, slope_scale: float, n: int = 2000, upper: float = 8.0) -> dict:
    """Posterior means of a, b, sigma and the log evidence, by quadrature.

    Model: y ~ Normal(a x + b, sigma), a ~ Normal(0, slope_scale),
    b ~ HalfNormal(1), sigma ~ HalfNormal(1). The slope is integrated in
    closed form (it enters the likelihood quadratically); (b, sigma) use a
    midpoint grid on (0, upper]^2, where the half-normal priors leave out
    less than 1e-14 of the mass.
    """
    x = np.array([p[1] for p in points], dtype=float)
    y = np.array([p[2] for p in points], dtype=float)
    m = x.size
    h = upper / n
    grid = (np.arange(n) + 0.5) * h
    b = grid[None, :]
    r_y = y[None, :] - grid[:, None]  # (n, m): y_i - b
    sxr = (r_y @ x)[None, :]  # Σ x (y - b), per b
    srr = (r_y * r_y).sum(axis=1)[None, :]  # Σ (y - b)^2, per b
    const = -0.5 * m * math.log(2 * math.pi) - math.log(slope_scale) + 2 * (
        math.log(2.0) - 0.5 * math.log(2 * math.pi)
    )
    # streamed over sigma rows with a running log-sum-exp, so memory stays O(n)
    peak, sums = -math.inf, np.zeros(4)  # weight, weight * (a, b, sigma)
    for s in np.array_split(grid, 20):
        s2 = (s * s)[:, None]
        prec = (x @ x) / s2 + 1.0 / slope_scale**2
        lin = sxr / s2
        log_w = (
            const
            - m * np.log(s)[:, None]
            - 0.5 * np.log(prec)
            - 0.5 * (srr / s2 - lin * lin / prec)
            - 0.5 * b * b
            - 0.5 * s2
        )
        chunk_peak = float(log_w.max())
        if chunk_peak > peak:
            sums *= math.exp(peak - chunk_peak)
            peak = chunk_peak
        w = np.exp(log_w - peak)
        sums += [w.sum(), (w * lin / prec).sum(), (w * b).sum(), (w * s[:, None]).sum()]
    return {
        "log_evidence": peak + math.log(sums[0] * h * h),
        "a": float(sums[1] / sums[0]),
        "b": float(sums[2] / sums[0]),
        "sigma": float(sums[3] / sums[0]),
    }
