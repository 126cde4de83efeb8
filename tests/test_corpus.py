import importlib.util
import io
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesline import cli
from bayesline.corpus import (
    Corpus,
    CorpusError,
    DataPoint,
    Dataset,
    DatasetParseError,
    DuplicateArticleError,
    EmptyCorpusError,
    StopwordList,
    WordStats,
    default_stopwords,
    format_dataset_tsv,
    ingest_articles,
    load_dataset_tsv,
    load_stopwords,
    tokenize,
    top_k,
    word_stats,
)
from bayesline.corpus import _words


def test_ingest_two_files(tmp_path):
    (tmp_path / "a.txt").write_text("alpha beta")
    (tmp_path / "b.txt").write_text("gamma")
    corpus = ingest_articles([tmp_path / "a.txt", tmp_path / "b.txt"])
    assert len(corpus) == 2
    assert [a for a, _ in corpus.articles] == ["a", "b"]


def test_ingest_empty_list_gives_empty_corpus():
    corpus = ingest_articles([])
    assert len(corpus) == 0
    with pytest.raises(EmptyCorpusError):
        word_stats(corpus)


def test_ingest_duplicate_ids(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    (tmp_path / "x" / "a.txt").write_text("one")
    (tmp_path / "y" / "a.txt").write_text("two")
    with pytest.raises(DuplicateArticleError):
        ingest_articles([tmp_path / "x" / "a.txt", tmp_path / "y" / "a.txt"])


def test_ingest_unreadable_source_names_it(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(CorpusError) as err:
        ingest_articles([missing])
    assert "nope.txt" in str(err.value)


def test_word_stats_hand_counted():
    corpus = Corpus((("one", "Bayes bayes theorem"),))
    stats = word_stats(corpus, StopwordList.empty())
    assert stats == [WordStats("bayes", 2, 1), WordStats("theorem", 1, 1)]


def test_word_stats_across_articles():
    corpus = Corpus((("one", "x: cat"), ("two", "cat cat")))
    stats = word_stats(corpus)
    assert stats == [WordStats("cat", 3, 2)]  # "x" is shorter than 2 chars


def test_word_stats_full_stopword_exclusion():
    corpus = Corpus((("one", "the the the"),))
    stats = word_stats(corpus, StopwordList(frozenset({"the"})))
    assert stats == []


def test_word_stats_splits_on_non_alphabetic():
    corpus = Corpus((("one", "non-linear fit's under_score x2y"),))
    words = {s.word for s in word_stats(corpus)}
    assert words == {"non", "linear", "fit", "under", "score"}


def test_word_stats_keeps_accented_letters_together():
    corpus = Corpus((("one", "Café CAFÉ naïve"),))
    words = {s.word for s in word_stats(corpus)}
    assert words == {"café", "naïve"}


def test_top_k_includes_probability_point():
    stats = [WordStats(f"w{i:02d}", 20 + i, 3) for i in range(12)]
    stats.append(WordStats("probability", 331, 8))
    data = top_k(stats, 10)
    assert data.size == 10
    assert data.points[0] == DataPoint("probability", 331.0, 8.0)


def test_top_k_tie_break_lexicographic():
    stats = [WordStats("beta", 50, 2), WordStats("alpha", 50, 3), WordStats("zed", 9, 1)]
    data = top_k(stats, 2)
    assert data.labels == ("alpha", "beta")


def test_top_k_too_few_words():
    stats = [WordStats("a1", 5, 1), WordStats("b2", 4, 1), WordStats("c3", 3, 1)]
    with pytest.raises(CorpusError) as err:
        top_k(stats, 10)
    assert "only 3 words available" in str(err.value)


def test_top_k_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        top_k([WordStats("aa", 1, 1)], 0)


def test_load_tsv_points():
    data = load_dataset_tsv(io.StringIO("machine\t132\t7\npeople\t139\t6\n"))
    assert data.points[0] == DataPoint("machine", 132.0, 7.0)
    assert data.points[1] == DataPoint("people", 139.0, 6.0)


def test_load_tsv_comments_and_blanks():
    text = "# header comment\nmachine\t132\t7\n\n"
    assert load_dataset_tsv(io.StringIO(text)).size == 1


def test_load_tsv_missing_field():
    with pytest.raises(DatasetParseError) as err:
        load_dataset_tsv(io.StringIO("machine\t132"))
    assert err.value.line_no == 1
    assert "expected 3 fields" in str(err.value)


def test_load_tsv_non_numeric():
    with pytest.raises(DatasetParseError) as err:
        load_dataset_tsv(io.StringIO("machine\t132\t7\nbad\tx\t7"))
    assert err.value.line_no == 2
    with pytest.raises(DatasetParseError) as err:
        load_dataset_tsv(io.StringIO("bad\t7\ty"))
    assert "y value" in str(err.value)


@pytest.mark.parametrize("line", ["bad\tnan\t7", "bad\tinf\t7", "bad\t7\t-inf", "bad\t7\tNaN"])
def test_load_tsv_non_finite(line):
    with pytest.raises(DatasetParseError, match="non-finite") as err:
        load_dataset_tsv(io.StringIO(f"machine\t132\t7\n{line}"))
    assert err.value.line_no == 2


@pytest.mark.parametrize("x, y", [(math.nan, 7.0), (132.0, math.inf), (-math.inf, 7.0)])
def test_dataset_rejects_non_finite_values(x, y):
    with pytest.raises(ValueError, match="'bad'"):
        Dataset((DataPoint("machine", 132.0, 7.0), DataPoint("bad", x, y)))


def test_default_stopwords_lowercase_common_words():
    sw = default_stopwords()
    assert "the" in sw and "and" in sw
    assert "bayes" not in sw


def test_load_stopwords_rejects_internal_whitespace(tmp_path):
    path = tmp_path / "sw.txt"
    path.write_text("ok\nnot ok\n")
    with pytest.raises(ValueError):
        load_stopwords(path)


article_text = st.text(
    alphabet=st.characters(codec="ascii", categories=("L", "P", "Z", "N")),
    max_size=200,
)


@given(bodies=st.lists(article_text, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_counts_invariant_over_random_corpora(bodies):
    corpus = Corpus(tuple((f"art{i}", b) for i, b in enumerate(bodies)))
    for s in word_stats(corpus):
        assert s.total_count >= s.article_count >= 1
        assert s.article_count <= len(corpus)


@given(bodies=st.lists(article_text, min_size=2, max_size=5), data=st.data())
@settings(max_examples=40, deadline=None)
def test_word_stats_order_insensitive(bodies, data):
    articles = tuple((f"art{i}", b) for i, b in enumerate(bodies))
    perm = data.draw(st.permutations(articles))
    assert set(word_stats(Corpus(articles))) == set(word_stats(Corpus(tuple(perm))))


def test_top_k_deterministic_bytes():
    stats = [WordStats(f"w{i:02d}", (i * 7) % 13 + 2, 1 + i % 3) for i in range(20)]
    first = format_dataset_tsv(top_k(stats, 8))
    second = format_dataset_tsv(top_k(list(stats), 8))
    assert first == second


finite_reals = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@given(
    points=st.lists(
        st.tuples(st.text(st.characters(codec="ascii", categories=("L",)), min_size=1, max_size=8), finite_reals, finite_reals),
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_tsv_round_trip(points):
    data = Dataset(tuple(DataPoint(f"{l}{i}", x, y) for i, (l, x, y) in enumerate(points)))
    again = load_dataset_tsv(io.StringIO(format_dataset_tsv(data)))
    assert again.points == data.points


# ---------------------------------------------------------------------------
# The regex tokenizer and the dict/set counter that the translate/split
# tokenizer and the Counter-based word_stats replaced, kept verbatim as
# references.

_REF_TOKEN = re.compile(r"[^\W\d_]+")


def _ref_tokenize(text):
    return [t for t in _REF_TOKEN.findall(text.lower()) if len(t) >= 2]


def _ref_word_stats(corpus, stopwords=None):
    if len(corpus) == 0:
        raise EmptyCorpusError("corpus has no articles")
    if stopwords is None:
        stopwords = StopwordList.empty()
    totals = {}
    articles_with = {}
    for article_id, body in corpus.articles:
        for token in _ref_tokenize(body):
            if token in stopwords:
                continue
            totals[token] = totals.get(token, 0) + 1
            articles_with.setdefault(token, set()).add(article_id)
    return [
        WordStats(word, totals[word], len(articles_with[word]))
        for word in sorted(totals)
    ]


# ASCII letters and separators, plus the characters where a tokenizer can
# go wrong: underscore, digits, apostrophe and hyphen; accented and
# upper-case non-ASCII letters; letters whose lowercase form changes its
# ASCII-ness or length (the Kelvin sign lowers to "k", "İ" to "i" plus a
# combining dot); ASCII separators that str.split treats as whitespace
# (\x1c, \x1f); and non-ASCII whitespace (NEL, NBSP).
_AWKWARD = "abcxyzABCXYZ \t\n_09'-.,é\u212a\u0130ßÉÅΣΩ\x1c\x1f\x85\xa0"
awkward_text = st.text(alphabet=st.sampled_from(_AWKWARD), max_size=60)
ascii_text = st.text(alphabet=st.characters(max_codepoint=127), max_size=60)
article_body = st.one_of(awkward_text, ascii_text)


@given(text=article_body)
@settings(max_examples=300, deadline=None)
def test_tokenize_equals_regex_reference(text):
    assert tokenize(text) == _ref_tokenize(text)
    # before the length filter too: every letter run, and nothing else
    assert _words(text) == _REF_TOKEN.findall(text.lower())


def test_tokenize_on_the_awkward_characters():
    assert tokenize("Don't_stop x2y a-b") == ["don", "stop"]
    assert tokenize("\u212aelvin \u0130stanbul STRASSE stra\xdfe") == _ref_tokenize(
        "\u212aelvin \u0130stanbul STRASSE stra\xdfe"
    )
    assert tokenize("ab\x1ccd\x1fef\x85gh\xa0ij") == ["ab", "cd", "ef", "gh", "ij"]


stopword_sets = st.frozensets(
    st.sampled_from(["a", "x", "k", "ab", "abc", "xyz", "é", "café", "e2", "don't", "_", "-", "ß"])
)


@given(bodies=st.lists(article_body, min_size=1, max_size=6), words=stopword_sets)
@settings(max_examples=200, deadline=None)
def test_word_stats_equals_reference(bodies, words):
    corpus = Corpus(tuple((f"art{i}", b) for i, b in enumerate(bodies)))
    stopwords = StopwordList(words)
    assert word_stats(corpus, stopwords) == _ref_word_stats(corpus, stopwords)
    assert word_stats(corpus) == _ref_word_stats(corpus)


def test_word_stats_equals_reference_with_default_stopwords():
    corpus = Corpus(
        (
            ("one", "The theorem of Bayes: a prior, a likelihood, and the posterior."),
            ("two", "I think the PRIOR is a belief; the data update it. Naïve Bayes!"),
            ("three", "x y z 42 the_end"),
        )
    )
    stats = word_stats(corpus, default_stopwords())
    assert stats == _ref_word_stats(corpus, default_stopwords())
    assert WordStats("prior", 2, 2) in stats


def _bench_workloads():
    """bench/workloads.py, which generates the benchmark corpora and their exact counts."""
    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


@pytest.mark.parametrize("seed", range(5))
def test_counts_cli_equals_exact_top_k_on_seeded_corpora(seed, tmp_path, capsys):
    wl = _bench_workloads()
    w = wl.Workload(name="small", points="ref3", articles=30, tokens_per_article=400)
    stopwords = wl.read_stopwords(Path(__file__).resolve().parents[1])
    corpus = wl.Corpus(w, seed, stopwords)
    corpus.write(tmp_path / "corpus")
    assert cli.run(["counts", str(tmp_path / "corpus"), "--top-k", "200"]) == 0
    assert capsys.readouterr().out == corpus.expected_top_k(200)
