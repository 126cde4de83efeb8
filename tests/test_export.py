import io
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayesline import export
from bayesline.export import (
    PlotSpec,
    json_text,
    read_samples_csv,
    render_marginals_svg,
    render_scatter_svg,
    write_samples_csv,
    write_summary_json,
)
from bayesline.inference import LineEnsemble, ParamSummary, Summary, draw_line_ensemble, summarize
from bayesline.ols import ols_fit
from bayesline.sampler import Chains

SVG_NS = "{http://www.w3.org/2000/svg}"


def tiny_chains(values):
    draws = np.asarray(values, dtype=float)
    return Chains(draws=draws, param_names=("a", "b", "sigma"))


def count_tags(svg_text, tag):
    root = ET.fromstring(svg_text)
    return sum(1 for _ in root.iter(f"{SVG_NS}{tag}"))


def test_csv_line_count(chains16k):
    buf = io.StringIO()
    write_samples_csv(chains16k, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 16_001
    assert lines[0] == "chain,draw,a,b,sigma"


def test_csv_minimal_dump():
    buf = io.StringIO()
    write_samples_csv(tiny_chains([[[0.0, 0.0, 1.0]]]), buf)
    assert buf.getvalue() == "chain,draw,a,b,sigma\n0,0,0,0,1\n"


def test_csv_deterministic(chains16k):
    a, b = io.StringIO(), io.StringIO()
    write_samples_csv(chains16k, a)
    write_samples_csv(chains16k, b)
    assert a.getvalue() == b.getvalue()


def test_csv_round_trip(chains16k):
    buf = io.StringIO()
    write_samples_csv(chains16k, buf)
    again = read_samples_csv(io.StringIO(buf.getvalue()))
    assert again.param_names == chains16k.param_names
    assert np.array_equal(again.draws, chains16k.draws)


def test_csv_round_trip_awkward_floats():
    chains = tiny_chains([[[0.1, 1e-300, 123456789.123456789]]])
    buf = io.StringIO()
    write_samples_csv(chains, buf)
    again = read_samples_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(again.draws, chains.draws)


def test_summary_json_constant_chains():
    chains = tiny_chains([[[2.0, 3.0, 1.0]] * 8])
    buf = io.StringIO()
    write_summary_json(summarize(chains), buf)
    payload = json.loads(buf.getvalue())
    assert payload["parameters"]["a"]["mean"] == 2.0
    assert payload["parameters"]["a"]["sd"] == 0.0
    assert payload["parameters"]["b"]["quantiles"]["50%"] == 3.0
    assert payload["parameters"]["a"]["rhat"] is None  # undefined for constant chains


def test_summary_json_key_order_stable(chains16k):
    summary = summarize(chains16k)
    a, b = io.StringIO(), io.StringIO()
    write_summary_json(summary, a)
    write_summary_json(summary, b)
    assert a.getvalue() == b.getvalue()
    keys = list(json.loads(a.getvalue())["parameters"].keys())
    assert keys == ["a", "b", "sigma"]


def test_summary_json_round_trip(chains16k):
    summary = summarize(chains16k)
    buf = io.StringIO()
    write_summary_json(summary, buf)
    payload = json.loads(buf.getvalue())
    assert payload["parameters"]["a"]["mean"] == summary.params["a"].mean
    assert payload["parameters"]["sigma"]["ess"] == summary.params["sigma"].ess


def test_scatter_svg_single_fit(words3):
    buf = io.StringIO()
    render_scatter_svg(words3, ols_fit(words3), PlotSpec(), buf)
    svg = buf.getvalue()
    assert count_tags(svg, "circle") == 3
    assert count_tags(svg, "path") == 1
    assert "machine" in svg and "probability" in svg


def test_scatter_svg_ten_points_one_line():
    from bayesline.corpus import DataPoint, Dataset

    rng = np.random.default_rng(13)
    data = Dataset(
        tuple(
            DataPoint(f"word{i}", float(100 + 30 * i), float(rng.integers(2, 9)))
            for i in range(10)
        )
    )
    buf = io.StringIO()
    render_scatter_svg(data, ols_fit(data), PlotSpec(), buf)
    assert count_tags(buf.getvalue(), "circle") == 10
    assert count_tags(buf.getvalue(), "path") == 1


def test_scatter_svg_ensemble(words3, chains16k):
    ensemble = draw_line_ensemble(chains16k, 500)
    buf = io.StringIO()
    render_scatter_svg(words3, ensemble, PlotSpec(), buf)
    svg = buf.getvalue()
    assert count_tags(svg, "circle") == 3
    assert count_tags(svg, "path") == 500


def test_scatter_svg_deterministic(words3):
    fit = ols_fit(words3)
    a, b = io.StringIO(), io.StringIO()
    render_scatter_svg(words3, fit, PlotSpec(), a)
    render_scatter_svg(words3, fit, PlotSpec(), b)
    assert a.getvalue() == b.getvalue()


def test_scatter_svg_escapes_labels():
    from bayesline.corpus import DataPoint, Dataset

    data = Dataset((DataPoint("a<b&c", 1.0, 2.0), DataPoint("d", 2.0, 1.0)))
    buf = io.StringIO()
    render_scatter_svg(data, LineEnsemble(((0.5, 1.0),)), PlotSpec(), buf)
    ET.fromstring(buf.getvalue())  # must stay well-formed


def test_marginals_svg_well_formed(chains16k):
    buf = io.StringIO()
    render_marginals_svg(chains16k, PlotSpec(), buf)
    svg = buf.getvalue()
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    assert count_tags(svg, "path") == 0  # histogram panels use rect/line only


def test_plotspec_validation():
    with pytest.raises(ValueError):
        PlotSpec(width=0)
    with pytest.raises(ValueError):
        PlotSpec(x_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        PlotSpec(line_opacity=0.0)


def test_file_sinks(tmp_path, words3, chains16k):
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(chains16k, csv_path)
    assert read_samples_csv(csv_path).draws.shape == chains16k.draws.shape
    svg_path = tmp_path / "fig.svg"
    render_scatter_svg(words3, ols_fit(words3), PlotSpec(), svg_path)
    ET.fromstring(svg_path.read_text())


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_rejects_non_finite_draws_with_line_number(bad):
    text = f"chain,draw,a,b,sigma\n0,0,1,2,3\n0,1,1,{bad},3\n0,2,1,2,3\n"
    with pytest.raises(ValueError, match="line 3"):
        read_samples_csv(io.StringIO(text))


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("chain,draw,a,b,sigma\n0,0,1,2\n0,1,1,2\n", "line 2: 2 values"),
        ("chain,draw,a,b\n0,0,1,2,3\n0,1,1,2,3\n", "line 2: 3 values"),
        ("chain,draw,a,b,sigma\n0,0,1,2,3\n0,1,1,2\n0,2,1,2,3\n", "line 3: 2 values"),
    ],
    ids=["narrow_rows", "wide_rows", "mixed_rows"],
)
def test_read_rejects_rows_whose_width_differs_from_the_header(text, message):
    with pytest.raises(ValueError, match=message):
        read_samples_csv(io.StringIO(text))


_HEADER = "chain,draw,a,b,sigma\n"


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        ("0,0,1,2,3\n0,7,1,2,3\n", "line 3: expected chain 0, draw 1"),
        ("0,0,1,2,3\n0,0,1,2,3\n1,0,1,2,3\n1,1,1,2,3\n", "line 3: expected chain 0, draw 1"),
        ("0,0,1,2,3\n0,1,1,2,3\n1,1,1,2,3\n1,0,1,2,3\n", "line 4: expected chain 1, draw 0"),
        ("0,0,1,2,3\n1,0,1,2,3\n0,1,1,2,3\n1,1,1,2,3\n", "line 3: expected chain 0, draw 1"),
        ("1,0,1,2,3\n1,1,1,2,3\n", "line 2: expected chain 0, draw 0"),
        ("0,0,1,2,3\n0,1,1,2,3\n1,0,1,2,3\n", "the last chain has 1 draws and the others 2"),
        ("0,0,1,2,3\n0,1,1,2,3\n0,0.5,1,2,3\n", "line 4: expected chain 0, draw 2"),
        ("0,0,1,2,3\n0,1,1,2,3\n0,banana,1,2,3\n", "line 4: non-numeric field 'banana'"),
        ("0,0,1,2,3\nzero,1,1,2,3\n", "line 3: non-numeric field 'zero'"),
        ("0,0,1,2,3\n0,1,1,2,x\n", "line 3: non-numeric field 'x'"),
    ],
    ids=[
        "skipped_draw",
        "duplicated_draw",
        "reordered_draws",
        "interleaved_chains",
        "no_chain_0",
        "short_last_chain",
        "fractional_draw",
        "non_numeric_draw",
        "non_numeric_chain",
        "non_numeric_value",
    ],
)
def test_read_rejects_misnumbered_or_malformed_rows_with_line_number(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        read_samples_csv(io.StringIO(_HEADER + rows))


@pytest.mark.parametrize(
    ("bad_row", "message"),
    [
        ("1,1499,1,2,3", "line 4502: expected chain 1, draw 1500"),
        ("1,1500,1,2", "line 4502: 2 values"),
        ("1,1500,1,2,?", "line 4502: non-numeric field '?'"),
        ("1,1500,1,2,nan", "line 4502: non-finite draw"),
    ],
    ids=["misnumbered", "narrow", "non_numeric", "non_finite"],
)
def test_read_names_the_line_of_a_bad_row_past_the_first_block(bad_row, message):
    rows = [f"{c},{d},1,2,3" for c in range(3) for d in range(3000)]
    rows[4500] = bad_row
    with pytest.raises(ValueError, match=re.escape(message)):
        read_samples_csv(io.StringIO(_HEADER + "\n".join(rows) + "\n"))


def test_read_rejects_a_file_with_no_draws():
    with pytest.raises(ValueError, match="no draws"):
        read_samples_csv(io.StringIO(_HEADER))


def test_read_returns_contiguous_draws_in_chain_order():
    text = _HEADER + "0,0,1,2,3\n0,1,4,5,6\n1,0,7,8,9\n1,1,10,11,12\n"
    draws = read_samples_csv(io.StringIO(text)).draws
    assert draws.flags.c_contiguous
    assert draws.tolist() == [[[1, 2, 3], [4, 5, 6]], [[7, 8, 9], [10, 11, 12]]]


def test_plot_exits_2_on_a_misnumbered_samples_file(words3, tmp_path, capsys):
    from bayesline import cli

    data = tmp_path / "words3.tsv"
    data.write_text("".join(f"{p.label}\t{p.x}\t{p.y}\n" for p in words3.points))
    samples = tmp_path / "samples.csv"
    samples.write_text(_HEADER + "0,7,1,2,3\n0,7,1,2,3\n0,banana,1,2,3\n1,0,1,2,3\n1,0,1,2,3\n1,0,1,2,3\n")
    code = cli.run(["plot", str(data), "--samples", str(samples), "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "figure1.svg").exists()
    assert "line 4: non-numeric field 'banana'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The per-row CSV writer, the json.dump summary writer and the CLI's JSON
# formatter that the single-join writer, the shared text sink and json_text
# replaced, kept verbatim as byte-for-byte references.


def _ref_open_text(sink, mode):
    if hasattr(sink, "write"):
        return sink, False
    return open(Path(sink), mode, encoding="utf-8", newline="\n"), True


def _ref_write_samples_csv(chains, sink):
    if chains.total_draws == 0:
        raise ValueError("cannot write empty chains")
    fh, owned = _ref_open_text(sink, "w")
    try:
        fh.write("chain," + "draw," + ",".join(chains.param_names) + "\n")
        for c in range(chains.n_chains):
            for d in range(chains.n_draws):
                values = ",".join(format(v, ".17g") for v in chains.draws[c, d])
                fh.write(f"{c},{d},{values}\n")
    finally:
        if owned:
            fh.close()


def _ref_write_summary_json(summary, sink):
    fh, owned = _ref_open_text(sink, "w")
    try:
        json.dump(export._summary_payload(summary), fh, indent=2, allow_nan=False)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def _ref_json_text(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


SMALLEST_NORMAL = 2.2250738585072014e-308
AWKWARD = [
    0.0, -0.0, 5e-324, -5e-324, SMALLEST_NORMAL / 3, SMALLEST_NORMAL, 1e-300,
    0.1, 1 / 3, -2 / 3, 123456789.123456789, 2.0**53 + 2, 1e16, 1e22, 1e-5,
    1.7976931348623157e308, 1e308, -1e308, math.pi * 1e100, 12345678901234567890.0,
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def _awkward_chains(values):
    """Two chains holding ``values``, then 17-digit randoms over many decades."""
    rng = np.random.default_rng(8)
    fill = 6 * (len(values) // 6 + 40) - len(values)
    noise = rng.standard_normal(fill) * 10.0 ** rng.integers(-300, 300, fill)
    draws = np.concatenate([values, noise]).reshape(2, -1, 3)
    return Chains(draws=draws, param_names=("a", "b", "sigma"))


def _both_ways(write, ref_write, obj, tmp_path):
    """Write through a StringIO and through a path with both writers; return both pairs."""
    new_buf, ref_buf = io.StringIO(), io.StringIO()
    write(obj, new_buf)
    ref_write(obj, ref_buf)
    write(obj, tmp_path / "new")
    ref_write(obj, tmp_path / "ref")
    return (new_buf.getvalue(), ref_buf.getvalue()), (
        (tmp_path / "new").read_bytes(),
        (tmp_path / "ref").read_bytes(),
    )


@pytest.mark.parametrize("values", [AWKWARD, AWKWARD + NON_FINITE], ids=["finite", "non_finite"])
def test_csv_writer_equals_reference_on_awkward_values(values, tmp_path):
    chains = _awkward_chains(values)
    (new, ref), (new_file, ref_file) = _both_ways(
        write_samples_csv, _ref_write_samples_csv, chains, tmp_path
    )
    assert new == ref
    assert new_file == ref_file == ref.encode("utf-8")
    assert "-0," in new and "4.9406564584124654e-324" in new and "1e+308" in new


@pytest.mark.parametrize("n_params", [0, 1, 3])
def test_csv_writer_equals_reference_for_any_column_count(n_params, tmp_path):
    rng = np.random.default_rng(n_params)
    chains = Chains(
        draws=rng.standard_normal((3, 5, n_params)), param_names=("a", "b", "sigma")[:n_params]
    )
    (new, ref), (new_file, ref_file) = _both_ways(
        write_samples_csv, _ref_write_samples_csv, chains, tmp_path
    )
    assert new == ref and new_file == ref_file


def test_csv_writer_equals_reference_on_a_full_run(chains16k, tmp_path):
    (new, ref), (new_file, ref_file) = _both_ways(
        write_samples_csv, _ref_write_samples_csv, chains16k, tmp_path
    )
    assert new == ref and new_file == ref_file


def _awkward_summary():
    finite = iter(AWKWARD)
    params = {}
    for name in ("a", "b", "sigma"):
        params[name] = ParamSummary(*(next(finite) for _ in range(5)), rhat=None, ess=next(finite))
    return Summary(params)


def test_summary_writer_equals_reference(chains16k, tmp_path):
    for summary in (summarize(chains16k), _awkward_summary()):
        (new, ref), (new_file, ref_file) = _both_ways(
            write_summary_json, _ref_write_summary_json, summary, tmp_path
        )
        assert new == ref
        assert new_file == ref_file == ref.encode("utf-8")


@pytest.mark.parametrize("bad", NON_FINITE)
def test_summary_writer_rejects_non_finite_like_reference(bad, tmp_path):
    summary = Summary({"a": ParamSummary(bad, 1.0, 0.0, 0.5, 1.0, None, None)})
    with pytest.raises(ValueError):
        _ref_write_summary_json(summary, io.StringIO())
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_summary_json(summary, buf)
    with pytest.raises(ValueError):
        write_summary_json(summary, tmp_path / "summary.json")
    assert buf.getvalue() == ""  # nothing half-written
    assert not (tmp_path / "summary.json").exists()


def test_json_text_equals_reference():
    payloads = [
        {"slope": 0.1, "intercept": -0.0, "lse": 5e-324, "residuals": AWKWARD},
        {
            "models": [
                {"path": "m\u00e9/\"q\".txt", "log_evidence": -1e308, "mc_standard_error": 1.0,
                 "n_prior_samples": 100_000},
            ],
            "bayes_factor": 0.0,
        },
        {"mean": 1 / 3, "variance": SMALLEST_NORMAL / 3},
        [],
        {},
    ]
    for payload in payloads:
        assert json_text(payload) == _ref_json_text(payload)
    for bad in NON_FINITE:
        with pytest.raises(ValueError):
            _ref_json_text({"x": bad})
        with pytest.raises(ValueError):
            json_text({"x": bad})


def test_svg_path_sink_equals_handle_sink(words3, chains16k, tmp_path):
    for render, args in (
        (render_scatter_svg, (words3, ols_fit(words3), PlotSpec())),
        (render_marginals_svg, (chains16k, PlotSpec())),
    ):
        buf = io.StringIO()
        render(*args, buf)
        render(*args, tmp_path / "fig.svg")
        assert (tmp_path / "fig.svg").read_bytes() == buf.getvalue().encode("utf-8")


@given(st.text())
def test_escape_equals_saxutils_escape(text):
    from xml.sax.saxutils import escape

    assert export._escape(text) == escape(text)
