import json
import xml.etree.ElementTree as ET

import pytest

from bayesline.cli import run
from bayesline.corpus import load_dataset_tsv
from bayesline.inference import estimate_evidence
from bayesline.modelspec import default_model, format_model_spec, parse_model_spec
from bayesline.ols import ols_fit

FAST_BAYES = ["--chains", "2", "--draws", "200", "--warmup", "150", "--seed", "1"]


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "articles"
    d.mkdir()
    (d / "one.txt").write_text("bayes bayes theorem inference")
    (d / "two.txt").write_text("bayes inference inference sampling")
    return d


@pytest.fixture
def dataset_tsv(tmp_path, words3):
    from bayesline.corpus import format_dataset_tsv

    path = tmp_path / "words.tsv"
    path.write_text(format_dataset_tsv(words3))
    return path


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(format_model_spec(default_model()))
    return path


def test_counts_stdout(corpus_dir, capsys):
    assert run(["counts", str(corpus_dir), "--top-k", "3"]) == 0
    out = capsys.readouterr().out
    data = load_dataset_tsv(__import__("io").StringIO(out))
    assert data.labels == ("bayes", "inference", "sampling")
    assert data.points[0].x == 3.0 and data.points[0].y == 2.0


def test_counts_respects_stopwords(corpus_dir, tmp_path, capsys):
    sw = tmp_path / "sw.txt"
    sw.write_text("bayes\n")
    assert run(["counts", str(corpus_dir), "--top-k", "2", "--stopwords", str(sw)]) == 0
    out = capsys.readouterr().out
    assert "bayes" not in out


def test_counts_missing_directory(tmp_path, capsys):
    assert run(["counts", str(tmp_path / "nope")]) == 2


def test_fit_ols_outputs(dataset_tsv, tmp_path, words3):
    out = tmp_path / "out"
    assert run(["fit-ols", str(dataset_tsv), "--out", str(out)]) == 0
    payload = json.loads((out / "ols.json").read_text())
    fit = ols_fit(words3)
    assert payload["slope"] == fit.slope
    assert payload["intercept"] == fit.intercept
    svg = (out / "figure1.svg").read_text()
    root = ET.fromstring(svg)
    paths = [el for el in root.iter("{http://www.w3.org/2000/svg}path")]
    assert len(paths) == 1


def test_fit_bayes_outputs(dataset_tsv, tmp_path):
    out = tmp_path / "out"
    code = run(
        ["fit-bayes", str(dataset_tsv), "--out", str(out), "--ensemble", "100", *FAST_BAYES]
    )
    assert code == 0
    csv_lines = (out / "samples.csv").read_text().splitlines()
    assert len(csv_lines) == 2 * 200 + 1
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["parameters"]) == {"a", "b", "sigma"}
    for name in ("figure2a.svg", "figure2b.svg"):
        ET.fromstring((out / name).read_text())


def test_fit_bayes_deterministic(dataset_tsv, tmp_path):
    out = tmp_path / "out"
    argv = ["fit-bayes", str(dataset_tsv), "--out", str(out), "--ensemble", "50", *FAST_BAYES]
    assert run(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_fit_bayes_rwm_sampler(dataset_tsv, tmp_path):
    out = tmp_path / "out"
    argv = ["fit-bayes", str(dataset_tsv), "--out", str(out), "--sampler", "rwm",
            "--ensemble", "10", *FAST_BAYES]
    assert run(argv) == 0
    assert (out / "samples.csv").exists()


def test_fit_bayes_custom_model(dataset_tsv, model_file, tmp_path):
    out = tmp_path / "out"
    argv = ["fit-bayes", str(dataset_tsv), "--model", str(model_file), "--out", str(out),
            "--ensemble", "10", *FAST_BAYES]
    assert run(argv) == 0


def test_fit_bayes_bad_model(dataset_tsv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("param a ~ Cauchy(0, 1)\n")
    assert run(["fit-bayes", str(dataset_tsv), "--model", str(bad)]) == 2
    assert "Cauchy" in capsys.readouterr().err


def test_evidence_json(dataset_tsv, model_file, tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text(
        "param a ~ Normal(0, 10)\nparam b ~ HalfNormal(10)\n"
        "param sigma ~ HalfNormal(10)\nlikelihood Y ~ Normal(a * X + b, sigma)\n"
    )
    code = run(
        ["evidence", str(dataset_tsv), "--model", str(model_file), "--model", str(wide),
         "--samples", "2000", "--seed", "4"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["models"]) == 2
    assert payload["bayes_factor"] > 0


def test_evidence_bayes_factor_overflow_exits_2(tmp_path, capsys):
    # y = 5x + 1: a slope prior around 5 fits, one around 0 misses by ~1e6 nats
    data = tmp_path / "line.tsv"
    data.write_text("".join(f"w{x}\t{x}\t{5 * x + 1}\n" for x in range(100, 1001, 100)))
    models = []
    for name, loc in (("near", 5), ("far", 0)):
        path = tmp_path / f"{name}.txt"
        path.write_text(
            f"param a ~ Normal({loc}, 0.001)\nparam b ~ HalfNormal(1)\n"
            "param sigma ~ HalfNormal(1)\nlikelihood Y ~ Normal(a * X + b, sigma)\n"
        )
        models.append(path)
    argv = ["evidence", str(data), "--model", str(models[0]), "--model", str(models[1]), "--samples", "100"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    dataset = load_dataset_tsv(data)
    for path in models:
        spec = parse_model_spec(path.read_text())
        log_evidence = estimate_evidence(spec, dataset, 100, 0).log_evidence
        assert repr(log_evidence) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["fit-ols", "fit-bayes"])
@pytest.mark.parametrize("bad", ["bad\tnan\t7", "bad\t132\tinf", "bad\t-inf\t7"])
def test_non_finite_counts_exit_2_with_line_number(command, bad, tmp_path, capsys):
    data = tmp_path / "bad.tsv"
    data.write_text(f"machine\t132\t7\n{bad}\n")
    out = tmp_path / "out"
    assert run([command, str(data), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not (out / "ols.json").exists() and not (out / "samples.csv").exists()


def test_update_nan_observation_exits_2_without_nan(capsys):
    code = run(["update", "--prior-mean", "0", "--prior-var", "1", "--obs-sd", "1", "nan"])
    assert code == 2
    assert "NaN" not in capsys.readouterr().out


def test_update_underflowing_obs_sd_exits_2(capsys):
    argv = ["update", "--prior-mean", "1e308", "--prior-var", "1e-300", "--obs-sd", "1e-300", "1e308"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "obs_sd" in captured.err
    assert "Traceback" not in captured.err


def test_rwm_step_reaching_underflowing_sigma_still_samples(dataset_tsv, tmp_path):
    out = tmp_path / "out"
    argv = ["fit-bayes", str(dataset_tsv), "--sampler", "rwm", "--rwm-step", "400",
            "--chains", "1", "--draws", "200", "--warmup", "0", "--ensemble", "10", "--out", str(out)]
    assert run(argv) == 0
    assert (out / "samples.csv").exists()


@pytest.mark.parametrize("scale", ["1e-200", "1e200"])
def test_prior_scale_with_unusable_square_exits_2(scale, dataset_tsv, tmp_path, capsys):
    # 1e-200 squared underflows to 0 and 2 * 1e200 squared overflows to inf
    model = tmp_path / "model.txt"
    text = format_model_spec(default_model()).replace("Normal(0, 1)", f"Normal(0, {scale})", 1)
    model.write_text(text)
    out = tmp_path / "out"
    assert run(["fit-bayes", str(dataset_tsv), "--model", str(model), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "(line 1, column 21)" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def _samples_csv(path, names, bad_row=None):
    rows = [f"0,{d},1,2,3\n" for d in range(20)]
    if bad_row is not None:
        rows[bad_row] = f"0,{bad_row},1,nan,3\n"
    path.write_text("chain,draw," + ",".join(names) + "\n" + "".join(rows))
    return path


@pytest.mark.parametrize("missing", ["a", "b"])
def test_plot_without_an_a_or_b_column_exits_2(missing, dataset_tsv, tmp_path, capsys):
    names = [n if n != missing else "c" for n in ("a", "b", "sigma")]
    samples = _samples_csv(tmp_path / "samples.csv", names)
    out = tmp_path / "out"
    argv = ["plot", str(dataset_tsv), "--samples", str(samples), "--ensemble", "5", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"no column {missing!r}" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_plot_of_non_finite_draws_exits_2_with_line_number(dataset_tsv, tmp_path, capsys):
    samples = _samples_csv(tmp_path / "samples.csv", ["a", "b", "sigma"], bad_row=5)
    out = tmp_path / "out"
    argv = ["plot", str(dataset_tsv), "--samples", str(samples), "--ensemble", "5", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("ensemble, message", [
    ("1000", "requested 1000 draws but only 400 are stored"),
    ("0", "ensemble size must be >= 1"),
])
def test_fit_bayes_rejects_a_bad_ensemble_before_sampling(
    ensemble, message, dataset_tsv, tmp_path, capsys, monkeypatch
):
    import bayesline.cli as cli

    monkeypatch.setattr(cli, "sample_hmc", lambda *args: pytest.fail("sampled"))
    out = tmp_path / "out"
    argv = ["fit-bayes", str(dataset_tsv), "--draws", "100", "--warmup", "100",
            "--ensemble", ensemble, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_plot_rejects_a_bad_ensemble_before_writing(dataset_tsv, tmp_path, capsys):
    samples = _samples_csv(tmp_path / "samples.csv", ["a", "b", "sigma"])
    out = tmp_path / "out"
    argv = ["plot", str(dataset_tsv), "--samples", str(samples), "--ensemble", "21", "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "requested 21 draws but only 20 are stored" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def _line_models(tmp_path, scales):
    """A 10-point exact line y = 5x + 1 and one model file per slope-prior scale."""
    data = tmp_path / "line.tsv"
    data.write_text("".join(f"w{x}\t{x}\t{5 * x + 1}\n" for x in range(100, 1001, 100)))
    models = []
    for scale in scales:
        path = tmp_path / f"a{scale}.txt"
        path.write_text(
            f"param a ~ Normal(5, {scale})\nparam b ~ HalfNormal(1)\n"
            "param sigma ~ HalfNormal(1)\nlikelihood Y ~ Normal(a * X + b, sigma)\n"
        )
        models.append(str(path))
    return str(data), models


def test_evidence_reports_effective_samples_and_warns_below_the_floor(
    dataset_tsv, model_file, tmp_path, capsys
):
    argv = ["evidence", str(dataset_tsv), "--model", str(model_file), "--model", str(model_file)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    ess = [m["effective_samples"] for m in json.loads(captured.out)["models"]]
    assert ess[0] == ess[1] and 10 <= ess[0] <= 100_000
    assert captured.err == ""

    data, models = _line_models(tmp_path, ["0.001", "0.002"])
    assert run(["evidence", data, "--model", models[0], "--model", models[1], "--samples", "2000"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    ess = [m["effective_samples"] for m in payload["models"]]
    assert all(1 <= e < 10 for e in ess), ess
    warnings = captured.err.splitlines()
    assert len(warnings) == 2
    for path, line in zip(models, warnings):
        assert line.startswith(f"warning: the evidence of {path} rests on ")
    assert payload["bayes_factor"] > 0


def test_evidence_requires_two_models(dataset_tsv, model_file):
    assert run(["evidence", str(dataset_tsv), "--model", str(model_file)]) == 1


def test_update_conjugate_case(capsys):
    code = run(["update", "--prior-mean", "0", "--prior-var", "1", "--obs-sd", "1", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == pytest.approx(1.0)
    assert payload["variance"] == pytest.approx(0.5)


def test_plot_regenerates_from_csv(dataset_tsv, tmp_path):
    out = tmp_path / "out"
    assert run(["fit-bayes", str(dataset_tsv), "--out", str(out), "--ensemble", "20",
                *FAST_BAYES]) == 0
    (out / "figure2b.svg").unlink()
    assert run(["plot", str(dataset_tsv), "--out", str(out), "--ensemble", "20"]) == 0
    assert (out / "figure2b.svg").exists()
    assert (out / "figure1.svg").exists()


def test_unknown_flag_is_usage_error(dataset_tsv):
    assert run(["fit-ols", str(dataset_tsv), "--frobnicate"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert run(["transmogrify"]) == 1


def test_missing_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "none.tsv"
    assert run(["fit-ols", str(missing)]) == 2
    assert "none.tsv" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for sub in ("counts", "fit-ols", "fit-bayes", "evidence", "update", "plot"):
        assert run([sub, "--help"]) == 0
    assert "--seed" in capsys.readouterr().out or True


def test_out_env_var(dataset_tsv, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("BAYESLINE_OUT", str(target))
    assert run(["fit-ols", str(dataset_tsv)]) == 0
    assert (target / "ols.json").exists()


def test_fit_bayes_defaults_give_16000_retained_draws():
    # the no-flag invocation is the full-size run: 4 chains x 4000 draws
    from bayesline.cli import build_parser

    ns = build_parser().parse_args(["fit-bayes", "words.tsv"])
    assert (ns.chains, ns.draws, ns.warmup) == (4, 4000, 1000)
    assert ns.chains * ns.draws == 16_000
    assert ns.sampler == "hmc" and ns.ensemble == 500 and ns.seed == 0


def test_counts_default_top_k():
    from bayesline.cli import build_parser

    ns = build_parser().parse_args(["counts", "articles"])
    assert ns.top_k == 10
