import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesline.modelspec import (
    DistributionSpec,
    DuplicateParameterError,
    LikelihoodError,
    MissingParameterError,
    ModelSpec,
    ModelSpecError,
    NoisePriorError,
    NonPositiveScaleError,
    UnknownDistributionError,
    _SCALE_RANGE,
    default_model,
    format_model_spec,
    parse_model_spec,
)

PAPER_TEXT = """\
param a ~ Normal(0, 1)
param b ~ HalfNormal(1)
param sigma ~ HalfNormal(1)
likelihood Y ~ Normal(a * X + b, sigma)
"""


def test_default_model_priors():
    m = default_model()
    assert m.slope_prior == DistributionSpec.normal(0.0, 1.0)
    assert m.intercept_prior == DistributionSpec.half_normal(1.0)
    assert m.noise_prior == DistributionSpec.half_normal(1.0)


def test_parse_default_text_equals_default_model():
    assert parse_model_spec(PAPER_TEXT) == default_model()


def test_parse_tolerates_comments_and_blank_lines():
    text = "# priors\n\nparam a ~ Normal(0, 1)  # slope\n" + PAPER_TEXT.split("\n", 1)[1]
    assert parse_model_spec(text) == default_model()


def test_unknown_distribution_positioned():
    with pytest.raises(UnknownDistributionError) as err:
        parse_model_spec("param a ~ Cauchy(0, 1)")
    assert err.value.line == 1
    assert err.value.column == 11


def test_non_positive_scale():
    with pytest.raises(NonPositiveScaleError) as err:
        parse_model_spec("param a ~ Normal(0, -1)")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "line, column",
    [
        ("param a ~ Normal(0, 1e-200)", 21),
        ("param a ~ Normal(0, 1e200)", 21),
        ("param b ~ HalfNormal(1e-155)", 22),
        ("param sigma ~ HalfNormal(1e154)", 26),
        ("param sigma ~ HalfNormal(1e999)", 26),
    ],
)
def test_scale_whose_square_underflows_or_overflows_is_rejected(line, column):
    with pytest.raises(NonPositiveScaleError) as err:
        parse_model_spec(line)
    assert (err.value.line, err.value.column) == (1, column)


def test_scale_range_edges():
    low, high = 1.4916681462400413e-154, 9.480751908109176e153
    for scale in (low, high):
        assert DistributionSpec.normal(0.0, scale).scale == scale
        text = PAPER_TEXT.replace("Normal(0, 1)", f"Normal(0, {scale!r})")
        assert parse_model_spec(text).slope_prior.scale == scale
    for scale in (low / 2, high * 1.0000001, 1e-200, 1e200, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DistributionSpec.normal(0.0, scale)
        with pytest.raises(ValueError):
            DistributionSpec.half_normal(scale)


def test_stated_scale_bounds_are_accepted_and_just_past_them_rejected():
    """The bounds the error message states hold: both are accepted, and a
    scale just outside either is rejected with that message."""
    low, high = map(float, re.search(r"\[(\S+), (\S+)\]", _SCALE_RANGE).groups())
    assert (low, high) == (1.5e-154, 9.48e153)
    for scale in (low, high):
        assert DistributionSpec.half_normal(scale).scale == scale
        text = PAPER_TEXT.replace("Normal(0, 1)", f"Normal(0, {scale!r})")
        assert parse_model_spec(text).slope_prior.scale == scale
    for scale in (1.49e-154, 9.49e153):
        with pytest.raises(ValueError, match=re.escape(_SCALE_RANGE)):
            DistributionSpec.normal(0.0, scale)
        text = PAPER_TEXT.replace("HalfNormal(1)", f"HalfNormal({scale!r})")
        with pytest.raises(NonPositiveScaleError, match=re.escape(_SCALE_RANGE)):
            parse_model_spec(text)


def test_sigma_normal_prior_is_rejected():
    text = PAPER_TEXT.replace("param sigma ~ HalfNormal(1)", "param sigma ~ Normal(0, 1)")
    with pytest.raises(NoisePriorError) as err:
        parse_model_spec(text)
    assert err.value.line == 3
    assert "HalfNormal" in str(err.value)


def test_missing_parameter():
    text = "param a ~ Normal(0, 1)\nlikelihood Y ~ Normal(a * X + b, sigma)\n"
    with pytest.raises(MissingParameterError) as err:
        parse_model_spec(text)
    assert "b" in err.value.message and "sigma" in err.value.message


def test_duplicate_parameter():
    text = "param a ~ Normal(0, 1)\nparam a ~ Normal(1, 2)\n"
    with pytest.raises(DuplicateParameterError) as err:
        parse_model_spec(text)
    assert err.value.line == 2


def test_missing_likelihood():
    text = PAPER_TEXT.rsplit("likelihood", 1)[0]
    with pytest.raises(LikelihoodError):
        parse_model_spec(text)


def test_malformed_likelihood():
    text = PAPER_TEXT.replace("a * X + b", "a * X")
    with pytest.raises(LikelihoodError) as err:
        parse_model_spec(text)
    assert err.value.line == 4


def test_format_contains_literal_arguments():
    spec = ModelSpec(
        slope_prior=DistributionSpec.normal(2.5, 0.5),
        intercept_prior=DistributionSpec.half_normal(1.0),
        noise_prior=DistributionSpec.half_normal(1.0),
    )
    text = format_model_spec(spec)
    assert "Normal(2.5, 0.5)" in text
    assert parse_model_spec(text) == spec


def test_format_deterministic():
    assert format_model_spec(default_model()) == format_model_spec(default_model())


def test_modelspec_rejects_normal_noise_prior():
    with pytest.raises(ValueError):
        ModelSpec(
            slope_prior=DistributionSpec.normal(0, 1),
            intercept_prior=DistributionSpec.half_normal(1),
            noise_prior=DistributionSpec.normal(0, 1),
        )


scales = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
locations = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def dist_strategy(allow_normal=True):
    half = st.builds(DistributionSpec.half_normal, scales)
    if not allow_normal:
        return half
    return st.one_of(half, st.builds(DistributionSpec.normal, locations, scales))


@given(
    slope=dist_strategy(),
    intercept=dist_strategy(),
    noise=dist_strategy(allow_normal=False),
)
@settings(max_examples=150, deadline=None)
def test_round_trip_parse_format(slope, intercept, noise):
    spec = ModelSpec(slope_prior=slope, intercept_prior=intercept, noise_prior=noise)
    assert parse_model_spec(format_model_spec(spec)) == spec


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_text(text):
    try:
        result = parse_model_spec(text)
        assert isinstance(result, ModelSpec)
    except ModelSpecError as err:
        assert err.line >= 1 and err.column >= 1


@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_on_bytes(blob):
    text = blob.decode("utf-8", errors="replace")
    try:
        parse_model_spec(text)
    except ModelSpecError:
        pass
