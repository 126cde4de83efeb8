import math

import numpy as np
import pytest

from bayesline.corpus import DataPoint, Dataset
from bayesline.ols import DegenerateDesignError, InsufficientDataError, lse, ols_fit


def make(points):
    return Dataset(tuple(DataPoint(f"p{i}", x, y) for i, (x, y) in enumerate(points)))


def test_lse_perfect_fit():
    data = make([(0, 1), (1, 3), (2, 5)])
    assert lse(data, 2.0, 1.0) == 0.0


def test_lse_single_point():
    assert lse(make([(0, 3)]), 0.0, 0.0) == 9.0


def test_lse_empty():
    with pytest.raises(ValueError):
        lse(Dataset(()), 0, 0)


def test_ols_exact_line():
    fit = ols_fit(make([(0, 1), (1, 3), (2, 5)]))
    assert fit.slope == 2.0
    assert fit.intercept == 1.0
    assert fit.lse == 0.0


def test_ols_three_word_subset(words3):
    fit = ols_fit(words3)
    assert fit.slope == pytest.approx(0.0075280, abs=5e-8)
    assert fit.intercept == pytest.approx(5.4894, abs=5e-5)


def test_ols_minimizes(words3):
    fit = ols_fit(words3)
    best = lse(words3, fit.slope, fit.intercept)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        da, db = rng.normal(0, [0.01, 1.0])
        if da == 0.0 and db == 0.0:
            continue
        assert lse(words3, fit.slope + da, fit.intercept + db) > best


def test_residual_identities(words3):
    fit = ols_fit(words3)
    tol = 1e-9 * words3.size * float(np.abs(words3.y).max())
    assert abs(math.fsum(fit.residuals)) < tol
    assert abs(math.fsum(r * x for r, x in zip(fit.residuals, words3.x))) < tol
    assert fit.lse == math.fsum(r * r for r in fit.residuals)


def test_residual_sign_convention():
    fit = ols_fit(make([(0, 1), (1, 3), (2, 4)]))
    for point, r in zip([(0, 1), (1, 3), (2, 4)], fit.residuals):
        assert r == pytest.approx(fit.predict(point[0]) - point[1], rel=1e-14)


def test_affine_equivariance():
    rng = np.random.default_rng(5)
    points = [(float(x), float(y)) for x, y in rng.normal(0, 10, (8, 2))]
    base = ols_fit(make(points))
    shifted = ols_fit(make([(x, y + 13.5) for x, y in points]))
    assert shifted.slope == pytest.approx(base.slope, abs=1e-10)
    assert shifted.intercept == pytest.approx(base.intercept + 13.5, abs=1e-10)


def test_x_scaling():
    rng = np.random.default_rng(6)
    points = [(float(x), float(y)) for x, y in rng.normal(0, 10, (8, 2))]
    base = ols_fit(make(points))
    scaled = ols_fit(make([(4.0 * x, y) for x, y in points]))
    assert scaled.slope == pytest.approx(base.slope / 4.0, abs=1e-10)
    assert scaled.intercept == pytest.approx(base.intercept, abs=1e-10)


def test_gradient_descent_agrees_with_closed_form():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 2, 12)
    y = 1.4 * x + 0.8 + rng.normal(0, 0.3, 12)
    data = make(list(zip(x, y)))
    fit = ols_fit(data)

    # independent iterative-descent oracle on the squared-error objective
    a = b = 0.0
    lr = 0.02
    for _ in range(20_000):
        r = (a * x + b) - y
        a -= lr * 2.0 * float(r @ x) / len(x)
        b -= lr * 2.0 * float(r.sum()) / len(x)
    assert a == pytest.approx(fit.slope, abs=1e-6)
    assert b == pytest.approx(fit.intercept, abs=1e-6)


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        ols_fit(make([(1, 1)]))


def test_degenerate_design():
    with pytest.raises(DegenerateDesignError):
        ols_fit(make([(2, 1), (2, 5), (2, 3)]))


def _reference_ols_fit(data):
    """ols_fit as it was before Dataset.stats, summing its own centred sums."""
    x = data.x
    y = data.y
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = tuple((slope * p.x + intercept) - p.y for p in data.points)
    return slope, intercept, math.fsum(r * r for r in residuals), residuals


@pytest.mark.parametrize("m", [2, 3, 47, 1000])
def test_ols_fit_equals_reference_kernel_exactly(m, words3):
    rng = np.random.default_rng(m)
    datasets = [words3]
    for _ in range(20):
        x = 10.0 ** rng.uniform(0, 7, m)
        y = np.floor(x * 10.0 ** rng.uniform(-3, 0, m))
        datasets.append(make(zip(x.tolist(), y.tolist())))
    for data in datasets:
        fit = ols_fit(data)
        assert (fit.slope, fit.intercept, fit.lse, fit.residuals) == _reference_ols_fit(data)


def test_stats_of_equal_x_have_zero_slope_and_centred_rss():
    data = make([(4.0, 1.0), (4.0, 2.0), (4.0, 6.0)])
    m, x_mean, y_mean, sxx, slope, rss_min = data.stats
    assert (m, x_mean, y_mean, sxx, slope, rss_min) == (3, 4.0, 3.0, 0.0, 0.0, 14.0)
    assert lse(data, 0.5, 1.0) == 14.0 + 3 * (3.0 - 2.0 - 1.0) ** 2
    with pytest.raises(DegenerateDesignError):
        ols_fit(data)
