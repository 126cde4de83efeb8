"""Closed-form ordinary least squares for the labelled (x, y) dataset.

The fit minimizes the sum of squared residuals. Its slope, means and
minimal residual sum of squares come from ``Dataset.stats``, the centred
sums (Sxy / Sxx) that are numerically stable for large word counts, and
``lse`` evaluates that record's one residual-sum-of-squares formula.
Residuals follow the prediction-minus-observation convention:
``residual_i = (slope * x_i + intercept) - y_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dataset

__all__ = ["DegenerateDesignError", "InsufficientDataError", "OlsFit", "lse", "ols_fit"]


class InsufficientDataError(ValueError):
    """Fewer than two observations."""


class DegenerateDesignError(ValueError):
    """All x values identical; the slope is undefined."""


@dataclass(frozen=True)
class OlsFit:
    slope: float
    intercept: float
    lse: float  # sum of squared residuals at the optimum
    residuals: tuple[float, ...]

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def lse(data: Dataset, a: float, b: float) -> float:
    """Sum of squared residuals of the line y = a*x + b over the dataset."""
    return data.stats.rss(a, b)


def ols_fit(data: Dataset) -> OlsFit:
    """Least-squares slope and intercept from the dataset's centred statistics."""
    if data.size < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {data.size}")
    _, x_mean, y_mean, sxx, slope, rss_min = data.stats
    if sxx == 0.0:
        raise DegenerateDesignError("all x values are identical; slope is undefined")
    intercept = y_mean - slope * x_mean
    return OlsFit(
        slope=slope,
        intercept=intercept,
        lse=rss_min,
        residuals=tuple((slope * data.x + intercept - data.y).tolist()),
    )
