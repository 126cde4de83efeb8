"""Exact rational references for residual sums of squares and the gradient.

Every float is a dyadic rational, so sums of its products can be formed
exactly: scale every value to an integer over one common power of two,
sum in Python integers, and divide once as a ``Fraction``.
"""

import math
from fractions import Fraction

from bayesline.density import LOG_TWO_PI


class ExactSums:
    """m, Σx, Σy, Σx², Σxy and Σy² of a Dataset, each exact."""

    def __init__(self, data):
        values = [*data.x.tolist(), *data.y.tolist()]
        ratios = [v.as_integer_ratio() for v in values]
        den = max(d for _, d in ratios)  # powers of two: every other one divides it
        ints = [n * (den // d) for n, d in ratios]
        m = data.size
        xs, ys = ints[:m], ints[m:]
        self.m = m
        self.sx = Fraction(sum(xs), den)
        self.sy = Fraction(sum(ys), den)
        den2 = den * den
        self.sxx = Fraction(sum(v * v for v in xs), den2)
        self.sxy = Fraction(sum(u * v for u, v in zip(xs, ys)), den2)
        self.syy = Fraction(sum(v * v for v in ys), den2)

    def r_sum(self, a, b):
        """Σ r_i with r_i = y_i - (a x_i + b)."""
        a, b = Fraction(a), Fraction(b)
        return self.sy - a * self.sx - b * self.m

    def rx_sum(self, a, b):
        """Σ r_i x_i."""
        a, b = Fraction(a), Fraction(b)
        return self.sxy - a * self.sxx - b * self.sx

    def rss(self, a, b):
        """Σ r_i²."""
        a, b = Fraction(a), Fraction(b)
        return (
            self.syy - 2 * a * self.sxy + a * a * self.sxx
            - 2 * b * self.sy + 2 * a * b * self.sx + self.m * b * b
        )

    def log_likelihood(self, a, b, sigma):
        """Σ log N(y_i | a x_i + b, sigma) with log(sigma) rounded once, and
        the sum of the magnitudes of its three terms (the scale of its error)."""
        s = Fraction(sigma)
        terms = (
            -Fraction(LOG_TWO_PI) * self.m / 2,
            -self.m * Fraction(math.log(sigma)),
            -self.rss(a, b) / (2 * s * s),
        )
        return sum(terms), sum(abs(t) for t in terms)


def _score(dist, v):
    """Exact d/dv of the prior log density, as density._dist_score defines it."""
    v = Fraction(v)
    if dist.kind == "Normal":
        return -(v - Fraction(dist.location)) / Fraction(dist.scale) ** 2
    return Fraction(0) if v < 0 else -v / Fraction(dist.scale) ** 2


def exact_gradient(sums, spec, a, b, sigma):
    """The gradient of the unconstrained log posterior in z = (a, log b, log sigma),
    exact at the given constrained values."""
    fb, fs = Fraction(b), Fraction(sigma)
    var = fs * fs
    d_a = sums.rx_sum(a, b) / var + _score(spec.slope_prior, a)
    d_b = sums.r_sum(a, b) / var + _score(spec.intercept_prior, b)
    d_sigma = sums.rss(a, b) / (var * fs) - sums.m / fs + _score(spec.noise_prior, sigma)
    return d_a, d_b * fb + 1, d_sigma * fs + 1
