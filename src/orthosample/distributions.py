"""Reference distributions for calibration: normal, Student-t, chi-square, F
and Hotelling T-squared (through its F representation).

Everything is built on the regularized incomplete gamma/beta functions,
evaluated by series/continued-fraction expansions, so the package has no
runtime dependency on a stats library.  Accuracy target is 1e-8 absolute on
the CDFs; quantiles invert the CDF by bisection to 1e-10.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .spectral import _integer

__all__ = [
    "Dist",
    "normal",
    "student_t",
    "chi_square",
    "f_dist",
    "hotelling_t2",
    "reg_inc_beta",
]

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series, good for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by Lentz's continued fraction, good for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class Dist:
    """A calibration reference law with a cdf, survival function and quantile
    function; frozen and hashable, so its quantiles are cached per process."""

    family: str
    params: tuple

    def cdf(self, x: float) -> float:
        return self._tail(x, upper=False)

    def sf(self, x: float) -> float:
        return self._tail(x, upper=True)

    def _tail(self, x: float, upper: bool) -> float:
        """P(X > x) if ``upper`` else P(X <= x), with the smaller of the two
        evaluated directly so that far tails keep their relative precision."""
        x = float(x)
        if self.family == "normal":
            return 0.5 * math.erfc((x if upper else -x) / math.sqrt(2.0))
        if self.family == "t":
            (nu,) = self.params
            if x == 0.0:
                return 0.5
            p = 0.5 * reg_inc_beta(nu / 2.0, 0.5, nu / (nu + x * x))  # beyond |x|
            return p if (x > 0) == upper else 1.0 - p
        if x <= 0.0 and self.family in ("chi2", "F"):
            return float(upper)
        if self.family == "chi2":
            a, y = self.params[0] / 2.0, x / 2.0
            if y < a + 1.0:
                lower = _gamma_series(a, y)
                return 1.0 - lower if upper else lower
            q = _gamma_cf(a, y)
            return q if upper else 1.0 - q
        if self.family == "F":
            d1, d2 = self.params
            if upper:  # 1 - I_y(a, b) = I_{1-y}(b, a)
                return reg_inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d1 * x + d2))
            return reg_inc_beta(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))
        if self.family == "hotelling":
            p, m = self.params
            scale = (m - p + 1.0) / (p * m)
            return f_dist(p, m - p + 1)._tail(x * scale, upper)
        raise ValueError(f"unknown family {self.family!r}")

    def quantile(self, q: float) -> float:
        """The q quantile, inverted once per process for each (law, q)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        return self._bisect(float(q))

    @functools.lru_cache(maxsize=256)
    def _bisect(self, q: float) -> float:
        lo, hi = -1.0, 1.0
        # expand a bracket, then bisect; cdf is monotone for every family
        for _ in range(200):
            if self.cdf(lo) <= q:
                break
            lo *= 2.0
        for _ in range(200):
            if self.cdf(hi) >= q:
                break
            hi *= 2.0
        if self.family in ("chi2", "F", "hotelling"):
            lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)

    def __str__(self):
        inside = ", ".join(f"{p:g}" for p in self.params)
        return f"{self.family}({inside})" if self.params else self.family


def normal() -> Dist:
    return Dist("normal", ())


def student_t(df: float) -> Dist:
    if df <= 0:
        raise ValueError("t degrees of freedom must be positive")
    return Dist("t", (float(df),))


def chi_square(df: float) -> Dist:
    if df <= 0:
        raise ValueError("chi-square degrees of freedom must be positive")
    return Dist("chi2", (float(df),))


def f_dist(d1: float, d2: float) -> Dist:
    if d1 <= 0 or d2 <= 0:
        raise ValueError("F degrees of freedom must be positive")
    return Dist("F", (float(d1), float(d2)))


def hotelling_t2(p: int, m: int) -> Dist:
    """Hotelling T^2(p, m) = p*m/(m - p + 1) * F(p, m - p + 1), integral p and m."""
    p, m = _integer(p, "p"), _integer(m, "m")
    if p <= 0 or m <= 0:
        raise ValueError("dimension and degrees of freedom must be positive")
    if m - p + 1 <= 0:
        raise ValueError(f"hotelling({p}, {m}) requires m - p + 1 > 0")
    return Dist("hotelling", (p, m))
