"""The parabola f(x) = 2x^2 + 3x + 1 and even perfect numbers.

Every even perfect number 2^(p-1) * (2^p - 1) equals f(2^(p-1) - 1), so the
parabola "contains" the even perfect numbers; :func:`preimage` inverts it on
integers via the exact square test on 1 + 8P. Mersenne primality runs through
Lucas-Lehmer. The same module carries the triangular map whose x -> 2x + 1
substitution gives the parabola, its parity-preserving companion
h(x) = 2x^2 + x, and the parabola's chord/axis areas (all areas by exact
antiderivative, never quadrature). The series, sum-of-squares and parity
identities these rest on are checked by verify, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .errors import EmptyInterval, NonPositiveParameter
from .intmath import is_prime
from .qfield import RatLike, rational

__all__ = [
    "parabola",
    "half_map",
    "even_preserving_map",
    "PerfectRecord",
    "lucas_lehmer",
    "perfect_from_exponent",
    "preimage",
    "integral",
    "ChordReport",
    "chord_geometry",
]


def parabola(x):
    """2x^2 + 3x + 1 = (x+1)(2x+1), exact on ints/Fractions/QuadElems, float on floats.

    Substituting x -> 2x + 1 into the triangular-number map (x^2 + x)/2
    produces exactly this parabola, which is why it passes through every even
    perfect number.
    """
    return 2 * x * x + 3 * x + 1


def half_map(x):
    """(x^2 + x)/2: the n-th triangular number at integer x."""
    if isinstance(x, int):
        return (x * x + x) // 2
    return (x * x + x) / 2


def even_preserving_map(x):
    """h(x) = 2x^2 + x: parity-preserving companion of the parabola."""
    return 2 * x * x + x


@dataclass(frozen=True)
class PerfectRecord:
    """2^(p-1) * (2^p - 1) together with its parabola preimage x1 = 2^(p-1) - 1."""

    exponent: int
    mersenne: int
    value: int
    x1: int
    is_perfect: bool

    @property
    def x2(self) -> Fraction:
        return -Fraction(3 + 2 * self.x1, 2)


def lucas_lehmer(p: int) -> bool:
    """Primality of 2^p - 1. Requires prime p; p = 2 is handled directly."""
    if not is_prime(p):
        return False
    if p == 2:
        return True
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = _square_minus_2(s, p, m)
    return s == 0


def _square_minus_2(s: int, p: int, m: int) -> int:
    """(s^2 - 2) mod m for m = 2^p - 1 and 0 <= s < m, by one Mersenne fold.

    2^p = 1 (mod m), so t -> (t & m) + (t >> p) keeps t mod m and takes
    0 <= t < m^2 below 2m; one subtraction of m ends in [0, m).
    """
    t = s * s - 2
    if t < 0:
        t += m
    t = (t & m) + (t >> p)
    return t - m if t >= m else t


def perfect_from_exponent(p: int) -> PerfectRecord:
    """Build the record for exponent p >= 2; perfect iff 2^p - 1 is prime.

    Composite Mersenne numbers are fine (p = 11 gives 2096128 with
    is_perfect False). verify's lucas-lehmer-vs-divisor-sum checks the
    invariants f(x1) = P and 8P + 1 = (2^(p+1) - 1)^2.
    """
    if p < 2:
        raise ValueError("exponent must be >= 2")
    mersenne = (1 << p) - 1
    value = (1 << (p - 1)) * mersenne
    x1 = (1 << (p - 1)) - 1
    return PerfectRecord(
        exponent=p,
        mersenne=mersenne,
        value=value,
        x1=x1,
        is_perfect=lucas_lehmer(p),
    )


def preimage(value: int) -> Optional[tuple[int, Fraction]]:
    """Invert the parabola on integers: x1 = (-3 + sqrt(1 + 8P))/4 if integral.

    Returns (x1, x2) with x2 = -(3 + 2*x1)/2 exact, or None when 1 + 8P is
    not a perfect square or the root does not land on an integer. verify's
    table-reproduction checks the round trip.
    """
    if value < 1:
        raise NonPositiveParameter("preimage target must be >= 1")
    disc = 1 + 8 * value
    root = isqrt(disc)
    if root * root != disc or (root - 3) % 4 != 0:
        return None
    x1 = (root - 3) // 4
    return x1, -Fraction(3 + 2 * x1, 2)


def _antiderivative(x: Fraction) -> Fraction:
    """Exact antiderivative (2/3)x^3 + (3/2)x^2 + x of the parabola."""
    return Fraction(2, 3) * x**3 + Fraction(3, 2) * x**2 + x


def integral(a: RatLike, b: RatLike) -> Fraction:
    """Exact signed integral of the parabola over [a, b]."""
    a, b = rational(a), rational(b)
    return _antiderivative(b) - _antiderivative(a)


@dataclass(frozen=True)
class ChordReport:
    a: Fraction
    b: Fraction
    slope: Fraction  # 2a + 2b + 3
    intercept: Fraction  # 1 - 2ab
    trapezoid_area: Fraction  # chord integral (b-a)/2 * (f(a) + f(b))
    parabola_integral: Fraction
    chord_area: Fraction  # between chord and parabola: (b-a)^3 / 3
    axis_area: Fraction  # |integral of f| over [a, b]


def chord_geometry(a: RatLike, b: RatLike) -> ChordReport:
    """Exact secant-line and area geometry of the parabola over [a, b], a < b.

    The secant through (a, f(a)) and (b, f(b)) has slope 2a + 2b + 3 and
    intercept 1 - 2ab; the region between it and the parabola is trapezoid
    minus integral, which is (b - a)^3 / 3. Over the root gap [-1, -1/2] the
    axis area is 1/24, over [-1/2, 0] it is 5/24 (they sum to 1/4). verify's
    difference-identity checks the secant, the integral against the expanded
    combination (b-a)/6 * (2f(a) + 2f(b) + 4ab + 3a + 3b + 2), and the
    chord area.
    """
    a, b = rational(a), rational(b)
    if a >= b:
        raise EmptyInterval("need a < b")
    fa, fb = parabola(a), parabola(b)
    trapezoid = (b - a) / 2 * (fa + fb)
    area = integral(a, b)
    return ChordReport(
        a=a,
        b=b,
        slope=2 * a + 2 * b + 3,
        intercept=1 - 2 * a * b,
        trapezoid_area=trapezoid,
        parabola_integral=area,
        chord_area=trapezoid - area,
        axis_area=abs(area),
    )

