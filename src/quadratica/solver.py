"""Exact quadratic solving and classification.

Roots are always represented exactly as :class:`~quadratica.qfield.QuadElem`
over the squarefree part of the discriminant (or as rationals when the
discriminant is a rational square); floats never enter the solver. The same
classifier serves the constant-coefficient second-order ODE characteristic
equation and the indicial equation of series solutions, via
:func:`ode_classify`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateLeadingCoefficient, NonPositiveParameter
from .intmath import squarefree_decompose
from .qfield import QuadElem, RatLike, _reduced, rational

__all__ = [
    "Quadratic",
    "RootKind",
    "RootPair",
    "VertexForm",
    "solve",
    "vertex",
    "FamilyEquation",
    "four_family",
    "shift_roots",
    "DerivativeDiscriminant",
    "disc_derivative_identity",
    "DampingKind",
    "ModeClassification",
    "ode_classify",
]


@dataclass(frozen=True)
class Quadratic:
    """a*x^2 + b*x + c with exact rational coefficients, a != 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if type(value) is not Fraction:  # an exact type test skips the numbers.Rational ABC check
                object.__setattr__(self, name, rational(value))
        if self.a == 0:
            raise DegenerateLeadingCoefficient("leading coefficient must be nonzero")

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x):
        return self.a * x * x + self.b * x + self.c

    def derivative_at(self, x):
        return 2 * self.a * x + self.b

    def monic(self) -> "Quadratic":
        return Quadratic(Fraction(1), self.b / self.a, self.c / self.a)

    @classmethod
    def from_roots(cls, r1, r2, leading: RatLike = 1) -> "Quadratic":
        """Monic-from-roots via Vieta, scaled by `leading`. Root sum/product must be rational."""
        s = r1 + r2
        p = r1 * r2
        if isinstance(s, QuadElem):
            s = s.as_fraction()
        if isinstance(p, QuadElem):
            p = p.as_fraction()
        lead = rational(leading)
        return cls(lead, -lead * s, lead * p)

    def __str__(self) -> str:
        def term(coef, suffix):
            if coef == 0:
                return ""
            sign = " + " if coef > 0 else " - "
            mag = abs(coef)
            body = suffix if mag == 1 and suffix else f"{mag}{suffix}"
            return sign + body

        head = "x^2" if self.a == 1 else ("-x^2" if self.a == -1 else f"{self.a}x^2")
        out = head + term(self.b, "x") + term(self.c, "")
        return out


class RootKind(str, enum.Enum):
    REAL_DISTINCT = "RealDistinct"
    REAL_DOUBLE = "RealDouble"
    COMPLEX_PAIR = "ComplexPair"


@dataclass(frozen=True)
class RootPair:
    """Classified exact roots; r1 carries the + branch of the radical."""

    kind: RootKind
    r1: QuadElem
    r2: QuadElem

    def __iter__(self):
        return iter((self.r1, self.r2))


@dataclass(frozen=True)
class VertexForm:
    """a*(x - h)^2 + k with h = -b/2a, k = (4ac - b^2)/4a."""

    h: Fraction
    k: Fraction
    leading: Fraction

    def expand(self) -> Quadratic:
        a = self.leading
        return Quadratic(a, -2 * a * self.h, a * self.h * self.h + self.k)


def solve(q: Quadratic) -> RootPair:
    """Exact roots (-b +/- sqrt(disc)) / 2a, classified by the discriminant.

    The roots live in Q(sqrt(m)) where m is the squarefree part of the
    discriminant; a zero discriminant yields RealDouble with r1 == r2 so the
    Vieta identities stay uniform. The coefficients are cleared to integers
    A, B, C first, so only the integer B^2 - 4AC is factored.
    """
    d = math.lcm(q.a.denominator, q.b.denominator, q.c.denominator)
    A, B, C = (x.numerator * (d // x.denominator) for x in (q.a, q.b, q.c))
    disc = B * B - 4 * A * C
    if disc == 0:
        r = _reduced(-B, 0, 2 * A, 0)
        return RootPair(RootKind.REAL_DOUBLE, r, r)
    s, m = squarefree_decompose(disc)
    if m == 1:
        # a rational square: two rational roots
        r1, r2 = _reduced(-B + s, 0, 2 * A, 0), _reduced(-B - s, 0, 2 * A, 0)
        return RootPair(RootKind.REAL_DISTINCT, r1, r2)
    r1 = _reduced(-B, s, 2 * A, m)
    kind = RootKind.REAL_DISTINCT if disc > 0 else RootKind.COMPLEX_PAIR
    return RootPair(kind, r1, r1.conj())


def vertex(q: Quadratic) -> VertexForm:
    return VertexForm(
        h=-q.b / (2 * q.a),
        k=(4 * q.a * q.c - q.b * q.b) / (4 * q.a),
        leading=q.a,
    )


@dataclass(frozen=True)
class FamilyEquation:
    label: str
    quadratic: Quadratic
    roots: RootPair


def four_family(p: RatLike, q: RatLike) -> tuple[FamilyEquation, ...]:
    """The four monic quadratics x^2 +/- p*x +/- q generated by p, q > 0.

    The roots of (a) are the negated roots of (b), likewise (c)/(d)
    (substituting x -> -x swaps the members), and (d) always has two distinct
    real roots since p^2 + 4q > 0; verify's vieta-substitution-vertex checks
    both.
    """
    p = rational(p)
    q = rational(q)
    if p <= 0 or q <= 0:
        raise NonPositiveParameter("family parameters must be > 0")
    members = {
        "a": Quadratic(1, p, q),
        "b": Quadratic(1, -p, q),
        "c": Quadratic(1, p, -q),
        "d": Quadratic(1, -p, -q),
    }
    return tuple(FamilyEquation(label, eq, solve(eq)) for label, eq in members.items())


def shift_roots(q: Quadratic, k: RatLike) -> Quadratic:
    """Monic quadratic whose roots are (root + k) for each root of q.

    Pure Vieta: new sum = old sum + 2k, new product = old product
    + k*(old sum) + k^2. No radicals are extracted, so this is exact even
    when the roots are complex.
    """
    k = rational(k)
    mq = q.monic()
    root_sum = -mq.b
    root_prod = mq.c
    return Quadratic(
        Fraction(1),
        -(root_sum + 2 * k),
        root_prod + k * root_sum + k * k,
    )


@dataclass(frozen=True)
class DerivativeDiscriminant:
    """Witnesses that sqrt(disc) equals the derivative at the + root."""

    x1: QuadElem
    x2: QuadElem
    sqrt_disc: QuadElem
    check: bool


def disc_derivative_identity(q: Quadratic) -> DerivativeDiscriminant:
    """For x1 = (-b + h)/2a with h = sqrt(disc): h = 2a*x1 + b and disc = h^2.

    Also returns the second root in the Vieta form x2 = -(a*x1 + b)/a.
    Holds verbatim for complex discriminants since h is a QuadElem.
    """
    pair = solve(q)
    x1 = pair.r1
    h = q.derivative_at(x1)
    disc_elem = QuadElem.from_rational(q.discriminant)
    check = (h * h == disc_elem) and (q(x1) == QuadElem.from_rational(0))
    x2 = -(q.a * x1 + q.b) / q.a
    return DerivativeDiscriminant(x1=x1, x2=x2, sqrt_disc=h, check=check)


class DampingKind(str, enum.Enum):
    OVERDAMPED = "Overdamped"
    CRITICAL = "Critical"
    OSCILLATORY = "Oscillatory"


@dataclass(frozen=True)
class ModeClassification:
    kind: DampingKind
    r1: QuadElem
    r2: QuadElem


_DAMPING = {
    RootKind.REAL_DISTINCT: DampingKind.OVERDAMPED,
    RootKind.REAL_DOUBLE: DampingKind.CRITICAL,
    RootKind.COMPLEX_PAIR: DampingKind.OSCILLATORY,
}


def ode_classify(a: RatLike, b: RatLike, c: RatLike) -> ModeClassification:
    """Classify a*r^2 + b*r + c = 0 as over/critically damped or oscillatory.

    The exponents come back exact; the same call classifies indicial
    equations r^2 + b*r + c = 0 by passing a = 1.
    """
    pair = solve(Quadratic(rational(a), rational(b), rational(c)))
    return ModeClassification(_DAMPING[pair.kind], pair.r1, pair.r2)
