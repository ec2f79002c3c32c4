"""Exact arithmetic in quadratic extensions Q(sqrt(m)).

A :class:`QuadElem` is ``a + b*sqrt(m)`` with exact rational ``a``, ``b`` and a
squarefree integer radicand ``m`` (negative radicands give the imaginary
quadratic fields; ``m = -1`` is the Gaussian case). Values are immutable and
every operation is a pure function, so they are safe to share freely.

Storage: four ints ``(A, B, D, m)`` with ``a = A/D`` and ``b = B/D``, an
integer numerator vector over one common denominator, as PARI/GP and FLINT's
``nf_elem`` store number-field elements. The stored form is canonical:
``D > 0``, ``gcd(A, B, D) == 1``, and ``m`` is squarefree, or ``m == 0``
exactly when ``B == 0``. The public constructor extracts square factors from
the radicand (``sqrt(12)`` becomes ``2*sqrt(3)``) and folds a perfect-square
radicand into the rational part. Arithmetic results already carry a
squarefree radicand, so each operation reduces its result with one gcd and
never re-factors ``m``. Structural equality on the canonical form is exact
value equality. Elements of different fields may interact only when one of
them is rational; anything else raises
:class:`~quadratica.errors.MixedRadicands` rather than silently coercing.

The coordinate map ``a + b*sqrt(m) -> (a, b)`` is an additive bijection onto
K x K; it is *not* multiplicative (K x K has zero divisors while the field
does not), which is why :meth:`QuadElem.coords` documents itself as additive-only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, MixedRadicands, PerfectSquareRadicand
from .intmath import is_square, squarefree_decompose

__all__ = [
    "BigRational",
    "QuadElem",
    "rational",
    "qf_make",
    "parse_quad",
    "rat_to_dict",
]

# Exact arbitrary-precision rationals: stdlib Fraction already guarantees
# lowest terms, positive denominator, and 0 == 0/1.
BigRational = Fraction

RatLike = Union[int, Fraction, str]


def rational(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_to_dict(f: Fraction) -> dict:
    return {"num": f.numerator, "den": f.denominator}


class QuadElem:
    """Element a + b*sqrt(m) of Q(sqrt(m)), canonicalized at construction.

    Stored as (A + B*sqrt(m)) / D; see the module docstring for the
    invariant. Like Fraction, the int slots are private and the public
    ``a``, ``b`` and ``m`` are read-only properties.
    """

    __slots__ = ("_A", "_B", "_D", "_m")

    def __new__(cls, a: RatLike, b: RatLike, m: int) -> "QuadElem":
        a = rational(a)
        b = rational(b)
        if b == 0 or m == 0:
            b, m = Fraction(0), 0
        else:
            s, m = squarefree_decompose(m)
            if s != 1:
                b = b * s
            if m == 1:
                # b*sqrt(s^2) is rational: fold it into the rational part
                a, b, m = a + b, Fraction(0), 0
        da, db = a.denominator, b.denominator
        d = math.lcm(da, db)
        return _reduced(a.numerator * (d // da), b.numerator * (d // db), d, m)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x: RatLike) -> "QuadElem":
        x = rational(x)
        return _raw(x.numerator, 0, x.denominator, 0)

    # -- structure ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._D)

    @property
    def m(self) -> int:
        return self._m

    @property
    def is_rational(self) -> bool:
        return not self._B

    def as_fraction(self) -> Fraction:
        if self._B:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._A, self._D)

    def coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (a, b) of a + b*sqrt(m): an additive bijection onto K x K.

        Additive only: coords of a product are not the componentwise product
        (K x K has zero divisors), so this is not a ring isomorphism.
        """
        return (self.a, self.b)

    def conj(self) -> "QuadElem":
        return _raw(self._A, -self._B, self._D, self._m)

    def norm(self) -> Fraction:
        """Field norm a^2 - m*b^2; always rational and multiplicative."""
        A, B, D = self._A, self._B, self._D
        return Fraction(A * A - self._m * B * B, D * D)

    def sign(self) -> int:
        """Exact sign (-1, 0 or 1) of a real element, with no float rounding.

        When a and b have opposite signs, the larger of a^2 and m*b^2 decides;
        they never tie, because a squarefree m != 1 is not a rational square.
        """
        A, B, m = self._A, self._B, self._m
        if not B:
            return (A > 0) - (A < 0)
        if m < 0:
            raise ValueError(f"{self} is not real; it has no sign")
        sign_b = 1 if B > 0 else -1
        if A == 0 or (A > 0) == (B > 0):
            return sign_b
        return -sign_b if A * A > m * B * B else sign_b

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        m = _radicand(self, w)
        d1, d2 = self._D, w._D
        if d1 == d2:
            return _reduced(self._A + w._A, self._B + w._B, d1, m)
        return _reduced(self._A * d2 + w._A * d1, self._B * d2 + w._B * d1, d1 * d2, m)

    __radd__ = __add__

    def __sub__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return self + (-w)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        m = _radicand(self, w)
        a1, b1, a2, b2 = self._A, self._B, w._A, w._B
        return _reduced(a1 * a2 + m * b1 * b2, a1 * b2 + b1 * a2, self._D * w._D, m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        A, B, m = self._A, self._B, self._m
        if not (A or B):
            raise DivisionByZero("zero element has no inverse")
        # D/(A + B*sqrt(m)) = D*(A - B*sqrt(m)) / (A^2 - m*B^2); the norm
        # vanishes only at zero, since squarefree m != 1 is never a rational square
        D = self._D
        return _reduced(D * A, -D * B, A * A - m * B * B, m)

    def __truediv__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return self * w.inverse()

    def __rtruediv__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return w * self.inverse()

    def __neg__(self):
        return _raw(-self._A, -self._B, self._D, self._m)

    def __pow__(self, n: int) -> "QuadElem":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _ONE if result is None else result

    # -- comparisons / embeddings ---------------------------------------

    def __eq__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return self._A == w._A and self._B == w._B and self._D == w._D and self._m == w._m

    def __hash__(self):
        if not self._B:
            # a rational element hashes like the Fraction it equals
            return hash(self._A) if self._D == 1 else hash(Fraction(self._A, self._D))
        return hash((self._A, self._B, self._D, self._m))

    def __bool__(self):
        return bool(self._A or self._B)

    def __float__(self) -> float:
        if self._m < 0 and self._B:
            raise ValueError(f"{self} is not real; use complex()")
        # int / int is correctly rounded, so these equal float(self.a), float(self.b)
        return self._A / self._D + self._B / self._D * math.sqrt(self._m)

    def __complex__(self) -> complex:
        if self._m >= 0:
            return complex(float(self))
        return complex(self._A / self._D, self._B / self._D * math.sqrt(-self._m))

    def __reduce__(self):
        return (QuadElem, (self.a, self.b, self._m))

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        mag = abs(b)
        coef = "" if mag == 1 else str(mag)
        radical = f"{coef}√{self._m}"
        if a == 0:
            return radical if b > 0 else f"-{radical}"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {radical}"

    def __repr__(self) -> str:
        return f"QuadElem({self.a}, {self.b}, {self._m})"

    def to_dict(self) -> dict:
        return {"a": rat_to_dict(self.a), "b": rat_to_dict(self.b), "m": self._m}

    @classmethod
    def from_dict(cls, d: dict) -> "QuadElem":
        a, b = d["a"], d["b"]
        return cls(Fraction(a["num"], a["den"]), Fraction(b["num"], b["den"]), d["m"])


def _raw(A: int, B: int, D: int, m: int) -> QuadElem:
    """Wrap (A + B*sqrt(m))/D that is already in canonical form."""
    z = object.__new__(QuadElem)
    z._A = A
    z._B = B
    z._D = D
    z._m = m
    return z


def _reduced(A: int, B: int, D: int, m: int) -> QuadElem:
    """(A + B*sqrt(m))/D in canonical form, for D != 0 and m squarefree or 0.

    One 3-way gcd (the denominator first: it is the small operand) and a
    sign flip; the radicand is never re-factored.
    """
    if not B:
        m = 0
    g = math.gcd(D, A, B)
    if D < 0:
        g = -g
    if g != 1:
        A //= g
        B //= g
        D //= g
    return _raw(A, B, D, m)


def _coerce(x):
    if isinstance(x, QuadElem):
        return x
    if isinstance(x, int):
        return _raw(x, 0, 1, 0)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator, 0)
    return NotImplemented


def _radicand(z: QuadElem, w: QuadElem) -> int:
    """The radicand shared by z and w, either of which may be rational."""
    m = z._m
    if m == w._m or not w._m:
        return m
    if not m:
        return w._m
    raise MixedRadicands(f"cannot combine sqrt({m}) with sqrt({w._m})")


_ONE = _raw(1, 0, 1, 0)


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def qf_make(a: RatLike, b: RatLike, m: int) -> QuadElem:
    """Build a + b*sqrt(m), extracting square factors so the radicand is squarefree.

    Raises PerfectSquareRadicand when m is 0, 1, or a perfect square: then
    x^2 = m already has a rational solution and the extension is degenerate.
    """
    if m == 0 or m == 1:
        raise PerfectSquareRadicand(f"radicand {m} generates no extension")
    if is_square(m):
        raise PerfectSquareRadicand(f"{m} is a perfect square; sqrt({m}) is already rational")
    return QuadElem(a, b, m)


# ----------------------------------------------------------------------
# text round-trip
# ----------------------------------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_QUAD_RE = re.compile(
    rf"^\s*(?:(?P<a>{_RAT})\s*(?P<op>[+-])\s*|(?P<bsign>-)\s*)?"
    rf"(?P<coef>\d+(?:/\d+)?)?\s*√\s*(?P<m>-?\d+)\s*$"
)


def parse_quad(text: str) -> QuadElem:
    """Parse the canonical rendering 'a + b√m' (or a bare rational) bit-exactly."""
    text = text.strip()
    if "√" not in text:
        return QuadElem.from_rational(Fraction(text))
    match = _QUAD_RE.match(text)
    if not match:
        raise ValueError(f"not a quadratic-field literal: {text!r}")
    a = Fraction(match.group("a")) if match.group("a") else Fraction(0)
    b = Fraction(match.group("coef")) if match.group("coef") else Fraction(1)
    if match.group("op") == "-" or match.group("bsign"):
        b = -b
    return QuadElem(a, b, int(match.group("m")))
