"""Exact arithmetic in quadratic extensions Q(sqrt(m)).

A :class:`QuadElem` is ``a + b*sqrt(m)`` with exact rational ``a``, ``b`` and a
squarefree integer radicand ``m`` (negative radicands give the imaginary
quadratic fields; ``m = -1`` is the Gaussian case). Values are immutable and
every operation is a pure function, so they are safe to share freely.

Storage: four ints ``(A, B, D, m)`` with ``a = A/D`` and ``b = B/D``, an
integer numerator vector over one common denominator, as PARI/GP and FLINT's
``nf_elem`` store number-field elements. The stored form is canonical:
``D > 0``, ``gcd(A, B, D) == 1``, and ``m`` is squarefree, or ``m == 0``
exactly when ``B == 0``. The public constructor and :func:`parse_quad` build
through one private ``_build``, which extracts square factors from the
radicand (``sqrt(12)`` becomes ``2*sqrt(3)``) and folds a perfect-square
radicand into the rational part. Arithmetic results already carry a
squarefree radicand, so each operation, division included, reduces its
result with one gcd and never re-factors ``m``. ``z**n`` of a unit with
integral trace (phi, the metallic means, the sixth roots of unity) comes from
the Lucas pair (U(n-1), U(n)) of the private ``_lucas_pair``, two big squares
per bit of n. Any other ``z**n`` goes left to right over the bits of n: each
bit squares through the private ``_square`` (three squares, where a general
``*`` takes four products), and a set bit multiplies by the small base ``z``,
so no step multiplies two big operands.
Text goes both ways on the int slots: ``str`` prints ``A/D`` and ``B/D`` after
one gcd each, and :func:`parse_quad` reads integer numerators and denominators
straight from the text, with no ``Fraction`` in between. Structural equality
on the canonical form is exact value equality. Elements of different fields
may interact only when one of them is rational; anything else raises
:class:`~quadratica.errors.MixedRadicands` rather than silently coercing.

The coordinate map ``a + b*sqrt(m) -> (a, b)`` is an additive bijection onto
K x K; it is *not* multiplicative (K x K has zero divisors while the field
does not), which is why :meth:`QuadElem.coords` documents itself as additive-only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

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
    if isinstance(x, int):  # first: for an int, isinstance(x, Fraction) walks the numbers ABCs
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
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
        if not isinstance(a, (int, Fraction)):
            a = rational(a)
        if not isinstance(b, (int, Fraction)):
            b = rational(b)
        return _build(a.numerator, a.denominator, b.numerator, b.denominator, m)

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
        m = _radicand(self, w)
        d1, d2 = self._D, w._D
        if d1 == d2:
            return _reduced(self._A - w._A, self._B - w._B, d1, m)
        return _reduced(self._A * d2 - w._A * d1, self._B * d2 - w._B * d1, d1 * d2, m)

    def __rsub__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return w - self

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
        a1, b1, a2, b2 = self._A, self._B, w._A, w._B
        if not (a2 or b2):
            raise DivisionByZero("zero element has no inverse")
        m = _radicand(self, w)
        # (A1 + B1*sqrt(m))/D1 over (A2 + B2*sqrt(m))/D2, both times the conjugate A2 - B2*sqrt(m);
        # the norm A2^2 - m*B2^2 vanishes only at zero, as in inverse
        d2 = w._D
        return _reduced(
            d2 * (a1 * a2 - m * b1 * b2), d2 * (b1 * a2 - a1 * b2), self._D * (a2 * a2 - m * b2 * b2), m
        )

    def __rtruediv__(self, other):
        w = _coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return w / self

    def __neg__(self):
        return _raw(-self._A, -self._B, self._D, self._m)

    def __pow__(self, n: int) -> "QuadElem":
        """self**n: a Lucas ladder for units with integral trace, else binary powering.

        A unit (A + B*sqrt(m))/D with A, B != 0, D <= 2 and A^2 - m*B^2 = +/-D^2
        is a root of x^2 = P*x - Q for P = 2A/D and Q = +/-1, so self^n =
        U(n)*self - Q*U(n-1); a non-unit leaves the test after integer
        comparisons. Otherwise each bit of n squares through ``_square`` and a
        set bit multiplies by ``self``. A negative n powers ``inverse()``; every
        element to the power 0 is 1, and a negative power of zero raises
        DivisionByZero.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return _ONE
        A, B, D, m = self._A, self._B, self._D, self._m
        if D <= 2 and A and B:
            norm = A * A - m * B * B
            if abs(norm) == D * D:
                Q = norm // (D * D)
                u_prev, u = _lucas_pair(2 * A // D, Q, n)
                return _reduced(u * A - Q * u_prev * D, u * B, D, m)
        result = self
        for bit in bin(n)[3:]:
            result = _square(result)
            if bit == "1":
                result = result * self
        return result

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
        A, B, D = self._A, self._B, self._D
        if not B:
            return _ratio_text(A, D)
        coef = "" if B == D or B == -D else _ratio_text(abs(B), D)
        radical = f"{coef}√{self._m}"
        if not A:
            return radical if B > 0 else f"-{radical}"
        sign = "+" if B > 0 else "-"
        return f"{_ratio_text(A, D)} {sign} {radical}"

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


def _square(z: QuadElem) -> QuadElem:
    """z*z = (A^2 + m*B^2 + 2AB*sqrt(m)) / D^2 from three squares of big operands.

    2AB is taken as (A + B)^2 - A^2 - B^2, since CPython squares faster than it
    multiplies. A rational z needs no gcd: gcd(A, D) = 1 gives gcd(A^2, D^2) = 1.
    """
    A, B, D, m = z._A, z._B, z._D, z._m
    if not B:
        return _raw(A * A, 0, D * D, 0)
    a2, b2, s = A * A, B * B, A + B
    return _reduced(a2 + m * b2, s * s - a2 - b2, D * D, m)


def _lucas_pair(P: int, Q: int, n: int) -> tuple[int, int]:
    """(U(n-1), U(n)) of the Lucas sequence of (P, Q), for P != 0, Q = +/-1 and n >= 1.

    Doubles (U(k-1), U(k)) from k = 1 with two squares per bit of n, GMP's
    Fibonacci doubling for any P when Q = +/-1 (Joye-Quisquater 1996):

        U(2k+1) = (P^2 - 3Q)*U(k)^2 - U(k-1)^2 + 2Q^k
        U(2k-1) = U(k)^2 - Q*U(k-1)^2
        U(2k)   = (U(2k+1) + Q*U(2k-1)) / P, exactly

    A set bit keeps (U(2k), U(2k+1)), a clear one (U(2k-1), U(2k)).
    """
    prev, cur = 0, 1
    scale, twice_qk = P * P - 3 * Q, 2 * Q  # 2Q^k: k = 1 is odd
    for bit in bin(n)[3:]:
        cs, ps = cur * cur, prev * prev
        high = scale * cs - ps + twice_qk
        low = cs - Q * ps
        mid = (high + Q * low) // P
        if bit == "1":
            prev, cur, twice_qk = mid, high, 2 * Q
        else:
            prev, cur, twice_qk = low, mid, 2
    return prev, cur


def _build(an: int, ad: int, bn: int, bd: int, m: int) -> QuadElem:
    """an/ad + (bn/bd)*sqrt(m) in canonical form, for ad, bd > 0 and any radicand m.

    The one place that factors a radicand: sqrt(12) becomes 2*sqrt(3), and
    a perfect-square radicand folds into the rational part.
    """
    if not bn or not m:
        return _reduced(an, 0, ad, 0)
    s, m = squarefree_decompose(m)
    if m == 1:
        return _reduced(an * bd + bn * s * ad, 0, ad * bd, 0)
    return _reduced(an * bd, bn * s * ad, ad * bd, m)


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms as Fraction prints it: 'n', or 'n/d' for d > 1 (d > 0)."""
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        if d != 1:
            return f"{n}/{d}"
    return str(n)


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

_QUAD_RE = re.compile(
    r"^\s*(?:(?P<an>-?\d+)(?:/(?P<ad>\d+))?\s*(?P<op>[+-])\s*|(?P<bsign>-)\s*)?"
    r"(?:(?P<bn>\d+)(?:/(?P<bd>\d+))?)?\s*√\s*(?P<m>-?\d+)\s*$"
)


def _int_ratio(num: str, den: Optional[str]) -> tuple[int, int]:
    """The digits of num[/den] as ints, raising Fraction's ZeroDivisionError for a zero den."""
    n = int(num)
    if den is None:
        return n, 1
    d = int(den)
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return n, d


def parse_quad(text: str) -> QuadElem:
    """Parse the canonical rendering 'a + b√m' (or a bare rational) bit-exactly.

    Any spelling of a, b and m is accepted and canonicalized as QuadElem(a, b, m)
    would: '√12' reads as 2√3 and '√4' as 2.
    """
    text = text.strip()
    if "√" not in text:
        return QuadElem.from_rational(Fraction(text))
    match = _QUAD_RE.match(text)
    if not match:
        raise ValueError(f"not a quadratic-field literal: {text!r}")
    an, ad, op, bsign, bn, bd, m = match.groups()
    an, ad = _int_ratio(an, ad) if an else (0, 1)
    bn, bd = _int_ratio(bn, bd) if bn else (1, 1)
    if op == "-" or bsign:
        bn = -bn
    return _build(an, ad, bn, bd, int(m))
