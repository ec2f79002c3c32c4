"""Goldbach witnesses: N = (M + I) + (M - I) with both halves prime.

For odd p, q the half-sum M = (p+q)/2 and half-difference I = (p-q)/2 always
have opposite parity (four-case 4k +/- 1 check in :func:`parity_lemma`), so
the witness search for an even N walks I over the parity class opposite M.
The search returns the minimal I; the full witness list is available from
:func:`witnesses`. Each witness pair roots the parabola
x^2 - (p+q)x + pq whose vertex sits at (M, -I^2), giving the exact area
bundle A_s = (4/3)I^3, A_r = 2I^3, A_t = I^3.

One odd-only table is the prime table, flag j for 2j + 3 (2 is answered
apart). Only the range operations, verify_range and witnesses, build it; a
single search or pair check reads it and never builds it, and past its end
calls :func:`quadratica.intmath.is_prime`. Inside the table a search reads
256 candidates I at a time: the flags of the odd M + I and of M - I are two
contiguous slices, and their AND gives the least I as the lowest set bit.
Range verification first holds the primes as the bits of one integer P
and resolves every N = 2M at once: for I = 0, 1, 2, ... the mask
(P >> I) & (P << I) marks each M with M + I and M - I both prime, and the
first I that marks an M is its minimal witness. Each such step costs the
whole range, so once few M are left unresolved the sweep stops and each of
those stragglers gets the search above instead.
"""

from __future__ import annotations

import csv
import enum
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from .errors import EmptyInterval, EvenInput, InputTooLarge, InvalidPair, InvalidTarget
from .errors import NonPositiveParameter, NoWitnessFound, NotCoprime
from .intmath import PRIME_ARGUMENT_MAX_BITS, _odd_flags, is_prime
from .solver import Quadratic

__all__ = [
    "parity_lemma",
    "GoldbachWitness",
    "find_witness",
    "witnesses",
    "WitnessParabola",
    "witness_parabola",
    "AreaReport",
    "witness_areas",
    "HypClass",
    "hypotenuse_number",
    "VerifySummary",
    "verify_range",
]

_SIEVE_CAP = 10_000_000  # largest N witnesses() sieves to (a 5 MB table)

# Past the table find_witness tests candidates with is_prime. On 20 random even N per
# size, 256 bits took a median of 0.2-0.4 s and at worst 1.6-2.4 s; 288 bits 2.1-2.7 s.
_WITNESS_MAX_BITS = 256

# verify_range holds the odd table, stop/2 bytes, and integers of up to stop bits: `goldbach verify`
# takes ~0.7 s and ~30 MB to 10^7, ~9-10 s and ~140 MB to 10^8 (2 cores, Python 3.11).
_VERIFY_MAX = 10**8

# verify_range sweeps its bitsets while more than count // _SWEEP_RATIO M are unresolved.
# Medians of 7 cold runs (2 cores, Python 3.11) at ratios 32, 64, 128, 256: 0.131, 0.103,
# 0.091, 0.093 s to 10^6 and 0.95, 0.82, 0.85, 0.86 s to 10^7; a sweep to the end took 0.173
# and 1.69 s. 64 is within 13% of the best at 10^6 and the best at 10^7.
_SWEEP_RATIO = 64

_WINDOW = 256  # candidates I that _least_i reads from the table at a time
_NONZERO = b"\0" + b"\1" * 255  # a translation table: 1 for each nonzero byte

_odd: bytearray = bytearray()  # _odd[j] == 1 iff 2j + 3 is prime; built by verify_range and witnesses


def _covers(k: int) -> bool:
    """Whether the odd table decides every number up to k."""
    return k < 2 * len(_odd) + 3


def _table_prime(k: int) -> bool:
    """Whether k is prime, read from the odd table; the caller makes sure that _covers(k)."""
    return _odd[(k - 3) // 2] == 1 if k % 2 and k > 1 else k == 2


def _set_bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0 in increasing order, read from its nonzero bytes."""
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    nonzero = data.translate(_NONZERO)
    j = -1
    while (j := nonzero.find(1, j + 1)) >= 0:
        byte = data[j]
        while byte:
            yield 8 * j + (byte & -byte).bit_length() - 1
            byte &= byte - 1  # clears the lowest set bit


def parity_lemma(p: int, q: int) -> tuple[str, str]:
    """Parities of (p+q)/2 and (p-q)/2 for odd p, q; always opposite.

    verify's parity-lemma checks this through the four-way 4k+1 / 4k-1
    decomposition that proves it.
    """
    if p % 2 == 0 or q % 2 == 0:
        raise EvenInput("both inputs must be odd")
    m = (p + q) // 2
    i = abs(p - q) // 2

    def parity(x: int) -> str:
        return "even" if x % 2 == 0 else "odd"

    return parity(m), parity(i)


@dataclass(frozen=True)
class GoldbachWitness:
    """N = p + q with p = M + I, q = M - I both prime; fields that disagree raise InvalidPair."""

    N: int
    M: int
    I: int
    p: int
    q: int

    @property
    def uses_even_prime(self) -> bool:
        # N = 4 decomposes only as 2 + 2, outside the odd-prime setting
        return self.q == 2

    def __post_init__(self):
        if self.p + self.q != self.N or self.p != self.M + self.I or self.q != self.M - self.I:
            raise InvalidPair(f"N = p + q = (M + I) + (M - I) fails for {self}")


def _both_prime(m: int, i: int, width: int) -> int:
    """An integer whose byte j is 1 iff M + I and M - I are both prime, for I = i + 2j and j < width.

    The caller makes sure that the odd table covers 2M, M + i is odd and i < M. The flags from M + I
    up and those down to M - I are two slices, read little- and big-endian; the lower one stops at
    index 0, the value 3, rather than wrap to the end of the table.
    """
    up, down = (m + i - 3) // 2, (m - i - 3) // 2  # down >= -1, as M - i >= 1
    return int.from_bytes(_odd[up : up + width], "little") & int.from_bytes(
        _odd[max(down - width + 1, 0) : down + 1], "big"
    )


def _least_i(m: int, i: int) -> int:
    """Least I >= i of i's parity with M - I and M + I both prime, read from the odd table.

    The caller makes sure that the table covers 2M and that M + i is odd. The
    lowest set bit of :func:`_both_prime` over _WINDOW candidates from I = i
    is the least I among them. Raises NoWitnessFound when no I < M is left.
    """
    while i < m:
        both = _both_prime(m, i, _WINDOW)
        if both:
            return i + 2 * ((both & -both).bit_length() // 8)  # byte j sets bit 8j
        i += 2 * _WINDOW
    raise NoWitnessFound(f"no witness below M for N={2 * m}: Goldbach counterexample?")


def find_witness(n: int) -> GoldbachWitness:
    """Minimal-I witness for even n >= 4.

    I = 0 is allowed when M itself is prime (covering n = 4 as 2 + 2, the
    one decomposition that leaves the odd-prime setting); otherwise I runs
    over the parity class opposite M. Exhausting I < M raises
    NoWitnessFound, which would be a Goldbach counterexample and is worth
    shouting about. The search reads the table and never builds it. Inside
    it, :func:`_least_i` reads a window of candidates at a time; past its
    end, each candidate gets a primality test, so memory stays bounded, and
    n of more than _WITNESS_MAX_BITS bits is refused before the first.
    """
    if n < 4 or n % 2:
        raise InvalidTarget(f"witness targets are even n >= 4, got {n}")
    if n.bit_length() > _WITNESS_MAX_BITS:
        raise InputTooLarge(f"witness targets have at most {_WITNESS_MAX_BITS} bits, got {n.bit_length()}")
    m, start = n // 2, 1 if n % 4 == 0 else 2  # the least I of the parity opposite M
    if _covers(n):
        i = 0 if _table_prime(m) else _least_i(m, start)
        return GoldbachWitness(N=n, M=m, I=i, p=m + i, q=m - i)
    if is_prime(m):
        return GoldbachWitness(N=n, M=m, I=0, p=m, q=m)
    for i in range(start, m - 1, 2):
        if is_prime(m + i) and is_prime(m - i):
            return GoldbachWitness(N=n, M=m, I=i, p=m + i, q=m - i)
    raise NoWitnessFound(f"no witness below M for N={n}: Goldbach counterexample?")


def witnesses(n: int) -> list[GoldbachWitness]:
    """Every witness of n in increasing I order, from the table grown to n <= _SIEVE_CAP."""
    global _odd
    if n > _SIEVE_CAP:
        raise InputTooLarge(f"witness --all needs N <= {_SIEVE_CAP}, got {n}")
    if n < 4 or n % 2:
        raise InvalidTarget(f"witness targets are even n >= 4, got {n}")
    if not _covers(n):
        _odd = _odd_flags(2, n + 1)
    m, start = n // 2, 1 if n % 4 == 0 else 2
    found = ([0] if _table_prime(m) else []) + [start + 2 * (k // 8) for k in _set_bits(_both_prime(m, start, m))]
    return [GoldbachWitness(N=n, M=m, I=i, p=m + i, q=m - i) for i in found]


@dataclass(frozen=True)
class WitnessParabola:
    p: int
    q: int
    quadratic: Quadratic
    vertex_x: Fraction
    vertex_y: Fraction


def _check_pair(p: int, q: int) -> None:
    """Raise InvalidPair unless p >= q are odd primes; the table decides when it covers p.

    Either of more than PRIME_ARGUMENT_MAX_BITS bits raises InputTooLarge before any test.
    """
    bits = max(p.bit_length(), q.bit_length())
    if bits > PRIME_ARGUMENT_MAX_BITS:
        raise InputTooLarge(f"pair primes have at most {PRIME_ARGUMENT_MAX_BITS} bits, got {bits}")
    prime = _table_prime if _covers(p) else is_prime
    if p < q or q < 3 or p % 2 == 0 or q % 2 == 0 or not (prime(p) and prime(q)):
        raise InvalidPair(f"need odd primes p >= q, got ({p}, {q})")


def witness_parabola(p: int, q: int) -> WitnessParabola:
    """x^2 - (p+q)x + pq for odd primes p >= q: roots p, q; vertex (M, -I^2).

    verify's area-identities checks the roots with solve and the vertex value.
    """
    _check_pair(p, q)
    return _parabola(p, q)


def _parabola(p: int, q: int) -> WitnessParabola:
    """witness_parabola for a pair already checked, as by witness_areas."""
    i = Fraction(p - q, 2)
    quadratic = Quadratic(1, -(p + q), p * q)
    return WitnessParabola(p=p, q=q, quadratic=quadratic, vertex_x=Fraction(p + q, 2), vertex_y=-(i * i))


@dataclass(frozen=True)
class AreaReport:
    p: int
    q: int
    I: int
    parabola_area: Fraction  # between the x-axis and the parabola on [q, p]
    rectangle_area: Fraction  # (p - q) by I^2
    triangle_area: Fraction  # half the rectangle
    leading_segment: Fraction  # integral of the parabola over [0, q]


def witness_areas(p: int, q: int) -> AreaReport:
    """Exact area bundle of the witness parabola for p > q.

    With I = (p-q)/2: A_s = (p-q)^3/6 = (4/3) I^3, A_r = (p-q) I^2 = 2 I^3,
    A_t = A_r/2 = I^3, and the leading segment over [0, q] is q^2 (3p - q)/6.
    verify's area-identities checks A_s and the leading segment against the
    antiderivative of the parabola, each other area, and the ratio
    identities A_r/A_s = 3/2, A_r/A_t = 2, A_s/A_t = 4/3.
    """
    if p <= q:
        raise InvalidPair(f"need p > q, got ({p}, {q})")
    _check_pair(p, q)
    i = (p - q) // 2
    i3 = i * i * i
    return AreaReport(
        p=p, q=q, I=i,
        parabola_area=Fraction(4 * i3, 3),
        rectangle_area=Fraction(2 * i3),
        triangle_area=Fraction(i3),
        leading_segment=Fraction(q * q * (3 * p - q), 6),
    )


class HypClass(str, enum.Enum):
    PRIME = "Prime"
    PRIME_SQUARE = "PrimeSquare"
    COMPOSITE = "Composite"


def hypotenuse_number(n: int, i: int, l: int = 1) -> tuple[int, HypClass]:
    """H = (2n)^(2l) + I^(2l) from the legs of a witness triangle.

    Needs n >= 1 and gcd(2n, I) = 1. Classifies H as prime, prime square, or
    composite. H has at most 2l times the bit length of max(|2n|, |I|) bits,
    plus one; past PRIME_ARGUMENT_MAX_BITS that raises InputTooLarge before
    H is built.
    verify's hypotenuse-quotient checks the quotient identity
    ((p+q)^(2l) + (p-q)^(2l)) / 2^(2l) = (2n)^(2l) + I^(2l) with p = 2n + I,
    q = 2n - I.
    """
    bits = 2 * l * max(abs(2 * n), abs(i)).bit_length()
    if bits > PRIME_ARGUMENT_MAX_BITS:
        raise InputTooLarge(f"H would have about {bits} bits; at most {PRIME_ARGUMENT_MAX_BITS} are allowed")
    if l < 1:
        raise NonPositiveParameter("exponent l must be >= 1")
    if n < 1:
        raise NonPositiveParameter(f"n must be >= 1, got {n}")
    if gcd(2 * n, i) != 1:
        raise NotCoprime(f"gcd(2n, I) must be 1, got gcd({2 * n}, {i})")
    h = (2 * n) ** (2 * l) + i ** (2 * l)
    if is_prime(h):
        return h, HypClass.PRIME
    r = isqrt(h)
    if r * r == h and is_prime(r):
        return h, HypClass.PRIME_SQUARE
    return h, HypClass.COMPOSITE


# ----------------------------------------------------------------------
# range verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySummary:
    start: int
    stop: int
    count: int
    max_i: int
    n_at_max_i: int
    elapsed: float
    csv_path: Optional[str] = None
    histogram: tuple[tuple[int, int], ...] = ()  # (I, how many N have minimal witness I)


def verify_range(stop: int, start: int = 4, csv_path: Optional[str] = None) -> VerifySummary:
    """Find the minimal-I witness for every even N in [start, stop].

    One process, two phases. The sweep works on whole-range bitsets: bit k
    of `primes` is set iff k is prime, and bit M of `unresolved` marks an
    N = 2M still without a witness. For I = 0, 1, 2, ... the mask
    found = unresolved & (primes >> I) & (primes << I) holds exactly the M
    whose minimal witness is I, and those bits leave `unresolved`;
    found.bit_count() is I's entry in the histogram. A step costs the whole
    range however few M are left, so the sweep stops once at most
    count // _SWEEP_RATIO remain, and :func:`_least_i` scans for each of
    those stragglers, in increasing M, from the first I of its parity that
    the sweep has not tried. Their I close the histogram. n_at_max_i is the
    smallest N whose minimal witness is max_i. When csv_path is given, the
    rows N, I_min, p, q are decoded from the sweep's masks and the
    stragglers' I and written in N order. Raises NoWitnessFound, naming the
    smallest N with no witness below M, i.e. never. A stop past _VERIFY_MAX
    raises InputTooLarge before csv_path is opened: a refused range never
    creates or truncates it, and an unwritable one fails before the table.
    """
    global _odd
    if stop > _VERIFY_MAX:
        raise InputTooLarge(f"range verification stops at <= {_VERIFY_MAX}, got {stop}")
    if start % 2:
        start += 1
    start = max(start, 4)
    if stop < start:
        raise EmptyInterval("empty range")
    with open(csv_path, "w", newline="") if csv_path else nullcontext() as handle:
        t0 = time.perf_counter()
        if not _covers(stop):
            _odd = _odd_flags(2, stop + 1)
        n_odd = (stop - 1) // 2  # flags 0 .. n_odd - 1 are the odd 3 .. stop; a longer table is sliced, else not copied
        digits = (_odd[:n_odd] if len(_odd) > n_odd else _odd).translate(bytes.maketrans(b"\0\1", b"01"))
        digits.reverse()
        primes = int(digits, 4) << 3 | 4  # base-4 digit j is bit 2j, so flag j sets bit 2j + 3; bit 2 is 2
        del digits
        m_lo, m_hi = start // 2, stop // 2
        count = m_hi - m_lo + 1
        low_primes = primes & ((2 << m_hi) - 1)  # M - I <= m_hi
        unresolved = ((1 << count) - 1) << m_lo
        remaining = count
        i_min = array("I", [0]) * count if csv_path else None
        histogram = []
        last = 0
        i = 0
        while remaining > count // _SWEEP_RATIO:
            if i > m_hi:
                n = 2 * ((unresolved & -unresolved).bit_length() - 1)
                raise NoWitnessFound(f"no witness below M for N={n}: Goldbach counterexample?")
            found = unresolved & (primes >> i) & (low_primes << i)
            if found:
                unresolved ^= found
                resolved = found.bit_count()
                remaining -= resolved
                histogram.append((i, resolved))
                last = found
                if i_min is not None:
                    for k in _set_bits(found >> m_lo):
                        i_min[k] = i
            i += 1
        max_i, n_at_max_i = histogram[-1][0], 2 * ((last & -last).bit_length() - 1)

        stragglers: dict[int, int] = {}  # I -> how many stragglers have it
        for m in _set_bits(unresolved):
            m_i = _least_i(m, i + (m + i + 1) % 2)  # from the first untried I of M's other parity
            stragglers[m_i] = stragglers.get(m_i, 0) + 1
            if m_i > max_i:
                max_i, n_at_max_i = m_i, 2 * m
            if i_min is not None:
                i_min[m - m_lo] = m_i
        histogram.extend(sorted(stragglers.items()))

        if handle:
            writer = csv.writer(handle)
            writer.writerow(["N", "I_min", "p", "q"])
            writer.writerows((2 * m, i, m + i, m - i) for m, i in zip(range(m_lo, m_hi + 1), i_min))
    return VerifySummary(
        start=start,
        stop=stop,
        count=count,
        max_i=max_i,
        n_at_max_i=n_at_max_i,
        elapsed=time.perf_counter() - t0,
        csv_path=csv_path,
        histogram=tuple(histogram),
    )
