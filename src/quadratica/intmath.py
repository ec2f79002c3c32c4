"""Integer helpers: perfect squares, squarefree decomposition, primality.

Everything here is exact; no floats. These routines back the radicand
canonicalization in :mod:`quadratica.qfield` and the prime tests used by the
congruence and Goldbach machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "is_square",
    "squarefree_decompose",
    "rational_sqrt_decompose",
    "is_prime",
    "sieve_flags",
]


def is_square(n: int) -> bool:
    """True iff n is a perfect square (n >= 0)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with s > 0 and m squarefree (sign of n kept on m).

    Trial division runs only up to the cube root of the unfactored part;
    what remains then has at most two prime factors, so its square part is
    either trivial or the whole remainder.
    """
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    sign = -1 if n < 0 else 1
    n = abs(n)
    root = isqrt(n)
    if root * root == n:
        return root, sign
    s = 1
    m = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    # remainder is 1, prime, prime^2, or a product of two distinct primes
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        else:
            m *= n
    return s, sign * m


def rational_sqrt_decompose(f: Fraction) -> tuple[Fraction, int]:
    """Write a nonzero rational f as s^2 * m with s a positive rational, m a squarefree integer."""
    if f == 0:
        raise ValueError("0 has no squarefree decomposition")
    s0, m = squarefree_decompose(f.numerator * f.denominator)
    return Fraction(s0, f.denominator), m


# psi_12 = 318665857834031151167461 fools the first 12 bases; no composite
# below psi_13 fools all 13 (Sorenson-Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with the 13 prime bases 2..41.

    Deterministic (proven correct) for n < psi_13 = 3317044064679887385961981,
    about 3.3 * 10^24. At or above that bound the answer is a 13-base strong
    probable-prime test: a True may be wrong (psi_13 itself passes), a False
    is always right.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes as a flag array: flags[n] == 1 iff n is prime, n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start : limit + 1 : p] = bytearray(len(range(start, limit + 1, p)))
    return flags
