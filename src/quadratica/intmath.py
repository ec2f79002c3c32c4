"""Integer helpers: perfect squares, squarefree decomposition, primality.

Everything here is exact; no floats. These routines back the radicand
canonicalization in :mod:`quadratica.qfield` and the prime tests used by the
congruence and Goldbach machinery.

:func:`is_prime` works in four bands: trial division by the primes up to 47
(n < 2809), Baillie-PSW below 2^64, the Miller-Rabin bases 2..37 (2..41 from
psi_12 ~ 3.2 * 10^23) below psi_13 ~ 3.3 * 10^24, and Baillie-PSW again above.
The first three bands are proven; in the last a True is a probable prime and a
False is proven.

One sieve loop, :func:`_odd_flags` over the odd numbers of an interval, backs
both :func:`sieve_flags` (its expansion to one flag per integer) and the chunks.
"""

from __future__ import annotations

import threading
from itertools import compress
from math import gcd, isqrt, prod

from .errors import InputTooLarge

__all__ = [
    "is_square",
    "squarefree_decompose",
    "is_prime",
    "sieve_flags",
]


def is_square(n: int) -> bool:
    """True iff n is a perfect square (n >= 0)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# trial division tries primes up to this bound (~0.4 s cold when it runs to the end, ~0.02 s warm)
_TRIAL_DIVISION_LIMIT = 10**7


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with s > 0 and m squarefree (sign of n kept on m).

    Batched trial division (Bernstein, "How to find smooth parts of
    integers", 2004, in its simplest form): the gcd g of n with the product of
    a chunk of consecutive primes is the product of the chunk's primes that
    divide n, and dividing n by g, then by gcd(n, g), and so on, peels their
    powers without dividing by any prime alone. The chunks run up to the cube
    root of the unfactored part, and no prime past _TRIAL_DIVISION_LIMIT
    (10^7) is divided out. A remainder below the cube of the next untried
    prime has at most two prime factors, so its square part is either trivial
    or the whole remainder. A larger remainder is decided only if it is a
    perfect square or a proven prime (below psi_13); any other raises
    InputTooLarge rather than guess its square part.
    """
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    sign = -1 if n < 0 else 1
    n = abs(n)
    root = isqrt(n)
    if root * root == n:
        return root, sign
    whole = n
    s = 1
    m = 1
    limit = _TRIAL_DIVISION_LIMIT
    p = 2  # every prime below p has been tried
    k = 0
    while p <= limit and p * p * p <= n:
        if k == len(_chunks):
            _extend_chunks(n, limit)
        product, candidates = _chunks[k]
        last = candidates[-1]
        g = gcd(n, product)
        if g != 1:
            if last > limit:
                # the chunk that holds the limit: keep only its primes up to the limit
                g = prod(q for q in candidates if q <= limit and g % q == 0)
            # g is the product of the primes of n that are left to peel; round j takes one more power
            # of each, so a prime of exponent e meets e // 2 even rounds and leaves in round e
            j = 0
            while g != 1:
                n //= g
                j += 1
                h = gcd(n, g)
                if j % 2:
                    m *= g // h
                else:
                    s *= g
                g = h
        p = last + 1
        k += 1
    # no prime below p, nor up to the limit if p passed it, divides the remainder n
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        elif p > limit and (limit + 1) ** 3 <= n and not (n < _PSI_13 and is_prime(n)):
            raise InputTooLarge(
                f"cannot find the square part of {sign * whole}: trial division to {_TRIAL_DIVISION_LIMIT} "
                f"leaves {n}, neither a square nor a proven prime"
            )
        else:
            m *= n
    return s, sign * m


# psi_12 = 318665857834031151167461 is the least composite that fools the first
# 12 bases; no composite below psi_13 fools all 13 (Sorenson-Webster, Math. Comp. 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# an n with no prime factor <= 47 and n < 53^2 is prime
_TRIAL_LIMIT = 53 * 53


# The most bits a prime argument may have: congruence moduli, Goldbach pairs and hypotenuse numbers are
# refused past it before any test. A prime costs is_prime a base-2 Miller-Rabin and a strong Lucas
# test: ~0.2 s + ~0.6 s at 4096 bits, ~0.7 s + ~2.2 s at 6144; 2^9689 - 1 takes ~3.8 s.
PRIME_ARGUMENT_MAX_BITS = 4096


def is_prime(n: int) -> bool:
    """Primality in four bands; only the last answer is probable.

    1. Trial division by the primes up to 47 decides every n < 53^2 = 2809.
    2. n < 2^64: Baillie-PSW, a strong base-2 test and a strong Lucas test
       with Selfridge's parameters. Proven: no base-2 strong pseudoprime
       below 2^64 is a strong Lucas pseudoprime (Feitsma-Galway enumeration).
    3. 2^64 <= n < psi_13 = 3317044064679887385961981: Miller-Rabin, proven
       by Sorenson-Webster, with the 12 prime bases 2..37 below
       psi_12 = 318665857834031151167461 and the 13 bases 2..41 from there on.
    4. n >= psi_13: Baillie-PSW again. No counterexample is known, but none
       is ruled out either: a True may be wrong, a False is always right.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    if n < 1 << 64 or n >= _PSI_13:
        return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)
    bases = _MR_WITNESSES if n >= _PSI_12 else _MR_WITNESSES[:12]
    return all(_strong_probable_prime(n, a, d, s) for a in bases)


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """Miller-Rabin round for n - 1 = d * 2^s with d odd: a^d = 1 or a^(d 2^r) = -1 mod n."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 2809 with no factor <= 47.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4. With n + 1 = d * 2^s, n passes
    when U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s. A square n
    has no such D, so it is refused before the search.

    The ladder runs on W_j = V_j(P', 1) with P' = 1/Q - 2, which is
    V_(2j)(P, Q) / Q^j (Baillie-Wagstaff 1980): two products per bit of
    k = (d - 1)/2, no powers of Q and no halving. Since d = 2k + 1,
    D U_d = Q^(k+1) (W_(k+1) - W_k), V_d = Q^(k+1) (W_k + W_(k+1)) and
    V_(d 2^r) = Q^(d 2^(r-1)) W_(d 2^(r-1)) for r >= 1, so each test is
    one on W. Q is a unit mod n: an odd prime q | Q has q < |D|, so q (or 9,
    for q = 3) is an earlier D, whose Jacobi symbol 0 refuses any n it divides.
    """
    if is_square(n):
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # gcd(D, n) > 1 with |D| < n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    R = (pow(Q, -1, n) - 2) % n  # P'
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # left to right over the bits of k = d >> 1 from (W_0, W_1) = (2, P'):
    # W_(2j) = W_j^2 - 2 and W_(2j+1) = W_j W_(j+1) - P'
    W, W1 = 2, R
    for bit in bin(d >> 1)[2:]:
        if bit == "1":
            W, W1 = (W * W1 - R) % n, (W1 * W1 - 2) % n
        else:
            W, W1 = (W * W - 2) % n, (W * W1 - R) % n
    if W == W1 or (W + W1) % n == 0:  # U_d = 0 or V_d = 0
        return True
    W = (W * W1 - R) % n  # W_d
    for _ in range(s - 1):
        if W == 0:
            return True
        W = (W * W - 2) % n
    return False


def _odd_flags(lo: int, hi: int) -> bytearray:
    """Sieve the odd numbers in [lo, hi) for an even lo >= 2: flags[i] == 1 iff lo + 1 + 2i is prime."""
    flags = bytearray([1]) * ((hi - lo) // 2)
    r = isqrt(hi - 1) + 1  # the odd primes below r have their squares below hi
    for p in compress(range(3, r, 2), _odd_flags(2, r) if r > 3 else ()):
        i = (max(p * p, ((lo // p + 1) | 1) * p) - lo - 1) // 2  # p^2 or the first odd multiple past lo
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    return flags


def sieve_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes as a flag array: flags[n] == 1 iff n is prime, n <= limit."""
    flags = bytearray(limit + 1)
    flags[3::2] = _odd_flags(2, limit + 1)
    if limit >= 2:
        flags[2] = 1
    return flags


# The trial-division chunks, as (product of the chunk's primes, candidates in increasing order).
# The first holds every prime below 256 and is built at import, so a small radicand costs one gcd.
# Each later chunk holds the odd numbers of one _CHUNK_WIDTH-long interval past 256 and is built
# when first needed; a composite candidate has a prime factor below the chunk, so it never
# divides the gcd. A product has about 1.44 * _CHUNK_WIDTH bits: ~2 MB up to 10^7.
_FIRST_CHUNK_END = 256
_CHUNK_WIDTH = 4096
_FIRST_PRIMES = tuple(compress(range(_FIRST_CHUNK_END), sieve_flags(_FIRST_CHUNK_END - 1)))
_chunks: list[tuple[int, tuple[int, ...] | range]] = [(prod(_FIRST_PRIMES), _FIRST_PRIMES)]
_chunks_lock = threading.Lock()


def _extend_chunks(n: int, limit: int) -> None:
    """Append the next chunk, and those after it that start below both the cube root of n and the limit."""
    with _chunks_lock:
        lo = _FIRST_CHUNK_END + (len(_chunks) - 1) * _CHUNK_WIDTH
        hi = lo + _CHUNK_WIDTH
        while hi <= limit and hi * hi * hi <= n:
            hi += _CHUNK_WIDTH
        flags = _odd_flags(lo, hi)
        # compress picks from one tuple of offsets, so only the primes become new ints
        offsets = tuple(range(1, _CHUNK_WIDTH, 2))
        view = memoryview(flags)
        for c in range(lo, hi, _CHUNK_WIDTH):
            i = (c - lo) // 2
            primes = map(c.__add__, compress(offsets, view[i : i + _CHUNK_WIDTH // 2]))
            _chunks.append((prod(primes), range(c + 1, c + _CHUNK_WIDTH, 2)))
