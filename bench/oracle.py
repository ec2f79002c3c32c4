"""Reference answers for the benchmark, computed without quadratica.

Nothing in this module imports the library under test. Every expected
value comes from first principles: Fraction arithmetic on coordinate
pairs, fast-doubling Fibonacci, the metallic recurrence in matrix form,
brute force modulo small primes, Euler's criterion modulo large ones,
primes certified by Proth's and Pocklington's theorems, and a plain sieve
for Goldbach witnesses. A defect in the library therefore cannot hide in
its own oracle.

Outputs reach the checks as plain data (tuples, ints, Fractions and
strings) so that a test can feed a wrong answer in and watch it fail.
A field element is the triple (a, b, m) for a + b*sqrt(m), with m = 0
exactly when b = 0.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

REFUSED = "refused"  # a call that raised CompositeModulus

GOLDBACH_STOP = 10**6
# [4, 10^6] holds 499999 even N; the largest minimal I is 1281, at N = 742856.
GOLDBACH_SUMMARY = (4, GOLDBACH_STOP, 499_999, 1281, 742_856)


# -- integers ------------------------------------------------------------


def sieve(limit: int) -> bytearray:
    """flags[n] == 1 iff n is prime, for 0 <= n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def squarefree(n: int) -> tuple[int, int]:
    """n = s^2 * d with s > 0 and d squarefree, sign kept on d (n != 0)."""
    sign, n = (-1 if n < 0 else 1), abs(n)
    s = d = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1
    return s, sign * d * n


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) with F(0) = 0, F(1) = 1, by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def metallic_pair(k: int, n: int) -> tuple[int, int]:
    """(P(n), P(n-1)) for P(0) = 0, P(1) = 1, P(j+1) = k*P(j) + P(j-1), n >= 1.

    Powers of the recurrence matrix [[k, 1], [1, 0]] give
    [[P(n+1), P(n)], [P(n), P(n-1)]].
    """
    # a symmetric 2x2 matrix [[x, y], [y, z]] is kept as (x, y, z)
    result, base = (1, 0, 1), (k, 1, 0)
    while n:
        if n & 1:
            result = _sym_mul(result, base)
        base = _sym_mul(base, base)
        n >>= 1
    return result[1], result[2]


def _sym_mul(u, v):
    # products of powers of one symmetric matrix commute, so stay symmetric
    return (u[0] * v[0] + u[1] * v[1], u[0] * v[1] + u[1] * v[2], u[1] * v[1] + u[2] * v[2])


def is_proth_prime(q: int) -> bool:
    """True only if q = k*2^n + 1 (k odd, k < 2^n) is proven prime by Proth's theorem.

    Proth: such a q is prime iff some a has a^((q-1)/2) = -1 (mod q). Half of
    all a qualify when q is prime, so a False after 24 bases means "not
    certified", never "certified composite".
    """
    for a in range(3, 27):
        x = pow(a, (q - 1) // 2, q)
        if x == q - 1:
            return True
        if x != 1:
            return False  # a Fermat witness: q is composite
    return False


def pocklington_prime(q: int, p: int) -> bool:
    """True only if p is proven prime from the prime factor q of p - 1, q > sqrt(p).

    Pocklington: if a^(p-1) = 1 (mod p) and gcd(a^((p-1)/q) - 1, p) = 1,
    every prime factor of p is 1 (mod q), hence larger than sqrt(p).
    """
    if (p - 1) % q or q * q <= p:
        raise ValueError("need q | p - 1 and q > sqrt(p)")
    for a in range(2, 20):
        if pow(a, p - 1, p) != 1:
            return False
        if gcd(pow(a, (p - 1) // q, p) - 1, p) == 1:
            return True
    return False


def certified_prime(rng: random.Random, bits: int, two_adic: int) -> int:
    """A proven prime p of exactly `bits` bits with 2^two_adic exactly dividing p - 1.

    p = 2*j*q + 1 where q is a Proth prime just above sqrt(p) and j has
    exactly two_adic - 1 factors of 2: two_adic = 1 gives p = 3 (mod 4),
    larger values give p = 1 (mod 4) with Tonelli-Shanks depth two_adic.
    Needs bits >= 32 so that each q leaves room for many j.
    """
    if bits < 32:
        raise ValueError("certified primes need at least 32 bits")
    qbits = bits // 2 + 2
    n = qbits // 2 + 1
    step = 1 << (two_adic - 1)
    while True:
        k = rng.randrange(1 << (qbits - 1 - n), 1 << (qbits - n)) | 1
        q = (k << n) + 1
        if not is_proth_prime(q):
            continue
        lo = -(-(1 << (bits - 1)) // (2 * q * step))
        hi = (1 << bits) // (2 * q * step)
        for _ in range(200):  # then try another q: small ranges may hold no prime
            p = 2 * (rng.randrange(lo, hi) | 1) * step * q + 1
            if p.bit_length() == bits and pocklington_prime(q, p):
                return p


# -- Q(sqrt(m)) on coordinates ---------------------------------------------


def elem(a: Fraction, b: Fraction, m: int) -> tuple[Fraction, Fraction, int]:
    """Canonical triple for a + b*sqrt(m) with m squarefree."""
    return (Fraction(a), Fraction(0), 0) if b == 0 else (Fraction(a), Fraction(b), m)


def q_mul(z, w, m):
    return elem(z[0] * w[0] + z[1] * w[1] * m, z[0] * w[1] + z[1] * w[0], m)


def q_inv(z, m):
    n = z[0] * z[0] - m * z[1] * z[1]
    return elem(z[0] / n, -z[1] / n, m)


def q_pow(z, k, m):
    out = elem(Fraction(1), Fraction(0), m)
    for _ in range(k):
        out = q_mul(out, z, m)
    return out


# -- checks, one per workload --------------------------------------------


def check_algebra(task, out) -> bool:
    """Field operations against coordinate formulas; solve against Vieta."""
    _, m, a1, b1, a2, b2, k, quad, d = task
    z, w = elem(a1, b1, m), elem(a2, b2, m)
    zw = q_mul(z, w, m)
    expected = {
        "z": z,
        "w": w,
        "add": elem(a1 + a2, b1 + b2, m),
        "sub": elem(a1 - a2, b1 - b2, m),
        "mul": zw,
        "div": q_mul(z, q_inv(w, m), m),
        "inverse": q_inv(w, m),
        "norm": a1 * a1 - m * b1 * b1,
        "conj": elem(a1, -b1, m),
        "pow": q_pow(z, k, m),
        "parse": z,
    }
    if any(out[key] != value for key, value in expected.items()):
        return False
    return check_roots(quad, d, *out["solve"])


def check_roots(quad, d: int, kind: str, r1, r2) -> bool:
    """Roots of a*x^2 + b*x + c by Vieta's formulas.

    d is the squarefree radicand the quadratic was built with: its
    discriminant is a rational square times d, and d = 0 means rational roots.
    """
    a, b, c = quad
    disc = b * b - 4 * a * c
    want_kind = "RealDouble" if disc == 0 else "RealDistinct" if disc > 0 else "ComplexPair"
    if kind != want_kind or r1[2] != d or r2[2] != d:
        return False
    (x1, y1, m), (x2, y2, _) = r1, r2
    sum_ok = x1 + x2 == -b / a and y1 + y2 == 0
    prod_ok = x1 * x2 + y1 * y2 * m == c / a and x1 * y2 + x2 * y1 == 0
    return sum_ok and prod_ok


def check_powers(task, out) -> bool:
    """phi^n, sigma_k^n, power reduction and fib against fast doubling and the recurrence."""
    if task[0] == "ledger":
        return check_ledger(task[1], out)
    _, n, k = task
    f_prev, f_n = fib_pair(n - 1)
    f_next = f_n + f_prev
    half = Fraction(1, 2)
    phi_n = elem(f_n * half + f_prev, f_n * half, 5)
    s, d = squarefree(k * k + 4)
    p_n, p_prev = metallic_pair(k, n)
    # sigma_k = k/2 + (s/2)*sqrt(d) and sigma_k^n = P(n)*sigma_k + P(n-1)
    sigma_n = elem(p_n * Fraction(k, 2) + p_prev, p_n * Fraction(s, 2), d)
    sign = 1 if n % 2 else -1
    expected = {
        "phi_n": phi_n,
        "sigma_n": sigma_n,
        "reduce_I": (f_n, f_prev),
        "reduce_II": (sign * f_n, -sign * f_prev),
        "fib": f_next,  # the library's fib has seeds f0 = f1 = 1
    }
    return all(out[key] == value for key, value in expected.items())


def check_ledger(n_max: int, rows) -> bool:
    """Rows n = 2..n_max: (n, F(n), F(n-1), L(n), F(n)) with L(n) = F(n) + 2*F(n-1)."""
    if len(rows) != n_max - 1:
        return False
    for n, row in enumerate(rows, start=2):
        f_prev, f_n = fib_pair(n - 1)
        if row != (n, f_n, f_prev, f_n + 2 * f_prev, f_n):
            return False
    return True


SMALL_MODULUS = 2000  # brute force below, Euler's criterion above


def check_modular(task, out) -> bool:
    """Congruence answers by brute force for small p, Euler's criterion for large p."""
    kind = task[0]
    if kind == "composite":
        return out == REFUSED
    if out == REFUSED:
        return False
    if kind == "sqrt":
        _, r, p = task
        return _check_solution(p, out, lambda x: x * x - r)
    if kind == "quad":
        _, a, b, c, p = task
        return _check_solution(p, out, lambda x: (a * x + b) * x + c, b * b - 4 * a * c)
    if kind == "two_squares":
        p = task[1]
        x, y = out
        return 0 < x <= y and x * x + y * y == p
    if kind == "is_prime":
        return out is task[2]
    raise ValueError(f"unknown modular task {kind!r}")


def _check_solution(p: int, out, poly, disc=None) -> bool:
    """`out` is (kind, roots); disc is the discriminant when poly is not u^2 - r."""
    kind, roots = out
    if p < SMALL_MODULUS:
        want = [x for x in range(p) if poly(x) % p == 0]
    else:
        # poly has as many roots as its discriminant has square roots
        d = (disc if disc is not None else -4 * poly(0)) % p
        euler = pow(d, (p - 1) // 2, p)
        count = 1 if d == 0 else 2 if euler == 1 else 0
        if len(roots) != count or len(set(roots)) != count:
            return False
        if any(not 0 <= x < p or poly(x) % p for x in roots):
            return False
        want = sorted(roots)
    names = {0: "NoSolution", 1: "OneRoot", 2: "TwoRoots"}
    return kind == names[len(want)] and list(roots) == want


class GoldbachOracle:
    """Minimal witnesses re-derived from the benchmark's own sieve."""

    def __init__(self):
        self.flags = sieve(GOLDBACH_STOP + 10)

    def check(self, task, out) -> bool:
        if task[0] == "verify":
            return out == GOLDBACH_SUMMARY
        n = task[1]
        (wn, mid, i, p, q), areas = out
        flags = self.flags
        if (wn, mid) != (n, n // 2) or (p, q) != (mid + i, mid - i) or i < 0:
            return False
        if not (flags[p] and flags[q]):
            return False
        # no smaller I works: I = 0 needs M prime, otherwise I has M's opposite parity
        smaller = ([0] if i > 0 else []) + list(range(1 if mid % 2 == 0 else 2, i, 2))
        if any(flags[mid + j] and flags[mid - j] for j in smaller):
            return False
        if i == 0:
            return areas is None
        width = Fraction(p - q)
        return areas == (width**3 / 6, width * i * i, width * i * i / 2, Fraction(q * q * (3 * p - q), 6))
