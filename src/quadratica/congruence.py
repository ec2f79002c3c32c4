"""Quadratic congruences mod an odd prime.

a*x^2 + b*x + c = 0 (mod p) completes the square through u = 2a*x + b to
u^2 = b^2 - 4ac (mod p); solvability is decided by the Legendre symbol and
roots come from Tonelli-Shanks (with the p = 4t + 3 shortcut u = r^((p+1)/4)).
Primes p = 4t + 1 are exactly the ones where -1 is a quadratic residue, which
is also exactly when p splits as a^2 + b^2; :func:`two_squares` computes that
split with Cornacchia's descent seeded by sqrt(-1) mod p.

Composite, even, or prime-power moduli are rejected outright rather than
partially supported. Each public function validates its modulus once, at
entry, and refuses one of more than intmath.PRIME_ARGUMENT_MAX_BITS (4096)
bits before any primality test; the internals (`_legendre`, `_sqrt_mod`,
`_tonelli_shanks`) assume an odd prime and never test primality again.
Where a composite that passed `is_prime` would break an identity they rely
on (Euler's criterion, the order bound in Tonelli-Shanks), they raise
CompositeModulus instead of returning a wrong answer or never returning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

from .errors import (
    CompositeModulus,
    DegenerateLeading,
    EvenModulusUnsupported,
    InputTooLarge,
    NotRepresentable,
)
from .intmath import PRIME_ARGUMENT_MAX_BITS, is_prime

__all__ = [
    "SolutionKind",
    "CongruenceSolution",
    "legendre",
    "sqrt_mod",
    "solve_quad_mod",
    "two_squares",
    "is_prime",
]


def _check_odd_prime(p: int) -> None:
    if p.bit_length() > PRIME_ARGUMENT_MAX_BITS:
        raise InputTooLarge(f"moduli have at most {PRIME_ARGUMENT_MAX_BITS} bits, got {p.bit_length()}")
    if p == 2:
        raise EvenModulusUnsupported("modulus 2 is not supported")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise CompositeModulus(f"{p} is not an odd prime")


class SolutionKind(str, enum.Enum):
    TWO_ROOTS = "TwoRoots"
    ONE_ROOT = "OneRoot"
    NO_SOLUTION = "NoSolution"


@dataclass(frozen=True)
class CongruenceSolution:
    kind: SolutionKind
    roots: tuple[int, ...]


def legendre(r: int, p: int) -> int:
    """Legendre symbol (r|p) by Euler's criterion: r^((p-1)/2) mod p -> {+1, -1, 0}."""
    _check_odd_prime(p)
    return _legendre(r, p)


def _legendre(r: int, p: int) -> int:
    ls = pow(r % p, (p - 1) // 2, p)
    if ls == p - 1:
        return -1
    if ls > 1:  # Euler's criterion gives 0, 1 or p - 1 for every r mod a prime
        raise CompositeModulus(f"{p} is not prime: {r}^(({p} - 1)/2) is {ls} (mod {p})")
    return ls


def sqrt_mod(r: int, p: int) -> CongruenceSolution:
    """Both solutions of u^2 = r (mod p), or NoSolution when r is a non-residue.

    r = 0 has the single root 0. For p = 4t + 3 the root is r^((p+1)/4);
    otherwise Tonelli-Shanks.
    """
    _check_odd_prime(p)
    return _sqrt_mod(r, p)


def _sqrt_mod(r: int, p: int) -> CongruenceSolution:
    r %= p
    if r == 0:
        return CongruenceSolution(SolutionKind.ONE_ROOT, (0,))
    if _legendre(r, p) != 1:
        return CongruenceSolution(SolutionKind.NO_SOLUTION, ())
    if p % 4 == 3:
        u = pow(r, (p + 1) // 4, p)
    else:
        u = _tonelli_shanks(r, p)
    return CongruenceSolution(SolutionKind.TWO_ROOTS, tuple(sorted((u, p - u))))


def _tonelli_shanks(r: int, p: int) -> int:
    # write p - 1 = s * 2^e with s odd
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    # any quadratic non-residue will do as the twiddle base
    n = 2
    while _legendre(n, p) != -1:
        n += 1
    x = pow(r, (s + 1) // 2, p)
    b = pow(r, s, p)
    g = pow(n, s, p)
    k = e
    while b != 1:
        t, m = b, 0
        while t != 1:
            t = t * t % p
            m += 1
            if m == k:  # mod a prime, b's order divides 2^(k-1)
                raise CompositeModulus(f"{p} is not prime: Tonelli-Shanks found an order above 2^{k - 1}")
        gs = pow(g, 1 << (k - m - 1), p)
        x = x * gs % p
        g = gs * gs % p
        b = b * g % p
        k = m
    return x


def solve_quad_mod(a: int, b: int, c: int, p: int) -> CongruenceSolution:
    """Solve a*x^2 + b*x + c = 0 (mod p) by completing the square.

    Substituting u = 2a*x + b turns the congruence into u^2 = b^2 - 4ac
    (mod p); each root maps back through x = (u - b) * (2a)^-1.
    """
    _check_odd_prime(p)
    if a % p == 0:
        raise DegenerateLeading(f"{p} divides the leading coefficient")
    target = (b * b - 4 * a * c) % p
    inner = _sqrt_mod(target, p)
    if inner.kind is SolutionKind.NO_SOLUTION:
        return inner
    inv2a = pow(2 * a % p, -1, p)
    roots = tuple(sorted({(u - b) * inv2a % p for u in inner.roots}))
    kind = SolutionKind.TWO_ROOTS if len(roots) == 2 else SolutionKind.ONE_ROOT
    return CongruenceSolution(kind, roots)


def two_squares(p: int) -> tuple[int, int]:
    """The decomposition p = a^2 + b^2 (a <= b) for p = 2 or p = 4t + 1.

    Cornacchia's descent: starting from x with x^2 = -1 (mod p), run the
    Euclidean algorithm on (p, x) until the remainder drops to sqrt(p); that
    remainder is one leg and the other is forced. p = 4t + 3 raises
    NotRepresentable. For a prime p, p minus that leg squared is always a
    square; when it is not, p is composite and CompositeModulus is raised.
    Above psi_13, where is_prime's True is only probable, that is the one
    check of it here.
    """
    if p == 2:
        return (1, 1)
    _check_odd_prime(p)
    if p % 4 == 3:
        raise NotRepresentable(f"{p} = 4t + 3 is not a sum of two squares")
    x = max(_sqrt_mod(p - 1, p).roots)
    a, b = p, x
    limit = isqrt(p)
    while b > limit:
        a, b = b, a % b
    other = p - b * b
    root = isqrt(other)
    if root * root != other:
        raise CompositeModulus(f"{p} is not prime: Cornacchia's descent leaves {other}, not a square")
    return tuple(sorted((b, root)))
