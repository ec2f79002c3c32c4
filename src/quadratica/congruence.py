"""Quadratic congruences mod an odd prime.

a*x^2 + b*x + c = 0 (mod p) completes the square through u = 2a*x + b to
u^2 = b^2 - 4ac (mod p). One power chain of Tonelli-Shanks both decides
solvability, by Euler's criterion read off r^s for p - 1 = s * 2^e, and gives
the root; for p = 4t + 3 (e = 1) it is the shortcut u = r^((p+1)/4).
Primes p = 4t + 1 are exactly the ones where -1 is a quadratic residue, which
is also exactly when p splits as a^2 + b^2; :func:`two_squares` computes that
split with Cornacchia's descent seeded by sqrt(-1) mod p.

Composite, even, or prime-power moduli are rejected outright rather than
partially supported. Each public function validates its modulus once, at
entry, and refuses one of more than intmath.PRIME_ARGUMENT_MAX_BITS (4096)
bits before any primality test; the internals (`_sqrt_mod`,
`_tonelli_shanks`) assume an odd prime and never test primality again.
Where a composite that passed `is_prime` would break what they rely on
(Euler's criterion, a Jacobi symbol -1 below p, the order bound in
Tonelli-Shanks), they raise CompositeModulus instead of returning a wrong
answer or never returning.
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
from .intmath import PRIME_ARGUMENT_MAX_BITS, _jacobi, is_prime, is_square

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
    u = _tonelli_shanks(r, p)
    if u is None:
        return CongruenceSolution(SolutionKind.NO_SOLUTION, ())
    return CongruenceSolution(SolutionKind.TWO_ROOTS, tuple(sorted((u, p - u))))


def _tonelli_shanks(r: int, p: int) -> int | None:
    """A root of u^2 = r (mod p) for 0 < r < p, or None when r is a non-residue.

    With p - 1 = s * 2^e (s odd), one power t = r^((s-1)/2) gives x = t r and
    b = t x = r^s, so x^2 = r b, and b^(2^(e-1)) = r^((p-1)/2) is Euler's
    criterion: 1 for a residue, p - 1 for a non-residue; anything else (0 when
    r shares a factor with p) proves p composite. For p = 4t + 3 (e = 1), x =
    r^((p+1)/4) is the root. Otherwise the loop multiplies x by powers of
    g = n^s, for a non-residue n found by Jacobi symbols, and b by their
    squares, keeping x^2 = r b, until b = 1.
    """
    s = p - 1
    e = (s & -s).bit_length() - 1
    s >>= e
    if e > 2 and is_square(p):  # odd squares are 1 (mod 8); no Jacobi symbol mod one is -1
        raise CompositeModulus(f"{p} is not prime: it is a square")
    t = pow(r, s >> 1, p)
    x = t * r % p
    b = t * x % p
    c = pow(b, 1 << (e - 1), p)
    if c == p - 1:
        return None
    if c != 1:
        raise CompositeModulus(f"{p} is not prime: {r}^(({p} - 1)/2) is {c} (mod {p})")
    if b == 1:
        return x
    n = 2
    while (j := _jacobi(n, p)) != -1:
        if j == 0:  # 1 < n < p shares a factor with p
            raise CompositeModulus(f"{p} is not prime: it shares a factor with {n}")
        n += 1
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
