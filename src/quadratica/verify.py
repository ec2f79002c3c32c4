"""Cross-module invariant harness behind the `verify` CLI subcommand.

:data:`CHECKS` has one row per check: its arguments at the `quick` scale
(the whole run in about a second) and at `full` (the acceptance scale), the
acceptance criterion it serves and the errata ids it decides; the bounds and
seeds live there and in the checks' defaults, nowhere else. All randomness
is seeded, so both scales are deterministic. Each check calls :func:`_expect`
at every identity it tests, which raises :class:`CheckFailed` naming the
failing case's operands, and returns its detail string when all hold.
:func:`run_all` turns whatever a check raises into a failing result that
gives the exception and the line of this file where the check stopped, so
one failure doesn't hide the rest.

This module is the only home of the expected values (reference tables,
constants, identities, brute-force oracles such as the proper-divisor sum).
The library functions compute: none returns a verdict on its own module's
identities, a constant for a check to compare against, or an oracle. Each
identity they rest on is checked here, by an `_expect` that names its
operands (or, for a few, by an independent unit test). The acceptance
criteria in ``tests/test_acceptance.py`` read their checks off the rows
tagged with them, from one ``run_all("full")``.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import congruence, fibgroup, geometry, goldbach, metallic, perfect, pnum
from .intmath import is_prime, sieve_flags
from .qfield import QuadElem, parse_quad
from .solver import Quadratic, RootKind, four_family, shift_roots, solve, vertex

__all__ = ["CHECKS", "CheckFailed", "CheckResult", "Row", "run_all", "SCALES"]

SCALES = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0  # seconds


class CheckFailed(Exception):
    """An identity that a check tests does not hold."""


def _expect(holds: bool, *operands: object) -> None:
    """Raise CheckFailed, naming the operands, unless the identity holds.

    An explicit raise, not `assert`: `python -O` strips asserts.
    """
    if not holds:
        case = f" for {', '.join(map(str, operands))}" if operands else ""
        raise CheckFailed(f"does not hold{case}")


def _rand_frac(rng: random.Random, span: int = 99, den: int = 30) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_nonzero(rng: random.Random, span: int = 99, den: int = 30) -> Fraction:
    while True:
        f = _rand_frac(rng, span, den)
        if f:
            return f


# ---------------------------------------------------------------- qfield


def check_field_axioms(samples: int, seed: int = 101) -> str:
    """Associativity, commutativity, distributivity, inverses, norm and
    conjugation morphisms, float embedding, canonical idempotence."""
    rng = random.Random(seed)
    radicands = (2, 3, 5, -1, -3, 13)
    zero, one = QuadElem.from_rational(0), QuadElem.from_rational(1)
    for m in radicands:
        for _ in range(samples):
            z = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            w = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            v = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            _expect((z + w) + v == z + (w + v) and (z * w) * v == z * (w * v), z, w, v)
            _expect(z + w == w + z and z * w == w * z, z, w)
            _expect(z * (w + v) == z * w + z * v, z, w, v)
            _expect(z + (-z) == zero and QuadElem(z.a, z.b, z.m) == z, z)
            _expect((z * w).norm() == z.norm() * w.norm(), z, w)
            _expect((z * w).conj() == z.conj() * w.conj(), z, w)
            _expect((z + w).conj() == z.conj() + w.conj(), z, w)
            if z:
                _expect(z * z.inverse() == one, z)
            if m > 0:
                prod = float(z * w)
                _expect(abs(prod - float(z) * float(w)) <= 1e-12 * max(abs(prod), 1.0), z, w)
    return f"{len(radicands) * samples} triples over radicands {radicands}"


def check_text_round_trip(samples: int = 500, seed: int = 102) -> str:
    rng = random.Random(seed)
    for _ in range(samples):
        m = rng.choice((0, 2, 3, 5, -1, -3, 13, 21))
        z = QuadElem(_rand_frac(rng), _rand_frac(rng) if m else Fraction(0), m)
        _expect(parse_quad(str(z)) == z and QuadElem.from_dict(z.to_dict()) == z, z)
    return f"{samples} samples"


# ---------------------------------------------------------------- solver


def check_vieta_substitution(samples: int, seed: int = 201) -> str:
    rng = random.Random(seed)
    zero = QuadElem.from_rational(0)
    for _ in range(samples):
        q = Quadratic(_rand_nonzero(rng, 20, 10), _rand_frac(rng, 20, 10), _rand_frac(rng, 20, 10))
        pair = solve(q)
        _expect(pair.r1 + pair.r2 == QuadElem.from_rational(-q.b / q.a), q)
        _expect(pair.r1 * pair.r2 == QuadElem.from_rational(q.c / q.a), q)
        _expect(q(pair.r1) == zero and q(pair.r2) == zero, q)
        _expect(vertex(q).expand() == q, q)
    for _ in range(samples):
        # x -> -x swaps (a) x^2 + px + q with (b) x^2 - px + q, and (c) with (d)
        p, q = (Fraction(rng.randint(1, 20), rng.randint(1, 10)) for _ in range(2))
        family = {member.label: member.roots for member in four_family(p, q)}
        for pos, neg in (("a", "b"), ("c", "d")):
            _expect({-family[pos].r1, -family[pos].r2} == {family[neg].r1, family[neg].r2}, p, q)
        _expect(family["d"].kind is RootKind.REAL_DISTINCT, p, q)  # p^2 + 4q > 0
    return f"{samples} random quadratics"


def check_shift_companion(samples: int, seed: int = 808) -> str:
    """Displayed family form, radical-arithmetic oracle, and k/-k composition."""
    rng = random.Random(seed)
    for _ in range(samples):
        p = _rand_frac(rng, 50, 20)
        q = _rand_frac(rng, 50, 20)
        k = _rand_frac(rng, 50, 20)
        base = Quadratic(1, -p, q)
        shifted = shift_roots(base, k)
        _expect(shifted == Quadratic(1, -(p + 2 * k), k * k + p * k + q), p, q, k)
        # oracle: shift the exact roots and re-form the polynomial
        pair = solve(base)
        s = (pair.r1 + k) + (pair.r2 + k)
        prod = (pair.r1 + k) * (pair.r2 + k)
        _expect(s.is_rational and prod.is_rational, p, q, k)
        _expect(shifted == Quadratic(1, -s.as_fraction(), prod.as_fraction()), p, q, k)
        _expect(shift_roots(shifted, -k) == base, p, q, k)
    return f"{samples} (p,q,k) trials"


def check_pq_specializations(limit: int = 60) -> str:
    for p in range(1, limit + 1):
        _expect(shift_roots(Quadratic(1, -p, -p), 1) == Quadratic(1, -(p + 2), 1), p)
        _expect(shift_roots(Quadratic(1, p, p), 1) == Quadratic(1, -(2 - p), 1), p)
        _expect(shift_roots(Quadratic(1, p, -p), 1) == Quadratic(1, -(2 - p), 1 - 2 * p), p)
        _expect(shift_roots(Quadratic(1, -p, p), 1) == Quadratic(1, -(p + 2), 2 * p + 1), p)
        # subtracting p moves the roots of x^2 - px + p onto x^2 + px + p
        _expect(shift_roots(Quadratic(1, -p, p), -p) == Quadratic(1, p, p), p)
    return f"p up to {limit}"


# ---------------------------------------------------------------- fibgroup


def check_power_reduction(n_max: int = 90) -> str:
    for case in (fibgroup.Case.I, fibgroup.Case.II):
        x = fibgroup.case_root(case)
        for n in range(1, n_max + 1):
            pair = fibgroup.power_reduce(case, n)
            _expect(x**n == pair.coeff * x + pair.const, case, n)
            _expect(x.conj() ** n == pair.coeff * x.conj() + pair.const, case, n)
    return f"cases I/II, n <= {n_max}"


def check_telescoping(n_max: int = 90) -> str:
    for n in range(1, n_max + 1):
        # k = 1 contributes f_{-1} = 0 under the f0 = f1 = 1 seeds
        total = sum(fibgroup.fib(k - 2) for k in range(2, n + 1))
        _expect(total == fibgroup.fib(n) - 1, n)
    return f"n <= {n_max}"


def check_partial_sums(n_max: int) -> str:
    for case in fibgroup.Case:
        x = fibgroup.case_root(case)
        xbar = x.conj()
        total = QuadElem.from_rational(0)
        total_bar = QuadElem.from_rational(0)
        power, power_bar = QuadElem.from_rational(1), QuadElem.from_rational(1)
        for n in range(1, n_max + 1):
            power = power * x
            power_bar = power_bar * xbar
            total = total + power
            total_bar = total_bar + power_bar
            _expect(total == fibgroup.closed_power_sum(case, n), case, n)
            _expect(total_bar == fibgroup.closed_power_sum(case, n, x=xbar), case, n)
            if case in (fibgroup.Case.III, fibgroup.Case.IV):
                _expect(total == fibgroup.residue_power_sum(case, n), case, n)
        # periodicity of the complex cases
        if case is fibgroup.Case.III:
            _expect(fibgroup.partial_power_sum(case, 6) == fibgroup.partial_power_sum(case, 12))
        if case is fibgroup.Case.IV:
            _expect(fibgroup.partial_power_sum(case, 3) == fibgroup.partial_power_sum(case, 6))
            # the stated anchor values: -1, 0, x at n = 2, 3, 4
            _expect(fibgroup.partial_power_sum(case, 2) == QuadElem.from_rational(-1))
            _expect(fibgroup.partial_power_sum(case, 3) == QuadElem.from_rational(0))
            _expect(fibgroup.partial_power_sum(case, 4) == x)
    # the geometric sum x + ... + x^n = x(x^n - 1)/(x - 1), exactly
    for ratio in (Fraction(2), Fraction(3, 2), fibgroup.PHI, fibgroup.PHI_BAR):
        total, power = 0, 1
        for n in range(1, n_max + 1):
            power = power * ratio
            total = total + power
            _expect(total == ratio * (ratio**n - 1) / (ratio - 1), ratio, n)
    # the plastic number rho, the real root of x^3 = x + 1, by Cardano; x^3 - x = 1 factors as
    # (x - 1)x(x + 1) = 1 with x + 1 = x^3, so 1/(x - 1) = x^4 and the sum is x^5 (x^n - 1);
    # -rho, the real root of x^3 = x - 1, gives x^-2 (x^n - 1). Floats, at 1e-10 relative.
    rho = ((9 + 69**0.5) / 18) ** (1 / 3) + ((9 - 69**0.5) / 18) ** (1 / 3)
    _expect(abs(rho**3 - rho - 1) <= 1e-12, rho)
    for x, shift in ((rho, 5), (-rho, -2)):
        direct, power = 0.0, 1.0
        for n in range(1, n_max + 1):
            power *= x
            direct += power
            _expect(abs(direct - x**shift * (x**n - 1)) <= 1e-10 * max(1.0, abs(direct)), x, n)
    return f"all cases, n <= {n_max}"


def check_unit_groups() -> str:
    one = QuadElem.from_rational(1)
    for case, order in ((fibgroup.Case.III, 6), (fibgroup.Case.IV, 3)):
        group = fibgroup.unit_group(case)
        x = fibgroup.case_root(case)
        elements = set(group.elements)
        _expect(group.order == order == len(elements) and one in elements, case)
        _expect({x**k for k in range(1, order + 1)} == elements, case)  # cyclic
        for t in range(11):
            if case is fibgroup.Case.III:
                _expect(x ** (2 + 6 * t) == x - 1 and x ** (4 + 6 * t) == -x, case, t)
                _expect(x ** (6 + 6 * t) == one, case, t)
            else:
                _expect(x ** (3 + 3 * t) == one and x ** (4 + 3 * t) == x, case, t)
        # closure comes first: the Cayley table indexes every product
        _expect(all(z * w in elements for z in elements for w in elements), case)
        table = fibgroup.multiplication_table(group)
        n = group.order
        identity = group.index_of(one)
        _expect(all(sorted(row) == list(range(n)) for row in table), case)  # cancellation
        _expect(table[identity] == list(range(n)), case)  # identity row
        _expect(all(identity in row for row in table), case)  # inverses
        _expect(all(table[i][j] == table[j][i] for i in range(n) for j in range(n)), case)
    return "orders 6 and 3, Latin-square tables"


# ---------------------------------------------------------------- metallic


def check_metallic_table() -> str:
    expected = {
        (1, 1): QuadElem(Fraction(1, 2), Fraction(1, 2), 5),
        (2, 1): QuadElem(Fraction(1), Fraction(1), 2),
        (3, 1): QuadElem(Fraction(3, 2), Fraction(1, 2), 13),
        (4, 1): QuadElem(Fraction(2), Fraction(1), 5),
    }
    for (p, q), sigma in expected.items():
        entry = metallic.metallic(p, q)
        _expect(entry.sigma == sigma and entry.equation(entry.sigma) == 0, p, q)
    _expect(QuadElem(1, Fraction(1, 2), 8) == expected[(2, 1)])  # (2 + sqrt(8))/2: sqrt(8) is 2 sqrt(2)
    return "p = 1..4, q = 1"


def check_phi_ledger(n_max: int) -> str:
    phi, phi_bar = fibgroup.PHI, fibgroup.PHI_BAR
    one = QuadElem.from_rational(1)
    _expect(phi + phi_bar == one, "phi + conj = 1")
    _expect(phi * phi_bar == -one, "phi * conj = -1")
    _expect(phi**2 + phi_bar**2 == 3 * one, "phi^2 + conj^2 = 3")
    _expect(phi**2 == phi + 1, "phi^2 = phi + 1")
    _expect(phi**2 + phi * phi_bar == phi, "phi^2 + phi*conj = phi")
    _expect(phi**3 == 2 * phi + 1, "phi^3 = 2*phi + 1")
    _expect(phi**4 == 3 * phi + 2, "phi^4 = 3*phi + 2")
    _expect(phi**5 == 5 * phi + 3, "phi^5 = 5*phi + 3")
    rows = metallic.phi_ledger(n_max)
    _expect([row.n for row in rows] == list(range(2, n_max + 1)))
    for row in rows:
        power, power_bar = phi**row.n, phi_bar**row.n
        _expect(power == row.coeff * phi + row.const, row.n)
        _expect(power_bar == row.coeff * phi_bar + row.const, row.n)
        _expect(power + power_bar == QuadElem.from_rational(row.power_sum), row.n)
        _expect(power - power_bar == QuadElem(0, row.diff_coeff, 5), row.n)
    _expect(any(row.errata_id == "phi-sixth-power" for row in rows if row.n == 6))
    _expect(fibgroup.PHI**6 == 8 * fibgroup.PHI + 5)
    return f"rows 2..{n_max} plus properties 1-8"


def check_integer_root_family(k_max: int = 100) -> str:
    for k in range(0, k_max + 1):
        eq = Quadratic(1, -1, -2 * k * (2 * k + 1))
        _expect(eq(2 * k + 1) == 0 and eq(-2 * k) == 0, k)
        _expect(4 * (2 * k * (2 * k + 1)) + 1 == (4 * k + 1) ** 2, k)
    # the special case x^2 - (2k +/- 1)x + ... has roots (+/-1 + 2k +/- sqrt(m))/2
    for k in range(-10, 11):
        for m in (2, 3, 5, 13, -3, -7):
            for variant, offset in (("plus", 1), ("minus", -1)):
                root = QuadElem(Fraction(offset + 2 * k, 2), Fraction(1, 2), m)
                pair = solve(metallic.special_case(k, m, variant))
                _expect({pair.r1, pair.r2} == {root, root.conj()}, k, m, variant)
            forced = metallic.special_case(k, abs(m), complex_radicand=True)
            _expect(forced == metallic.special_case(k, -abs(m)), k, m)
    return f"k <= {k_max}"


def check_creation_and_trig() -> str:
    for m in (2, 3, 5, 6, 7, 13, -1, -3, 21):
        _expect(metallic.creation_equation(m) == Fraction(m + 1, 2), m)
    report = metallic.golden_trig()
    _expect(report.ok)
    # cos(t) = PHI/2 needs (1 + sqrt(m))/4 <= 1
    _expect(all((1 + math.sqrt(m)) / 4 <= 1 for m in report.feasible_radicands))
    _expect((1 + math.sqrt(report.infeasible_example)) / 4 > 1)
    _expect(1.6 < float(fibgroup.PHI) < 1.7, float(fibgroup.PHI))
    return "exact halves + 1e-12 numerics"


# ---------------------------------------------------------------- congruence


def check_sqrt_mod_exhaustive(p_limit: int) -> str:
    flags = sieve_flags(p_limit)
    count = 0
    for p in range(3, p_limit, 2):
        if not flags[p]:
            continue
        squares: dict[int, list[int]] = {}
        for x in range(p):
            squares.setdefault(x * x % p, []).append(x)
        for r in range(p):
            _expect(list(congruence.sqrt_mod(r, p).roots) == sorted(squares.get(r, [])), r, p)
        count += p
    return f"{count} residues, p < {p_limit}"


def check_quad_mod_random(samples: int, seed: int = 301) -> str:
    rng = random.Random(seed)
    flags = sieve_flags(500)
    primes = [p for p in range(3, 500, 2) if flags[p]]
    for _ in range(samples):
        p = rng.choice(primes)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        c = rng.randrange(p)
        brute = sorted(x for x in range(p) if (a * x * x + b * x + c) % p == 0)
        _expect(list(congruence.solve_quad_mod(a, b, c, p).roots) == brute, a, b, c, p)
    return f"{samples} random congruences"


def check_four_t_plus_one(p_limit: int) -> str:
    flags = sieve_flags(p_limit)
    count = 0
    for p in range(3, p_limit, 2):
        if not flags[p]:
            _expect(not is_prime(p), p)  # the sieve leaves out no prime
            continue
        count += 1
        _expect((congruence.legendre(-1, p) == 1) == (p % 4 == 1), p)
        if p % 4 == 1:
            a, b = congruence.two_squares(p)
            _expect(a * a + b * b == p and a <= b, p)
    _expect([congruence.two_squares(p) for p in (5, 13, 17)] == [(1, 2), (2, 3), (1, 4)])
    return f"{count} odd primes < {p_limit}"


def check_legendre_multiplicative(samples: int = 300, seed: int = 302) -> str:
    rng = random.Random(seed)
    flags = sieve_flags(2000)
    primes = [p for p in range(3, 2000, 2) if flags[p]]
    for _ in range(samples):
        p = rng.choice(primes)
        r, s = rng.randrange(1, p), rng.randrange(1, p)
        product = congruence.legendre(r, p) * congruence.legendre(s, p)
        _expect(congruence.legendre(r * s, p) == product, r, s, p)
    return f"{samples} random pairs"


# ---------------------------------------------------------------- perfect


def check_perfect_table() -> str:
    expected = {
        1: (6, Fraction(-5, 2)),
        3: (28, Fraction(-9, 2)),
        5: (66, Fraction(-13, 2)),
        7: (120, Fraction(-17, 2)),
        15: (496, Fraction(-33, 2)),
        63: (8128, Fraction(-129, 2)),
        4095: (33550336, Fraction(-8193, 2)),
        1023: (2096128, Fraction(-2049, 2)),
    }
    for x1, (value, x2) in expected.items():
        _expect(perfect.parabola(x1) == value, x1)
        _expect(perfect.preimage(value) == (x1, x2), value)
        _expect(x2 == Fraction(-(2 * x1 + 3), 2), x1)  # x2 = -(a x1 + b)/a, not /2a
    _expect(perfect.parabola(1) % 2**4 != 0 and perfect.parabola(3) % 2**4 != 0)  # f(x1) not all 0 mod 2^4
    return f"{len(expected)} rows, both directions"


def _divisor_sum_is_perfect(n: int) -> bool:
    """Whether n's proper divisors sum to n, by trial division to sqrt(n)."""
    total = 1
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return n > 1 and total == n


def check_perfect_records(p_max: int = 19) -> str:
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        rec = perfect.perfect_from_exponent(p)
        _expect(rec.is_perfect == perfect.lucas_lehmer(p) == _divisor_sum_is_perfect(rec.value), p)
        _expect(perfect.parabola(rec.x1) == rec.value, p)
        _expect(8 * rec.value + 1 == ((1 << (p + 1)) - 1) ** 2, p)
        # the two floors of x1: floor(sqrt(P/2)) and floor(floor(sqrt((2^(p+1) - 1)^2 - 1)) / 4)
        _expect(math.isqrt(rec.value // 2) == rec.x1 == math.isqrt(((1 << (p + 1)) - 1) ** 2 - 1) // 4, p)
    return f"prime exponents <= {p_max}"


def check_parity_contracts(span: int) -> str:
    for n in range(-span, span + 1):
        _expect(perfect.parabola(n) % 2 != n % 2 and perfect.even_preserving_map(n) % 2 == n % 2, n)
    return f"integers in [-{span}, {span}]"


def check_x1_forms(limit: int = 60) -> str:
    for l in range(1, limit + 1):
        _expect(perfect.parabola(2**l - 1) == 2**l * (2 ** (l + 1) - 1), l)
        _expect(perfect.parabola(2**l + 1) == 2**l * (2 ** (l + 1) + 7) + 6, l)
    squares = 0
    for n in range(0, limit + 1):
        _expect(perfect.parabola(2 * n + 1) == 8 * n * n + 14 * n + 6, n)
        _expect(perfect.half_map(2 * n + 1) == perfect.parabola(n), n)
        # 6 (1^2 + ... + n^2) = n f(n), and f(n)/n^2 -> 2 with |f(n)/n^2 - 2| < 3.1/n from n = 11 on
        squares += n * n
        _expect(6 * squares == n * perfect.parabola(n), n)
        if n >= 11:
            _expect(abs(Fraction(perfect.parabola(n), n * n) - 2) < Fraction(31, 10) / n, n)
        # (2n + 1)^2 = 8 (1 + ... + n) + 1, so an odd square is 1 mod 8 and never perfect
        _expect((2 * n + 1) ** 2 % 8 == 1, n)
    # b + (b + d) + ... + (b + (n-1)d) = (dn^2 + (2b - d)n)/2 = ((2dn + 2b - d)^2 - (2b - d)^2)/(8d)
    for b, d in ((1, 1), (1, 2), (2, 2), (Fraction(-7, 3), Fraction(5, 2)), (Fraction(3, 4), Fraction(-1, 6))):
        b, d, total = Fraction(b), Fraction(d), Fraction(0)
        for n in range(1, limit + 1):
            total += b + (n - 1) * d
            _expect(total == (d * n * n + (2 * b - d) * n) / 2, b, d, n)
            _expect(total == ((2 * d * n + 2 * b - d) ** 2 - (2 * b - d) ** 2) / (8 * d), b, d, n)
    return f"l, n <= {limit}"


def check_difference_identity(samples: int, seed: int = 401) -> str:
    """f(a) - f(b) = (a - b)(2a + 2b + 3), and the chord geometry of each pair."""
    rng = random.Random(seed)
    for _ in range(samples):
        a, b = _rand_frac(rng), _rand_frac(rng)
        _expect(perfect.parabola(a) - perfect.parabola(b) == (a - b) * (2 * a + 2 * b + 3), a, b)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        chord = perfect.chord_geometry(a, b)
        fa, fb = perfect.parabola(a), perfect.parabola(b)
        _expect(chord.slope * a + chord.intercept == fa and chord.slope * b + chord.intercept == fb, a, b)
        combo = (b - a) / 6 * (2 * fa + 2 * fb + 4 * a * b + 3 * a + 3 * b + 2)
        _expect(chord.parabola_integral == combo, a, b)
        _expect(chord.chord_area == (b - a) ** 3 / 3, a, b)
    _expect(perfect.parabola(Fraction(-1)) == 0 and perfect.parabola(Fraction(-1, 2)) == 0)
    return f"{samples} rational pairs"


def check_areas_and_constants() -> str:
    left = perfect.chord_geometry(Fraction(-1), Fraction(-1, 2))
    right = perfect.chord_geometry(Fraction(-1, 2), Fraction(0))
    _expect(left.axis_area == Fraction(1, 24) and right.axis_area == Fraction(5, 24))
    _expect(left.axis_area + right.axis_area == Fraction(1, 4))
    # f < 0 between its roots -1 and -1/2, f > 0 after: the signed integral over [-1, 0] is the difference
    _expect(perfect.integral(-1, 0) == right.axis_area - left.axis_area)
    v = vertex(Quadratic(2, 3, 1))
    _expect((v.h, v.k) == (Fraction(-3, 4), Fraction(-1, 8)))
    phi = float(fibgroup.PHI)
    targets = [
        (perfect.parabola(math.pi), 30.1639, 1e-3),
        (perfect.parabola(math.e), 23.9329, 1e-3),
        (perfect.parabola(phi), 11.090, 1e-3),
        (math.pi - math.e, 0.423310825130748, 1e-6),
        (2 * (math.pi + math.e), 11.719748964097677, 1e-6),
        (math.pi - phi, 1.52355866483989838846, 1e-6),
        (2 * (math.pi + phi), 9.51925328467937617692, 1e-6),
        (math.e - phi, 1.10024783970915038536, 1e-6),
        # displayed 6.672...: leading digit typo, see errata 'two-e-phi-sum'
        (2 * (math.e + phi), 8.67263163441788017072, 1e-6),
        (2 * math.pi + math.e, 9.0014671356386317, 1e-6),
        (2 * math.e + math.pi, 8.5781563105078837, 1e-6),
        (2 * math.pi + phi, 7.90121929592948132693, 1e-6),
        (2 * phi + math.pi, 6.3776606310895829385, 1e-6),
        (2 * math.e + phi, 7.05459764566798532072, 1e-6),
        (2 * phi + math.e, 5.9543498059588349354, 1e-6),
        (2 * math.pi + 3 * math.e, 14.4380307925567222, 1e-6),
        (2 * math.e + 3 * math.pi, 14.8613416176874702, 1e-6),
        (2 * phi + 3 * math.pi, 12.6608459382691694154, 1e-6),
        (3 * phi + 2 * math.pi, 11.13728727342927102693, 1e-6),
    ]
    for got, want, tol in targets:
        _expect(abs(got - want) <= tol, got, want)
    return f"{len(targets)} constants + exact areas"


def check_h_never_perfect(scan_limit: int) -> str:
    perfect_values = {
        rec.value
        for rec in (perfect.perfect_from_exponent(p) for p in (2, 3, 5, 7, 13, 17, 19, 31))
        if rec.is_perfect
    }
    # inversion: 2n^2 + n = P needs 1 + 8P to be an odd square with root = 4n + 1
    for value in perfect_values:
        root = math.isqrt(1 + 8 * value)
        _expect(not (root * root == 1 + 8 * value and root % 4 == 1), value)
    for n in range(1, scan_limit + 1):  # 10^6 terms at full scale: a test without a call per term
        if perfect.even_preserving_map(n) in perfect_values:
            raise CheckFailed(f"h({n}) is perfect")
    return f"inversion + scan n <= {scan_limit}"


# ---------------------------------------------------------------- goldbach


def check_goldbach_range(stop: int) -> str:
    summary = goldbach.verify_range(stop)
    _expect(summary.count == (stop - 4) // 2 + 1, summary.count)
    # the oracle sweeps every I over the whole range: bit M of `left` is an N = 2M
    # without a witness yet, and M + I, M - I are both prime where `found` has a bit
    flags = sieve_flags(stop)
    primes = int(flags.translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2)
    left = ((1 << (stop // 2 - 1)) - 1) << 2
    histogram, first, i = [], 0, 0
    while left:
        _expect(i <= stop // 2, "no witness", i)
        found = left & (primes >> i) & (primes << i)
        if found:
            left ^= found
            histogram.append((i, found.bit_count()))
            first = found & -found
        i += 1
    expected = (tuple(histogram), histogram[-1][0], 2 * (first.bit_length() - 1))
    _expect((summary.histogram, summary.max_i, summary.n_at_max_i) == expected, stop, expected[1:])
    _expect({(17, 7), (19, 5)} <= {(w.p, w.q) for w in goldbach.witnesses(24)})
    return f"{summary.count} even N <= {stop}, max I = {summary.max_i} at N = {summary.n_at_max_i}"


def check_goldbach_areas(samples: int, seed: int = 1010) -> str:
    rng = random.Random(seed)
    flags = sieve_flags(10_000)
    primes = [p for p in range(3, 10_000, 2) if flags[p]]
    for _ in range(samples):
        p, q = rng.sample(primes, 2)
        p, q = max(p, q), min(p, q)
        parab = goldbach.witness_parabola(p, q)
        pair = solve(parab.quadratic)
        _expect({pair.r1.as_fraction(), pair.r2.as_fraction()} == {p, q}, p, q)
        v = vertex(parab.quadratic)
        _expect((v.h, v.k) == (parab.vertex_x, parab.vertex_y), p, q)
        _expect(parab.quadratic(parab.vertex_x) == -Fraction(p - q, 2) ** 2, p, q)  # -I^2
        report = goldbach.witness_areas(p, q)

        def antiderivative(x: int) -> Fraction:  # of -(x - p)(x - q) = -x^2 + (p+q)x - pq
            return -Fraction(x**3, 3) + Fraction((p + q) * x * x, 2) - p * q * x

        _expect(report.parabola_area == antiderivative(p) - antiderivative(q), p, q)
        # the parabola lies above the axis on [0, q]
        _expect(report.leading_segment == antiderivative(0) - antiderivative(q), p, q)
        i3 = Fraction(report.I) ** 3
        _expect(report.parabola_area == Fraction(4, 3) * i3, p, q)
        _expect(report.rectangle_area == 2 * i3 and report.triangle_area == i3, p, q)
        _expect(report.rectangle_area / report.parabola_area == Fraction(3, 2), p, q)
        _expect(report.rectangle_area / report.triangle_area == 2, p, q)
        _expect(report.parabola_area / report.triangle_area == Fraction(4, 3), p, q)
    _expect(goldbach.hypotenuse_number(6, 5, 1) == (169, goldbach.HypClass.PRIME_SQUARE))
    _expect(goldbach.hypotenuse_number(6, 7, 1) == (193, goldbach.HypClass.PRIME))
    return f"{samples} random witness pairs"


def check_hypotenuse_identity(samples: int, seed: int = 502) -> str:
    rng = random.Random(seed)
    done = 0
    while done < samples:
        n = rng.randint(1, 400)
        i = rng.randint(1, 2 * n - 1)
        if math.gcd(2 * n, i) != 1:
            continue
        l = rng.choice((1, 2, 3))
        h, _ = goldbach.hypotenuse_number(n, i, l)
        p, q = 2 * n + i, 2 * n - i
        _expect((p + q) ** (2 * l) + (p - q) ** (2 * l) == h * 2 ** (2 * l), n, i, l)
        done += 1
    return f"{samples} coprime pairs, l in 1..3"


def check_parity_lemma(limit: int = 99) -> str:
    for p in range(1, limit + 1, 2):
        for q in range(1, p + 1, 2):
            mp, ip = goldbach.parity_lemma(p, q)
            # each odd number is 4k+1 or 4v-1: mixed classes make M = 2(k+v)
            # even, matching classes make I = 2(k-v) even
            _expect(mp != ip and (mp == "even") == (p % 4 != q % 4), p, q)
    return f"all odd pairs <= {limit}"


# ---------------------------------------------------------------- pnum / geometry


def check_pnum(limit: int = 20_000) -> str:
    for n in range(1, limit):
        _expect(pnum.digital_root(n) == (9 if n % 9 == 0 else n % 9), n)
    for n in (1, 7, 1234, 120, 888, 10**12):
        # association is idempotent on its image
        _expect(pnum.associate(pnum.pnum_value(pnum.associate(n))) == pnum.associate(n), n)
    for digit in range(1, 10):
        for reps in range(1, 4):
            plus, minus = pnum.pnum_parabola(pnum.PNumber(digit, reps))
            pair, mirror = solve(plus), solve(minus)
            _expect({pair.r1.as_fraction(), pair.r2.as_fraction()} == {digit, reps}, digit, reps)
            _expect({mirror.r1.as_fraction(), mirror.r2.as_fraction()} == {-digit, -reps}, digit, reps)
    return f"digital roots to {limit}"


def check_geometry() -> str:
    for solid in geometry.PlatonicSolid:
        row1 = geometry.platonic(solid, 1)
        row3 = geometry.platonic(solid, 3)
        _expect(row3.volume.squared() == 3**6 * row1.volume.squared(), solid)
        _expect(row3.total_area.squared() == 3**4 * row1.total_area.squared(), solid)
        # V = A * apothem / 3, exactly and in floating point
        third = row1.total_area.times(row1.apothem).scaled(Fraction(1, 3))
        _expect(third.equals(row1.volume), solid)
        volume = float(row1.volume)
        _expect(abs(float(third) - volume) <= 1e-12 * max(1.0, volume), solid)
    a, b = geometry.golden_cut(1)
    _expect(a * a == b * (a + b) and a / b == fibgroup.PHI, a, b)
    traj = geometry.trajectory(10.0, 0.785398163, 9.8)
    _expect(abs(traj.range_x - 10.204081632653061) < 1e-6, traj.range_x)
    _expect(abs(traj.range_x - 2 * traj.apex_x) <= 1e-9 * max(1.0, abs(traj.range_x)), traj.apex_x)
    return "5 solids, scale law"


# ---------------------------------------------------------------- harness


class Row(NamedTuple):  # not a dataclass: a fifth of the class-creation cost at import
    """A check's arguments per scale (empty: its defaults), acceptance criterion and decided errata ids."""

    module: str
    name: str
    check: str  # looked up in this module when the row runs, so a patched attribute is the one called
    quick: tuple = ()
    full: tuple = ()
    criterion: int | None = None
    errata: tuple[str, ...] = ()


CHECKS = (
    Row("qfield", "field-axioms", "check_field_axioms", (300,), (10_000,), 12),
    Row("qfield", "text-json-round-trip", "check_text_round_trip"),
    Row("solver", "vieta-substitution-vertex", "check_vieta_substitution", (200,), (2000,), 8,
        ("monic-formula-scope",)),
    Row("solver", "shift-companion", "check_shift_companion", (500,), (10_000,), 8,
        ("shift-companion-plus", "shift-companion-minus")),
    Row("solver", "p=q-specializations", "check_pq_specializations"),
    Row("fibgroup", "power-reduction", "check_power_reduction", criterion=7, errata=("fibonacci-indexing",)),
    Row("fibgroup", "telescoping-sum", "check_telescoping"),
    Row("fibgroup", "partial-sums", "check_partial_sums", (30,), (200,), 11, ("case3-sum-5mod6",)),
    Row("fibgroup", "unit-groups", "check_unit_groups", criterion=4, errata=("case3-group-set-display",)),
    Row("metallic", "table", "check_metallic_table", criterion=3, errata=("metallic-4n1-scope",)),
    Row("metallic", "phi-ledger", "check_phi_ledger", (30,), (90,), 7, ("phi-sixth-power",)),
    Row("metallic", "integer-root-family", "check_integer_root_family"),
    Row("metallic", "creation-trig", "check_creation_and_trig", errata=("trig-m-range",)),
    Row("congruence", "sqrt-mod-vs-brute-force", "check_sqrt_mod_exhaustive", (200,), (2000,), 6),
    Row("congruence", "quad-mod-vs-brute-force", "check_quad_mod_random", (150,), (1000,),
        errata=("congruence-residue-sign",)),
    Row("congruence", "4t+1-criterion-two-squares", "check_four_t_plus_one", (10**4,), (10**5,), 6),
    Row("congruence", "legendre-multiplicativity", "check_legendre_multiplicative"),
    Row("perfect", "table-reproduction", "check_perfect_table", criterion=1,
        errata=("parabola-divisibility", "second-root-formula", "perfect-table-x2-1023")),
    Row("perfect", "lucas-lehmer-vs-divisor-sum", "check_perfect_records", (13,), (19,)),
    Row("perfect", "parity-contracts", "check_parity_contracts", (1000,), (10_000,)),
    Row("perfect", "x1-closed-forms", "check_x1_forms"),
    Row("perfect", "difference-identity", "check_difference_identity", (500,), (10_000,), 2),
    Row("perfect", "areas-and-constants", "check_areas_and_constants", criterion=2, errata=("two-e-phi-sum",)),
    Row("perfect", "h-never-perfect", "check_h_never_perfect", (10_000,), (1_000_000,), errata=("g-vs-h-naming",)),
    Row("goldbach", "witness-range", "check_goldbach_range", (10_000,), (1_000_000,), 5),
    Row("goldbach", "area-identities", "check_goldbach_areas", (100,), (1000,), 10),
    Row("goldbach", "hypotenuse-quotient", "check_hypotenuse_identity", (100,), (1000,)),
    Row("goldbach", "parity-lemma", "check_parity_lemma"),
    Row("pnum", "digital-root-and-parabolas", "check_pnum", (2000,), (20_000,), errata=("digital-root-80",)),
    Row("geometry", "platonic-goldencut-trajectory", "check_geometry", criterion=9),
)


def _failure(exc: Exception) -> str:
    """The exception and the line of this file where the check stopped."""
    stack = traceback.extract_tb(exc.__traceback__)
    here = [frame for frame in stack[1:] if frame.filename == __file__ and frame.name != "_expect"]
    frame = (here or stack[1:] or stack)[-1]  # [0] is run_all's call: all there is if the arguments don't bind
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def run_all(scale: str = "quick") -> list[CheckResult]:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    results = []
    for row in CHECKS:
        args = row.full if scale == "full" else row.quick
        start = time.perf_counter()
        try:
            detail, ok = globals()[row.check](*args), True
        except Exception as exc:  # a failing check is one FAIL result, not the end of the run
            detail, ok = _failure(exc), False
        results.append(CheckResult(row.module, row.name, ok, detail, time.perf_counter() - start))
    return results
