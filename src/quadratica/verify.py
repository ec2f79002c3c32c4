"""Cross-module invariant harness behind the `verify` CLI subcommand.

`quick` keeps every suite in the seconds range (Goldbach to 10^4, ledgers to
n = 30, hundreds of random samples); `full` runs the acceptance-scale bounds
(Goldbach to 10^6, 10^4 field-axiom samples per radicand, exhaustive modular
square roots below 2000). All randomness is seeded, so both scales are
deterministic. Checks return results instead of raising, and a check that
raises anyway becomes a failing result, so one failure doesn't hide the
rest; the harness accepts extra caller-supplied checks, which doubles as its
own fault-injection self-test.

This module is the only home of the expected values (reference tables,
constants, identities, brute-force oracles). The library functions compute
and do not check themselves; each identity they rest on is checked here
(or, for a few, by an independent unit test). The acceptance criteria in
``tests/test_acceptance.py`` call these checks with their pinned bounds and
seeds instead of carrying a second copy.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from . import congruence, errata, fibgroup, geometry, goldbach, metallic, perfect, pnum
from .intmath import is_prime, sieve_flags
from .qfield import QuadElem, parse_quad
from .solver import Quadratic, RootKind, four_family, shift_roots, solve, vertex

__all__ = ["CheckResult", "run_all", "SCALES"]

SCALES = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0  # seconds, filled in by run_all


def _rand_frac(rng: random.Random, span: int = 99, den: int = 30) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_nonzero(rng: random.Random, span: int = 99, den: int = 30) -> Fraction:
    while True:
        f = _rand_frac(rng, span, den)
        if f:
            return f


# ---------------------------------------------------------------- qfield


def check_field_axioms(samples: int, seed: int = 101) -> CheckResult:
    """Associativity, commutativity, distributivity, inverses, norm and
    conjugation morphisms, float embedding, canonical idempotence."""
    rng = random.Random(seed)
    radicands = (2, 3, 5, -1, -3, 13)
    failures = 0
    total = 0
    one = QuadElem.from_rational(1)
    for m in radicands:
        for _ in range(samples):
            z = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            w = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            v = QuadElem(_rand_frac(rng), _rand_frac(rng), m)
            total += 1
            ok = (
                (z + w) + v == z + (w + v)
                and (z * w) * v == z * (w * v)
                and z + w == w + z
                and z * w == w * z
                and z * (w + v) == z * w + z * v
                and z + (-z) == QuadElem.from_rational(0)
                and (z * w).norm() == z.norm() * w.norm()
                and (z * w).conj() == z.conj() * w.conj()
                and (z + w).conj() == z.conj() + w.conj()
                and QuadElem(z.a, z.b, z.m) == z
            )
            if z:
                ok = ok and z * z.inverse() == one
            if m > 0:
                fz, fw = float(z), float(w)
                prod = float(z * w)
                scale = max(abs(prod), 1.0)
                ok = ok and abs(prod - fz * fw) <= 1e-12 * scale
            if not ok:
                failures += 1
    return CheckResult(
        "qfield",
        "field-axioms",
        failures == 0,
        f"{total} triples over radicands {radicands}, {failures} failures",
    )


def check_text_round_trip(samples: int = 500, seed: int = 102) -> CheckResult:
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        m = rng.choice((0, 2, 3, 5, -1, -3, 13, 21))
        z = QuadElem(_rand_frac(rng), _rand_frac(rng) if m else Fraction(0), m)
        ok = ok and parse_quad(str(z)) == z and QuadElem.from_dict(z.to_dict()) == z
    return CheckResult("qfield", "text-json-round-trip", ok, f"{samples} samples")


# ---------------------------------------------------------------- solver


def check_vieta_substitution(samples: int, seed: int = 201) -> CheckResult:
    rng = random.Random(seed)
    zero = QuadElem.from_rational(0)
    ok = True
    for _ in range(samples):
        q = Quadratic(_rand_nonzero(rng, 20, 10), _rand_frac(rng, 20, 10), _rand_frac(rng, 20, 10))
        pair = solve(q)
        ok = ok and pair.r1 + pair.r2 == QuadElem.from_rational(-q.b / q.a)
        ok = ok and pair.r1 * pair.r2 == QuadElem.from_rational(q.c / q.a)
        ok = ok and q(pair.r1) == zero and q(pair.r2) == zero
        v = vertex(q)
        ok = ok and v.expand() == q
    for _ in range(samples):
        # x -> -x swaps (a) x^2 + px + q with (b) x^2 - px + q, and (c) with (d)
        p, q = (Fraction(rng.randint(1, 20), rng.randint(1, 10)) for _ in range(2))
        family = {member.label: member.roots for member in four_family(p, q)}
        for pos, neg in (("a", "b"), ("c", "d")):
            ok = ok and {-family[pos].r1, -family[pos].r2} == {family[neg].r1, family[neg].r2}
        ok = ok and family["d"].kind is RootKind.REAL_DISTINCT  # p^2 + 4q > 0
    return CheckResult("solver", "vieta-substitution-vertex", ok, f"{samples} random quadratics")


def check_shift_companion(samples: int, seed: int = 202) -> CheckResult:
    """Displayed family form, radical-arithmetic oracle, and k/-k composition."""
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        p = _rand_frac(rng, 50, 20)
        q = _rand_frac(rng, 50, 20)
        k = _rand_frac(rng, 50, 20)
        base = Quadratic(1, -p, q)
        shifted = shift_roots(base, k)
        ok = ok and shifted == Quadratic(1, -(p + 2 * k), k * k + p * k + q)
        # oracle: shift the exact roots and re-form the polynomial
        pair = solve(base)
        s = (pair.r1 + k) + (pair.r2 + k)
        prod = (pair.r1 + k) * (pair.r2 + k)
        ok = ok and s.is_rational and prod.is_rational
        ok = ok and shifted == Quadratic(1, -s.as_fraction(), prod.as_fraction())
        ok = ok and shift_roots(shifted, -k) == base
    ids = {e.id for e in errata.ERRATA}
    ok = ok and {"shift-companion-plus", "shift-companion-minus"} <= ids
    ok = ok and "1 - 2p" in errata.get_entry("shift-companion-plus").derived
    ok = ok and "2p + 1" in errata.get_entry("shift-companion-minus").derived
    return CheckResult("solver", "shift-companion", ok, f"{samples} (p,q,k) trials")


def check_pq_specializations(limit: int = 60) -> CheckResult:
    ok = True
    for p in range(1, limit + 1):
        ok = ok and shift_roots(Quadratic(1, -p, -p), 1) == Quadratic(1, -(p + 2), 1)
        ok = ok and shift_roots(Quadratic(1, p, p), 1) == Quadratic(1, -(2 - p), 1)
        ok = ok and shift_roots(Quadratic(1, p, -p), 1) == Quadratic(1, -(2 - p), 1 - 2 * p)
        ok = ok and shift_roots(Quadratic(1, -p, p), 1) == Quadratic(1, -(p + 2), 2 * p + 1)
        # subtracting p moves the roots of x^2 - px + p onto x^2 + px + p
        ok = ok and shift_roots(Quadratic(1, -p, p), -p) == Quadratic(1, p, p)
    return CheckResult("solver", "p=q-specializations", ok, f"p up to {limit}")


# ---------------------------------------------------------------- fibgroup


def check_power_reduction(n_max: int = 90) -> CheckResult:
    ok = True
    for case in (fibgroup.Case.I, fibgroup.Case.II):
        x = fibgroup.case_root(case)
        for n in range(1, n_max + 1):
            pair = fibgroup.power_reduce(case, n)
            ok = ok and x**n == pair.coeff * x + pair.const
            ok = ok and x.conj() ** n == pair.coeff * x.conj() + pair.const
    return CheckResult("fibgroup", "power-reduction", ok, f"cases I/II, n <= {n_max}")


def check_telescoping(n_max: int = 90) -> CheckResult:
    ok = True
    for n in range(1, n_max + 1):
        # k = 1 contributes f_{-1} = 0 under the f0 = f1 = 1 seeds
        total = sum(fibgroup.fib(k - 2) for k in range(2, n + 1))
        ok = ok and total == fibgroup.fib(n) - 1
    return CheckResult("fibgroup", "telescoping-sum", ok, f"n <= {n_max}")


def check_partial_sums(n_max: int) -> CheckResult:
    ok = True
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
            ok = ok and total == fibgroup.closed_power_sum(case, n)
            ok = ok and total_bar == fibgroup.closed_power_sum(case, n, x=xbar)
            if case in (fibgroup.Case.III, fibgroup.Case.IV):
                ok = ok and total == fibgroup.residue_power_sum(case, n)
        # periodicity of the complex cases
        if case is fibgroup.Case.III:
            ok = ok and fibgroup.partial_power_sum(case, 6) == fibgroup.partial_power_sum(case, 12)
        if case is fibgroup.Case.IV:
            ok = ok and fibgroup.partial_power_sum(case, 3) == fibgroup.partial_power_sum(case, 6)
            # the stated anchor values: -1, 0, x at n = 2, 3, 4
            ok = ok and fibgroup.partial_power_sum(case, 2) == QuadElem.from_rational(-1)
            ok = ok and fibgroup.partial_power_sum(case, 3) == QuadElem.from_rational(0)
            ok = ok and fibgroup.partial_power_sum(case, 4) == x
    return CheckResult("fibgroup", "partial-sums", ok, f"all cases, n <= {n_max}")


def check_unit_groups() -> CheckResult:
    one = QuadElem.from_rational(1)
    ok = True
    for case, order in ((fibgroup.Case.III, 6), (fibgroup.Case.IV, 3)):
        group = fibgroup.unit_group(case)
        x = fibgroup.case_root(case)
        elements = set(group.elements)
        ok = ok and group.order == order == len(elements) and one in elements
        ok = ok and {x**k for k in range(1, order + 1)} == elements  # cyclic
        for t in range(11):
            if case is fibgroup.Case.III:
                ok = ok and x ** (2 + 6 * t) == x - 1 and x ** (4 + 6 * t) == -x and x ** (6 + 6 * t) == one
            else:
                ok = ok and x ** (3 + 3 * t) == one and x ** (4 + 3 * t) == x
        closed = all(z * w in elements for z in elements for w in elements)
        ok = ok and closed
        if not closed:
            continue  # the Cayley table indexes every product
        table = fibgroup.multiplication_table(group)
        n = group.order
        identity = group.index_of(one)
        ok = ok and all(sorted(row) == list(range(n)) for row in table)  # cancellation
        ok = ok and table[identity] == list(range(n))  # identity row
        ok = ok and all(identity in row for row in table)  # inverses
        ok = ok and all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    return CheckResult("fibgroup", "unit-groups", ok, "orders 6 and 3, Latin-square tables")


# ---------------------------------------------------------------- metallic


def check_metallic_table() -> CheckResult:
    expected = {
        (1, 1): QuadElem(Fraction(1, 2), Fraction(1, 2), 5),
        (2, 1): QuadElem(Fraction(1), Fraction(1), 2),
        (3, 1): QuadElem(Fraction(3, 2), Fraction(1, 2), 13),
        (4, 1): QuadElem(Fraction(2), Fraction(1), 5),
    }
    ok = True
    for (p, q), sigma in expected.items():
        entry = metallic.metallic(p, q)
        ok = ok and entry.sigma == sigma and entry.equation(entry.sigma) == 0
    return CheckResult("metallic", "table", ok, "p = 1..4, q = 1")


def check_phi_ledger(n_max: int) -> CheckResult:
    phi, phi_bar = fibgroup.PHI, fibgroup.PHI_BAR
    rows = metallic.phi_ledger(n_max)
    ok = all(flag for _, flag in metallic.phi_properties())
    ok = ok and [row.n for row in rows] == list(range(2, n_max + 1))
    for row in rows:
        power, power_bar = phi**row.n, phi_bar**row.n
        ok = ok and power == row.coeff * phi + row.const
        ok = ok and power_bar == row.coeff * phi_bar + row.const
        ok = ok and power + power_bar == QuadElem.from_rational(row.power_sum)
        ok = ok and power - power_bar == QuadElem(0, row.diff_coeff, 5)
    ok = ok and any(row.errata_id == "phi-sixth-power" for row in rows if row.n == 6)
    ok = ok and fibgroup.PHI**6 == 8 * fibgroup.PHI + 5
    ok = ok and "8φ + 5" in errata.get_entry("phi-sixth-power").derived
    return CheckResult("metallic", "phi-ledger", ok, f"rows 2..{n_max} plus properties 1-8")


def check_integer_root_family(k_max: int = 100) -> CheckResult:
    ok = True
    for k in range(0, k_max + 1):
        eq = Quadratic(1, -1, -2 * k * (2 * k + 1))
        ok = ok and eq(2 * k + 1) == 0 and eq(-2 * k) == 0
        ok = ok and 4 * (2 * k * (2 * k + 1)) + 1 == (4 * k + 1) ** 2
    return CheckResult("metallic", "integer-root-family", ok, f"k <= {k_max}")


def check_creation_and_trig() -> CheckResult:
    ok = all(
        metallic.creation_equation(m) == Fraction(m + 1, 2)
        for m in (2, 3, 5, 6, 7, 13, -1, -3, 21)
    )
    report = metallic.golden_trig()
    ok = ok and report.ok
    # cos(t) = PHI/2 needs (1 + sqrt(m))/4 <= 1
    ok = ok and all((1 + math.sqrt(m)) / 4 <= 1 for m in report.feasible_radicands)
    ok = ok and (1 + math.sqrt(report.infeasible_example)) / 4 > 1
    lo, hi = metallic.irrationality_bracket()
    ok = ok and lo < float(fibgroup.PHI) < hi
    return CheckResult("metallic", "creation-trig", ok, "exact halves + 1e-12 numerics")


# ---------------------------------------------------------------- congruence


def check_sqrt_mod_exhaustive(p_limit: int) -> CheckResult:
    flags = sieve_flags(p_limit)
    ok = True
    count = 0
    for p in range(3, p_limit, 2):
        if not flags[p]:
            continue
        squares: dict[int, list[int]] = {}
        for x in range(p):
            squares.setdefault(x * x % p, []).append(x)
        for r in range(p):
            got = congruence.sqrt_mod(r, p)
            ok = ok and list(got.roots) == sorted(squares.get(r, []))
            count += 1
    return CheckResult("congruence", "sqrt-mod-vs-brute-force", ok, f"{count} residues, p < {p_limit}")


def check_quad_mod_random(samples: int, seed: int = 301) -> CheckResult:
    rng = random.Random(seed)
    flags = sieve_flags(500)
    primes = [p for p in range(3, 500, 2) if flags[p]]
    ok = True
    for _ in range(samples):
        p = rng.choice(primes)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        c = rng.randrange(p)
        brute = sorted(x for x in range(p) if (a * x * x + b * x + c) % p == 0)
        got = congruence.solve_quad_mod(a, b, c, p)
        ok = ok and list(got.roots) == brute
    return CheckResult("congruence", "quad-mod-vs-brute-force", ok, f"{samples} random congruences")


def check_four_t_plus_one(p_limit: int) -> CheckResult:
    flags = sieve_flags(p_limit)
    ok = True
    count = 0
    for p in range(3, p_limit, 2):
        if not flags[p]:
            continue
        count += 1
        has_root = congruence.legendre(-1, p) == 1
        ok = ok and has_root == (p % 4 == 1)
        if p % 4 == 1:
            a, b = congruence.two_squares(p)
            ok = ok and a * a + b * b == p and a <= b
    ok = ok and [congruence.two_squares(p) for p in (5, 13, 17)] == [(1, 2), (2, 3), (1, 4)]
    return CheckResult(
        "congruence", "4t+1-criterion-two-squares", ok, f"{count} odd primes < {p_limit}"
    )


def check_legendre_multiplicative(samples: int = 300, seed: int = 302) -> CheckResult:
    rng = random.Random(seed)
    flags = sieve_flags(2000)
    primes = [p for p in range(3, 2000, 2) if flags[p]]
    ok = True
    for _ in range(samples):
        p = rng.choice(primes)
        r, s = rng.randrange(1, p), rng.randrange(1, p)
        ok = ok and congruence.legendre(r * s, p) == congruence.legendre(r, p) * congruence.legendre(s, p)
    return CheckResult("congruence", "legendre-multiplicativity", ok, f"{samples} random pairs")


# ---------------------------------------------------------------- perfect


def check_perfect_table() -> CheckResult:
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
    ok = True
    for x1, (value, x2) in expected.items():
        ok = ok and perfect.parabola(x1) == value
        inverted = perfect.preimage(value)
        ok = ok and inverted == (x1, x2)
    return CheckResult("perfect", "table-reproduction", ok, f"{len(expected)} rows, both directions")


def check_perfect_records(p_max: int = 19) -> CheckResult:
    ok = True
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        rec = perfect.perfect_from_exponent(p)
        ok = ok and rec.is_perfect == perfect.divisor_sum_is_perfect(rec.value)
        ok = ok and perfect.parabola(rec.x1) == rec.value
        ok = ok and 8 * rec.value + 1 == ((1 << (p + 1)) - 1) ** 2
    return CheckResult("perfect", "lucas-lehmer-vs-divisor-sum", ok, f"prime exponents <= {p_max}")


def check_parity_contracts(span: int) -> CheckResult:
    ok = True
    for n in range(-span, span + 1):
        ok = ok and perfect.parity_map("f", n) % 2 != n % 2
        ok = ok and perfect.parity_map("h", n) % 2 == n % 2
    return CheckResult("perfect", "parity-contracts", ok, f"integers in [-{span}, {span}]")


def check_x1_forms(limit: int = 60) -> CheckResult:
    ok = True
    for l in range(1, limit + 1):
        ok = ok and perfect.parabola(2**l - 1) == 2**l * (2 ** (l + 1) - 1)
        ok = ok and perfect.parabola(2**l + 1) == 2**l * (2 ** (l + 1) + 7) + 6
    for n in range(0, limit + 1):
        ok = ok and perfect.parabola(2 * n + 1) == 8 * n * n + 14 * n + 6
    return CheckResult("perfect", "x1-closed-forms", ok, f"l, n <= {limit}")


def check_difference_identity(samples: int, seed: int = 401) -> CheckResult:
    """f(a) - f(b) = (a - b)(2a + 2b + 3), and the chord geometry of each pair."""
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        a, b = _rand_frac(rng), _rand_frac(rng)
        ok = ok and perfect.difference_identity(a, b)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        chord = perfect.chord_geometry(a, b)
        fa, fb = perfect.parabola(a), perfect.parabola(b)
        ok = ok and chord.slope * a + chord.intercept == fa and chord.slope * b + chord.intercept == fb
        combo = (b - a) / 6 * (2 * fa + 2 * fb + 4 * a * b + 3 * a + 3 * b + 2)
        ok = ok and chord.parabola_integral == combo
        ok = ok and chord.chord_area == (b - a) ** 3 / 3
    zero_case = perfect.parabola(Fraction(-1)) == 0 and perfect.parabola(Fraction(-1, 2)) == 0
    return CheckResult("perfect", "difference-identity", ok and zero_case, f"{samples} rational pairs")


def check_areas_and_constants() -> CheckResult:
    left = perfect.chord_geometry(Fraction(-1), Fraction(-1, 2))
    right = perfect.chord_geometry(Fraction(-1, 2), Fraction(0))
    ok = left.axis_area == Fraction(1, 24) and right.axis_area == Fraction(5, 24)
    ok = ok and left.axis_area + right.axis_area == Fraction(1, 4)
    v = vertex(Quadratic(2, 3, 1))
    ok = ok and (v.h, v.k) == (Fraction(-3, 4), Fraction(-1, 8))
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
    ok = ok and all(abs(got - want) <= tol for got, want, tol in targets)
    return CheckResult("perfect", "areas-and-constants", ok, f"{len(targets)} constants + exact areas")


def check_h_never_perfect(scan_limit: int) -> CheckResult:
    perfect_values = {
        rec.value
        for rec in (perfect.perfect_from_exponent(p) for p in (2, 3, 5, 7, 13, 17, 19, 31))
        if rec.is_perfect
    }
    # inversion: 2n^2 + n = P needs 1 + 8P to be an odd square with root = 4n + 1
    ok = True
    from math import isqrt

    for value in perfect_values:
        disc = 1 + 8 * value
        root = isqrt(disc)
        ok = ok and not (root * root == disc and root % 4 == 1)
    hits = 0
    for n in range(1, scan_limit + 1):
        if perfect.even_preserving_map(n) in perfect_values:
            hits += 1
    return CheckResult(
        "perfect", "h-never-perfect", ok and hits == 0, f"inversion + scan n <= {scan_limit}"
    )


# ---------------------------------------------------------------- goldbach


def check_goldbach_range(stop: int) -> CheckResult:
    summary = goldbach.verify_range(stop)
    expected = (stop - 4) // 2 + 1
    ok = summary.count == expected and summary.max_i >= 0
    ok = ok and {(17, 7), (19, 5)} <= {(w.p, w.q) for w in goldbach.witnesses(24)}
    return CheckResult(
        "goldbach",
        "witness-range",
        ok,
        f"{summary.count} even N <= {stop}, max I = {summary.max_i} at N = {summary.n_at_max_i}",
    )


def check_goldbach_areas(samples: int, seed: int = 501) -> CheckResult:
    rng = random.Random(seed)
    flags = sieve_flags(10_000)
    primes = [p for p in range(3, 10_000, 2) if flags[p]]
    ok = True
    for _ in range(samples):
        p, q = rng.sample(primes, 2)
        p, q = max(p, q), min(p, q)
        parab = goldbach.witness_parabola(p, q)
        pair = solve(parab.quadratic)
        ok = ok and {pair.r1.as_fraction(), pair.r2.as_fraction()} == {p, q}
        v = vertex(parab.quadratic)
        ok = ok and (v.h, v.k) == (parab.vertex_x, parab.vertex_y)
        ok = ok and parab.quadratic(parab.vertex_x) == -Fraction(p - q, 2) ** 2  # -I^2
        report = goldbach.witness_areas(p, q)
        i3 = Fraction(report.I) ** 3
        ok = ok and report.parabola_area == Fraction(4, 3) * i3
        ok = ok and report.rectangle_area == 2 * i3
        ok = ok and report.triangle_area == i3
        ok = ok and report.rectangle_area / report.parabola_area == Fraction(3, 2)
        ok = ok and report.rectangle_area / report.triangle_area == 2
        ok = ok and report.parabola_area / report.triangle_area == Fraction(4, 3)
        # integral of (x - p)(x - q) over [0, q]: F(q) - F(0) with F(0) = 0
        ok = ok and report.leading_segment == Fraction(q**3, 3) - Fraction((p + q) * q * q, 2) + p * q * q
    ok = ok and goldbach.hypotenuse_number(6, 5, 1) == (169, goldbach.HypClass.PRIME_SQUARE)
    ok = ok and goldbach.hypotenuse_number(6, 7, 1) == (193, goldbach.HypClass.PRIME)
    return CheckResult("goldbach", "area-identities", ok, f"{samples} random witness pairs")


def check_hypotenuse_identity(samples: int, seed: int = 502) -> CheckResult:
    from math import gcd

    rng = random.Random(seed)
    ok = True
    done = 0
    while done < samples:
        n = rng.randint(1, 400)
        i = rng.randint(1, 2 * n - 1)
        if gcd(2 * n, i) != 1:
            continue
        l = rng.choice((1, 2, 3))
        h, _ = goldbach.hypotenuse_number(n, i, l)
        p, q = 2 * n + i, 2 * n - i
        ok = ok and (p + q) ** (2 * l) + (p - q) ** (2 * l) == h * 2 ** (2 * l)
        done += 1
    return CheckResult("goldbach", "hypotenuse-quotient", ok, f"{samples} coprime pairs, l in 1..3")


def check_parity_lemma(limit: int = 99) -> CheckResult:
    ok = True
    for p in range(1, limit + 1, 2):
        for q in range(1, p + 1, 2):
            mp, ip = goldbach.parity_lemma(p, q)
            ok = ok and mp != ip
            # each odd number is 4k+1 or 4v-1: mixed classes make M = 2(k+v)
            # even, matching classes make I = 2(k-v) even
            ok = ok and (mp == "even") == (p % 4 != q % 4)
    return CheckResult("goldbach", "parity-lemma", ok, f"all odd pairs <= {limit}")


# ---------------------------------------------------------------- pnum / geometry


def check_pnum(limit: int = 20_000) -> CheckResult:
    ok = True
    for n in range(1, limit):
        root = pnum.digital_root(n)
        ok = ok and root == (9 if n % 9 == 0 else n % 9)
    for n in (1, 7, 1234, 120, 888, 10**12):
        # association is idempotent on its image
        ok = ok and pnum.associate(pnum.pnum_value(pnum.associate(n))) == pnum.associate(n)
    for digit in range(1, 10):
        for reps in range(1, 4):
            pn = pnum.PNumber(digit, reps)
            plus, minus = pnum.pnum_parabola(pn)
            pair = solve(plus)
            ok = ok and {pair.r1.as_fraction(), pair.r2.as_fraction()} == {
                Fraction(digit),
                Fraction(reps),
            }
            mirror = solve(minus)
            ok = ok and {mirror.r1.as_fraction(), mirror.r2.as_fraction()} == {
                Fraction(-digit),
                Fraction(-reps),
            }
    return CheckResult("pnum", "digital-root-and-parabolas", ok, f"digital roots to {limit}")


def check_geometry() -> CheckResult:
    ok = True
    for solid in geometry.PlatonicSolid:
        row1 = geometry.platonic(solid, 1)
        row3 = geometry.platonic(solid, 3)
        ok = ok and row3.volume.squared() == 3**6 * row1.volume.squared()
        ok = ok and row3.total_area.squared() == 3**4 * row1.total_area.squared()
        # V = A * apothem / 3, exactly and in floating point
        third = row1.total_area.times(row1.apothem).scaled(Fraction(1, 3))
        ok = ok and third.equals(row1.volume)
        volume = float(row1.volume)
        ok = ok and abs(float(third) - volume) <= 1e-12 * max(1.0, volume)
    a, b = geometry.golden_cut(1)
    ok = ok and a * a == b * (a + b) and a / b == fibgroup.PHI
    traj = geometry.trajectory(10.0, 0.785398163, 9.8)
    ok = ok and abs(traj.range_x - 10.204081632653061) < 1e-6
    ok = ok and abs(traj.range_x - 2 * traj.apex_x) <= 1e-9 * max(1.0, abs(traj.range_x))
    return CheckResult("geometry", "platonic-goldencut-trajectory", ok, "5 solids, scale law")


# ---------------------------------------------------------------- harness


def _raised(check: Callable[[], CheckResult], exc: Exception) -> CheckResult:
    """The failing result of a check that raised instead of returning one."""
    name = getattr(getattr(check, "func", check), "__name__", repr(check))
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{Path(frame.filename).name}:{frame.lineno}"
    return CheckResult("verify", name, False, f"{name} raised {type(exc).__name__}: {exc} (at {where})")


def run_all(
    scale: str = "quick",
    extra_checks: Iterable[Callable[[], CheckResult]] = (),
) -> list[CheckResult]:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    full = scale == "full"
    checks: list[Callable[[], CheckResult]] = [
        partial(check_field_axioms, 10_000 if full else 300),
        check_text_round_trip,
        partial(check_vieta_substitution, 2000 if full else 200),
        partial(check_shift_companion, 10_000 if full else 500),
        check_pq_specializations,
        partial(check_power_reduction, 90),
        partial(check_telescoping, 90),
        partial(check_partial_sums, 200 if full else 30),
        check_unit_groups,
        check_metallic_table,
        partial(check_phi_ledger, 90 if full else 30),
        check_integer_root_family,
        check_creation_and_trig,
        partial(check_sqrt_mod_exhaustive, 2000 if full else 200),
        partial(check_quad_mod_random, 1000 if full else 150),
        partial(check_four_t_plus_one, 100_000 if full else 10_000),
        check_legendre_multiplicative,
        check_perfect_table,
        partial(check_perfect_records, 19 if full else 13),
        partial(check_parity_contracts, 10_000 if full else 1000),
        check_x1_forms,
        partial(check_difference_identity, 10_000 if full else 500),
        check_areas_and_constants,
        partial(check_h_never_perfect, 1_000_000 if full else 10_000),
        partial(check_goldbach_range, 1_000_000 if full else 10_000),
        partial(check_goldbach_areas, 1000 if full else 100),
        partial(check_hypotenuse_identity, 1000 if full else 100),
        check_parity_lemma,
        partial(check_pnum, 20_000 if full else 2000),
        check_geometry,
    ]
    checks.extend(extra_checks)
    results = []
    for check in checks:
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a check that raises is a failure, not the end of the run
            result = _raised(check, exc)
        results.append(replace(result, elapsed=time.perf_counter() - start))
    return results
