"""Command-line entry point: every module as a subcommand.

Exit codes: 0 success, 1 domain error or unwritable file (with a
machine-readable envelope on stderr under --format json), 2 usage error.
argparse reads every number argument, --precision included, through one
reader, _literal, into an int, a Fraction or a QuadElem, so handlers call the
library directly; a literal that cannot be read, or whose written-out digits
pass the digit cap, is a usage error, and so is a --precision outside
[1, 30]. Exact values are rendered exactly in JSON ({num, den} rationals,
{a, b, m} field elements); floats appear only in explicitly numeric fields,
formatted to --precision significant digits, and every exact value shown as a
float first passes one guard, which refuses a float that overflows or rounds
a nonzero value to 0. CSV output uses '.' decimals and comma delimiters, and
samplers emit strictly increasing x columns: a step that --precision cannot
print apart is refused before any output. Each handler imports the library
module it calls, and build_parser builds the parser once per process, so
`import quadratica.cli` adds only argparse to `import quadratica`: OutputConfig
and Output are `_record` classes, and json and csv load only to write them.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import re
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Optional

from ._record import Record, setfield
from .errors import DomainError, EmptyInterval, IndistinctSamples, InputTooLarge, NonPositiveParameter
from .qfield import parse_quad, qf_make, rat_to_dict
from .solver import (
    Quadratic,
    disc_derivative_identity,
    four_family,
    ode_classify,
    shift_roots,
    solve,
    vertex,
)

__all__ = ["main", "OutputConfig"]
_FORMATS = ("text", "json", "csv")


class OutputConfig(Record):
    """Rendering knobs shared by every subcommand."""

    __slots__ = __match_args__ = ("format", "precision")

    def __init__(self, format: str = "text", precision: int = 12):
        setfield(self, "format", format)
        setfield(self, "precision", precision)

    def fnum(self, x: float) -> str:
        return f"{x:.{self.precision}g}"


class Output(Record):
    """What a handler produced: text lines, a JSON payload, optional CSV rows.

    lines and rows are iterables read once, and only by the format printed;
    data may hold library values, which _json encodes. The one mutable record.
    """

    __slots__ = __match_args__ = ("lines", "data", "rows", "failed")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, lines: Iterable[str], data: Any, rows: Optional[Iterable[list]] = None, failed: bool = False):
        self.lines = lines
        self.data = data
        self.rows = rows
        self.failed = failed  # exit 1 even though the command ran


def _json(value):
    """json.dump's default hook: the exact JSON form of a library value.

    Fraction -> {num, den}; a QuadElem -> its to_dict(); a record or dataclass
    -> its __match_args__ fields in order; an iterator -> a list. json itself
    writes lists, tuples and the library's str enums (as their value).
    """
    if isinstance(value, Fraction):
        return rat_to_dict(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hasattr(type(value), "__match_args__"):
        return {name: getattr(value, name) for name in type(value).__match_args__}
    if isinstance(value, Iterator):
        return list(value)
    raise TypeError(f"{type(value).__name__} has no JSON form")


# ---------------------------------------------------------------- handlers


def _cmd_solve(args, cfg: OutputConfig) -> Output:
    q = Quadratic(args.a, args.b, args.c)
    pair = solve(q)
    v = vertex(q)
    lines = [
        f"equation: {q} = 0",
        f"kind: {pair.kind.value}",
        f"x1: {pair.r1}",
        f"x2: {pair.r2}",
        f"vertex: ({v.h}, {v.k})",
        f"discriminant: {q.discriminant}",
    ]
    data = {"equation": q, "roots": pair, "vertex": {"h": v.h, "k": v.k}, "discriminant": q.discriminant}
    return Output(lines, data)


def _cmd_solve_extras(args, cfg: OutputConfig) -> Output:
    if args.action == "family":
        members = four_family(args.a, args.b)
        lines = [f"({m.label}) {m.quadratic} = 0  ->  {m.roots.r1}, {m.roots.r2}" for m in members]
        return Output(lines, {m.label: {"equation": m.quadratic, "roots": m.roots} for m in members})
    q = Quadratic(args.a, args.b, args.c)
    if args.action == "shift":
        shifted = shift_roots(q, args.k)
        return Output([f"shifted by {args.k}: {shifted} = 0"], {"shifted": shifted, "k": args.k})
    if args.action == "derivative":
        report = disc_derivative_identity(q)
        lines = [
            f"x1: {report.x1}",
            f"x2: {report.x2}",
            f"sqrt(disc) = f'(x1): {report.sqrt_disc}",
            f"identity holds: {report.check}",
        ]
        return Output(lines, report)
    if args.action == "ode":
        mode = ode_classify(args.a, args.b, args.c)
        return Output([f"kind: {mode.kind.value}", f"r1: {mode.r1}", f"r2: {mode.r2}"], mode)


_QF_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def _cmd_qfield(args, cfg: OutputConfig) -> Output:
    if args.action == "make":
        z = qf_make(args.a, args.b, args.m)
        return Output([str(z)], {"element": z})
    if args.action == "op":
        result = _QF_OPS[args.operation](args.z, args.w)
        return Output([str(result)], {"result": result})
    if args.action == "conj":
        zbar, norm = args.z.conj(), args.z.norm()
        return Output([f"conjugate: {zbar}", f"norm: {norm}"], {"conjugate": zbar, "norm": norm})
    if args.action == "coords":
        a, b = args.z.coords()
        return Output([f"({a}, {b})"], {"a": a, "b": b})
    if args.action == "sqrt":
        plus = qf_make(0, 1, args.m)
        return Output([f"+root: {plus}", f"-root: {-plus}"], {"plus": plus, "minus": -plus})


def _digit_limit() -> int:
    """The cap on the digits of any integer read or printed: 4300, or the interpreter's limit if lower and not 0."""
    return min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)


def _check_printable(what: str, n: int, largest: Callable[[int], int]) -> None:
    """Refuse n when the largest integer printed at index n, largest(n), passes the digit cap.

    Every largest() grows like phi^n: that estimates the cap, and exact comparisons settle it.
    """
    digits = _digit_limit()
    cap = int(digits / math.log10((1 + math.sqrt(5)) / 2))
    while largest(cap + 1) < 10**digits:
        cap += 1
    while largest(cap) >= 10**digits:
        cap -= 1
    if n > cap:
        raise InputTooLarge(f"{what} must be <= {cap}, the last whose integers have <= {digits} digits; got {n}")


def _cmd_fib(args, cfg: OutputConfig) -> Output:
    from . import fibgroup
    if args.action == "value":
        _check_printable("fib value index", args.n, fibgroup.fib)
        value = fibgroup.fib(args.n)
        return Output([str(value)], {"n": args.n, "value": value})
    if args.action == "reduce":
        # coeff = F(n) = fib(n - 1) is the larger of the pair
        _check_printable("fib reduce --n", args.n, lambda n: fibgroup.fib(n - 1))
        pair = fibgroup.power_reduce(fibgroup.Case(args.case), args.n)
        root = "x"
        return Output(
            [f"{root}^{args.n} = {pair.coeff}*{root} + {pair.const}"],
            {"case": args.case, "n": args.n, "coeff": pair.coeff, "const": pair.const},
        )
    if args.action == "sum":
        case = fibgroup.Case(args.case)
        # x is a sixth or a cube root of unity in Cases III and IV, so only I and II grow
        if case in (fibgroup.Case.I, fibgroup.Case.II):
            def power_sum_largest(n: int) -> int:
                a, b = fibgroup.closed_power_sum(case, n).coords()
                return max(abs(a.numerator), a.denominator, abs(b.numerator), b.denominator)

            _check_printable(f"fib sum --case {args.case} --n", args.n, power_sum_largest)
        total = fibgroup.closed_power_sum(case, args.n)
        return Output([f"sum_{{k=1}}^{args.n} x^k = {total}"], {"case": args.case, "n": args.n, "sum": total})
    if args.action == "group":
        group = fibgroup.unit_group(fibgroup.Case(args.case))
        table = fibgroup.multiplication_table(group)
        labels = [str(z) for z in group.elements]
        width = max(len(s) for s in labels)
        lines = [f"case {args.case}: order {group.order}", "elements: " + ", ".join(labels)]
        for i, row in enumerate(table):
            lines.append(
                f"{labels[i]:>{width}} | " + "  ".join(f"{labels[j]:>{width}}" for j in row)
            )
        data = {"case": args.case, "order": group.order, "elements": group.elements, "table": table}
        rows = [[""] + labels] + [
            [labels[i]] + [labels[j] for j in row] for i, row in enumerate(table)
        ]
        return Output(lines, data, rows)


# Each row factors p^2 + 4 by trial division: 10^4 rows take ~0.5 s as text
# and ~1.7 s as JSON; 10^5 took ~9 s and ~15 s.
_METALLIC_TABLE_MAX_P = 10**4


def _cmd_metallic(args, cfg: OutputConfig) -> Output:
    from . import fibgroup, metallic
    if args.action == "table":
        if args.max_p > _METALLIC_TABLE_MAX_P:
            raise InputTooLarge(f"--max-p must be <= {_METALLIC_TABLE_MAX_P}, got {args.max_p}")
        entries = [metallic.metallic(p, 1) for p in range(1, args.max_p + 1)]
        lines = (
            f"sigma_{e.p},{e.q} = {e.sigma}{f' ({e.name})' if e.name else ''}   [{e.equation} = 0]"
            for e in entries
        )
        header = ["p", "q", "equation", "sigma", "name"]
        rows = chain([header], ([e.p, e.q, e.equation, e.sigma, e.name] for e in entries))
        return Output(lines, {"table": entries}, rows)
    if args.action == "classify":
        cls = metallic.radicand_classify(args.m)
        lines = [f"family: {cls.family.value}"]
        data = {"family": cls.family.value, "n": cls.n}
        if cls.equation is not None:
            lines.append(f"n: {cls.n}")
            lines.append(f"equation: {cls.equation} = 0")
            data["equation"] = cls.equation
        return Output(lines, data)
    if args.action == "creation":
        value = metallic.creation_equation(args.m)
        return Output([f"PHI^2 + conj(PHI)^2 = {value}"], {"m": args.m, "value": value})
    if args.action == "ledger":
        # row n's largest entry is its power_sum, coeff + 2*const = fib(n) + fib(n - 2)
        _check_printable("metallic ledger --n", args.n, lambda n: fibgroup.fib(n) + fibgroup.fib(n - 2))
        ledger = metallic.phi_ledger(args.n)
        lines = (
            f"phi^{r.n} = {r.coeff}*phi + {r.const}; sum = {r.power_sum}, diff = {r.diff_coeff}*sqrt(5)"
            f"{f'   [errata: {r.errata_id}]' if r.errata_id else ''}"
            for r in ledger
        )
        header = ["n", "coeff", "const", "power_sum", "diff_coeff", "errata"]
        rows = chain([header], ([r.n, r.coeff, r.const, r.power_sum, r.diff_coeff, r.errata_id] for r in ledger))
        return Output(lines, {"ledger": ledger}, rows)
    if args.action == "trig":
        report = metallic.golden_trig()
        lines = [
            f"cos(pi/5) = phi/2: {report.cos_pi_5_matches_half_phi}",
            f"2cos(2pi/5) = (-1+sqrt(5))/2: {report.two_cos_2pi_5_matches}",
            f"quintuple identity max error: {cfg.fnum(report.quintuple_identity_max_err)}",
            f"normalization exact: {report.normalization_exact}",
            f"generalized normalization exact: {report.generalized_normalization_exact}",
            f"feasible radicands: {list(report.feasible_radicands)}",
            f"first infeasible m: {report.infeasible_example}",
        ]
        data = {
            "cos_pi_5": report.cos_pi_5_matches_half_phi,
            "two_cos_2pi_5": report.two_cos_2pi_5_matches,
            "quintuple_max_err": report.quintuple_identity_max_err,
            "normalization_exact": report.normalization_exact,
            "generalized_normalization_exact": report.generalized_normalization_exact,
            "feasible_radicands": report.feasible_radicands,
            "infeasible_example": report.infeasible_example,
            "ok": report.ok,
        }
        return Output(lines, data)


def _cmd_cong(args, cfg: OutputConfig) -> Output:
    from . import congruence
    if args.action == "legendre":
        value = congruence.legendre(args.r, args.p)
        return Output([str(value)], {"r": args.r, "p": args.p, "legendre": value})
    if args.action in ("sqrt", "solve"):
        if args.action == "sqrt":
            sol = congruence.sqrt_mod(args.r, args.p)
        else:
            sol = congruence.solve_quad_mod(args.a, args.b, args.c, args.p)
        return Output([f"kind: {sol.kind.value}", f"roots: {list(sol.roots)}"], sol)
    if args.action == "twosquares":
        a, b = congruence.two_squares(args.p)
        return Output(
            [f"{args.p} = {a}^2 + {b}^2"],
            {"p": args.p, "a": a, "b": b},
        )


# The samplers stream their rows, so the cap bounds time: 10^5 steps take ~2.5 s
# in perfect plot (exact x values) and ~0.4 s in geom trajectory --csv, at ~19 MB
# peak RSS (~39 MB for perfect plot --json, whose row list is built whole).
_MAX_SAMPLE_STEPS = 10**5

# Each row runs a Lucas-Lehmer test of 2^p - 1, so the table costs about
# max_exp^3 bit operations: 2000 takes ~0.6 s, 4000 ~5 s.
_PERFECT_TABLE_MAX_EXP = 2000


def _cmd_perfect(args, cfg: OutputConfig) -> Output:
    from . import perfect
    if args.action == "table":
        if args.max_exp > _PERFECT_TABLE_MAX_EXP:
            raise InputTooLarge(f"--max-exp must be <= {_PERFECT_TABLE_MAX_EXP}, got {args.max_exp}")
        records = [perfect.perfect_from_exponent(p) for p in range(2, args.max_exp + 1)]
        lines = (
            f"p={r.exponent}: x1={r.x1}, x2={r.x2}, P={r.value}{' (perfect)' if r.is_perfect else ''}"
            for r in records
        )
        header = ["p", "mersenne", "x1", "x2", "P", "perfect"]
        rows = chain([header], ([r.exponent, r.mersenne, r.x1, r.x2, r.value, r.is_perfect] for r in records))
        data = (
            {
                "exponent": r.exponent,
                "mersenne": r.mersenne,
                "x1": r.x1,
                "x2": r.x2,
                "value": r.value,
                "perfect": r.is_perfect,
            }
            for r in records
        )
        return Output(lines, {"table": data}, rows)
    if args.action == "preimage":
        result = perfect.preimage(args.value)
        if result is None:
            return Output(
                [f"{args.value} is not on the parabola at an integer"],
                {"value": args.value, "x1": None, "x2": None},
            )
        x1, x2 = result
        return Output([f"x1 = {x1}", f"x2 = {x2}"], {"value": args.value, "x1": x1, "x2": x2})
    if args.action == "areas":
        report = perfect.chord_geometry(args.a, args.b)
        lines = [
            f"secant: y = {report.slope}x + {report.intercept}",
            f"trapezoid area: {report.trapezoid_area}",
            f"integral: {report.parabola_integral}",
            f"chord-parabola area: {report.chord_area}",
            f"axis area: {report.axis_area}",
        ]
        data = {
            "slope": report.slope,
            "intercept": report.intercept,
            "trapezoid_area": report.trapezoid_area,
            "parabola_integral": report.parabola_integral,
            "chord_area": report.chord_area,
            "axis_area": report.axis_area,
        }
        return Output(lines, data)
    if args.action == "plot":
        start, stop, step = args.start, args.stop, args.step
        if step <= 0:
            raise NonPositiveParameter("need step > 0 and stop >= start")
        if stop < start:
            raise EmptyInterval("need step > 0 and stop >= start")
        steps = (stop - start) // step
        if steps > _MAX_SAMPLE_STEPS:
            raise InputTooLarge(f"perfect plot takes at most {_MAX_SAMPLE_STEPS} steps, got {steps}")
        end = start + steps * step
        # the parabola is convex, so its largest value on the plot is at an end
        _refuse_past_float_range("perfect plot", start, end, perfect.parabola(start), perfect.parabola(end))
        if steps:
            _refuse_indistinct_samples("perfect plot", step, max(abs(start), abs(end)), cfg)

        def samples():
            for k in range(steps + 1):
                x = start + k * step
                yield [cfg.fnum(float(x)), cfg.fnum(float(perfect.parabola(x)))]

        header = ["x", "fx"]
        lines = (f"{x},{fx}" for x, fx in chain([header], samples()))
        return Output(lines, {"rows": samples()}, chain([header], samples()))


def _cmd_goldbach(args, cfg: OutputConfig) -> Output:
    from . import goldbach
    if args.action == "witness":
        if args.all:
            found = goldbach.witnesses(args.n)
            lines = (f"{w.N} = {w.p} + {w.q}  (I = {w.I})" for w in found)
            data = {
                "N": args.n,
                "witnesses": (
                    {"I": w.I, "p": w.p, "q": w.q, "uses_even_prime": w.uses_even_prime} for w in found
                ),
            }
            rows = chain([["N", "I", "p", "q"]], ([w.N, w.I, w.p, w.q] for w in found))
            return Output(lines, data, rows)
        w = goldbach.find_witness(args.n)
        note = "  [even prime pair]" if w.uses_even_prime else ""
        return Output(
            [f"{w.N} = {w.p} + {w.q}  (M = {w.M}, I = {w.I}){note}"],
            {
                "N": w.N,
                "M": w.M,
                "I": w.I,
                "p": w.p,
                "q": w.q,
                "uses_even_prime": w.uses_even_prime,
            },
        )
    if args.action == "verify":
        summary = goldbach.verify_range(args.to, csv_path=args.report)
        lines = [
            f"verified {summary.count} even numbers in [{summary.start}, {summary.stop}]",
            f"max minimal-I: {summary.max_i} at N = {summary.n_at_max_i}",
            f"elapsed: {summary.elapsed:.2f}s",
        ]
        if summary.csv_path:
            lines.append(f"report: {summary.csv_path}")
        data = {
            "start": summary.start,
            "stop": summary.stop,
            "count": summary.count,
            "max_I": summary.max_i,
            "N_at_max_I": summary.n_at_max_i,
            "elapsed_seconds": summary.elapsed,
            "report": summary.csv_path,
            "histogram": summary.histogram,
        }
        return Output(lines, data)
    if args.action == "areas":
        report = goldbach.witness_areas(args.p, args.q)
        parab = goldbach._parabola(args.p, args.q)  # witness_areas has checked the pair
        lines = [
            f"parabola: {parab.quadratic} with vertex ({parab.vertex_x}, {parab.vertex_y})",
            f"I = {report.I}",
            f"A_s (axis-parabola) = {report.parabola_area}",
            f"A_r (rectangle) = {report.rectangle_area}",
            f"A_t (triangle) = {report.triangle_area}",
            f"leading segment [0, q] = {report.leading_segment}",
        ]
        data = {
            "p": report.p,
            "q": report.q,
            "I": report.I,
            "parabola": parab.quadratic,
            "vertex": {"x": parab.vertex_x, "y": parab.vertex_y},
            "A_s": report.parabola_area,
            "A_r": report.rectangle_area,
            "A_t": report.triangle_area,
            "leading_segment": report.leading_segment,
        }
        return Output(lines, data)
    if args.action == "hypotenuse":
        h, kind = goldbach.hypotenuse_number(args.n, args.i, args.l)
        return Output(
            [f"H = {h} ({kind.value})"],
            {"n": args.n, "I": args.i, "l": args.l, "H": h, "class": kind.value},
        )


def _cmd_pnum(args, cfg: OutputConfig) -> Output:
    from . import pnum
    if args.action == "associate":
        pn = pnum.associate(args.n)
        return Output(
            [f"{args.n} -> {pn} (value {pnum.pnum_value(pn)})"],
            {"n": args.n, "digit": pn.digit, "reps": pn.reps, "value": pnum.pnum_value(pn)},
        )
    if args.action == "root":
        value = pnum.digital_root(args.n)
        return Output([str(value)], {"n": args.n, "digital_root": value})
    if args.action == "parabola":
        pn = pnum.PNumber(args.p, args.t)
        plus, minus = pnum.pnum_parabola(pn)
        return Output(
            [f"{plus} = 0", f"mirror: {minus} = 0"],
            {"pnumber": str(pn), "parabola": plus, "mirror": minus},
        )


_SOLID_ALIASES = {
    "tetra": "TETRAHEDRON",
    "octa": "OCTAHEDRON",
    "icosa": "ICOSAHEDRON",
    "hexa": "HEXAHEDRON",
    "cube": "HEXAHEDRON",
    "dodeca": "DODECAHEDRON",
}


def _refuse_past_float_range(what: str, *values) -> None:
    """Refuse, before any output, values whose float overflows or is infinite, or is 0 for a nonzero value."""
    for value in values:
        try:
            as_float = float(value)
        except OverflowError:
            as_float = math.inf
        if not math.isfinite(as_float):
            raise InputTooLarge(f"{what} values would pass the float range")
        if as_float == 0 and value != 0:
            raise InputTooLarge(f"{what} values would round to 0 as floats")


# A float holds 15 significant decimal digits (DBL_DIG); digits printed past those are float noise.
_FLOAT_DIGITS = 15


def _refuse_indistinct_samples(what: str, step, largest, cfg: OutputConfig) -> None:
    """Refuse, before any output, a sampler step that --precision cannot print apart at the largest |x|.

    unit is one unit in the last printed digit of the largest |x|, counting at most the digits a float
    holds. Printing moves each x by at most unit/2, and the float by less than unit/4, so consecutive x
    at least 2 units apart print strictly increasing.
    """
    exponent = int(f"{float(largest):.{cfg.precision - 1}e}".partition("e")[2])  # the decade %g prints
    least = 2 * Fraction(10) ** (exponent - min(cfg.precision, _FLOAT_DIGITS) + 1)
    if step < least:
        raise IndistinctSamples(
            f"{what} step {float(step):g} is below {float(least):g}, the least that "
            f"--precision {cfg.precision} prints apart at |x| = {float(largest):g}"
        )


def _cmd_geom(args, cfg: OutputConfig) -> Output:
    from . import geometry
    if args.action == "platonic":
        solid = geometry.PlatonicSolid[_SOLID_ALIASES[args.solid]]
        row = geometry.platonic(solid, args.edge)
        _refuse_past_float_range("geom platonic", row.face_area, row.total_area, row.apothem, row.volume)
        lines = [
            f"{solid.value} with edge {row.edge}:",
            f"face area: {row.face_area} = {cfg.fnum(float(row.face_area))}",
            f"total area: {row.total_area} = {cfg.fnum(float(row.total_area))}",
            f"apothem: {row.apothem} = {cfg.fnum(float(row.apothem))}",
            f"volume: {row.volume} = {cfg.fnum(float(row.volume))}",
            "V = A*apothem/3: exact",
        ]

        def radical_json(r):
            return {"scale": r.scale, "inner": r.inner, "float": float(r)}

        data = {
            "solid": solid.value,
            "edge": row.edge,
            "face_area": radical_json(row.face_area),
            "total_area": radical_json(row.total_area),
            "apothem": radical_json(row.apothem),
            "volume": radical_json(row.volume),
        }
        return Output(lines, data)
    if args.action == "goldencut":
        a, b = geometry.golden_cut(args.length)
        _refuse_past_float_range("geom goldencut", a, b)
        lines = [f"a = {a} = {cfg.fnum(float(a))}", f"b = {b} = {cfg.fnum(float(b))}"]
        return Output(lines, {"a": a, "b": b})
    if args.action == "trajectory":
        if args.samples < 1:
            raise NonPositiveParameter(f"--samples must be >= 1, got {args.samples}")
        if args.samples > _MAX_SAMPLE_STEPS:
            raise InputTooLarge(f"--samples must be <= {_MAX_SAMPLE_STEPS}, got {args.samples}")
        traj = geometry.trajectory(args.v0, args.beta, args.g)
        if cfg.format == "csv":  # the only format that prints the samples
            _refuse_indistinct_samples("geom trajectory", traj.range_x / args.samples, traj.range_x, cfg)
        lines = [
            f"y = {cfg.fnum(traj.a)}x^2 + {cfg.fnum(traj.b)}x",
            f"apex: ({cfg.fnum(traj.apex_x)}, {cfg.fnum(traj.apex_y)})",
            f"range: {cfg.fnum(traj.range_x)}",
        ]
        xs = (traj.range_x * k / args.samples for k in range(args.samples + 1))
        rows = chain([["x", "y"]], ([cfg.fnum(x), cfg.fnum(traj.a * x * x + traj.b * x)] for x in xs))
        data = {
            "a": traj.a,
            "b": traj.b,
            "c": traj.c,
            "apex": [traj.apex_x, traj.apex_y],
            "range": traj.range_x,
        }
        return Output(lines, data, rows)


def _cmd_errata(args, cfg: OutputConfig) -> Output:
    from . import errata
    lines = [f"errata ledger v{errata.ERRATA_VERSION}: {len(errata.ERRATA)} entries", ""]
    rows = [["id", "kind", "section", "displayed", "derived", "oracle"]]
    for entry in errata.ERRATA:
        lines.append(f"[{entry.id}] ({entry.kind}) {entry.section}")
        lines.append(f"  displayed: {entry.displayed}")
        lines.append(f"  derived:   {entry.derived}")
        lines.append(f"  oracle:    {entry.oracle}")
        lines.append("")
        rows.append([entry.id, entry.kind, entry.section, entry.displayed, entry.derived, entry.oracle])
    return Output(lines, {"version": errata.ERRATA_VERSION, "entries": errata.ERRATA}, rows)


def _cmd_verify(args, cfg: OutputConfig) -> Output:
    from . import verify
    results = verify.run_all(args.scale)
    lines = []
    per_module: dict[str, list[bool]] = {}
    for result in results:
        mark = "PASS" if result.ok else "FAIL"
        lines.append(f"{mark}  {result.module}.{result.name}  ({result.detail})  [{result.elapsed:.2f} s]")
        per_module.setdefault(result.module, []).append(result.ok)
    lines.append("")
    for module, oks in sorted(per_module.items()):
        lines.append(f"{module}: {sum(oks)}/{len(oks)} ok")
    failed = [r for r in results if not r.ok]
    lines.append(f"total: {len(results) - len(failed)}/{len(results)} checks passed")
    return Output(lines, {"scale": args.scale, "results": results, "ok": not failed}, failed=bool(failed))


# ---------------------------------------------------------------- wiring


def _literal(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type that reads a number with parse; a literal it cannot read is a usage error.

    A run of digits past the digit cap is refused first, in words that quote only the
    literal's head. Fraction builds 10**exponent, so a literal such as 1e5000, whose mantissa digits
    plus |exponent| pass the limit, is refused too, as int() refuses that many written-out digits.
    """

    def convert(text: str):
        mantissa, e, exponent = text.lower().partition("e")
        limit = _digit_limit()
        try:
            runs = re.findall(r"\d+(?:_\d+)*", text)
            longest = max((sum(map(str.isdigit, run)) for run in runs), default=0)
            if longest > limit:
                head = f"{text[:20]}..."
                raise InputTooLarge(f"{head} has {longest} digits in a row; at most {limit} are allowed")
            if e and re.fullmatch(r"[-+]?\d+(_\d+)*\s*", exponent):
                digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent))
                if digits > limit:
                    raise InputTooLarge(f"{text} has {digits} digits written out; at most {limit} are allowed")
            return parse(text)
        except (DomainError, ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_integer = _literal(int)
_rational = _literal(Fraction)
_field = _literal(parse_quad)


def _precision(text: str) -> int:
    digits = _integer(text)
    if not 1 <= digits <= 30:
        raise argparse.ArgumentTypeError(f"must be in [1, 30], got {digits}")
    return digits


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative number, such as -1/2, -1e5 or -√5, as a value.

    Every level takes the output flags. They default to SUPPRESS, so a subcommand's parser
    keeps a flag given before it, and the root holds the defaults. --json and --csv are
    spellings of --format, so the last format flag given wins.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option starts with a digit or √, so -1/2, -.5, -1e5 and -√5 are values, and the type reads them
        self._negative_number_matcher = re.compile(r"-\.?\d|-√")
        flag = self.add_argument
        flag("--format", choices=_FORMATS, default=argparse.SUPPRESS, help="output format")
        for name in ("json", "csv"):
            flag(f"--{name}", dest="format", action="store_const", const=name, default=argparse.SUPPRESS,
                 help=f"shorthand for --format {name}")
        flag("--precision", type=_precision, default=argparse.SUPPRESS, metavar="N", help="float digits (1..30)")
        flag("--out", metavar="FILE", default=argparse.SUPPRESS, help="write output to FILE instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadratica",
        description="Exact quadratic-equation toolkit: fields, solvers, congruences, "
        "perfect-number and Goldbach parabolas.",
    )
    parser.set_defaults(format="text", precision=12, out=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a*x^2 + b*x + c = 0 exactly")
    p.set_defaults(run=_cmd_solve)
    for name in ("a", "b", "c"):
        p.add_argument(name, type=_rational)

    p = sub.add_parser("quad", help="root shifting, derivative identity, damping, four-family")
    p.set_defaults(run=_cmd_solve_extras)
    quad_sub = p.add_subparsers(dest="action", required=True)
    for action, names in (("shift", "abck"), ("derivative", "abc"), ("ode", "abc")):
        ps = quad_sub.add_parser(action)
        for name in names:
            ps.add_argument(name, type=_rational)
    ps = quad_sub.add_parser("family")
    ps.add_argument("a", type=_rational, help="p > 0")
    ps.add_argument("b", type=_rational, help="q > 0")

    p = sub.add_parser("qfield", help="exact arithmetic in Q(sqrt(m))")
    p.set_defaults(run=_cmd_qfield)
    qf_sub = p.add_subparsers(dest="action", required=True)
    ps = qf_sub.add_parser("make")
    ps.add_argument("a", type=_rational)
    ps.add_argument("b", type=_rational)
    ps.add_argument("m", type=_integer)
    ps = qf_sub.add_parser("op")
    ps.add_argument("operation", choices=_QF_OPS)
    ps.add_argument("z", type=_field)
    ps.add_argument("w", type=_field)
    for action in ("conj", "coords"):
        qf_sub.add_parser(action).add_argument("z", type=_field)
    ps = qf_sub.add_parser("sqrt")
    ps.add_argument("m", type=_integer)

    p = sub.add_parser("fib", help="Fibonacci power reduction, sums, unit groups")
    p.set_defaults(run=_cmd_fib)
    fib_sub = p.add_subparsers(dest="action", required=True)
    ps = fib_sub.add_parser("value")
    ps.add_argument("n", type=_integer)
    ps = fib_sub.add_parser("reduce")
    ps.add_argument("--case", choices=("I", "II"), required=True)
    ps.add_argument("--n", type=_integer, required=True)
    ps = fib_sub.add_parser("sum")
    ps.add_argument("--case", choices=("I", "II", "III", "IV"), required=True)
    ps.add_argument("--n", type=_integer, required=True)
    ps = fib_sub.add_parser("group")
    ps.add_argument("--case", choices=("III", "IV"), required=True)

    p = sub.add_parser("metallic", help="metallic means, radicand families, phi ledger")
    p.set_defaults(run=_cmd_metallic)
    metal_sub = p.add_subparsers(dest="action", required=True)
    ps = metal_sub.add_parser("table")
    ps.add_argument("--max-p", dest="max_p", type=_integer, default=4)
    ps = metal_sub.add_parser("classify")
    ps.add_argument("m", type=_integer)
    ps = metal_sub.add_parser("creation")
    ps.add_argument("m", type=_integer)
    ps = metal_sub.add_parser("ledger")
    ps.add_argument("--n", type=_integer, default=20)
    ps = metal_sub.add_parser("trig")

    p = sub.add_parser("cong", help="quadratic congruences mod an odd prime")
    p.set_defaults(run=_cmd_cong)
    cong_sub = p.add_subparsers(dest="action", required=True)
    ps = cong_sub.add_parser("legendre")
    ps.add_argument("r", type=_integer)
    ps.add_argument("p", type=_integer)
    ps = cong_sub.add_parser("sqrt")
    ps.add_argument("r", type=_integer)
    ps.add_argument("p", type=_integer)
    ps = cong_sub.add_parser("solve")
    for name in ("a", "b", "c", "p"):
        ps.add_argument(name, type=_integer)
    ps = cong_sub.add_parser("twosquares")
    ps.add_argument("p", type=_integer)

    p = sub.add_parser("perfect", help="perfect-number parabola: tables, preimages, areas, sampling")
    p.set_defaults(run=_cmd_perfect)
    perf_sub = p.add_subparsers(dest="action", required=True)
    ps = perf_sub.add_parser("table")
    ps.add_argument("--max-exp", dest="max_exp", type=_integer, default=13)
    ps = perf_sub.add_parser("preimage")
    ps.add_argument("value", type=_integer)
    ps = perf_sub.add_parser("areas")
    ps.add_argument("a", type=_rational)
    ps.add_argument("b", type=_rational)
    ps = perf_sub.add_parser("plot")
    ps.add_argument("--from", dest="start", type=_rational, default="-2")
    ps.add_argument("--to", dest="stop", type=_rational, default="1")
    ps.add_argument("--step", type=_rational, default="1/100")

    p = sub.add_parser("goldbach", help="witness search, range verification, witness parabolas")
    p.set_defaults(run=_cmd_goldbach)
    gb_sub = p.add_subparsers(dest="action", required=True)
    ps = gb_sub.add_parser("witness")
    ps.add_argument("n", type=_integer)
    ps.add_argument("--all", action="store_true", help="list every witness, not just minimal I")
    ps = gb_sub.add_parser("verify")
    ps.add_argument("--to", type=_integer, default=1_000_000)
    ps.add_argument("--report", metavar="CSV", default=None)
    ps = gb_sub.add_parser("areas")
    ps.add_argument("p", type=_integer)
    ps.add_argument("q", type=_integer)
    ps = gb_sub.add_parser("hypotenuse")
    ps.add_argument("n", type=_integer)
    ps.add_argument("i", type=_integer)
    ps.add_argument("l", type=_integer, nargs="?", default=1)

    p = sub.add_parser("pnum", help="repdigit p-numbers")
    p.set_defaults(run=_cmd_pnum)
    pn_sub = p.add_subparsers(dest="action", required=True)
    ps = pn_sub.add_parser("associate")
    ps.add_argument("n", type=_integer)
    ps = pn_sub.add_parser("root")
    ps.add_argument("n", type=_integer)
    ps = pn_sub.add_parser("parabola")
    ps.add_argument("p", type=_integer)
    ps.add_argument("t", type=_integer)

    p = sub.add_parser("geom", help="golden cut, Platonic solids, trajectories")
    p.set_defaults(run=_cmd_geom)
    geom_sub = p.add_subparsers(dest="action", required=True)
    ps = geom_sub.add_parser("platonic")
    ps.add_argument("solid", choices=sorted(_SOLID_ALIASES))
    ps.add_argument("--edge", type=_rational, default="1")
    ps = geom_sub.add_parser("goldencut")
    ps.add_argument("length", type=_rational)
    ps = geom_sub.add_parser("trajectory")
    ps.add_argument("v0", type=float)
    ps.add_argument("beta", type=float)
    ps.add_argument("g", type=float, nargs="?", default=9.8)
    ps.add_argument("--samples", type=_integer, default=20)

    sub.add_parser("errata", help="the ledger of source-text discrepancies").set_defaults(run=_cmd_errata)

    p = sub.add_parser("verify", help="run the cross-module invariant suites")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--scale", choices=("quick", "full"), default="quick")

    return parser


def _render(output: Output, cfg: OutputConfig, out_path: Optional[str]) -> None:
    """Write the one format asked for, as it is produced, to --out or stdout."""
    if cfg.format == "csv" and output.rows is None:
        raise ValueError("this command has no CSV form")
    with open(out_path, "w") if out_path else nullcontext(sys.stdout) as handle:
        if cfg.format == "json":
            import json
            json.dump(output.data, handle, indent=2, default=_json)
            handle.write("\n")
        elif cfg.format == "csv":
            import csv
            csv.writer(handle).writerows(output.rows)
        else:
            lines = iter(output.lines)
            print(next(lines, ""), file=handle)  # an empty listing still prints one blank line
            for line in lines:
                print(line, file=handle)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = OutputConfig(format=args.format, precision=args.precision)
    try:
        output = args.run(args, cfg)
        _render(output, cfg, args.out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (`| head`). Point stdout at devnull so the
        # flush at interpreter exit cannot fail again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (DomainError, ValueError, OSError) as exc:
        if cfg.format == "json":
            import json
            envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            print(json.dumps(envelope), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if output.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
