"""Machine-readable errata ledger for the source text this library cross-checks.

Each entry records a formula or value as displayed in the source text, the
form this library derives and implements, and the independent oracle that
decided between them. Entries with kind "note" document ambiguities rather
than outright errors. The ledger is versioned data: downstream tooling may
rely on the ids staying stable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ErrataEntry", "ERRATA", "ERRATA_VERSION", "get_entry"]

ERRATA_VERSION = "1.0.0"


@dataclass(frozen=True)
class ErrataEntry:
    id: str
    section: str
    displayed: str
    derived: str
    oracle: str
    kind: str = "erratum"  # or "note"


ERRATA: tuple[ErrataEntry, ...] = (
    ErrataEntry(
        id="shift-companion-plus",
        section="Curiosidades de la ecuación cuadrática",
        displayed="roots+1 of x^2 + px - p solve x^2 - (2-p)x - (4p-1) = 0",
        derived="constant term is 1 - 2p: x^2 - (2-p)x + (1-2p) = 0",
        oracle="Vieta shift (sum+2k, product + k*sum + k^2) and exact root re-formation",
    ),
    ErrataEntry(
        id="shift-companion-minus",
        section="Curiosidades de la ecuación cuadrática",
        displayed="roots+1 of x^2 - px + p solve x^2 - (p+2)x + (4p+1) = 0",
        derived="constant term is 2p + 1: x^2 - (p+2)x + (2p+1) = 0",
        oracle="Vieta shift and exact root re-formation",
    ),
    ErrataEntry(
        id="phi-sixth-power",
        section="Observaciones sobre el número φ (propiedad 9)",
        displayed="φ^6 = 8φ + 3",
        derived="φ^6 = 8φ + 5",
        oracle="coefficient recurrence (a, b) -> (a+b, a) and exact exponentiation in Q(√5)",
    ),
    ErrataEntry(
        id="congruence-residue-sign",
        section="Teoría de congruencias",
        displayed="u = 2ax + b reduces the congruence to u^2 ≡ r with r = 4ac - b^2",
        derived="r = b^2 - 4ac: (2ax+b)^2 = 4a(ax^2+bx+c) + b^2 - 4ac",
        oracle="polynomial expansion plus brute-force solution sets mod small primes",
    ),
    ErrataEntry(
        id="case3-sum-5mod6",
        section="Fibonacci y Teoría de grupos, Caso III",
        displayed="for n = 5 + 6t the partial sum is -(x+1)/x (= x - 2)",
        derived="the partial sum is (x^5 - 1)/x = -1",
        oracle="exact accumulation of powers in Q(√-3)",
    ),
    ErrataEntry(
        id="case3-group-set-display",
        section="Fibonacci y Teoría de grupos, Caso III",
        displayed="{x^2,...,x^7} = {x^2, x^3, x^4, -x^2, -x^3, -x^5}",
        derived="-x^5 = x^2 duplicates an element and drops x^7 = x; "
        "the last member should be -x^4 (= x), giving all six 6th roots of unity",
        oracle="exact power enumeration in Q(√-3)",
    ),
    ErrataEntry(
        id="parabola-divisibility",
        section="Números perfectos",
        displayed="even values of x -> 2x^2 + 3x + 1 are divisible by 2^4 at least",
        derived="fails at f(1) = 6 = 2·3 and f(3) = 28 = 2^2·7",
        oracle="direct factorization of the first table rows",
    ),
    ErrataEntry(
        id="g-vs-h-naming",
        section="Números perfectos",
        displayed="'no integer n makes g(n) perfect' stated for g(x) = 2x^2 + 3x + 1",
        derived="the claim is about h(x) = 2x^2 + x; g(2^(p-1) - 1) IS perfect",
        oracle="preimage inversion: 1 + 8P square tests for h and for g",
    ),
    ErrataEntry(
        id="second-root-formula",
        section="Números perfectos (fórmula cuadrática repetida)",
        displayed="x2 = -(a·x1 + b)/2a",
        derived="x2 = -(a·x1 + b)/a (Vieta: x1 + x2 = -b/a)",
        oracle="Vieta sum on exact roots",
    ),
    ErrataEntry(
        id="perfect-table-x2-1023",
        section="Números perfectos (tabla)",
        displayed="row x1 = 1023 lists x2 = -2046/2",
        derived="x2 = -(3 + 2·1023)/2 = -2049/2",
        oracle="closed form and Vieta check against f(x) = 2x^2 + 3x + 1 - 2096128",
    ),
    ErrataEntry(
        id="two-e-phi-sum",
        section="Números perfectos (lista de constantes)",
        displayed="2(e + φ) = 6.67263163441788017072",
        derived="2(e + φ) = 8.67263163441788... (leading digit typo)",
        oracle="floating evaluation of 2(e + φ)",
    ),
    ErrataEntry(
        id="digital-root-80",
        section="p-números",
        displayed="a digit sum of 80 is assigned the root 0",
        derived="digital root of 80 is 8 (roots are 0 only for n = 0)",
        oracle="digital_root(n) ≡ n (mod 9) with the 9-for-0 convention",
    ),
    ErrataEntry(
        id="monic-formula-scope",
        section="Contenido",
        displayed="x = (-b ± √(b^2 - 4c))/2 offered as the quadratic formula",
        derived="valid for monic x^2 + bx + c only; general form divides by 2a",
        oracle="substitution into a generic non-monic quadratic",
        kind="note",
    ),
    ErrataEntry(
        id="metallic-4n1-scope",
        section="Números metálicos",
        displayed="table radicands have the form 4n + 1, except silver",
        derived="√8 canonicalizes to 2√2 (squarefree part 2); the 4n+1 claim "
        "holds for the x^2 - x - n normalization, not the raw table radicands",
        oracle="square-factor extraction",
        kind="note",
    ),
    ErrataEntry(
        id="trig-m-range",
        section="Relación entre el número áureo y pi",
        displayed="allowed m values for cos θ = Φ/2 listed as 0..9",
        derived="0, 1, 4, 9 are degenerate radicands; the usable set is {2,3,5,6,7,8}",
        oracle="radicand validity plus the feasibility bound (1 + √m)/4 <= 1",
        kind="note",
    ),
    ErrataEntry(
        id="fibonacci-indexing",
        section="Fibonacci y Teoría de grupos, Caso I",
        displayed="x^n = F_n x + F_{n-1} next to the recurrence seeded f_0 = f_1 = 1",
        derived="under those seeds the reduction is x^n = f_{n-1} x + f_{n-2} "
        "(the displayed form needs zero-based F_0 = 0, F_1 = 1)",
        oracle="exact exponentiation of φ against both indexings",
        kind="note",
    ),
)

_BY_ID = {entry.id: entry for entry in ERRATA}


def get_entry(entry_id: str) -> ErrataEntry:
    return _BY_ID[entry_id]
