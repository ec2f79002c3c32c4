"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Each criterion calls the matching checks in
:mod:`quadratica.verify`, which hold the expected tables, constants and
brute-force oracles; the bounds, sample counts, seeds and time limits are
pinned here in the calls. Exact means exact (Fraction/QuadElem equality),
and the numeric tolerances are the stated 1e-3 / 1e-6 / 1e-12.

A check whose identity breaks raises ``verify.CheckFailed`` at that line of
``verify.py``, naming the operands, so its criterion fails there with no
PASS/FAIL line; a criterion's own bound (a time limit, a row count) prints
FAIL.
"""

import csv
import time

from quadratica import goldbach, verify


def report(number: int, description: str, *details: str, ok: bool = True):
    """Print the criterion verdict; pytest's assert does the failing.

    The checks have run by now: each returned its detail string or raised.
    """
    ok = ok and all(details)
    print(f"[ACCEPTANCE {number:>2}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def timed(check, *args) -> tuple[str, float]:
    start = time.perf_counter()
    detail = check(*args)
    return detail, time.perf_counter() - start


def test_criterion_01_perfect_table():
    detail, elapsed = timed(verify.check_perfect_table)
    report(1, f"perfect-number table, 8 rows both directions in {elapsed:.3f}s", detail, ok=elapsed < 1.0)


def test_criterion_02_parabola_constants():
    description = "vertex (-3/4, -1/8), areas 1/24 + 5/24 = 1/4, irrational constants, chord geometry"
    report(2, description, verify.check_areas_and_constants(), verify.check_difference_identity(500))


def test_criterion_03_metallic_table():
    report(3, "metallic means sigma_{1..4,1} exact", verify.check_metallic_table())


def test_criterion_04_group_structure():
    detail, elapsed = timed(verify.check_unit_groups)
    report(4, f"unit groups of order 6 and 3, full Cayley checks in {elapsed:.3f}s", detail, ok=elapsed < 1.0)


def test_criterion_05_goldbach_range(tmp_path, monkeypatch):
    # the check runs the one 10^6 scan; route it through the CSV writer
    path = tmp_path / "goldbach_minimal_I.csv"
    scan = goldbach.verify_range
    monkeypatch.setattr(goldbach, "verify_range", lambda stop: scan(stop, csv_path=str(path)))
    detail, elapsed = timed(verify.check_goldbach_range, 1_000_000)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = sum(1 for _ in reader)
    ok = header == ["N", "I_min", "p", "q"] and rows == (1_000_000 - 4) // 2 + 1 and elapsed < 60.0
    report(5, f"all even N in [4, 10^6] have witnesses ({elapsed:.1f}s, CSV {rows} rows)", detail, ok=ok)


def test_criterion_06_congruence():
    description = "two-squares examples, sqrt_mod == brute force p < 2000, 4t+1 criterion p < 10^5"
    report(6, description, verify.check_sqrt_mod_exhaustive(2000), verify.check_four_t_plus_one(100_000))


def test_criterion_07_fibonacci_ledger():
    description = "phi^n = F_n phi + F_{n-1} to n=90, properties 1-8, phi^6 erratum ledgered"
    report(7, description, verify.check_power_reduction(90), verify.check_phi_ledger(90))


def test_criterion_08_shift_companions():
    description = "10^4 random shift trials match x^2-(p+2k)x+(k^2+pk+q); errata present; four-family roots"
    report(8, description, verify.check_shift_companion(10_000, seed=808), verify.check_vieta_substitution(200))


def test_criterion_09_platonic_identity():
    report(9, "V = A*apothem/3 for all five solids, exact", verify.check_geometry())


def test_criterion_10_goldbach_areas():
    description = "A_s/A_r/A_t exact with ratios 3/2, 2, 4/3 on 10^3 pairs; 169 = 13^2, 193 prime"
    report(10, description, verify.check_goldbach_areas(1000, seed=1010))


def test_criterion_11_residue_tables():
    report(11, "Case III/IV residue tables exact for all n <= 200", verify.check_partial_sums(200))


def test_criterion_12_field_axiom_suite():
    detail = verify.check_field_axioms(samples=10_000)
    report(12, f"field axioms + norm multiplicativity: {detail}", detail)
