"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see them. One ``run_all("full")``
runs every check; criterion N reads the rows of ``verify.CHECKS`` tagged N,
whose full-scale arguments and the checks' defaults hold its bounds, sample
counts and seeds. A broken identity prints FAIL with ``CheckFailed`` at its
``verify.py`` line and operands; so does a missed time limit or CSV row count.
"""

import csv

import pytest

from quadratica import errata, goldbach, verify


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Every check at full scale, with the Goldbach scan routed through the CSV writer."""
    path = tmp_path_factory.mktemp("goldbach") / "goldbach_minimal_I.csv"
    scan = goldbach.verify_range
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(goldbach, "verify_range", lambda stop: scan(stop, csv_path=str(path)))
        return verify.run_all("full"), path


def criterion(number: int, description: str, limit: float = float("inf")):
    """The test of one criterion: its rows' checks passed, within `limit` seconds in all."""

    def test(full_run):
        results, path = full_run
        rows = [(row, result) for row, result in zip(verify.CHECKS, results) if row.criterion == number]
        elapsed = sum(result.elapsed for _, result in rows)
        ids = {entry.id for entry in errata.ERRATA}
        ok = bool(rows) and elapsed < limit and all(result.ok and set(row.errata) <= ids for row, result in rows)
        details = "; ".join(result.detail for _, result in rows)
        if number == 5:
            with open(path, newline="") as handle:
                reader = csv.reader(handle)
                header, count = next(reader), sum(1 for _ in reader)
            stop = rows[0][0].full[0]  # the scan's bound
            ok = ok and header == ["N", "I_min", "p", "q"] and count == (stop - 4) // 2 + 1
            details += f", CSV {count} rows"
        print(f"[ACCEPTANCE {number:>2}] {'PASS' if ok else 'FAIL'} - {description}: {details} ({elapsed:.3f}s)")
        assert ok, f"criterion {number}: {description}: {details}"

    return test


test_criterion_01_perfect_table = criterion(1, "perfect-number table", limit=1.0)
test_criterion_02_parabola_constants = criterion(2, "vertex, areas 1/24 + 5/24 = 1/4, constants, chord geometry")
test_criterion_03_metallic_table = criterion(3, "metallic means sigma_{p,q} exact")
test_criterion_04_group_structure = criterion(4, "unit groups, full Cayley checks", limit=1.0)
test_criterion_05_goldbach_range = criterion(5, "every even N has a Goldbach witness", limit=60.0)
test_criterion_06_congruence = criterion(6, "sqrt_mod == brute force, 4t+1 criterion, two squares")
test_criterion_07_fibonacci_ledger = criterion(7, "phi^n = F_n phi + F_{n-1}, properties 1-8, phi^6 erratum")
test_criterion_08_shift_companions = criterion(8, "Vieta, four-family roots, shift companions, errata present")
test_criterion_09_platonic_identity = criterion(9, "V = A*apothem/3 for all five solids, exact")
test_criterion_10_goldbach_areas = criterion(10, "A_s/A_r/A_t exact with ratios 3/2, 2, 4/3; 169 = 13^2, 193 prime")
test_criterion_11_residue_tables = criterion(11, "Case III/IV residue tables exact")
test_criterion_12_field_axiom_suite = criterion(12, "field axioms + norm multiplicativity")
