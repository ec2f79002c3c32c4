"""The check table in `verify`: rows unique, criteria covered, errata ids owned, arguments bound."""

import inspect
from collections import Counter
from pathlib import Path

import pytest

from quadratica import verify
from quadratica.errata import ERRATA


def test_rows_are_unique():
    pairs = [(row.module, row.name) for row in verify.CHECKS]
    assert len(pairs) == len(set(pairs))


def test_every_criterion_tags_a_row():
    assert {row.criterion for row in verify.CHECKS} - {None} == set(range(1, 13))


def test_every_erratum_is_decided_by_exactly_one_row():
    named = Counter(entry_id for row in verify.CHECKS for entry_id in row.errata)
    assert set(named) == {entry.id for entry in ERRATA}
    assert set(named.values()) == {1}


@pytest.mark.parametrize("row", verify.CHECKS, ids=lambda row: f"{row.module}.{row.name}")
def test_arguments_bind_at_both_scales(row):
    assert row.check.startswith("check_")
    signature = inspect.signature(getattr(verify, row.check))
    signature.bind(*row.quick)
    signature.bind(*row.full)


def test_arguments_that_do_not_bind_fail_one_check_at_its_call(monkeypatch):
    monkeypatch.setattr(verify, "check_unit_groups", lambda n: "unreached")
    results = verify.run_all("quick")
    failed = [result for result in results if not result.ok]
    source = Path(verify.__file__).read_text().splitlines()
    line = next(number for number, text in enumerate(source, 1) if "globals()[row.check]" in text)
    assert len(results) == len(verify.CHECKS)
    assert [(result.module, result.name) for result in failed] == [("fibgroup", "unit-groups")]
    assert failed[0].detail.startswith("TypeError: ")
    assert failed[0].detail.endswith(f"(at verify.py:{line})")
