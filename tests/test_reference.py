import csv
import shutil
from pathlib import Path

import pytest

from extquot import catalog, complex_quotient, numtheory, real_quotient, reference

FAST_TABLES = ("betti_k1", "ktheory", "sl6_catalogs", "sl16_examples", "su6_orientability")


@pytest.mark.parametrize("table_id", FAST_TABLES)
def test_verify_clean(table_id):
    report = reference.verify(table_id)
    assert report.ok, report.mismatches
    assert report.cells_checked > 0


@pytest.mark.parametrize("table_id", ["sl6_catalogs", "sl16_examples"])
def test_catalogs_are_diffed_with_the_printed_rows(monkeypatch, table_id):
    """A fault in the strata the catalog writer prints is a mismatch in the
    x_card column: the catalogs are checked through the command's own path."""
    strata = complex_quotient.strata
    monkeypatch.setattr(catalog, "strata",
                        lambda inv, n, k: [s._replace(multiplicity=s.multiplicity + 1) for s in strata(inv, n, k)])
    report = reference.verify(table_id)
    assert report.mismatches
    assert {m.location.rsplit(" ", 1)[1] for m in report.mismatches} == {"x_card"}


def test_orientability_is_read_from_the_printed_rule(monkeypatch):
    """Negating the rule the real catalog prints makes every row of the
    orientability table a mismatch in its orientable column."""
    rule = real_quotient.orientable_k1
    monkeypatch.setattr(real_quotient, "orientable_k1", lambda g, runs: not rule(g, runs))
    report = reference.verify("su6_orientability")
    assert [m.location for m in report.mismatches] == [f"row {i} orientable" for i in range(11)]


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        reference.verify("nosuchtable")


def test_fixture_rows_are_rectangular():
    for table_id in reference.TABLE_IDS:
        with open(reference.fixture_path(table_id), newline="") as fh:
            rows = list(csv.reader(fh))
        width = len(rows[0])
        assert all(len(row) == width for row in rows), table_id


def _perturbed_fixture_dir(tmp_path: Path, table_id: str, mutate) -> Path:
    for other in reference.TABLE_IDS:
        shutil.copy(reference.fixture_path(other), tmp_path / f"{other}.csv")
    path = tmp_path / f"{table_id}.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    mutate(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return tmp_path


def test_fault_injection_betti(tmp_path):
    """A single corrupted cell is reported with its coordinates."""

    def flip(rows):
        assert rows[6][0] == "6" and rows[6][1] == "20"
        rows[6][1] = "21"

    fixture_dir = _perturbed_fixture_dir(tmp_path, "betti_k1", flip)
    report = reference.verify("betti_k1", fixture_dir=fixture_dir)
    assert len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert mismatch.location == "n=6 b_0"
    assert (mismatch.expected, mismatch.actual) == ("21", "20")


def test_fault_injection_orientability(tmp_path):
    def flip(rows):
        row = next(r for r in rows if r[0] == "1+1+2+2")
        assert row[-1] == "No"
        row[-1] = "Yes"

    fixture_dir = _perturbed_fixture_dir(tmp_path, "su6_orientability", flip)
    report = reference.verify("su6_orientability", fixture_dir=fixture_dir)
    assert [m.location for m in report.mismatches] == ["row 8 orientable"]


def test_property_suites_small_ranges():
    assert reference.property_oracle_equivalence(16).ok
    assert reference.property_duality(12).ok
    assert reference.property_euler_divisor(20).ok
    assert reference.property_top_betti(20).ok
    assert reference.property_pillai(500).ok


def test_property_pillai_runs_no_per_a_totient(monkeypatch):
    """Pillai's identity is read from one sieve: no trial-division totient
    or divisor list is made for any a."""
    calls = []

    def counted(fn):
        return lambda n: calls.append(fn.__name__) or fn(n)

    for name in ("totient", "divisors"):
        monkeypatch.setattr(numtheory, name, counted(getattr(numtheory, name)))
    monkeypatch.setattr(reference, "divisors", numtheory.divisors)
    report = reference.property_pillai(10_000)
    assert report.ok and report.cells_checked == 10_000
    assert calls == []


def test_diff_report_summary_text():
    report = reference.DiffReport("demo", cells_checked=3)
    assert "ok" in report.summary()
    report.mismatches.append(reference.Mismatch("here", "1", "2"))
    assert "1 mismatch" in report.summary()


def test_report_that_checks_no_cells_is_not_ok():
    report = reference.DiffReport("demo")
    assert not report.ok
    assert report.summary() == "demo: 0 cells checked, FAILED: nothing was compared"


@pytest.mark.parametrize("table_id", reference.TABLE_IDS)
def test_missing_required_column_is_a_fixture_error(tmp_path, table_id):
    column = reference.REQUIRED_COLUMNS[table_id][-1]

    def rename(rows):
        rows[0][rows[0].index(column)] = column + "_renamed"

    fixture_dir = _perturbed_fixture_dir(tmp_path, table_id, rename)
    with pytest.raises(reference.FixtureError, match=f"{table_id}.*missing column '{column}'"):
        reference.verify(table_id, fixture_dir=fixture_dir)
