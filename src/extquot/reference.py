"""Bundled reference tables and the regression diff engine.

The CSV fixtures under ``data/`` hold transcribed ground-truth values (Betti
tables for k = 1 and k = 2, the K-theory rank grid, the n = 6 complex
catalogs for all four k, the n = 16 worked cases, and the n = 6 real
orientability table).  They are checked in as plain text precisely so they
are reviewable, and they are never regenerated from the code they verify.

:func:`verify` diffs every cell of a table with what a command prints and
reports per-cell mismatches: the Betti and K-theory fixtures with the grids
of ``table``, every column of either, and the catalogs field by field with
the CSV rows of :func:`extquot.catalog.write`.  The property suites re-run
the cross-cutting identities (closed form vs. brute force, duality, Euler
characteristic, top Betti numbers).
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import catalog
from .complex_quotient import CyclicSingularity, canonical_singularity, component_count_from_gcd
from .numtheory import divisor_sigma, divisors, pillai, pillai_via_totient_table
from .partitions import Partition
from .topology import betti, betti_grid, betti_table, euler_characteristic, ktheory_grid, ktheory_table, top_betti

CATALOG_COLUMNS = ("partition", "omega_exponent", "omega_order", "x_card",
                   "torus_dim", "ambient_dim", "group_order", "weights")
SU6_COLUMNS = ("partition", "jg_vector", "m_minus_one_vector", "x_card", "orientable")
# Columns a fixture must have before any cell is compared.
REQUIRED_COLUMNS = {
    "betti_k1": ("n", "b_0"),
    "betti_k2": ("n", "b_0"),
    "ktheory": ("n", "1"),
    "sl6_catalogs": ("n", "k", *CATALOG_COLUMNS),
    "sl16_examples": ("n", "k", *CATALOG_COLUMNS),
    "su6_orientability": SU6_COLUMNS,
}
TABLE_IDS = tuple(REQUIRED_COLUMNS)  # in the order verify checks them
# The keys a fixture with rows must hold, each once: the n rows of the Betti
# tables, the (n, k) cells of the K-theory grid and the (n, k) row groups of
# the catalogs.  A fixture without rows fails as a table that compares nothing.
EXPECTED_KEYS = {
    "betti_k1": [(n,) for n in range(1, 46)],
    "betti_k2": [(n,) for n in range(2, 61, 2)],
    "ktheory": [(n, k) for n in range(2, 21) for k in range(1, 21)],
    "sl6_catalogs": [(6, k) for k in divisors(6)],
    "sl16_examples": [(16, 2), (16, 4), (16, 8)],
}
# The form of every cell that is read as a number or a partition.
CELL_PATTERNS = {
    "n": "[1-9][0-9]*",
    "k": "[1-9][0-9]*",
    "omega_exponent": "[0-9]+",
    "partition": r"[1-9][0-9]*(\+[1-9][0-9]*)*",
}


class FixtureError(ValueError):
    """A reference fixture is missing or empty, lacks a required column, has
    a row wider or narrower than its header or a malformed cell, or lacks,
    repeats or adds a key."""


@dataclass(frozen=True)
class Mismatch:
    location: str
    expected: str
    actual: str


@dataclass
class DiffReport:
    table_id: str
    cells_checked: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    def check(self, location: str, expected, actual) -> bool:
        """Count one compared cell; record a mismatch and return False when
        the values differ."""
        self.cells_checked += 1
        if expected != actual:
            self.mismatches.append(Mismatch(location, str(expected), str(actual)))
            return False
        return True

    @property
    def ok(self) -> bool:
        """No mismatches, and at least one cell was compared."""
        return self.cells_checked > 0 and not self.mismatches

    def summary(self) -> str:
        if self.mismatches:
            status = f"{len(self.mismatches)} mismatch(es)"
        else:
            status = "ok" if self.ok else "FAILED: nothing was compared"
        return f"{self.table_id}: {self.cells_checked} cells checked, {status}"


def fixture_path(table_id: str, fixture_dir: str | Path | None = None) -> Path:
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown reference table {table_id!r}")
    base = Path(fixture_dir) if fixture_dir is not None else Path(__file__).parent / "data"
    return base / f"{table_id}.csv"


def load_rows(table_id: str, fixture_dir: str | Path | None = None) -> list[dict[str, str]]:
    """The fixture's rows, after checking its header, that each row has a
    cell per column, the form of its number and partition cells and its
    keys; raises :class:`FixtureError` naming the table and the file."""
    path = fixture_path(table_id, fixture_dir)

    def error(problem: str) -> FixtureError:
        return FixtureError(f"reference table {table_id} ({path}): {problem}")

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            lines = [(reader.line_num, cells) for cells in reader if cells]
    except FileNotFoundError:
        raise error("no such file") from None
    if not header:
        raise error("the file is empty")
    for column in REQUIRED_COLUMNS[table_id]:
        if column not in header:
            raise error(f"missing column {column!r}")
    if len(set(header)) != len(header):
        raise error("a column name appears twice")
    if table_id == "ktheory" and not all(c == "n" or re.fullmatch(CELL_PATTERNS["k"], c) for c in header):
        raise error("every column but n must be a positive k")
    rows = []
    for line, cells in lines:
        if len(cells) != len(header):
            raise error(f"line {line}: {len(cells)} cells, but the header has {len(header)}")
        row = dict(zip(header, cells))
        for column, pattern in CELL_PATTERNS.items():
            if column in header and not re.fullmatch(pattern, row[column]):
                raise error(f"line {line}: malformed {column} cell {row[column]!r}")
        rows.append(row)
    if rows and table_id in EXPECTED_KEYS:
        if table_id == "ktheory":
            keys = [(int(row["n"]), int(c)) for row in rows for c in header if c != "n"]
        elif "k" in header:  # a catalog: one group of rows per (n, k)
            keys = list(dict.fromkeys((int(row["n"]), int(row["k"])) for row in rows))
        else:
            keys = [(int(row["n"]),) for row in rows]
        expected = EXPECTED_KEYS[table_id]
        surplus = Counter(keys)
        surplus.subtract(expected)
        for key, extra in surplus.items():
            if extra:
                label = " ".join(f"{name}={value}" for name, value in zip(("n", "k"), key))
                want = int(key in expected)
                raise error(f"{label} found {want + extra} times, expected {want}")
    return rows


def verify(table_id: str, *, fixture_dir: str | Path | None = None) -> DiffReport:
    """Recompute every cell of the table and diff it against the fixture."""
    rows = load_rows(table_id, fixture_dir)
    if table_id in ("betti_k1", "betti_k2", "ktheory"):
        max_n = max((int(row["n"]) for row in rows), default=0)
        if table_id == "ktheory":
            return _verify_grid(table_id, rows, ktheory_grid(ktheory_table(max_n)), "k=")
        return _verify_grid(table_id, rows, betti_grid(betti_table(max_n, 1 if table_id == "betti_k1" else 2)), "")
    if table_id in ("sl6_catalogs", "sl16_examples"):
        return _verify_catalog(table_id, rows)
    if table_id == "su6_orientability":
        return _verify_su6(table_id, rows)
    raise ValueError(f"unknown reference table {table_id!r}")


def _verify_grid(table_id, rows, grid, prefix) -> DiffReport:
    """Diff the fixture rows with ``grid``, the table as ``table`` prints it,
    row by row keyed by n: every column either side has is compared, and a
    cell one side lacks counts as blank.  A cell's location names its column
    after ``prefix``."""
    report = DiffReport(table_id)
    header, *lines = grid
    printed = {line[0]: dict(zip(header, line)) for line in lines}
    for row in rows:
        n = row["n"]
        cells = printed.get(n, {})
        for column in dict.fromkeys([*row, *header]):
            if column != "n":
                report.check(f"n={n} {prefix}{column}", row.get(column) or "", cells.get(column, ""))
    return report


def _printed_rows(form: str, n: int, k: int, partition: Partition | None = None) -> list[dict[str, str]]:
    """The CSV rows :func:`extquot.catalog.write` prints for the (n, k)
    catalog of ``form``, or for the rows of ``partition`` only, each a dict
    by printed column."""
    out = io.StringIO()
    catalog.write(out, form, n, k, "csv", partition)
    header, *lines = csv.reader(out.getvalue().splitlines())
    return [dict(zip(header, line)) for line in lines]


def _verify_catalog(table_id, rows) -> DiffReport:
    """Diff each (n, k) row group with the printed complex catalog, or with the
    rows of each listed partition, printed by the lookup path: x_card is the
    printed multiplicity, and weights are compared in canonical form."""
    report = DiffReport(table_id)
    groups: dict[tuple[int, int], list[dict[str, str]]] = {}
    for row in rows:
        groups.setdefault((int(row["n"]), int(row["k"])), []).append(row)
    for (n, k), expected_rows in groups.items():
        if table_id == "sl6_catalogs":
            printed = _printed_rows("complex", n, k)
        else:
            printed = [line for text in sorted({row["partition"] for row in expected_rows})
                       for line in _printed_rows("complex", n, k, Partition.from_parts(map(int, text.split("+"))))]
            expected_rows = sorted(expected_rows, key=lambda r: (r["partition"], int(r["omega_exponent"])))
        if not report.check(f"n={n} k={k} row count", len(expected_rows), len(printed)):
            continue
        for idx, (row, line) in enumerate(zip(expected_rows, printed)):
            singularity = CyclicSingularity(int(line["ambient_dim"]), int(line["group_order"]),
                                            tuple(map(int, line["weights"].split())))
            actual = {**line, "x_card": line["multiplicity"],
                      "weights": " ".join(map(str, canonical_singularity(singularity).weights))}
            for name in CATALOG_COLUMNS:
                report.check(f"n={n} k={k} row {idx} {name}", row[name], actual[name])
    return report


def _verify_su6(table_id, rows) -> DiffReport:
    """Diff the table with the printed real (6, 1) catalog: the m - 1 vector
    is its fiber simplex dimensions, orientability its one flag column, and
    the j/g vector is read from its printed parts."""
    report = DiffReport(table_id)
    printed = _printed_rows("real", 6, 1)
    if not report.check("row count", len(rows), len(printed)):
        return report
    (flag,) = catalog.FORMS["real"].flag_names
    for idx, (row, line) in enumerate(zip(rows, printed)):
        parts = [int(j) for j in dict.fromkeys(line["partition"].split("+"))]
        g = math.gcd(*parts)
        actual = {
            "partition": line["partition"],
            "jg_vector": " ".join(str(j // g) for j in parts),
            "m_minus_one_vector": line["fiber_simplex_dims"],
            "x_card": line["multiplicity"],
            "orientable": line[flag].capitalize(),
        }
        for name in SU6_COLUMNS:
            report.check(f"row {idx} {name}", row[name], actual[name])
    return report


# ---------------------------------------------------------------------------
# Property suites: cross-cutting identities re-checked over ranges of n.


def _count_by_omega(g: int, n: int, k: int) -> int:
    """The number of components of a partition of n with part-gcd g in the
    (n, k) quotient, by definition: the sum over omega_e = zeta_h^e for
    e < h = gcd(g, k) of gcd(g / |omega_e|, n/k)."""
    h = math.gcd(g, k)
    return sum(math.gcd(g // (h // math.gcd(h, e)), n // k) for e in range(h))


def property_oracle_equivalence(max_n: int = 40) -> DiffReport:
    """Closed-form component counts vs. the brute-force sum over omega.

    Both sides depend on a partition only through the gcd of its parts, so
    each partition of each n is covered by checking its gcd class.  The part
    gcds of the partitions of n are exactly the divisors of n: n/g copies of
    g have gcd g.
    """
    report = DiffReport("oracle_equivalence")
    for n in range(1, max_n + 1):
        for k in divisors(n):
            for g in divisors(n):
                report.check(f"n={n} k={k} g={g}", _count_by_omega(g, n, k), component_count_from_gcd(g, n, k))
    return report


def property_pillai(max_a: int = 10000) -> DiffReport:
    """pillai(a), the multiplicative closed form, against Pillai's identity
    sum over d | a of d * phi(a/d), for a up to max_a.  The identity is read
    from one in-place totient sieve, :func:`pillai_via_totient_table`, not
    summed per a over trial-divided divisors and totients."""
    report = DiffReport("pillai_equivalence")
    identity = pillai_via_totient_table(max_a)
    for a in range(1, max_a + 1):
        report.check(f"a={a}", pillai(a), identity[a])
    return report


def property_duality(max_n: int = 30) -> DiffReport:
    """Betti vectors and per-gcd component counts invariant under k <-> n/k.

    The counts are the sums over omega that define them, not the closed form,
    which is symmetric in k and n/k as written."""
    report = DiffReport("duality")
    for n in range(1, max_n + 1):
        ks = divisors(n)
        counts = {(g, k): _count_by_omega(g, n, k) for g in ks for k in ks}
        for k in ks:
            report.check(f"betti n={n} k={k}", betti(n, n // k).ranks, betti(n, k).ranks)
            for g in ks:
                report.check(f"count n={n} k={k} g={g}", counts[g, n // k], counts[g, k])
    return report


def property_euler_divisor(max_n: int = 45) -> DiffReport:
    """Euler characteristic at k = 1 equals the divisor sum."""
    report = DiffReport("euler_divisor_sum")
    for n in range(1, max_n + 1):
        report.check(f"n={n}", divisor_sigma(n), euler_characteristic(n, 1))
    return report


def property_top_betti(max_n: int = 45) -> DiffReport:
    """Closed-form top degree and rank agree with the Betti vector's last entry."""
    report = DiffReport("top_betti")
    for n in range(1, max_n + 1):
        vector = betti(n, 1)
        report.check(f"n={n}", (vector.top_degree, vector.ranks[-1]), top_betti(n))
    return report


PROPERTY_SUITES = {
    "oracle_equivalence": property_oracle_equivalence,
    "pillai_equivalence": property_pillai,
    "duality": property_duality,
    "euler_divisor_sum": property_euler_divisor,
    "top_betti": property_top_betti,
}
