"""Output checks for the benchmark's commands.

Each check recomputes what it needs with the benchmark's own arithmetic
(partition enumeration, gcds, divisor sums, cell counts of the fixture files)
and raises :class:`CheckFailed` on the first discrepancy.  Nothing is compared
against a stored copy of earlier output.  :func:`judge` turns any exception a
check raises, including one from malformed output, into a failure, so a check
never passes on output it could not read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from functools import reduce
from pathlib import Path

# The five property suites of `verify all`, as named in its JSON report.
PROPERTY_SUITES = (
    "oracle_equivalence",
    "pillai_equivalence",
    "duality",
    "euler_divisor_sum",
    "top_betti",
)
# Columns of the fixture files that locate a row rather than hold a value.
KEY_COLUMNS = ("n", "k")


class CheckFailed(Exception):
    """An output disagrees with what the benchmark computed for it."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def judge(returncode: int, stdout: bytes, check) -> str | None:
    """The reason a command failed, or None when it exited 0 and passed ``check``."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        check(stdout)
    except Exception as exc:  # malformed output fails like a wrong value
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# The benchmark's own arithmetic.


def partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n >= 1, each as an ascending tuple of parts."""
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(remaining: int, smallest: int) -> None:
        # The next part is at least `smallest`; unless it is the last part,
        # what is left after it must admit a part at least as large.
        for part in range(smallest, remaining // 2 + 1):
            prefix.append(part)
            extend(remaining - part, part)
            prefix.pop()
        if remaining >= smallest:
            out.append((*prefix, remaining))

    extend(n, 1)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def part_gcd(parts) -> int:
    return reduce(math.gcd, parts)


def multiplicities(parts) -> list[int]:
    """Multiplicity of each distinct part, by increasing part."""
    counts = Counter(parts)
    return [counts[p] for p in sorted(counts)]


def omega_order(h: int, exponent: int) -> int:
    return h // math.gcd(h, exponent)


def component_total(parts, n: int, k: int) -> int:
    """Sum over omega in C_gcd(g, k) of gcd(g / |omega|, n / k), by brute force."""
    g = part_gcd(parts)
    h = math.gcd(g, k)
    return sum(math.gcd(g // omega_order(h, e), n // k) for e in range(h))


def parse_plus(text: str) -> tuple[int, ...]:
    """Parts of a partition printed as "1+1+2"."""
    parts = tuple(int(p) for p in text.split("+"))
    require(all(p >= 1 for p in parts), f"partition {text!r} has a part below 1")
    return parts


def fixture_cells(fixture_dir: Path) -> dict[str, int]:
    """Value cells per fixture file: data rows times non-key columns."""
    cells = {}
    for path in sorted(fixture_dir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
        header = rows[0] if rows else []
        values = [c for c in header if c not in KEY_COLUMNS]
        cells[path.stem] = len(values) * max(len(rows) - 1, 0)
    return cells


# ---------------------------------------------------------------------------
# Checks on command output.


def _int(row: dict, key: str) -> int:
    value = row[key]
    require(type(value) is int, f"{key} is {value!r}, not an integer")
    return value


def check_complex_row(row: dict, n: int, k: int) -> None:
    """One complex component against the invariants of its partition."""
    parts = tuple(row["partition"])
    require(all(type(p) is int and p >= 1 for p in parts), f"bad partition {parts}")
    require(list(parts) == sorted(parts) and sum(parts) == n, f"{parts} is no partition of {n}")
    g = part_gcd(parts)
    b = len(set(parts))
    h = math.gcd(g, k)
    exponent = _int(row, "omega_exponent")
    require(0 <= exponent < h, f"{parts}: omega exponent {exponent} outside 0..{h - 1}")
    order = omega_order(h, exponent)
    require(_int(row, "omega_order") == order, f"{parts}: omega order is not {order}")
    require(_int(row, "torus_dim") == b - 1, f"{parts}: torus_dim is not b - 1 = {b - 1}")
    mult = math.gcd(g // order, n // k)
    require(_int(row, "multiplicity") == mult, f"{parts} e={exponent}: multiplicity is not {mult}")
    sing = row["singularity"]
    ambient = len(parts) - b
    require(_int(sing, "ambient_dim") == ambient, f"{parts}: ambient_dim is not c - b = {ambient}")
    d = math.gcd(reduce(math.gcd, multiplicities(parts)), k // order)
    require(_int(sing, "group_order") == d, f"{parts} e={exponent}: group_order is not {d}")
    weights = sing["weights"]
    require(len(weights) == ambient, f"{parts}: {len(weights)} weights for ambient_dim {ambient}")
    require(all(type(w) is int and 0 <= w < d for w in weights), f"{parts}: weight outside [0, {d})")


def _complex_catalog(stdout: bytes, n: int, k: int) -> list[dict]:
    data = json.loads(stdout)
    require((data["n"], data["k"], data["form"]) == (n, k, "complex"), "wrong catalog header")
    rows = data["entries"]
    for row in rows:
        check_complex_row(row, n, k)
    keys = {(tuple(row["partition"]), row["omega_exponent"]) for row in rows}
    require(len(keys) == len(rows), "a (partition, omega) pair is listed twice")
    return rows


def check_complex_catalog(stdout: bytes, n: int, k: int) -> None:
    """The full complex catalog: every partition with gcd(g, k) rows, and the
    multiplicities summing to the brute-force component count."""
    rows = _complex_catalog(stdout, n, k)
    mus = partitions(n)
    expected = Counter({mu: math.gcd(part_gcd(mu), k) for mu in mus})
    require(Counter(tuple(row["partition"]) for row in rows) == expected,
            f"{len(rows)} rows, expected gcd(g(mu), {k}) rows for each partition mu")
    total = sum(row["multiplicity"] for row in rows)
    expected_total = sum(component_total(mu, n, k) for mu in mus)
    require(total == expected_total, f"multiplicities sum to {total}, expected {expected_total}")


def check_lookup(stdout: bytes, n: int, k: int, mu: tuple[int, ...]) -> None:
    """`decompose --partition mu`: exactly the gcd(g(mu), k) rows of mu."""
    rows = _complex_catalog(stdout, n, k)
    h = math.gcd(part_gcd(mu), k)
    require(len(rows) == h, f"{len(rows)} rows for {mu}, expected {h}")
    require(all(tuple(row["partition"]) == mu for row in rows), f"a row is not for {mu}")


def check_component(stdout: bytes, lookup_stdout: bytes, n: int, k: int, exponent: int) -> None:
    """`component`: one valid row, equal to the matching `decompose` row."""
    row = json.loads(stdout)
    check_complex_row(row, n, k)
    match = [r for r in json.loads(lookup_stdout)["entries"] if r["omega_exponent"] == exponent]
    require(match == [row], f"component differs from the decompose row with exponent {exponent}")


def check_real_catalog_k1(stdout: bytes, n: int) -> None:
    """The k = 1 real catalog as CSV: one row per partition, fibres of
    simplices of dimension m_j - 1, and the point components summing to
    the divisor sum sigma(n), the Euler characteristic at k = 1."""
    rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8"))))
    seen = Counter(parse_plus(row["partition"]) for row in rows)
    require(seen == Counter(partitions(n)), "rows are not one per partition")
    points = 0
    for row in rows:
        parts = parse_plus(row["partition"])
        g, b, mults = part_gcd(parts), len(set(parts)), multiplicities(parts)
        ints = {key: int(row[key]) for key in (
            "omega_exponent", "omega_order", "torus_dim", "multiplicity", "ambient_dim", "group_order")}
        require(ints["omega_exponent"] == 0 and ints["omega_order"] == 1, f"{parts}: omega is not 1")
        require(ints["torus_dim"] == b - 1, f"{parts}: torus_dim is not b - 1")
        require(ints["multiplicity"] == math.gcd(g, n), f"{parts}: multiplicity is not gcd(g, n)")
        require(ints["ambient_dim"] == len(parts) - b, f"{parts}: ambient_dim is not c - b")
        require(ints["group_order"] == 1, f"{parts}: group_order is not 1 at k = 1")
        require(row["weights"].split() == ["0"] * (len(parts) - b), f"{parts}: weights are not zero")
        require(row["fiber_simplex_dims"].split() == [str(m - 1) for m in mults],
                f"{parts}: fiber_simplex_dims are not m_j - 1")
        require(row["join_counts"].split() == [str(m) for m in mults], f"{parts}: join_counts are not m_j")
        if ints["torus_dim"] == 0:
            points += ints["multiplicity"]
    sigma = sum(divisors(n))
    require(points == sigma, f"point components sum to {points}, expected sigma({n}) = {sigma}")


def check_duality(stdout: bytes, n: int) -> None:
    """One record per divisor k, each agreeing with its dual n/k."""
    records = json.loads(stdout)
    require(sorted(r["k"] for r in records) == divisors(n), "records are not one per divisor")
    by_k = {r["k"]: r for r in records}
    for k, r in by_k.items():
        require(r["n"] == n and r["k_dual"] == n // k, f"k={k}: wrong n or k_dual")
        require(r["betti_equal"] is True and r["counts_equal"] is True, f"k={k}: duality fails")
        diffs = r["singularity_differences"]
        require(diffs == by_k[n // k]["singularity_differences"], f"k={k}: differences not symmetric")
        require(k * k != n or diffs == [], f"self-dual k={k} lists differences")
        for text in diffs:
            require(sum(parse_plus(text)) == n, f"k={k}: {text} does not sum to {n}")


def check_verify_all(stdout: bytes, fixture_dir: Path) -> None:
    """`verify all`: clean, every fixture cell covered, every suite nonempty."""
    payload = json.loads(stdout)
    require(payload["suite"] == "all" and payload["ok"] is True, "verification not clean")
    reports = {r["table"]: r for r in payload["reports"]}
    require(len(reports) == len(payload["reports"]), "a table is reported twice")
    for name, report in reports.items():
        require(report["mismatches"] == [], f"{name}: mismatches reported")
        require(_int(report, "cells_checked") > 0, f"{name}: 0 cells checked")
    cells = fixture_cells(fixture_dir)
    require(cells, f"no fixture files in {fixture_dir}")
    for name, count in cells.items():
        require(name in reports, f"table {name} not verified")
        checked = reports[name]["cells_checked"]
        require(checked >= count, f"{name}: {checked} cells checked, fixture holds {count}")
    for name in PROPERTY_SUITES:
        require(name in reports, f"property suite {name} not run")
