"""Command-line front end.

Commands: decompose, betti, ktheory, euler, table, duality, verify,
component.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error, a full catalog of more than MAX_CATALOG_ROWS rows, a duality
report over more than MAX_CATALOG_ROWS partitions, or a reference fixture
that is missing, empty or lacks a required column.  Output is deterministic
across runs.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterator

import click

from . import complex_quotient, reference, topology
from .complex_quotient import ComplexComponent, QuotientCatalog, catalog_rows, partition_components
from .numtheory import divisors
from .partitions import Partition, partition_count
from .real_quotient import RealComponent
from .topology import betti, duality_report, euler_characteristic, ktheory_ranks, render_grid

FORMS = {"complex": ComplexComponent, "real": RealComponent}
# A full catalog is held in memory before it is printed, at several KB per
# row, and a duality report holds a line per partition of n; larger ones are
# refused.  Single-partition lookups are not limited.
MAX_CATALOG_ROWS = 1_000_000


def _check_arguments(n: int, k: int, partition: Partition | None = None) -> None:
    """Reject a k that does not divide n, or a partition that does not sum to n."""
    if n < 1 or k < 1 or n % k != 0:
        raise click.UsageError(f"k={k} must divide n={n}")
    if partition is not None and partition.n != n:
        raise click.UsageError(f"partition {partition.run_length_str()} sums to {partition.n}, not n={n}")


def parse_partition(text: str) -> Partition:
    """Parse "1+1+2+2", "4,4,4,4" or run-length "2^2,4^1" syntax.

    Runs are kept as (part, multiplicity) pairs and never expanded, so a
    huge multiplicity costs nothing before the sum is checked.
    """
    runs: Counter[int] = Counter()
    for token in text.replace("+", ",").split(","):
        token = token.strip()
        base, _, mult = token.partition("^")
        try:
            j = int(base)
            m = int(mult) if mult else 1
        except ValueError:
            raise click.UsageError(f"malformed partition {text!r}") from None
        if j < 1 or m < 1:
            raise click.UsageError(f"malformed partition {text!r}")
        runs[j] += m
    return Partition(sum(j * m for j, m in runs.items()), tuple(sorted(runs.items())))


def _omega_str(entry, k: int) -> str:
    exponent = entry.omega.zeta_exponent(k)
    return "1" if exponent == 0 else f"z^{exponent}"


def _variety_str(entry) -> str:
    pieces = []
    if entry.torus_dim > 0:
        pieces.append(f"C*^{entry.torus_dim}")
    s = entry.singularity
    if s.ambient_dim > 0:
        piece = f"A^{s.ambient_dim}"
        if s.group_order > 1:
            piece += f"/C_{s.group_order}({','.join(str(w) for w in s.weights)})"
        pieces.append(piece)
    return " x ".join(pieces) if pieces else "A^0"


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _catalog_grid(catalog: QuotientCatalog) -> list[list[str]]:
    if catalog.form == "complex":
        rows = [["mu", "omega", "X", "variety"]]
        for entry in catalog.entries:
            rows.append([str(entry.partition), _omega_str(entry, catalog.k), str(entry.multiplicity),
                         _variety_str(entry)])
        return rows
    rows = [["mu", "omega", "X", "base", "fiber dims", "C_d", "joins", "fiber action preserves orientation"]]
    if catalog.k == 1:
        rows[0].append("bundle orientable")
    for entry in catalog.entries:
        cells = [
            str(entry.partition),
            _omega_str(entry, catalog.k),
            str(entry.multiplicity),
            f"T^{entry.torus_dim}",
            ",".join(str(d) for d in entry.fiber_simplex_dims),
            str(entry.cyclic_order),
            ",".join(str(c) for c in entry.join_counts),
            _flag(entry.action_orientation_preserving),
        ]
        if catalog.k == 1:
            cells.append(_flag(entry.bundle_orientable))
        rows.append(cells)
    return rows


def _catalog_csv_rows(catalog: QuotientCatalog) -> Iterator[list]:
    """A header, then each entry's ``to_dict`` as CSV cells with the
    singularity's fields in its place."""
    for i, entry in enumerate(catalog.entries):
        fields = {}
        for key, value in entry.to_dict().items():
            for name, v in value.items() if key == "singularity" else [(key, value)]:
                if isinstance(v, list):
                    v = " ".join(map(str, v))
                fields[name] = _flag(v) if isinstance(v, bool) else v
        fields["partition"] = str(entry.partition)
        if i == 0:
            yield list(fields)
        yield list(fields.values())


@click.group()
@click.version_option()
def main() -> None:
    """Extended-quotient calculator for the tori of SL_n(C)/C_k and SU_n(C)/C_k."""


@main.command()
@click.option("--n", type=int, required=True, help="rank parameter n")
@click.option("--k", type=int, default=1, show_default=True, help="divisor of n")
@click.option("--form", type=click.Choice(["complex", "real"]), default="complex", show_default=True)
@click.option("--partition", "partition_text", default=None, help="restrict to one partition of n")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "markdown"]), default="markdown", show_default=True)
@click.pass_context
def decompose(ctx: click.Context, n: int, k: int, form: str, partition_text: str | None, fmt: str) -> None:
    """Print the component catalog of the (n, k) extended quotient."""
    partition = parse_partition(partition_text) if partition_text else None
    _check_arguments(n, k, partition)
    if partition is None and (rows := catalog_rows(n, k)) > MAX_CATALOG_ROWS:
        click.echo(f"Error: the (n={n}, k={k}) catalog has {rows:,} rows, more than the "
                   f"{MAX_CATALOG_ROWS:,} a full catalog may print; use --partition", err=True)
        ctx.exit(2)
    if partition is not None:
        entries = tuple(partition_components(FORMS[form], partition, n, k))
        catalog = QuotientCatalog(n=n, k=k, form=form, entries=entries)
    else:
        catalog = complex_quotient.decompose(FORMS[form], n, k)
    if fmt == "json":
        click.echo(json.dumps(catalog.to_json_dict(), indent=2))
    else:
        grid = _catalog_csv_rows(catalog) if fmt == "csv" else _catalog_grid(catalog)
        click.echo(render_grid(grid, fmt), nl=False)


@main.command(name="betti")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def betti_cmd(n: int, k: int, fmt: str) -> None:
    """Print the Betti vector b_0 .. b_D for (n, k)."""
    _check_arguments(n, k)
    vector = betti(n, k)
    if fmt == "json":
        click.echo(json.dumps({"n": n, "k": k, "betti": list(vector.ranks)}))
    else:
        click.echo(" ".join(str(r) for r in vector.ranks))


@main.command(name="ktheory")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def ktheory_cmd(n: int, k: int, fmt: str) -> None:
    """Print the K0 and K1 ranks for (n, k)."""
    _check_arguments(n, k)
    ranks = ktheory_ranks(n, k)
    if fmt == "json":
        click.echo(json.dumps({"n": n, "k": k, "k0": ranks.k0, "k1": ranks.k1}))
    else:
        click.echo(f"{ranks.k0} {ranks.k1}")


@main.command(name="euler")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def euler_cmd(n: int, k: int, fmt: str) -> None:
    """Print the Euler characteristic for (n, k)."""
    _check_arguments(n, k)
    chi = euler_characteristic(n, k)
    if fmt == "json":
        click.echo(json.dumps({"n": n, "k": k, "euler": chi}))
    else:
        click.echo(str(chi))


@main.command(name="table")
@click.argument("kind", type=click.Choice(["betti", "ktheory"]))
@click.option("--max-n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True, help="row filter for betti tables")
@click.option("--even-only", is_flag=True, default=False, help="restrict rows to even n")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv", show_default=True)
def table_cmd(kind: str, max_n: int, k: int, even_only: bool, fmt: str) -> None:
    """Emit a full table in the reference layout."""
    if max_n < 0 or k < 1:
        raise click.UsageError("max-n must be nonnegative and k positive")
    if kind == "betti":
        grid = topology.betti_grid(topology.betti_table(max_n, k, even_only=even_only))
    else:
        grid = topology.ktheory_grid(topology.ktheory_table(max_n))
    click.echo(render_grid(grid, fmt), nl=False)


@main.command(name="duality")
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.pass_context
def duality_cmd(ctx: click.Context, n: int, fmt: str) -> None:
    """Check Langlands duality for every divisor k of n."""
    if n < 1:
        raise click.UsageError("n must be positive")
    if (count := partition_count(n)) > MAX_CATALOG_ROWS:
        click.echo(f"Error: duality for n={n} compares all {count:,} partitions of {n}, more than "
                   f"the {MAX_CATALOG_ROWS:,} a report may hold", err=True)
        ctx.exit(2)
    reports = [duality_report(n, k) for k in divisors(n)]
    failed = any(not report.ok for report in reports)
    if fmt == "json":
        payload = []
        for report in reports:
            payload.append({
                "n": report.n,
                "k": report.k,
                "k_dual": report.k_dual,
                "betti_equal": report.betti_equal,
                "counts_equal": report.counts_equal,
                "singularity_differences": [
                    str(p) for p in report.partitions_with_singularity_differences()
                ],
            })
        click.echo(json.dumps(payload, indent=2))
    else:
        for report in reports:
            status = "ok" if report.ok else "MISMATCH"
            line = (
                f"n={report.n} k={report.k} <-> k'={report.k_dual}: betti "
                f"{'=' if report.betti_equal else '!='} dual, counts "
                f"{'=' if report.counts_equal else '!='} dual [{status}]"
            )
            diffs = report.partitions_with_singularity_differences()
            if diffs:
                line += " (singularity structure differs for: " + ", ".join(str(p) for p in diffs) + ")"
            click.echo(line)
    if failed:
        ctx.exit(1)


@main.command(name="verify")
@click.argument("suite", type=click.Choice(["paper", "all"]))
@click.option("--table", "tables", multiple=True, type=click.Choice(reference.TABLE_IDS),
              help="restrict to specific reference tables")
@click.option("--fixture-dir", type=click.Path(exists=True, file_okay=False), default=None,
              help="read fixtures from an alternate directory")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.pass_context
def verify_cmd(ctx: click.Context, suite: str, tables: tuple[str, ...], fixture_dir: str | None,
               fmt: str) -> None:
    """Recompute reference tables (and, for suite=all, the property suites)."""
    selected = tables or reference.TABLE_IDS
    try:
        reports = [reference.verify(table_id, fixture_dir=fixture_dir) for table_id in selected]
    except reference.FixtureError as exc:
        click.echo(f"Error: {exc}", err=True)
        ctx.exit(2)
    if suite == "all":
        reports.extend(fn() for fn in reference.PROPERTY_SUITES.values())
    clean = all(report.ok for report in reports)
    if fmt == "json":
        payload = {
            "suite": suite,
            "ok": clean,
            "reports": [
                {
                    "table": report.table_id,
                    "cells_checked": report.cells_checked,
                    "mismatches": [
                        {"location": m.location, "expected": m.expected, "actual": m.actual}
                        for m in report.mismatches
                    ],
                }
                for report in reports
            ],
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for report in reports:
            click.echo(report.summary())
            for m in report.mismatches:
                click.echo(f"  {m.location}: expected {m.expected!r}, got {m.actual!r}")
        click.echo("verification " + ("clean" if clean else "FAILED"))
    if not clean:
        ctx.exit(1)


@main.command(name="component")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--partition", "partition_text", required=True)
@click.option("--omega-exponent", type=int, default=0, show_default=True)
@click.option("--form", type=click.Choice(["complex", "real"]), default="complex", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True)
def component_cmd(n: int, k: int, partition_text: str, omega_exponent: int, form: str, fmt: str) -> None:
    """Print a single component, selected by partition and omega exponent."""
    partition = parse_partition(partition_text)
    _check_arguments(n, k, partition)
    entries = partition_components(FORMS[form], partition, n, k)
    if not 0 <= omega_exponent < len(entries):
        raise click.UsageError(f"omega exponent must lie in 0..{len(entries) - 1} for this partition")
    entry = entries[omega_exponent]
    if fmt == "json":
        click.echo(json.dumps(entry.to_dict(), indent=2))
    elif form == "complex":
        click.echo(
            f"mu={entry.partition} omega={_omega_str(entry, k)} |X|={entry.multiplicity} "
            f"variety={_variety_str(entry)}"
        )
    else:
        click.echo(
            f"mu={entry.partition} omega={_omega_str(entry, k)} |X|={entry.multiplicity} "
            f"base=T^{entry.torus_dim} fiber={','.join(str(d) for d in entry.fiber_simplex_dims)} "
            f"C_d={entry.cyclic_order} orientation_preserving={_flag(entry.action_orientation_preserving)}"
        )


if __name__ == "__main__":
    main()
