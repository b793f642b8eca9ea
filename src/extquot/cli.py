"""Command-line front end.

Commands: decompose, betti, ktheory, euler, table, duality, verify,
component.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error, a full catalog of more than MAX_CATALOG_ROWS rows, a duality
check that would walk more than MAX_CATALOG_ROWS partitions, or a reference
fixture that is missing, empty or lacks a required column.  Output is
deterministic across runs, and the exit status never depends on the reader:
one that closes the pipe early only ends the printing.  Importing this module
ends with gc.freeze(): what the imports built lives until exit, so no garbage
collection walks it again, not even the ones at exit.

``decompose`` writes each catalog row as soon as it is produced.  The
enumerator yields each partition's (part, multiplicity) runs, keyed by the
gcd of its parts and its sorted multiplicities, which fix (g, m, b, c, p);
each class builds one Partition, its invariants and strata, and renders each
of its rows once as a text template with a gap for each run-order cell.  The
gaps of every partition of the class are filled from the rendered text of its
runs, so memory grows with the classes and the distinct runs, not with rows.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, TextIO

import click

from . import __version__, reference, topology
from .complex_quotient import ComplexComponent, Stratum, catalog_rows, partition_components, strata
from .partitions import Partition, classified_partitions, invariants, partition_count
from .real_quotient import RealComponent
from .topology import betti, duality_reports, euler_characteristic, grid_line, grid_lines, ktheory_ranks

FORMS = {"complex": ComplexComponent, "real": RealComponent}
# A full catalog is streamed, so this bounds the size of its output: about
# 470 bytes per JSON row, so 470 MB of stdout at the limit.  It also bounds
# the partitions of n a duality check walks, although its reports hold only
# one comparison per class and the flagged partitions.  Larger ones are
# refused; single-partition lookups are not limited.
MAX_CATALOG_ROWS = 1_000_000
# Up to this n a refusal states the exact count, which takes milliseconds at
# n = 1,000; above it the count is not computed.
EXACT_COUNT_MAX_N = 1_000


def _check_arguments(n: int, k: int, partition: Partition | None = None) -> None:
    """Reject a k that does not divide n, or a partition that does not sum to n."""
    if n < 1 or k < 1 or n % k != 0:
        raise click.UsageError(f"k={k} must divide n={n}")
    if partition is not None and partition.n != n:
        raise click.UsageError(f"partition {partition.run_length_str()} sums to {partition.n}, not n={n}")


def _count_unless_oversized(n: int, count: Callable[[], int]) -> int | None:
    """``count()``, a count of catalog rows or partitions of n that is at
    least P(n); or None, counting nothing, when n > EXACT_COUNT_MAX_N and
    P(n) > MAX_CATALOG_ROWS.

    P is non-decreasing, so Euler's recurrence runs only until the first m
    with P(m) over the limit, m = 61 for the default limit.
    """
    if n > EXACT_COUNT_MAX_N and any(partition_count(m) > MAX_CATALOG_ROWS for m in range(n + 1)):
        return None
    return count()


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


# By the component field each shows: its markdown column header, and its
# label in ``component --format text``, which leaves out a field without one.
_LABELS = {
    "partition": ("mu", "mu"),
    "omega": ("omega", "omega"),
    "multiplicity": ("X", "|X|"),
    "variety": ("variety", "variety"),
    "torus_dim": ("base", "base"),
    "fiber_simplex_dims": ("fiber dims", "fiber"),
    "cyclic_order": ("C_d", "C_d"),
    "join_counts": ("joins", None),
    "action_orientation_preserving": ("fiber action preserves orientation", "orientation_preserving"),
    "bundle_orientable": ("bundle orientable", None),
}


def _json_cell(key: str, value, indent: str = "      ") -> str:
    """A field as it stands ``indent`` deep, three levels in the entries of
    ``json.dumps(catalog, indent=2)``: its key, then its own dump.  A flag, an
    integer, a nonempty list or tuple of integers, or a nonempty dict of these
    is laid out without ``json.dumps``."""
    head, inner = f'{indent}"{key}": ', indent + "  "
    if type(value) is bool:
        return head + ("true" if value else "false")
    if type(value) is int:
        return head + str(value)
    if isinstance(value, (list, tuple)) and value:
        return f"{head}[\n{inner}" + f",\n{inner}".join(map(str, value)) + f"\n{indent}]"
    if isinstance(value, dict) and value:
        return f"{head}{{\n" + ",\n".join(_json_cell(*item, inner) for item in value.items()) + f"\n{indent}}}"
    return head + json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _csv_fields(entry, k: int) -> list[tuple[str, object]]:
    """The items of ``entry.to_dict()``, the singularity's in its place."""
    fields = []
    for key, value in entry.to_dict().items():
        fields.extend(value.items() if key == "singularity" else [(key, value)])
    return fields


def _csv_cell(key: str, value) -> str:
    """A partition's parts joined by "+", another list's entries by spaces,
    and a flag as yes or no."""
    if isinstance(value, (list, tuple)):
        return ("+" if key == "partition" else " ").join(map(str, value))
    return _flag(value) if isinstance(value, bool) else str(value)


def _markdown_fields(entry, k: int) -> list[tuple[str, object]]:
    """The markdown columns of ``entry``, headed as in _LABELS."""
    fields = [("partition", entry.partition.parts), ("omega", _omega_str(entry, k)),
              ("multiplicity", entry.multiplicity)]
    if entry.form == "complex":
        fields.append(("variety", _variety_str(entry)))
    else:
        fields += [
            ("torus_dim", f"T^{entry.torus_dim}"),
            ("fiber_simplex_dims", entry.fiber_simplex_dims),
            ("cyclic_order", entry.cyclic_order),
            ("join_counts", entry.join_counts),
            ("action_orientation_preserving", entry.action_orientation_preserving),
        ]
        if k == 1:
            fields.append(("bundle_orientable", entry.bundle_orientable))
    return fields


def _markdown_cell(key: str, value) -> str:
    """A partition's parts joined by "+", another tuple's entries by commas,
    and a flag as yes or no."""
    if isinstance(value, tuple):
        return ("+" if key == "partition" else ",").join(map(str, value))
    return _flag(value) if isinstance(value, bool) else str(value)


# Per format: the named fields of an entry, and the cell of one field.
_FORMATS = {
    "json": (lambda entry, k: list(entry.to_dict().items()), _json_cell),
    "csv": (_csv_fields, _csv_cell),
    "markdown": (_markdown_fields, _markdown_cell),
}
# Stands for a gap in a row's text; no cell contains it.
_GAP = "\ue000"


class _Rendered(dict):
    """Texts by key, each rendered by ``render(key)`` when first asked for."""

    def __init__(self, render: Callable[[Hashable], object]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key: Hashable) -> object:
        text = self[key] = self.render(key)
        return text


def _catalog_rows(component_type: type, n: int, k: int,
                  classified: Iterable[tuple[tuple[tuple[int, int], ...], Hashable]], fmt: str) -> Iterator[str]:
    """The text of every row of the catalog of the partitions of n in
    ``classified``, in omega order within each partition, each given by its
    runs and a key it shares exactly with its class; a CSV or markdown
    catalog starts with its header line.

    Only a row's run-order fields (``component_type.run_fields``) depend on
    more than its partition's invariant class and omega.  So only the first
    partition of each class is built as a Partition: it computes the class's
    invariants and strata once, and renders each of its rows once as a
    template, the row's text with a %s gap for each run-order cell.  Every
    partition of the class fills the gaps from its runs alone.  The gap of a
    field ``run_items`` lists is joined from the fragments of the runs, each
    rendered once per fibre order d; the gap of a ``run_flags`` field is its
    cell, rendered once per value.  Templates and fragments live for one
    call: they grow with the classes and the distinct runs, not with rows.
    """
    fields, cell = _FORMATS[fmt]
    classes: dict[Hashable, list[tuple[str, Stratum, dict[tuple[int, int], tuple[str, ...]]]]] = {}
    for runs, key in classified:
        rows = classes.get(key)
        if rows is None:
            mu = Partition(n, runs)
            layers = strata(invariants(mu), n, k)
            named = [fields(component_type.from_stratum(s, mu), k) for s in layers]
            if not classes:
                names = [name for name, _ in named[0]]
                if fmt != "json":
                    yield from grid_lines([[_LABELS[name][0] for name in names] if fmt == "markdown" else names], fmt)
                listed = [name for name in names if name in component_type.run_items(layers[0].d, *runs[0])]
                flags = component_type.flag_names if component_type.run_flags(layers[0], runs) else ()
                # A listed field's cell is prefix + its entries joined by separator + suffix.
                layouts = {name: cell(name, (_GAP, _GAP)).split(_GAP) for name in listed}
                separators = [separator for _, separator, _ in layouts.values()]
                gaps = {name: f"{_escaped(prefix)}%s{_escaped(suffix)}"
                        for name, (prefix, _, suffix) in layouts.items()}
                gaps.update((name, "%s") for name in flags)
                fragments = _Rendered(lambda d: _run_fragments(component_type, d, cell, layouts))
                flag_cells = [(cell(name, False), cell(name, True)) for name in flags]  # indexed by value
            rows = classes[key] = [
                (_row_text([gaps[name] if name in gaps else _escaped(cell(name, value)) for name, value in row], fmt),
                 s, fragments[s.d])
                for s, row in zip(layers, named)]
            # The flags of the class's first partition are among its fields.
            flag_values = [[value for name, value in row if name in flags] for row in named] if flags else repeat(())
        elif flags:
            flag_values = [component_type.run_flags(s, runs) for _, s, _ in rows]
        for (template, _, texts), values in zip(rows, flag_values):
            # The gaps stand in row order, and every format puts flags after listed fields.
            yield template % (*map(str.join, separators, zip(*[texts[run] for run in runs])),
                              *map(tuple.__getitem__, flag_cells, values))


def _escaped(text: str) -> str:
    """``text`` as it stands in a %-template."""
    return text.replace("%", "%%")


def _run_fragments(component_type: type, d: int, cell: Callable[[str, object], str],
                   layouts: dict[str, list[str]]) -> _Rendered:
    """By run (part, mult): the text of its entries within the cell of each
    field ``layouts`` names, in a stratum of fibre order d, which is the cell
    without the prefix and suffix of the field's layout."""
    def render(run: tuple[int, int]) -> tuple[str, ...]:
        items = component_type.run_items(d, *run)
        texts = [(cell(name, items[name]), prefix, suffix) for name, (prefix, _, suffix) in layouts.items()]
        return tuple(text[len(prefix):len(text) - len(suffix)] for text, prefix, suffix in texts)
    return _Rendered(render)


def _row_text(texts: list[str], fmt: str) -> str:
    """The text of a row with cells ``texts``: a JSON entry, or a line of the
    CSV or markdown grid."""
    return "    {\n" + ",\n".join(texts) + "\n    }" if fmt == "json" else grid_line(texts, fmt)


def _write_catalog(out: TextIO, form: str, n: int, k: int,
                   classified: Iterable[tuple[tuple[tuple[int, int], ...], Hashable]], fmt: str) -> None:
    """Write the catalog of ``classified``, (runs, class key) pairs, to
    ``out`` row by row: JSON as ``json.dumps(..., indent=2)`` lays out n, k,
    form and the entries' ``to_dict``, CSV with a column per ``to_dict`` field
    and the singularity's fields in its place, or markdown headed as in _LABELS."""
    rows = _catalog_rows(FORMS[form], n, k, classified, fmt)
    if fmt != "json":
        out.writelines(rows)
        return
    out.write(f'{{\n  "n": {n},\n  "k": {k},\n  "form": "{form}",\n  "entries": [\n')
    separator = ""
    for row in rows:
        out.write(separator + row)
        separator = ",\n"
    out.write("\n  ]\n}\n")


@contextmanager
def _stdout() -> Iterator[TextIO]:
    """Standard output, for a command to print to.  A reader that closes the
    pipe early, as ``| head`` does, only ends the printing: there is no
    traceback, and the exit status still comes from the command's results."""
    out = sys.stdout  # not click's stdout, which is line buffered and would write each row on its own
    try:
        yield out
        out.flush()
    except BrokenPipeError:
        # Send what is still buffered to the null device so that exiting
        # does not report it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


@click.group()
@click.version_option(__version__)
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
    if partition is None:
        rows = _count_unless_oversized(n, lambda: catalog_rows(n, k))
        if rows is None or rows > MAX_CATALOG_ROWS:
            amount = "more rows than" if rows is None else f"{rows:,} rows, more than"
            click.echo(f"Error: the (n={n}, k={k}) catalog has {amount} the "
                       f"{MAX_CATALOG_ROWS:,} a full catalog may print; use --partition", err=True)
            ctx.exit(2)
    with _stdout() as out:
        _write_catalog(out, form, n, k, [(partition.runs, None)] if partition else classified_partitions(n), fmt)


@main.command(name="betti")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def betti_cmd(n: int, k: int, fmt: str) -> None:
    """Print the Betti vector b_0 .. b_D for (n, k)."""
    _check_arguments(n, k)
    ranks = betti(n, k).ranks
    text = json.dumps({"n": n, "k": k, "betti": list(ranks)}) if fmt == "json" else " ".join(map(str, ranks))
    with _stdout() as out:
        click.echo(text, file=out)


@main.command(name="ktheory")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def ktheory_cmd(n: int, k: int, fmt: str) -> None:
    """Print the K0 and K1 ranks for (n, k)."""
    _check_arguments(n, k)
    ranks = ktheory_ranks(n, k)
    text = json.dumps({"n": n, "k": k, "k0": ranks.k0, "k1": ranks.k1}) if fmt == "json" else f"{ranks.k0} {ranks.k1}"
    with _stdout() as out:
        click.echo(text, file=out)


@main.command(name="euler")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def euler_cmd(n: int, k: int, fmt: str) -> None:
    """Print the Euler characteristic for (n, k)."""
    _check_arguments(n, k)
    chi = euler_characteristic(n, k)
    text = json.dumps({"n": n, "k": k, "euler": chi}) if fmt == "json" else str(chi)
    with _stdout() as out:
        click.echo(text, file=out)


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
    with _stdout() as out:
        out.writelines(grid_lines(grid, fmt))


@main.command(name="duality")
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.pass_context
def duality_cmd(ctx: click.Context, n: int, fmt: str) -> None:
    """Check Langlands duality for every divisor k of n."""
    if n < 1:
        raise click.UsageError("n must be positive")
    count = _count_unless_oversized(n, lambda: partition_count(n))
    if count is None or count > MAX_CATALOG_ROWS:
        amount = "all" if count is None else f"all {count:,}"
        click.echo(f"Error: duality for n={n} compares {amount} partitions of {n}, more than "
                   f"the {MAX_CATALOG_ROWS:,} a check may walk", err=True)
        ctx.exit(2)
    reports = duality_reports(n)
    failed = any(not report.ok for report in reports)
    with _stdout() as out:
        if fmt == "json":
            payload = [
                {
                    "n": report.n,
                    "k": report.k,
                    "k_dual": report.k_dual,
                    "betti_equal": report.betti_equal,
                    "counts_equal": report.counts_equal,
                    "singularity_differences": [str(p) for p in report.singularity_differences],
                }
                for report in reports
            ]
            click.echo(json.dumps(payload, indent=2), file=out)
        else:
            for report in reports:
                status = "ok" if report.ok else "MISMATCH"
                line = (
                    f"n={report.n} k={report.k} <-> k'={report.k_dual}: betti "
                    f"{'=' if report.betti_equal else '!='} dual, counts "
                    f"{'=' if report.counts_equal else '!='} dual [{status}]"
                )
                if report.singularity_differences:
                    line += (" (singularity structure differs for: "
                             + ", ".join(map(str, report.singularity_differences)) + ")")
                click.echo(line, file=out)
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
    with _stdout() as out:
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
            click.echo(json.dumps(payload, indent=2), file=out)
        else:
            for report in reports:
                click.echo(report.summary(), file=out)
                for m in report.mismatches:
                    click.echo(f"  {m.location}: expected {m.expected!r}, got {m.actual!r}", file=out)
            click.echo("verification " + ("clean" if clean else "FAILED"), file=out)
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
        text = json.dumps(entry.to_dict(), indent=2)
    else:
        text = " ".join(f"{_LABELS[name][1]}={_markdown_cell(name, value)}"
                        for name, value in _markdown_fields(entry, k) if _LABELS[name][1])
    with _stdout() as out:
        click.echo(text, file=out)


# Everything imported by now lives until the process exits.
gc.freeze()

if __name__ == "__main__":
    main()
