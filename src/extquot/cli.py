"""Command-line front end, which parses and prints; ``decompose`` streams its
catalog through :mod:`extquot.catalog`.

Commands: decompose, betti, ktheory, euler, table, duality, verify,
component.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error, a full catalog of more than MAX_CATALOG_ROWS rows, a duality
check that would walk more than MAX_CATALOG_ROWS partitions, or a reference
fixture that is missing, empty or lacks a required column.  Output is
deterministic across runs and block-buffered while a command prints, even
under PYTHONUNBUFFERED; the exit status never depends on the reader: one that
closes the pipe early only ends the printing.  Importing this module
ends with gc.freeze(): what the imports built lives until exit, so no garbage
collection walks it again, not even the ones at exit.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, TextIO

import click

from . import __version__, catalog, reference, topology
from .catalog import FORMS, component_text
from .complex_quotient import catalog_rows, partition_components
from .partitions import Partition, partition_count
from .topology import betti, duality_reports, euler_characteristic, grid_lines, ktheory_ranks

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
    """Parse "1+1+2+2", "4,4,4,4" or run-length "2^2,4^1" syntax, digits after every "^".

    Runs are kept as (part, multiplicity) pairs and never expanded, so a
    huge multiplicity costs nothing before the sum is checked.
    """
    runs: Counter[int] = Counter()
    for token in text.replace("+", ",").split(","):
        token = token.strip()
        base, caret, mult = token.partition("^")
        try:
            j = int(base)
            m = int(mult) if caret else 1
        except ValueError:
            raise click.UsageError(f"malformed partition {text!r}") from None
        if j < 1 or m < 1:
            raise click.UsageError(f"malformed partition {text!r}")
        runs[j] += m
    return Partition(sum(j * m for j, m in runs.items()), tuple(sorted(runs.items())))


@contextmanager
def _stdout() -> Iterator[TextIO]:
    """Standard output, for a command to print to, block-buffered while the
    command prints.  A reader that closes the pipe early, as ``| head``
    does, only ends the printing: there is no traceback, and the exit status
    still comes from the command's results.

    Under ``PYTHONUNBUFFERED`` (or ``-u``) ``sys.stdout`` writes through to
    the file descriptor, one ``write(2)`` per ``write`` call, which is one per
    catalog row.  For the length of the command it collects up to 8 KiB of
    text before each write instead, and writes through again afterwards.
    What it prints, and when the command has printed it all, is unchanged.
    """
    out = sys.stdout  # not click's stdout, which flushes at every newline and so writes each row on its own
    write_through = getattr(out, "write_through", False)  # a TextIOWrapper's setting; StringIO has none
    if write_through:
        out.reconfigure(write_through=False)
    try:
        yield out
        out.flush()
    except BrokenPipeError:
        # Send what is still buffered to the null device so that exiting
        # does not report it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    finally:
        if write_through:
            out.reconfigure(write_through=True)


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
    partition = parse_partition(partition_text) if partition_text is not None else None
    _check_arguments(n, k, partition)
    if partition is None:
        rows = _count_unless_oversized(n, lambda: catalog_rows(n, k))
        if rows is None or rows > MAX_CATALOG_ROWS:
            amount = "more rows than" if rows is None else f"{rows:,} rows, more than"
            click.echo(f"Error: the (n={n}, k={k}) catalog has {amount} the "
                       f"{MAX_CATALOG_ROWS:,} a full catalog may print; use --partition", err=True)
            ctx.exit(2)
    with _stdout() as out:
        catalog.write(out, form, n, k, fmt, partition)


_SUMMARIES = (
    ("betti", "Print the Betti vector b_0 .. b_D for (n, k).", lambda n, k: {"betti": list(betti(n, k).ranks)}),
    ("ktheory", "Print the K0 and K1 ranks for (n, k).", lambda n, k: vars(ktheory_ranks(n, k))),
    ("euler", "Print the Euler characteristic for (n, k).", lambda n, k: {"euler": euler_characteristic(n, k)}),
)


def _summary_command(name: str, doc: str, values: Callable[[int, int], dict]) -> None:
    """Register ``name``, a command that prints the named ``values(n, k)`` in one line."""
    @main.command(name=name, help=doc)
    @click.option("--n", type=int, required=True)
    @click.option("--k", type=int, default=1, show_default=True)
    @click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
    def command(n: int, k: int, fmt: str) -> None:
        _check_arguments(n, k)
        named = values(n, k)
        text = (json.dumps({"n": n, "k": k, **named}) if fmt == "json" else
                " ".join(" ".join(map(str, v)) if isinstance(v, list) else str(v) for v in named.values()))
        with _stdout() as out:
            out.write(text + "\n")


for _summary in _SUMMARIES:
    _summary_command(*_summary)


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
            # json.dumps(payload, indent=2) of the list of every report,
            # written one report at a time.
            joint = "[\n"
            for report in reports:
                text = json.dumps({
                    "n": report.n,
                    "k": report.k,
                    "k_dual": report.k_dual,
                    "betti_equal": report.betti_equal,
                    "counts_equal": report.counts_equal,
                    "singularity_differences": [str(p) for p in report.singularity_differences],
                }, indent=2)
                out.write(joint + "  ")
                out.write(text.replace("\n", "\n  "))
                joint = ",\n"
            out.write("\n]\n")
        else:
            for report in reports:
                status = "ok" if report.ok else "MISMATCH"
                line = (
                    f"n={report.n} k={report.k} <-> k'={report.k_dual}: betti "
                    f"{'=' if report.betti_equal else '!='} dual, counts "
                    f"{'=' if report.counts_equal else '!='} dual"
                    f"{'' if report.torus_counts_equal else ', torus dims != dual'} [{status}]"
                )
                if report.singularity_differences:
                    line += (" (singularity structure differs for: "
                             + ", ".join(map(str, report.singularity_differences)) + ")")
                out.write(line + "\n")
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
    selected = tuple(dict.fromkeys(tables)) or reference.TABLE_IDS  # a repeated --table is verified once
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
            out.write(json.dumps(payload, indent=2) + "\n")
        else:
            for report in reports:
                out.write(report.summary() + "\n")
                for m in report.mismatches:
                    out.write(f"  {m.location}: expected {m.expected!r}, got {m.actual!r}\n")
            out.write("verification " + ("clean" if clean else "FAILED") + "\n")
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
        text = component_text(entry, k)
    with _stdout() as out:
        out.write(text + "\n")


# Everything imported by now lives until the process exits.
gc.freeze()

if __name__ == "__main__":
    main()
