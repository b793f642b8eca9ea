"""Command-line front end, which parses and prints; ``decompose`` streams its
catalog through :mod:`extquot.catalog`.

Commands: decompose, betti, ktheory, euler, table, duality, verify,
component.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
domain error, a full catalog of more than MAX_CATALOG_ROWS rows, a duality
check that would walk more than MAX_CATALOG_ROWS partitions, a betti, ktheory,
euler or table command whose Betti vectors would fill more than
MAX_CATALOG_ROWS series cells, or a reference fixture that is missing, empty
or lacks a required column.  Every error is
one line on stderr that starts with ``Error: ``.  The parser is the standard
library's argparse, built once at import, so no command loads a module from
outside it.  Output is deterministic across runs and block-buffered while a
command prints, even under PYTHONUNBUFFERED; the exit status never depends on
the reader: one that closes the pipe early only ends the printing.  Importing
this module ends with gc.freeze(): what the imports built lives until exit,
so no garbage collection walks it again, not even the ones at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator, NoReturn, Sequence, TextIO

from . import __version__, catalog, reference, topology
from .catalog import FORMS, component_text
from .complex_quotient import _require_divides, catalog_rows, partition_components
from .numtheory import divisors
from .partitions import Partition, partition_count, series_cells
from .topology import betti, duality_reports, euler_characteristic, grid_lines, ktheory_ranks

# A full catalog is streamed, so this bounds the size of its output: about
# 470 bytes per JSON row, so 470 MB of stdout at the limit.  It also bounds
# the partitions of n a duality check walks, although its reports hold only
# one comparison per class and the flagged partitions, and the series cells
# the Betti vectors of betti, ktheory, euler and table fill (series_cells):
# betti --n up to 10,471, table betti --max-n up to 379 and table ktheory
# --max-n up to 187.  Larger ones are refused; single-partition lookups are
# not limited.
MAX_CATALOG_ROWS = 1_000_000
# Up to this n a refusal states the exact count, which takes milliseconds at
# n = 1,000.  Above it nothing is counted: P is non-decreasing, so every larger
# n has P(n) >= P(61) > MAX_CATALOG_ROWS and is refused uncounted.
EXACT_COUNT_MAX_N = 1_000


class UsageError(Exception):
    """Bad input, or a request too large to serve: :func:`run` prints it as
    one ``Error: `` line on stderr and returns 2."""


def _check_arguments(n: int, k: int, partition: Partition | None = None) -> None:
    """Reject an n or k below 1, a k that does not divide n, or a partition that does not sum to n."""
    try:
        _require_divides(k, n)
    except ValueError as error:
        raise UsageError(str(error)) from None
    if partition is not None and partition.n != n:
        raise UsageError(f"partition {partition.run_length_str()} sums to {partition.n}, not n={n}")


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
            raise UsageError(f"malformed partition {text!r}") from None
        if j < 1 or m < 1:
            raise UsageError(f"malformed partition {text!r}")
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
    out = sys.stdout
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


def _decompose(n: int, k: int, form: str, partition_text: str | None, fmt: str) -> int:
    partition = parse_partition(partition_text) if partition_text is not None else None
    _check_arguments(n, k, partition)
    if partition is None:
        rows = catalog_rows(n, k) if n <= EXACT_COUNT_MAX_N else None
        if rows is None or rows > MAX_CATALOG_ROWS:
            amount = "more rows than" if rows is None else f"{rows:,} rows, more than"
            raise UsageError(f"the (n={n}, k={k}) catalog has {amount} the "
                             f"{MAX_CATALOG_ROWS:,} a full catalog may print; use --partition")
    with _stdout() as out:
        catalog.write(out, form, n, k, fmt, partition)
    return 0


# The one-line commands: their descriptions, and the named values they print.
_SUMMARIES = {
    "betti": ("Print the Betti vector b_0 .. b_D for (n, k).", lambda n, k: {"betti": list(betti(n, k).ranks)}),
    "ktheory": ("Print the K0 and K1 ranks for (n, k).", lambda n, k: ktheory_ranks(n, k)._asdict()),
    "euler": ("Print the Euler characteristic for (n, k).", lambda n, k: {"euler": euler_characteristic(n, k)}),
}


def _summary(values: Callable[[int, int], dict], n: int, k: int, fmt: str) -> int:
    """Print the named ``values(n, k)`` in one line."""
    _check_arguments(n, k)
    cells = series_cells(n)
    if cells > MAX_CATALOG_ROWS:
        raise UsageError(f"the Betti vector of n={n} fills {cells:,} series cells, more than "
                         f"the {MAX_CATALOG_ROWS:,} a command may fill")
    named = values(n, k)
    text = (json.dumps({"n": n, "k": k, **named}) if fmt == "json" else
            " ".join(" ".join(map(str, v)) if isinstance(v, list) else str(v) for v in named.values()))
    with _stdout() as out:
        out.write(text + "\n")
    return 0


def _table(kind: str, max_n: int, k: int, even_only: bool, fmt: str) -> int:
    if max_n < 0 or k < 1:
        raise UsageError("max-n must be nonnegative and k positive")
    if kind == "betti":  # the rows of betti_table and ktheory_table
        cells = (series_cells(n) for n in range(k, max_n + 1, k) if not even_only or n % 2 == 0)
    else:
        cells = (len(divisors(n)) * series_cells(n) for n in range(2, max_n + 1))
    if any(total > MAX_CATALOG_ROWS for total in accumulate(cells)):  # summed up to the first row past it
        raise UsageError(f"the {kind} table to n={max_n} fills more series cells than "
                         f"the {MAX_CATALOG_ROWS:,} a command may fill")
    if kind == "betti":
        grid = topology.betti_grid(topology.betti_table(max_n, k, even_only=even_only))
    else:
        grid = topology.ktheory_grid(topology.ktheory_table(max_n))
    with _stdout() as out:
        out.writelines(grid_lines(grid, fmt))
    return 0


def _duality(n: int, fmt: str) -> int:
    if n < 1:
        raise UsageError("n must be positive")
    count = partition_count(n) if n <= EXACT_COUNT_MAX_N else None
    if count is None or count > MAX_CATALOG_ROWS:
        amount = "all" if count is None else f"all {count:,}"
        raise UsageError(f"duality for n={n} compares {amount} partitions of {n}, more than "
                         f"the {MAX_CATALOG_ROWS:,} a check may walk")
    reports = duality_reports(n)
    with _stdout() as out:
        if fmt == "json":
            # json.dumps(payload, indent=2) of the list of every report,
            # written one report at a time.
            joint = "[\n"
            for report in reports:
                text = json.dumps({**report._asdict(), "singularity_differences":
                                   [str(p) for p in report.singularity_differences]}, indent=2)
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
    return 0 if all(report.ok for report in reports) else 1


def _verify(suite: str, tables: list[str] | None, fixture_dir: str | None, fmt: str) -> int:
    selected = tuple(dict.fromkeys(tables or ())) or reference.TABLE_IDS  # a repeated --table is verified once
    try:
        reports = [reference.verify(table_id, fixture_dir=fixture_dir) for table_id in selected]
    except reference.FixtureError as exc:
        raise UsageError(str(exc)) from None
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
                        "mismatches": [m._asdict() for m in report.mismatches],
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
    return 0 if clean else 1


def _component(n: int, k: int, partition_text: str, omega_exponent: int, form: str, fmt: str) -> int:
    partition = parse_partition(partition_text)
    _check_arguments(n, k, partition)
    entries = partition_components(FORMS[form], partition, n, k)
    if not 0 <= omega_exponent < len(entries):
        raise UsageError(f"omega exponent must lie in 0..{len(entries) - 1} for this partition")
    entry = entries[omega_exponent]
    if fmt == "json":
        text = json.dumps(entry.to_dict(), indent=2)
    else:
        text = component_text(entry, k)
    with _stdout() as out:
        out.write(text + "\n")
    return 0


def _directory(text: str) -> str:
    """``--fixture-dir``: the name of a directory that exists."""
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a directory")
    return text


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors as :class:`UsageError`, so
    they print as every other error does, rather than printing its usage
    and exiting."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _parser(required: bool = True) -> _Parser:
    """The parser of every command.  Its ``command`` default is the function
    that runs the command, and its other values are that function's keyword
    arguments.  Options are taken only in full, and help only as ``--help``;
    it is laid out 80 columns wide on any terminal.  Unless ``required``, no argument is."""
    settings = {"allow_abbrev": False, "add_help": False,
                "formatter_class": partial(argparse.HelpFormatter, width=80)}
    parser = _Parser(prog="extquot", description="Extended-quotient calculator for the tori of SL_n(C)/C_k "
                     "and SU_n(C)/C_k.", **settings)
    parser.add_argument("--help", action="help", help="show this message and exit")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=required)

    def command(name: str, function: Callable[..., int], description: str, **defaults) -> _Parser:
        sub = commands.add_parser(name, help=description, description=description, **settings)
        sub.add_argument("--help", action="help", help="show this message and exit")
        sub.set_defaults(command=function, **defaults)
        return sub

    def n_and_k(sub: _Parser) -> None:
        sub.add_argument("--n", type=int, required=required, help="rank parameter n")
        sub.add_argument("--k", type=int, default=1, help="divisor of n (default: %(default)s)")

    def form(sub: _Parser) -> None:
        sub.add_argument("--form", choices=tuple(FORMS), default="complex",
                         help="SL_n(C)/C_k or SU_n(C)/C_k (default: %(default)s)")

    def output(sub: _Parser, *formats: str) -> None:
        """The ``--format`` option, whose default is the first of ``formats``."""
        sub.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                         help="output format (default: %(default)s)")

    sub = command("decompose", _decompose, "Print the component catalog of the (n, k) extended quotient.")
    n_and_k(sub)
    form(sub)
    sub.add_argument("--partition", dest="partition_text", metavar="PARTITION",
                     help="restrict to one partition of n")
    output(sub, "markdown", "json", "csv")
    for name, (description, values) in _SUMMARIES.items():
        sub = command(name, _summary, description, values=values)
        n_and_k(sub)
        output(sub, "text", "json")
    sub = command("table", _table, "Emit a full table in the reference layout.")
    sub.add_argument("kind", nargs=None if required else "?", choices=("betti", "ktheory"))
    sub.add_argument("--max-n", type=int, required=required, help="largest n of the table")
    sub.add_argument("--k", type=int, default=1, help="row filter for betti tables (default: %(default)s)")
    sub.add_argument("--even-only", action="store_true", help="restrict rows to even n")
    output(sub, "csv", "markdown")
    sub = command("duality", _duality, "Check Langlands duality for every divisor k of n.")
    sub.add_argument("--n", type=int, required=required, help="rank parameter n")
    output(sub, "text", "json")
    sub = command("verify", _verify, "Recompute reference tables (and, for suite=all, the property suites).")
    sub.add_argument("suite", nargs=None if required else "?", choices=("paper", "all"))
    sub.add_argument("--table", dest="tables", action="append", choices=reference.TABLE_IDS,
                     help="restrict to specific reference tables")
    sub.add_argument("--fixture-dir", type=_directory, metavar="DIRECTORY",
                     help="read fixtures from an alternate directory")
    output(sub, "text", "json")
    sub = command("component", _component, "Print a single component, selected by partition and omega exponent.")
    n_and_k(sub)
    sub.add_argument("--partition", dest="partition_text", metavar="PARTITION", required=required,
                     help="a partition of n")
    sub.add_argument("--omega-exponent", type=int, default=0, help="which omega, from 0 (default: %(default)s)")
    form(sub)
    output(sub, "text", "json")
    return parser


_PARSER = _parser()


def run(argv: Sequence[str]) -> int:
    """Run the command ``argv`` names, the arguments after the program's
    name, and return its exit status; ``--help`` and ``--version`` print and
    return 0."""
    try:
        try:
            options = vars(_PARSER.parse_args(argv))
        except SystemExit as done:  # argparse exits only after --help or --version
            return done.code
        except UsageError as error:
            # argparse reports a missing argument before an unknown option; name the option.
            if str(error).startswith("the following arguments are required"):
                unknown = [arg for arg in _parser(required=False).parse_known_args(argv)[1] if arg.startswith("-")]
                if unknown:
                    raise UsageError(f"unrecognized arguments: {' '.join(unknown)}") from None
            raise
        return options.pop("command")(**options)
    except UsageError as exc:
        sys.stderr.write(f"Error: {exc}\n")
        return 2


class _ConsoleScript:
    """The ``extquot`` console script: ``main()`` runs the command of
    ``sys.argv`` and exits with its status.

    ``main.main(args=..., prog_name=...)`` runs ``args`` instead and raises
    SystemExit with the status, as click's ``Command.main`` does, and
    ``main.name`` names the program: the calls through which
    ``click.testing.CliRunner`` and the benchmark's child process drive the
    CLI.  Help texts name ``extquot`` whatever ``prog_name`` is.
    """

    name = "extquot"

    def __call__(self) -> NoReturn:
        self.main()

    def main(self, args: Sequence[str] | None = None, prog_name: str | None = None) -> NoReturn:
        raise SystemExit(run(sys.argv[1:] if args is None else args))


main = _ConsoleScript()

# Everything imported by now lives until the process exits.
gc.freeze()

if __name__ == "__main__":
    main()
