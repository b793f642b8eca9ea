"""The streamed catalog writer behind ``decompose``.

Large catalogs are pinned by the SHA-256 of their stdout, taken before the
catalog was streamed row by row, except the complex (40, 4) CSV and (40, 2)
markdown ones, taken before rows were filled in from per-class templates;
they are too large for ``tests/golden/``.
The duality reports of 40 are pinned beside them, taken while every report
still labelled all partitions of 40, and two Betti and K-theory tables.
Small catalogs are compared byte for byte with the held-catalog rendering
that ``decompose`` used to print.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import extquot
from conftest import _catalog_csv_rows, _catalog_grid, catalog_json_dict, grid_text
from extquot import catalog, cli, real_quotient
from extquot.cli import FORMS, main, parse_partition
from extquot.complex_quotient import ComplexComponent, CyclicSingularity, decompose, partition_components, strata
from extquot.numtheory import divisors
from extquot.partitions import Partition, classified_partitions, invariants, partition_count
from extquot.real_quotient import orientable_k1

FORMATS = ("json", "csv", "markdown")

PINNED = {
    ("--n", "40", "--k", "4", "--format", "json"):
        "d75894904103011cdee95ec0619dbcd17fcebf42907c9fbd14b09277b400510d",
    ("--n", "40", "--k", "1", "--form", "real", "--format", "csv"):
        "40b99fa58f781411660415959ae43a4a67df7a4c40b90c362ee77beabb42eb8e",
    ("--n", "40", "--k", "1", "--form", "real", "--format", "markdown"):
        "febf5f76635c320249719d5e9c4802af1684d101e6562b12ad801d2144953488",
    ("--n", "36", "--k", "6", "--form", "real", "--format", "json"):
        "57c48824f1ef991e5e9967b0c3aa54e247b4b6fedc7846f906b51b1e837f1e5c",
    ("--n", "40", "--k", "4", "--format", "csv"):
        "8c800acb370de0a2fa40d793b80a30c3b6975740ad799333083107ea65492d8f",
    ("--n", "40", "--k", "2", "--format", "markdown"):
        "2380a586d3fe2a05509d5357010faf79bb259f1d9cdf4da56406c364fbf06f41",
}


# duality --n 40 as text (92,642 bytes) and as JSON (116,773 bytes), and
# --n 48 as JSON (399,565 bytes); each JSON report holds all three verdicts.
DUALITY_PINNED = {
    ("--n", "40"): "ced51b62c771ada9c019a296604c6db0cf8ca218683b9dc453580bad3b06ea42",
    ("--n", "40", "--format", "json"): "67b961f7bf50679440ffcd79c365aa57f9ae0ae6eb8bf9f9bfb6963799a7a632",
    ("--n", "48", "--format", "json"): "81e40d05db78690e7ecf5857c05ecf9c312a8414dce5cf2abcc444c9ab10c2fb",
}


# table betti --k 1 --max-n 120 (9,830 bytes) and table ktheory --max-n 40
# (3,214 bytes), both as CSV, taken before the Betti fold read its counts
# from one shared distinct-part table; both reach past the fixtures.
TABLE_PINNED = {
    ("betti", "--k", "1", "--max-n", "120"): "e656a99ee4fa97cc24de43993c869e01559f34428185077f42251f6a9bd0adfa",
    ("ktheory", "--max-n", "40"): "249b328799588385eca352811144b520f6087edb67f8e73e004e57736c6a0414",
}


@pytest.mark.parametrize("args", sorted(PINNED), ids=" ".join)
def test_large_catalog_digest_is_pinned(args):
    result = CliRunner().invoke(main, ["decompose", *args])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED[args]


@pytest.mark.parametrize("args", sorted(DUALITY_PINNED), ids=" ".join)
def test_large_duality_digest_is_pinned(args):
    result = CliRunner().invoke(main, ["duality", *args])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == DUALITY_PINNED[args]


@pytest.mark.parametrize("args", sorted(TABLE_PINNED), ids=" ".join)
def test_large_table_digest_is_pinned(args):
    result = CliRunner().invoke(main, ["table", *args])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == TABLE_PINNED[args]


def _held_rendering(n: int, k: int, form: str, entries, fmt: str) -> str:
    """The (n, k) catalog of ``entries`` as ``decompose`` printed it from a
    held catalog."""
    if fmt == "json":
        return json.dumps(catalog_json_dict(n, k, form, entries), indent=2) + "\n"
    return grid_text(_catalog_csv_rows(entries) if fmt == "csv" else _catalog_grid(k, form, entries), fmt)


# Every k, form and format for n <= 14; at n = 24, where the 335 classes
# share 115 row shapes at k = 1 and 220 at k = 4, two catalogs.
HELD_CASES = [pytest.param(n, [(k, form, fmt) for k in divisors(n) for form in FORMS for fmt in FORMATS], id=str(n))
              for n in range(1, 15)] + [pytest.param(24, [(1, "real", "csv"), (4, "complex", "json")], id="24")]


@pytest.mark.parametrize("n, cases", HELD_CASES)
def test_streamed_catalog_matches_held_rendering(n, cases):
    runner = CliRunner()
    for k, form, fmt in cases:
        entries = decompose(FORMS[form], n, k)
        result = runner.invoke(main, ["decompose", "--n", str(n), "--k", str(k), "--form", form, "--format", fmt])
        assert result.exit_code == 0, result.output
        assert result.stdout == _held_rendering(n, k, form, entries, fmt), (n, k, form, fmt)


@pytest.mark.parametrize("n, k, text", [
    (16, 8, "2^4,4^2"), (16, 8, "4,4,4,4"), (12, 6, "1^12"), (12, 4, "1^4,2^2,4"), (30, 30, "5^6"),
    (100, 4, "25,25,25,25"),
])
def test_streamed_lookup_matches_held_rendering(n, k, text):
    runner = CliRunner()
    for form, component_type in FORMS.items():
        entries = partition_components(component_type, parse_partition(text), n, k)
        for fmt in FORMATS:
            result = runner.invoke(main, ["decompose", "--n", str(n), "--k", str(k), "--partition", text,
                                          "--form", form, "--format", fmt])
            assert result.exit_code == 0, result.output
            assert result.stdout == _held_rendering(n, k, form, entries, fmt), (form, fmt)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
                       min_size=1, max_size=5), st.data())
def test_lookup_of_long_runs_matches_held_rendering(runs, data):
    """Lookups go through the catalog writer: a run-length partition with
    parts and multiplicities up to 40, and so multi-digit parts in long runs,
    prints as its held rendering for a divisor k of n, in either form and
    every format."""
    mu = Partition(sum(part * mult for part, mult in runs.items()), tuple(sorted(runs.items())))
    k = data.draw(st.sampled_from(divisors(mu.n)))
    runner = CliRunner()
    for form, component_type in FORMS.items():
        entries = partition_components(component_type, mu, mu.n, k)
        for fmt in FORMATS:
            result = runner.invoke(main, ["decompose", "--n", str(mu.n), "--k", str(k), "--partition",
                                          mu.run_length_str(), "--form", form, "--format", fmt])
            assert result.exit_code == 0, result.output
            assert result.stdout == _held_rendering(mu.n, k, form, entries, fmt), (form, fmt)


_JSON_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_JSON_KEYS, st.recursive(st.booleans() | st.integers() | st.lists(st.integers(), max_size=4),
                                lambda values: st.dictionaries(_JSON_KEYS, values, max_size=4), max_leaves=12))
def test_json_cell_matches_json_dumps(key, value):
    """A field's JSON cell, laid out directly for flags, integers, integer
    lists and dicts of these, nested or empty, is its slice of an entry in
    ``json.dumps(..., indent=2)``."""
    head, tail = '{\n  "entries": [\n    {\n', "\n    }\n  ]\n}"
    dumped = json.dumps({"entries": [{key: value}]}, indent=2)
    assert dumped.startswith(head) and dumped.endswith(tail)
    assert catalog._json_cell(key, value) == dumped[len(head):-len(tail)]


def test_json_catalog_calls_no_json_dumps(monkeypatch):
    """Every cell of the (20, 4) JSON catalog, the empty weights of a
    singularity of dimension 0 included, is laid out without json.dumps."""
    calls = []

    def counted(*args, dumps=json.dumps, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    result = CliRunner().invoke(main, ["decompose", "--n", "20", "--k", "4", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert '"weights": []' in result.stdout
    assert calls == []


def test_catalog_builds_strata_once_per_class(monkeypatch):
    """The 627 partitions of 20 fall in 177 invariant classes; writing the
    (20, 4) catalog builds the strata of each class once, in either form and
    every format."""
    calls = []

    def counted(inv, n, k):
        calls.append(inv)
        return strata(inv, n, k)

    monkeypatch.setattr(catalog, "strata", counted)
    runner = CliRunner()
    for form in FORMS:
        for fmt in FORMATS:
            calls.clear()
            result = runner.invoke(main, ["decompose", "--n", "20", "--k", "4", "--form", form, "--format", fmt])
            assert result.exit_code == 0, result.output
            assert len(calls) == len(set(calls)) == 177, (form, fmt)


def _shape(s):
    """What every cell of a stratum's rows reads, apart from the runs."""
    return s.invariants.g, s.omega, s.torus_dim, s.singularity, s.multiplicity


def test_catalog_renders_one_template_per_row_shape(monkeypatch):
    """The 177 classes of the partitions of 20 have 214 rows at k = 4 but
    132 row shapes; writing the (20, 4) catalog builds one component, and so
    one template, per shape, in either form and every format."""
    firsts = {}
    for runs, key in classified_partitions(20):
        firsts.setdefault(key, runs)
    layers = [s for runs in firsts.values() for s in strata(invariants(Partition(20, runs)), 20, 4)]
    shapes = set(map(_shape, layers))
    assert len(firsts) == 177 and len(shapes) < len(layers) == 214
    runner = CliRunner()
    for form, component_type in FORMS.items():
        built = []

        def counted(s, mu, from_stratum=component_type.from_stratum):
            built.append(_shape(s))
            return from_stratum(s, mu)

        monkeypatch.setattr(component_type, "from_stratum", counted)
        for fmt in FORMATS:
            built.clear()
            result = runner.invoke(main, ["decompose", "--n", "20", "--k", "4", "--form", form, "--format", fmt])
            assert result.exit_code == 0, result.output
            assert len(built) == len(set(built)) and set(built) == shapes, (form, fmt)


def test_catalog_classifies_once_per_class(monkeypatch):
    """Writing the (20, 4) catalog builds a Partition for, and computes the
    invariants of, each of the 177 classes of the 627 partitions of 20 once,
    in either form; the other partitions stay bare runs."""
    calls, built = [], []

    def counted(mu):
        calls.append(mu)
        return invariants(mu)

    def validated(mu, n, runs, init=Partition.__init__):
        built.append(mu)
        init(mu, n, runs)

    monkeypatch.setattr(catalog, "invariants", counted)
    monkeypatch.setattr(Partition, "__init__", validated)
    runner = CliRunner()
    for form in FORMS:
        calls.clear()
        built.clear()
        result = runner.invoke(main, ["decompose", "--n", "20", "--k", "4", "--form", form, "--format", "json"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 177, form
        assert len({invariants(mu) for mu in calls}) == 177, form
        assert len(built) == 177, form


def test_real_catalog_computes_run_fields_once_per_row(monkeypatch):
    """Each row of the real (20, 1) catalog, one per partition of 20, reads
    its partition's bundle orientability once, from its class's part-gcd and
    its runs, and nothing else reads it."""
    calls = []

    def counted(g, runs):
        calls.append((g, runs))
        return orientable_k1(g, runs)

    monkeypatch.setattr(real_quotient, "orientable_k1", counted)
    result = CliRunner().invoke(main, ["decompose", "--n", "20", "--form", "real", "--format", "csv"])
    assert result.exit_code == 0, result.output
    assert len(calls) == partition_count(20) == 627
    assert all(g == math.gcd(*(j for j, _ in runs)) for g, runs in calls)


@pytest.mark.parametrize("form, k", [("complex", 4), ("real", 4), ("real", 1)])
def test_catalog_renders_run_order_cells_per_run(monkeypatch, form, k):
    """Writing the (20, k) catalog renders each run-order cell once per
    distinct run and fibre order d, and once more to lay out its field: far
    fewer times than there are rows."""
    component_type = FORMS[form]
    rows = 0
    fragments = set()
    names = set()
    for runs, _ in classified_partitions(20):
        mu = Partition(20, runs)
        layers = strata(invariants(mu), 20, k)
        rows += len(layers)
        fragments.update((s.d, run) for s in layers for run in mu.runs)
        names.update(component_type.run_fields(layers[0], mu))
    bound = len(fragments) + 1
    assert bound < rows
    calls = Counter()
    for fmt, (fields, cell) in catalog._FORMATS.items():
        def counted(name, value, cell=cell):
            calls[name] += 1
            return cell(name, value)
        monkeypatch.setitem(catalog._FORMATS, fmt, (fields, counted))
    runner = CliRunner()
    for fmt in FORMATS:
        calls.clear()
        result = runner.invoke(main, ["decompose", "--n", "20", "--k", str(k), "--form", form, "--format", fmt])
        assert result.exit_code == 0, result.output
        assert all(calls[name] <= bound for name in names), (fmt, calls, bound)


@pytest.mark.parametrize("fmt, first_line", [
    ("json", b"{\n"),
    ("csv", b"partition,omega_exponent,omega_order,torus_dim,multiplicity,ambient_dim,group_order,weights\n"),
    ("markdown", b"| mu | omega | X | variety |\n"),
])
def test_reader_closing_early_exits_zero(fmt, first_line):
    """``decompose ... | head -1``: the dump stops without a traceback and
    exits 0, as it did when the whole catalog was written at once; with
    stdout block-buffered, and with it written through under
    ``PYTHONUNBUFFERED``, which the command batches only while it prints."""
    for unbuffered in (None, "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(extquot.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "extquot.cli", "decompose", "--n", "30", "--k", "2", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() == first_line, unbuffered
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, (unbuffered, stderr)
        finally:
            proc.kill()
            proc.wait()
        assert stderr == b"", unbuffered


class _ByteCounter(io.RawIOBase):
    """A binary sink that keeps only the number of bytes written to it."""

    def __init__(self) -> None:
        self.count = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.count += len(data)
        return len(data)


class _RawRecorder(_ByteCounter):
    """A binary sink that keeps what is written to it and counts the writes,
    as a file descriptor would count write(2) calls."""

    def __init__(self) -> None:
        super().__init__()
        self.data = bytearray()
        self.writes = 0

    def write(self, data) -> int:
        self.writes += 1
        self.data += data
        return super().write(data)


class _ByteHasher(_ByteCounter):
    """A binary sink that keeps the SHA-256 of what is written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return super().write(data)


def test_write_through_stdout_is_batched_while_a_catalog_prints(monkeypatch):
    """Under ``PYTHONUNBUFFERED`` sys.stdout is a write-through TextIOWrapper
    over the raw file, which writes once per ``write`` call, so once per row
    of the 5,780 of the (30, 2) catalog.  The command collects up to 8 KiB
    per raw write instead, prints the same bytes, and leaves the stream
    writing through again.  The wrapper sends its pending text on when the
    next row would take it past 8 KiB, and no row is 1 KiB long, so each
    raw write but the last holds more than 7 KiB."""
    recorder = _RawRecorder()
    stdout = io.TextIOWrapper(recorder, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.run(["decompose", "--n", "30", "--k", "2", "--format", "json"]) == 0
    held = _held_rendering(30, 2, "complex", decompose(ComplexComponent, 30, 2), "json").encode()
    assert recorder.data == held
    assert recorder.writes <= len(held) // 7168 + 4, recorder.writes
    assert stdout.write_through
    writes = recorder.writes
    stdout.write("x")
    assert recorder.writes == writes + 1


@pytest.mark.parametrize("args", [["verify", "all"], ["duality", "--n", "12"]])
def test_write_through_stdout_gets_one_write_per_short_command(monkeypatch, args):
    """A command that prints under 8 KiB line by line reaches a write-through
    sys.stdout in one raw write at its final flush; printing each line
    through ``click.echo``, which flushes after every line, made 12 for
    ``verify all`` and 6 for ``duality --n 12``."""
    recorder = _RawRecorder()
    stdout = io.TextIOWrapper(recorder, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.run(args) == 0
    assert recorder.writes == 1
    assert 0 < len(recorder.data) < 8192
    assert stdout.write_through


def _traced(run):
    """The result of ``run()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


STREAMED_PEAK_BOUND = 1_200_000  # bytes


def test_full_catalog_streams_in_flat_memory(monkeypatch):
    """The (40, 4) complex JSON catalog, 18 MB of stdout, is written with a
    traced peak under 1.2 MB, and its bytes hash to the pinned digest: the
    writer keeps a template per row shape (565), not per row (38,049) or
    per class's row (2,180), and keeps no stratum, omega or singularity."""
    hasher = _ByteHasher()
    stdout = io.TextIOWrapper(io.BufferedWriter(hasher), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    args = ["decompose", "--n", "40", "--k", "4", "--format", "json"]
    code, peak = _traced(lambda: cli.run(args))
    stdout.flush()
    assert code == 0
    assert hasher.sha256.hexdigest() == PINNED[("--n", "40", "--k", "4", "--format", "json")]
    assert peak < STREAMED_PEAK_BOUND, peak


def test_real_k1_catalog_streams_in_flat_memory(monkeypatch):
    """The real (40, 1) CSV catalog, one row per partition of 40, is written
    with a traced peak under 0.65 MB, and its bytes hash to the pinned
    digest: 254 row shapes are kept as text and integers."""
    hasher = _ByteHasher()
    stdout = io.TextIOWrapper(io.BufferedWriter(hasher), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    args = ["decompose", "--n", "40", "--k", "1", "--form", "real", "--format", "csv"]
    code, peak = _traced(lambda: cli.run(args))
    stdout.flush()
    assert code == 0
    assert hasher.sha256.hexdigest() == PINNED[tuple(args[1:])]
    assert peak < 650_000, peak


def test_catalog_builds_one_singularity_per_row_shape(monkeypatch):
    """Writing the (40, 4) catalog builds a CyclicSingularity only for a
    row shape not seen before: 565 for the 2,180 strata of its 1,949
    classes, not one per stratum to look up its shape."""
    built = []

    def counted(self, ambient_dim, group_order, weights, init=CyclicSingularity.__init__):
        built.append(weights)
        init(self, ambient_dim, group_order, weights)

    monkeypatch.setattr(CyclicSingularity, "__init__", counted)
    catalog.write(io.TextIOWrapper(io.BufferedWriter(_ByteCounter()), encoding="utf-8"), "complex", 40, 4, "json")
    assert len(built) == 565


def test_duality_json_is_written_report_by_report(monkeypatch):
    """``duality --n 40 --format json`` writes one report at a time: with the
    reports computed beforehand, printing them has a traced peak under
    400 kB, where building the list of every report and one string of the
    whole output peaked at about 675 kB."""
    reports = cli.duality_reports(40)
    monkeypatch.setattr(cli, "duality_reports", lambda n: reports)
    counter = _ByteCounter()
    stdout = io.TextIOWrapper(io.BufferedWriter(counter), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    code, peak = _traced(lambda: cli.run(["duality", "--n", "40", "--format", "json"]))
    stdout.flush()
    assert code == 0
    assert counter.count == 116_773
    assert peak < 400_000, peak
