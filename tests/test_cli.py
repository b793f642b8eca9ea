import csv
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import extquot
from conftest import fixture_text
from extquot import cli, reference, topology
from extquot.cli import main, parse_partition
from extquot.complex_quotient import ComplexComponent, decompose
from extquot.partitions import Partition, partition_count


@pytest.fixture()
def runner():
    return CliRunner()


def test_parse_partition_syntaxes():
    expected = Partition.from_parts([1, 1, 2, 2])
    assert parse_partition("1+1+2+2") == expected
    assert parse_partition("2^2,1^2") == expected
    assert parse_partition("2,2,1,1") == expected
    assert parse_partition("4,4,4,4") == Partition.from_parts([4, 4, 4, 4])


def test_parse_partition_rejects_garbage():
    for text in ("", "1++2", "a+b", "0", "2^0", "2^", "2^,4"):
        with pytest.raises(cli.UsageError):
            parse_partition(text)


def test_run_length_partition_is_not_expanded(runner):
    """A multiplicity is summed, never expanded into parts: a partition of
    10^12 ones is refused at once, and the message names it in run-length
    form."""
    result = runner.invoke(main, ["decompose", "--n", "5", "--partition", "1^1000000000000"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert len(result.stderr_bytes) < 200
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
    assert errors == ["Error: partition 1^1000000000000 sums to 1000000000000, not n=5"]


def test_betti_ktheory_euler_text(runner):
    assert runner.invoke(main, ["betti", "--n", "6", "--k", "1"]).output == "20 9 1\n"
    assert runner.invoke(main, ["ktheory", "--n", "6", "--k", "1"]).output == "21 9\n"
    assert runner.invoke(main, ["euler", "--n", "1", "--k", "1"]).output == "1\n"


def test_betti_json(runner):
    result = runner.invoke(main, ["betti", "--n", "8", "--k", "2", "--format", "json"])
    assert json.loads(result.output) == {"n": 8, "k": 2, "betti": [40, 27, 5]}


def test_usage_errors_exit_2(runner):
    assert runner.invoke(main, ["betti", "--n", "6", "--k", "4"]).exit_code == 2
    assert runner.invoke(main, ["decompose", "--n", "6", "--k", "2", "--partition", "nonsense"]).exit_code == 2
    # partition that does not sum to n
    assert runner.invoke(main, ["decompose", "--n", "6", "--k", "2", "--partition", "1+1"]).exit_code == 2
    # an empty partition is malformed, not a request for the whole catalog
    result = runner.invoke(main, ["decompose", "--n", "4", "--partition", ""])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines()[-1] == "Error: malformed partition ''"


def test_decompose_json_schema_and_partition_filter(runner):
    result = runner.invoke(main, [
        "decompose", "--n", "16", "--k", "8", "--partition", "4,4,4,4", "--form", "complex",
        "--format", "json",
    ])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert (data["n"], data["k"], data["form"]) == (16, 8, "complex")
    assert len(data["entries"]) == 4
    assert sum(e["multiplicity"] for e in data["entries"]) == 6
    assert data["entries"][0]["singularity"] == {
        "ambient_dim": 3, "group_order": 4, "weights": [1, 2, 3],
    }


def test_decompose_markdown_psl6(runner):
    result = runner.invoke(main, ["decompose", "--n", "6", "--k", "6"])
    lines = result.output.splitlines()
    # 11 partition strata, one row per omega: 20 data rows plus 2 header lines
    assert len(lines) == 22
    assert "| 2+2+2 | 1 | 1 | A^2/C_3(1,2) |" in lines
    assert "| 1+1+1+1+1+1 | 1 | 1 | A^5/C_6(1,2,3,4,5) |" in lines


def test_decompose_real_markdown(runner):
    result = runner.invoke(main, ["decompose", "--n", "6", "--k", "1", "--form", "real"])
    assert result.exit_code == 0
    rows = [line for line in result.output.splitlines() if line.startswith("| 1+1+2+2")]
    assert rows == ["| 1+1+2+2 | 1 | 1 | T^1 | 1,1 | 1 | 2,2 | yes | no |"]


def test_decompose_trivial_point(runner):
    result = runner.invoke(main, ["decompose", "--n", "1", "--k", "1"])
    assert "| 1 | 1 | 1 | A^0 |" in result.output


def test_component_command(runner):
    result = runner.invoke(main, [
        "component", "--n", "16", "--k", "8", "--partition", "2^4,4^2", "--omega-exponent", "1",
    ])
    assert result.output == "mu=2+2+2+2+4+4 omega=z^4 |X|=1 variety=C*^1 x A^4/C_2(1,1,0,1)\n"
    out_of_range = runner.invoke(main, [
        "component", "--n", "16", "--k", "8", "--partition", "2^4,4^2", "--omega-exponent", "7",
    ])
    assert out_of_range.exit_code == 2


def test_table_betti_reproduces_reference_csv(runner):
    result = runner.invoke(main, ["table", "betti", "--max-n", "45", "--k", "1"])
    assert result.output == fixture_text("betti_k1")


def test_table_betti_k2_reproduces_reference_csv(runner):
    result = runner.invoke(main, ["table", "betti", "--max-n", "60", "--k", "2", "--even-only"])
    assert result.exit_code == 0
    assert result.output == fixture_text("betti_k2")


def test_table_ktheory_reproduces_reference_csv(runner):
    result = runner.invoke(main, ["table", "ktheory", "--max-n", "20"])
    assert result.output == fixture_text("ktheory")


def test_table_empty(runner):
    result = runner.invoke(main, ["table", "betti", "--max-n", "0"])
    assert result.output == "n\n"


def test_duality_command(runner):
    result = runner.invoke(main, ["duality", "--n", "12"])
    assert result.exit_code == 0
    assert result.output.count("[ok]") == 6
    result = runner.invoke(main, ["duality", "--n", "6", "--format", "json"])
    payload = json.loads(result.output)
    assert payload[0]["betti_equal"] is True
    assert payload[0]["singularity_differences"] == ["2+2+2", "1+1+2+2", "1+1+1+1+1+1"]


@pytest.mark.parametrize("change, flag, verdict", [
    (lambda s: s._replace(multiplicity=s.multiplicity + 1), "counts_equal",
     "counts != dual, torus dims != dual [MISMATCH]"),
    (lambda s: s._replace(torus_dim=s.torus_dim + 1), "torus_counts_equal",
     "counts = dual, torus dims != dual [MISMATCH]"),
], ids=["count", "torus_dims"])
def test_duality_fails_on_a_side_that_is_not_dual(runner, monkeypatch, change, flag, verdict):
    """One stratum on the n/k = 6 side of the pair k = 2 at n = 12, the first
    of the one-part partition 12, gets one more point, which its torus
    dimension's tally counts too, or moves to another torus dimension with
    its count kept.  The pair's two reports fail on that flag, their text
    lines and JSON records say why, the other reports pass, and the command
    exits 1 in either format."""
    strata = topology.strata

    def perturbed(inv, n, k):
        layers = strata(inv, n, k)
        if k == 6 and inv.g == 12:
            layers[0] = change(layers[0])
        return layers

    monkeypatch.setattr(topology, "strata", perturbed)
    for report in topology.duality_reports(12):
        assert getattr(report, flag) is (report.k not in (2, 6)), report.k
        assert report.ok is (report.k not in (2, 6)), report.k
    result = runner.invoke(main, ["duality", "--n", "12"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    for line, k, k_dual in (lines[1], 2, 6), (lines[4], 6, 2):
        assert line.startswith(f"n=12 k={k} <-> k'={k_dual}: betti = dual, {verdict}"), line
    assert sum("[MISMATCH]" in line for line in lines) == 2
    result = runner.invoke(main, ["duality", "--n", "12", "--format", "json"])
    assert result.exit_code == 1
    for record in json.loads(result.output):
        assert record[flag] is (record["k"] not in (2, 6)), record["k"]


def test_duality_reader_closing_early_exits_zero():
    """``duality --n 36 | head -1``: no report is a mismatch, so the command
    exits 0 although the reader stops before its 80 kB of output end; with
    stdout block-buffered, and with it written through under
    ``PYTHONUNBUFFERED``."""
    for unbuffered in (None, "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(extquot.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen([sys.executable, "-m", "extquot.cli", "duality", "--n", "36"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline().startswith(b"n=36 k=1 <-> k'=36: betti = dual, counts = dual [ok]")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0, (unbuffered, stderr)
        finally:
            proc.kill()
            proc.wait()
        assert stderr == b"", unbuffered


def test_version_from_a_source_checkout():
    """``--version`` reports ``extquot.__version__`` when the package runs
    from its sources on PYTHONPATH, with no installed metadata to read."""
    env = dict(os.environ, PYTHONPATH=str(Path(extquot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "extquot.cli", "--version"], capture_output=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout.decode().split()[-1] == extquot.__version__ == "0.1.0"


def test_readme_library_block_imports_the_public_names():
    """The ``from extquot import (...)`` block under "## Library" in the
    README names exactly ``extquot.__all__``, and each name resolves."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = library.split("from extquot import (", 1)[1].split(")", 1)[0]
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert sorted(names) == sorted(extquot.__all__)
    for name in names:
        assert getattr(extquot, name) is not None, name


def test_import_freezes_the_heap_it_built():
    """Importing ``extquot.cli`` in a fresh interpreter ends with the objects
    it made frozen, so garbage collection, also at exit, leaves them alone:
    far more are frozen than are left for a collection to walk."""
    env = dict(os.environ, PYTHONPATH=str(Path(extquot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", "import gc, extquot.cli; print(gc.get_freeze_count(), "
                           "len(gc.get_objects()))"], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    frozen, unfrozen = map(int, proc.stdout.split())
    assert frozen > unfrozen


def test_commands_do_not_freeze_again(runner):
    """The heap is frozen once, when ``extquot.cli`` is imported, never per
    command: commands run in process, as here, leave the frozen count as it
    was.  Freezing per command would add all that the test process has built
    since.  A first command frees a few frozen objects, so the count is taken
    after one."""
    assert runner.invoke(main, ["betti", "--n", "6"]).exit_code == 0
    frozen = gc.get_freeze_count()
    for _ in range(2):
        assert runner.invoke(main, ["betti", "--n", "6"]).exit_code == 0
    assert gc.get_freeze_count() == frozen


def test_import_loads_only_the_standard_library():
    """Importing ``extquot.cli`` in a fresh interpreter loads no module from
    outside the standard library and the package: not click, and neither
    ``dataclasses`` nor the ``inspect`` it brings."""
    env = dict(os.environ, PYTHONPATH=str(Path(extquot.__file__).parents[1]))
    code = ("import sys; before = set(sys.modules); import extquot.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.decode().split()
    assert "extquot.cli" in loaded
    assert not {"click", "dataclasses", "inspect"} & set(loaded), loaded
    outside = [name for name in loaded
               if name.partition(".")[0] not in {*sys.stdlib_module_names, "extquot"}]
    assert outside == []


def test_main_exits_with_the_status_of_the_command(tmp_path, capsys):
    """``main.main(args=..., prog_name=...)``, as the benchmark's child
    process calls it, raises SystemExit with 0 for a clean run, 1 for a
    verification mismatch and 2 for a usage error, and ``main.name`` names
    the program."""
    path = _fixture_copy(tmp_path) / "ktheory.csv"
    path.write_text(path.read_text().replace("609/569", "609/570"))
    mismatch = ["verify", "paper", "--table", "ktheory", "--fixture-dir", str(tmp_path)]
    for args, status in ((["betti", "--n", "6"], 0), (mismatch, 1), (["betti", "--n", "6", "--k", "4"], 2)):
        with pytest.raises(SystemExit) as exited:
            main.main(args=args, prog_name="extquot")
        assert exited.value.code == status, args
    assert capsys.readouterr().err == "Error: k=4 must divide n=6\n"
    assert main.name == "extquot"


# Bad inputs the program itself rejects, each with its whole stderr, which
# is as it was when click parsed the arguments.
REFUSED = [
    (["betti", "--n", "6", "--k", "4"], "k=4 must divide n=6"),
    (["betti", "--n", "0"], "n must be positive"),
    (["decompose", "--n", "-3"], "n must be positive"),
    (["betti", "--n", "6", "--k", "-2"], "k must be positive"),
    (["decompose", "--n", "6", "--k", "4"], "k=4 must divide n=6"),
    (["decompose", "--n", "4", "--partition", ""], "malformed partition ''"),
    (["decompose", "--n", "6", "--k", "2", "--partition", "nonsense"], "malformed partition 'nonsense'"),
    (["decompose", "--n", "6", "--k", "2", "--partition", "1+1"], "partition 1^2 sums to 2, not n=6"),
    (["decompose", "--n", "100", "--k", "4"],
     "the (n=100, k=4) catalog has 190,777,434 rows, more than the 1,000,000 a full catalog may print; "
     "use --partition"),
    (["decompose", "--n", "1000000"],
     "the (n=1000000, k=1) catalog has more rows than the 1,000,000 a full catalog may print; use --partition"),
    (["duality", "--n", "61"],
     "duality for n=61 compares all 1,121,505 partitions of 61, more than the 1,000,000 a check may walk"),
    (["duality", "--n", "1000000"],
     "duality for n=1000000 compares all partitions of 1000000, more than the 1,000,000 a check may walk"),
    (["duality", "--n", "0"], "n must be positive"),
    (["table", "betti", "--max-n", "-1"], "max-n must be nonnegative and k positive"),
    (["component", "--n", "6", "--partition", "1+1+2+2", "--omega-exponent", "5"],
     "omega exponent must lie in 0..0 for this partition"),
    (["component", "--n", "6", "--k", "2", "--partition", "2+2+2", "--omega-exponent", "-1"],
     "omega exponent must lie in 0..1 for this partition"),
]
# Bad inputs the parser rejects, each with a word its message must name.
MISPARSED = [
    ([], "COMMAND"),
    (["--bogus"], "--bogus"),
    (["betti", "-h"], "-h"),
    (["frobnicate"], "'frobnicate'"),
    (["betti"], "--n"),
    (["betti", "--n"], "--n"),
    (["betti", "--n", "x"], "'x'"),
    (["betti", "--n", "6", "--format", "xml"], "'xml'"),
    (["betti", "--n", "6", "--bogus", "1"], "--bogus"),
    (["betti", "--n", "6", "extra"], "extra"),
    (["table", "chern", "--max-n", "4"], "'chern'"),
    (["table", "betti"], "--max-n"),
    (["decompose", "--n", "6", "--form", "quaternionic"], "'quaternionic'"),
    (["component", "--n", "6"], "--partition"),
    (["verify", "everything"], "'everything'"),
    (["verify", "paper", "--table", "nope"], "'nope'"),
    (["verify", "paper", "--fixture-dir"], "--fixture-dir"),
    (["verify", "paper", "--fixture-dir", "no/such/dir"], "'no/such/dir'"),
]


def _ids(cases):
    return [" ".join(args) or "no arguments" for args, _ in cases]


@pytest.mark.parametrize("args, message", REFUSED, ids=_ids(REFUSED))
def test_refused_input_prints_its_message_alone(capsys, no_enumeration, args, message):
    assert cli.run(args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"Error: {message}\n")


def test_missing_fixture_prints_its_message_alone(capsys, tmp_path):
    assert cli.run(["verify", "paper", "--fixture-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: reference table betti_k1 ({tmp_path / 'betti_k1.csv'}): no such file\n"


@pytest.mark.parametrize("args, word", MISPARSED, ids=_ids(MISPARSED))
def test_misparsed_input_prints_one_error_line(capsys, args, word):
    assert cli.run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200
    assert word in captured.err


def test_verify_fast_tables(runner):
    result = runner.invoke(main, [
        "verify", "paper",
        "--table", "su6_orientability", "--table", "sl6_catalogs", "--table", "sl16_examples",
    ])
    assert result.exit_code == 0
    assert "verification clean" in result.output


def _fixture_copy(tmp_path):
    for table_id in reference.TABLE_IDS:
        shutil.copy(reference.fixture_path(table_id), tmp_path / f"{table_id}.csv")
    return tmp_path


def _verify_table(runner, table_id, fixture_dir, *options):
    return runner.invoke(main, [
        "verify", "paper", "--table", table_id, "--fixture-dir", str(fixture_dir), *options,
    ])


def test_verify_reports_injected_fault(runner, tmp_path):
    """A fixture cell changed by one is reported in the text line, and in
    JSON as the mismatch's location, expected and actual, in that order."""
    path = _fixture_copy(tmp_path) / "ktheory.csv"
    text = path.read_text().replace("609/569", "609/570")
    path.write_text(text)
    result = _verify_table(runner, "ktheory", tmp_path)
    assert result.exit_code == 1
    assert "n=16 k=4" in result.output
    assert "expected '609/570', got '609/569'" in result.output
    result = _verify_table(runner, "ktheory", tmp_path, "--format", "json")
    assert result.exit_code == 1
    assert ('          "location": "n=16 k=4",\n'
            '          "expected": "609/570",\n'
            '          "actual": "609/569"\n') in result.output


def test_verify_json_format(runner):
    result = runner.invoke(main, [
        "verify", "paper", "--table", "su6_orientability", "--format", "json",
    ])
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert payload["reports"][0]["table"] == "su6_orientability"
    assert payload["reports"][0]["mismatches"] == []


def test_verify_repeated_table_is_verified_once(runner):
    args = ["verify", "paper", "--table", "ktheory", "--table", "su6_orientability", "--table", "ktheory"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "ktheory: 380 cells checked, ok",
        "su6_orientability: 56 cells checked, ok",
        "verification clean",
    ]
    result = runner.invoke(main, [*args, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert [(r["table"], r["cells_checked"]) for r in payload["reports"]] == [
        ("ktheory", 380), ("su6_orientability", 56),
    ]


def test_unknown_verify_suite_exits_2(runner):
    assert runner.invoke(main, ["verify", "everything"]).exit_code == 2


def _assert_data_error(result, table_id, path):
    assert result.exit_code == 2
    assert result.stdout == ""
    message = result.stderr.strip()
    assert "\n" not in message
    assert table_id in message and str(path) in message
    assert "verification clean" not in result.output


def test_verify_renamed_betti_header_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    path.write_text(path.read_text().replace("n,b_0,", "n,b0,", 1))
    result = _verify_table(runner, "betti_k1", tmp_path)
    _assert_data_error(result, "betti_k1", path)
    assert "'b_0'" in result.stderr


def test_verify_empty_fixture_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "ktheory.csv"
    path.write_text("")
    result = _verify_table(runner, "ktheory", tmp_path)
    _assert_data_error(result, "ktheory", path)
    assert "empty" in result.stderr


def test_verify_missing_fixture_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "sl16_examples.csv"
    path.unlink()
    result = _verify_table(runner, "sl16_examples", tmp_path)
    _assert_data_error(result, "sl16_examples", path)


def test_verify_fixture_without_rows_fails(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k2.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    result = _verify_table(runner, "betti_k2", tmp_path)
    assert result.exit_code == 1
    assert "betti_k2: 0 cells checked, FAILED" in result.output
    assert "verification FAILED" in result.output


def _drop_lines(path, predicate):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not predicate(line)))


def test_verify_missing_betti_row_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    _drop_lines(path, lambda line: line.startswith("45,"))
    result = _verify_table(runner, "betti_k1", tmp_path)
    _assert_data_error(result, "betti_k1", path)
    assert "n=45 found 0 times, expected 1" in result.stderr


def test_verify_duplicate_betti_row_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:6] + [lines[5]] + lines[6:]))
    result = _verify_table(runner, "betti_k1", tmp_path)
    _assert_data_error(result, "betti_k1", path)
    assert "n=5 found 2 times, expected 1" in result.stderr


def test_verify_missing_ktheory_column_is_a_data_error(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "ktheory.csv"
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()))
    result = _verify_table(runner, "ktheory", tmp_path)
    _assert_data_error(result, "ktheory", path)
    assert "n=2 k=20 found 0 times, expected 1" in result.stderr


@pytest.mark.parametrize("table_id, prefix", [("sl6_catalogs", "6,3,"), ("sl16_examples", "16,8,")])
def test_verify_missing_catalog_group_is_a_data_error(runner, tmp_path, table_id, prefix):
    path = _fixture_copy(tmp_path) / f"{table_id}.csv"
    _drop_lines(path, lambda line: line.startswith(prefix))
    result = _verify_table(runner, table_id, tmp_path)
    _assert_data_error(result, table_id, path)
    n, k = prefix.rstrip(",").split(",")
    assert f"n={n} k={k} found 0 times, expected 1" in result.stderr


@pytest.mark.parametrize("table_id, column", [
    ("betti_k1", "n"),
    ("ktheory", "n"),
    ("sl16_examples", "k"),
    ("sl16_examples", "omega_exponent"),
    ("sl16_examples", "partition"),
])
def test_verify_malformed_cell_is_a_data_error(runner, tmp_path, table_id, column):
    path = _fixture_copy(tmp_path) / f"{table_id}.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = "x"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    result = _verify_table(runner, table_id, tmp_path)
    _assert_data_error(result, table_id, path)
    assert f"line 2: malformed {column} cell 'x'" in result.stderr


def test_verify_betti_degree_beyond_the_last_column_is_a_mismatch(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()))
    result = _verify_table(runner, "betti_k1", tmp_path)
    assert result.exit_code == 1
    assert "n=45 b_8: expected '', got '1'" in result.output


def test_verify_betti_stray_column_is_a_mismatch(runner, tmp_path):
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    header, *lines = path.read_text().splitlines()
    lines = [line + (",7" if line.startswith("45,") else ",") for line in lines]
    path.write_text("\n".join([header + ",b_10", *lines]) + "\n")
    result = _verify_table(runner, "betti_k1", tmp_path)
    assert result.exit_code == 1
    assert "n=45 b_10: expected '7', got ''" in result.output
    assert "verification clean" not in result.output


@pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
def test_verify_row_of_the_wrong_width_is_a_data_error(runner, tmp_path, extra):
    """A betti_k1 row with one cell more or one fewer than the header is a
    malformed fixture, not a mismatch in a column named None or a blank."""
    path = _fixture_copy(tmp_path) / "betti_k1.csv"
    header, *lines = path.read_text().splitlines()
    row = lines[5] + ",99" if extra > 0 else lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join([header, *lines[:5], row, *lines[6:]]) + "\n")
    result = _verify_table(runner, "betti_k1", tmp_path)
    _assert_data_error(result, "betti_k1", path)
    columns = header.count(",") + 1
    assert f"line 7: {columns + extra} cells, but the header has {columns}" in result.stderr


ENUMERATORS = ("enumerate_partitions", "classified_partitions", "by_class")


@pytest.fixture()
def no_enumeration(monkeypatch):
    """Make every binding of every partition enumerator in the package raise."""

    def refuse(n):
        raise AssertionError(f"enumerated the partitions of {n}")

    for name, module in list(sys.modules.items()):
        for enumerator in ENUMERATORS:
            if name.startswith("extquot") and hasattr(module, enumerator):
                monkeypatch.setattr(module, enumerator, refuse)


@pytest.mark.parametrize("args", [
    ["decompose", "--n", "16", "--k", "8", "--partition", "2^4,4^2", "--form", "real", "--format", "json"],
    ["decompose", "--n", "100", "--k", "4", "--partition", "25,25,25,25"],
    ["component", "--n", "16", "--k", "8", "--partition", "2^4,4^2", "--omega-exponent", "1"],
    ["verify", "paper", "--table", "sl16_examples"],
])
def test_lookups_build_no_catalog(runner, no_enumeration, args):
    with pytest.raises(AssertionError, match="enumerated"):
        decompose(ComplexComponent, 6, 1)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("form", ["complex", "real"])
def test_oversized_catalog_is_refused_without_enumeration(runner, no_enumeration, form):
    result = runner.invoke(main, ["decompose", "--n", "100", "--k", "4", "--form", form])
    assert result.exit_code == 2
    assert result.stdout == ""
    message = result.stderr.strip()
    assert "\n" not in message
    assert "190,777,434 rows" in message and "--partition" in message
    result = runner.invoke(main, ["decompose", "--n", "100", "--k", "4", "--form", form,
                                  "--partition", "25,25,25,25"])
    assert result.exit_code == 0, result.output


def test_catalog_row_limit_is_inclusive(runner, monkeypatch):
    rows = len(decompose(ComplexComponent, 6, 2))
    monkeypatch.setattr(cli, "MAX_CATALOG_ROWS", rows)
    assert runner.invoke(main, ["decompose", "--n", "6", "--k", "2"]).exit_code == 0
    monkeypatch.setattr(cli, "MAX_CATALOG_ROWS", rows - 1)
    result = runner.invoke(main, ["decompose", "--n", "6", "--k", "2"])
    assert result.exit_code == 2
    assert f"{rows} rows" in result.stderr


@pytest.mark.parametrize("n, count", [(61, "1,121,505"), (100, "190,569,292")])
def test_oversized_duality_is_refused_without_enumeration(runner, no_enumeration, n, count):
    result = runner.invoke(main, ["duality", "--n", str(n)])
    assert result.exit_code == 2
    assert result.stdout == ""
    message = result.stderr.strip()
    assert "\n" not in message
    assert f"{count} partitions" in message


def test_duality_partition_limit_is_inclusive(runner, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CATALOG_ROWS", partition_count(12))
    assert runner.invoke(main, ["duality", "--n", "12"]).exit_code == 0
    monkeypatch.setattr(cli, "MAX_CATALOG_ROWS", partition_count(12) - 1)
    result = runner.invoke(main, ["duality", "--n", "12"])
    assert result.exit_code == 2
    assert "77 partitions" in result.stderr


@pytest.mark.parametrize("args", [
    ["duality", "--n", "1000000"],
    ["decompose", "--n", "1000000", "--k", "1"],
    ["decompose", "--n", "1000000", "--k", "1", "--form", "real"],
])
def test_oversized_n_is_refused_without_counting_past_1000(runner, no_enumeration, monkeypatch, args):
    """P is non-decreasing, and every n above cli.EXACT_COUNT_MAX_N has more
    partitions than the limit, so such an n is refused without counting any."""
    assert partition_count(cli.EXACT_COUNT_MAX_N + 1) > cli.MAX_CATALOG_ROWS
    counted = []

    def recorded(n):
        counted.append(n)
        return partition_count(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("extquot") and hasattr(module, "partition_count"):
            monkeypatch.setattr(module, "partition_count", recorded)
    result = runner.invoke(main, args)
    assert counted == []
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    message = result.stderr.strip()
    assert "\n" not in message
    assert "1,000,000" in message


def test_each_duality_run_does_its_own_work_once(runner, monkeypatch):
    """A run computes the invariants of each class of partitions of n once
    and builds each class's strata once per divisor, and a second run in the
    same process does all of that again rather than reading it from the
    first."""
    calls = {"invariants": 0, "strata": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(topology, name, counted(name, getattr(topology, name)))
    for _ in range(2):
        calls.update(invariants=0, strata=0)
        assert runner.invoke(main, ["duality", "--n", "24"]).exit_code == 0
        # 335 invariant classes among the 1,575 partitions of 24, for each of its 8 divisors
        assert calls == {"invariants": 335, "strata": 335 * 8}
