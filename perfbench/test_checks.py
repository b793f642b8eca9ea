"""Self-tests of the benchmark's output checks.

Each check must accept real program output and fail closed on a corrupted
copy of it.  The outputs are small ones made in-process, so no workload runs:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from extquot.cli import main as extquot_main  # noqa: E402


def cli(*args: str) -> bytes:
    result = CliRunner().invoke(extquot_main, list(args))
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def edit_json(stdout: bytes, edit) -> bytes:
    data = json.loads(stdout)
    edit(data)
    return json.dumps(data).encode()


class OwnArithmetic(unittest.TestCase):
    def test_partition_counts(self):
        # P(n), the partition function, for n = 1..10, 30 and 40.
        known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42, 30: 5604, 40: 37338}
        for n, count in known.items():
            mus = checks.partitions(n)
            self.assertEqual(len(mus), count)
            self.assertEqual(len(set(mus)), count)
            self.assertTrue(all(sum(mu) == n and list(mu) == sorted(mu) for mu in mus))


class ChecksFailClosed(unittest.TestCase):
    n, k = 12, 4
    mu, exponent = (4, 4, 4), 2

    @classmethod
    def setUpClass(cls):
        n, k, part = str(cls.n), str(cls.k), "+".join(map(str, cls.mu))
        cls.catalog = cli("decompose", "--n", n, "--k", k, "--format", "json")
        cls.real = cli("decompose", "--n", n, "--k", "1", "--form", "real", "--format", "csv")
        cls.lookup = cli("decompose", "--n", n, "--k", k, "--partition", part, "--format", "json")
        cls.component = cli("component", "--n", n, "--k", k, "--partition", part,
                            "--omega-exponent", str(cls.exponent), "--format", "json")
        cls.duality = cli("duality", "--n", "16", "--format", "json")
        cells = checks.fixture_cells(run.FIXTURES)
        reports = [{"table": name, "cells_checked": count, "mismatches": []} for name, count in cells.items()]
        reports += [{"table": name, "cells_checked": 1, "mismatches": []} for name in checks.PROPERTY_SUITES]
        cls.verify = json.dumps({"suite": "all", "ok": True, "reports": reports}).encode()

    def check_catalog(self, out):
        checks.check_complex_catalog(out, self.n, self.k)

    def check_real(self, out):
        checks.check_real_catalog_k1(out, self.n)

    def check_lookup(self, out):
        checks.check_lookup(out, self.n, self.k, self.mu)

    def check_component(self, out):
        checks.check_component(out, self.lookup, self.n, self.k, self.exponent)

    def check_duality(self, out):
        checks.check_duality(out, 16)

    def check_verify(self, out):
        checks.check_verify_all(out, run.FIXTURES)

    def assert_fails(self, check, out):
        with self.assertRaises(checks.CheckFailed):
            check(out)

    def test_real_output_passes(self):
        for check, out in [
            (self.check_catalog, self.catalog),
            (self.check_real, self.real),
            (self.check_lookup, self.lookup),
            (self.check_component, self.component),
            (self.check_duality, self.duality),
            (self.check_verify, self.verify),
        ]:
            self.assertIsNone(checks.judge(0, out, check))

    def test_dropped_catalog_row(self):
        self.assert_fails(self.check_catalog, edit_json(self.catalog, lambda d: d["entries"].pop(7)))
        self.assert_fails(self.check_lookup, edit_json(self.lookup, lambda d: d["entries"].pop()))
        lines = self.real.splitlines(keepends=True)
        self.assert_fails(self.check_real, b"".join(lines[:5] + lines[6:]))

    def test_wrong_multiplicity(self):
        def bump(row):
            row["multiplicity"] += 1

        self.assert_fails(self.check_catalog, edit_json(self.catalog, lambda d: bump(d["entries"][-1])))
        self.assert_fails(self.check_lookup, edit_json(self.lookup, lambda d: bump(d["entries"][0])))
        self.assert_fails(self.check_component, edit_json(self.component, bump))
        text = self.real.decode()
        # The last row is 1+1+...+1 with multiplicity 1, which is not gcd(1, n) + 1.
        head, last = text.rstrip("\n").rsplit("\n", 1)
        fields = last.split(",")
        fields[4] = "2"
        self.assert_fails(self.check_real, f"{head}\n{','.join(fields)}\n".encode())

    def test_asymmetric_duality_differences(self):
        def add(k, text):
            def edit(records):
                next(r for r in records if r["k"] == k)["singularity_differences"].append(text)
            return edit

        self.assert_fails(self.check_duality, edit_json(self.duality, add(2, "8+8")))
        # k = 4 is its own dual at n = 16, so it can list no differences.
        self.assert_fails(self.check_duality, edit_json(self.duality, add(4, "8+8")))

    def test_reference_table_with_zero_cells(self):
        def zero(table):
            def edit(payload):
                next(r for r in payload["reports"] if r["table"] == table)["cells_checked"] = 0
            return edit

        self.assert_fails(self.check_verify, edit_json(self.verify, zero("betti_k1")))
        self.assert_fails(self.check_verify, edit_json(self.verify, zero("top_betti")))

    def test_reference_table_missing_cells(self):
        def drop_one(payload):
            next(r for r in payload["reports"] if r["table"] == "ktheory")["cells_checked"] -= 1

        self.assert_fails(self.check_verify, edit_json(self.verify, drop_one))

    def test_component_from_another_omega(self):
        # A valid row of mu, but for omega exponent 0 rather than 2.
        def other_omega(row):
            row["omega_exponent"], row["omega_order"] = 0, 1

        self.assert_fails(self.check_component, edit_json(self.component, other_omega))

    def test_nonzero_exit(self):
        self.assertEqual(checks.judge(1, self.catalog, self.check_catalog), "exit code 1")
        self.assertEqual(checks.judge(2, self.verify, self.check_verify), "exit code 2")

    def test_malformed_output(self):
        for check in (self.check_catalog, self.check_real, self.check_duality, self.check_verify):
            self.assertIsNotNone(checks.judge(0, b"Traceback (most recent call last):\n", check))


class BenchmarkDefinition(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, run.LAYER_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
