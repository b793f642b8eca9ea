#!/usr/bin/env python3
"""Cold-process benchmark of the extquot command line.

    python3 perfbench/run.py --workload {verify,duality,catalog} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Every command of a workload runs in
a fresh interpreter (``perfbench/child.py``) with ``EXTQUOT_JOBS=1``, one
command at a time, and its output is checked with the benchmark's own
arithmetic (``checks.py``).  The workload's command list is repeated in whole
passes until S seconds have gone by.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
(``tracer.py``) with ``--trace 1``.  Every sample goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from child import RECORD_MARK
from tracer import CALLS, CATALOG_FUNCTIONS, ITEMS, ROWS, SELF_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "extquot" / "data"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 6  # per pass; set-up-only interpreters make up what the commands lack
# No pass is started that would end more than DEADLINE_S after the run began,
# which keeps a slowed-down run near --seconds instead of a pass beyond it.
DEADLINE_S = 45
HARD_LIMIT_S = 170  # a command still running then is killed
DUALITY_N = 30
CATALOG_N = 40


@dataclass(frozen=True)
class Command:
    argv: list[str]
    # check(stdout, stdouts of the earlier commands of the same pass)
    check: Callable[[bytes, list[bytes]], None]


# ---------------------------------------------------------------------------
# Workloads.  The seed only picks the duality lookups; the rest is fixed.


def verify_workload(rng: random.Random) -> list[Command]:
    return [Command(["verify", "all", "--format", "json"],
                    lambda out, _: checks.check_verify_all(out, FIXTURES))]


def _lookup_pair(n: int, k: int, mu: tuple[int, ...], exponent: int, at: int) -> list[Command]:
    common = ["--n", str(n), "--k", str(k), "--partition", "+".join(map(str, mu))]
    return [
        Command(["decompose", *common, "--format", "json"],
                lambda out, _: checks.check_lookup(out, n, k, mu)),
        Command(["component", *common, "--omega-exponent", str(exponent), "--format", "json"],
                lambda out, earlier: checks.check_component(out, earlier[at], n, k, exponent)),
    ]


def duality_workload(rng: random.Random) -> list[Command]:
    """The duality report, then for each divisor k one lookup of a partition
    drawn uniformly from all partitions of n, with a uniform omega exponent."""
    n = DUALITY_N
    commands = [Command(["duality", "--n", str(n), "--format", "json"],
                        lambda out, _: checks.check_duality(out, n))]
    mus = checks.partitions(n)
    for k in checks.divisors(n):
        mu = rng.choice(mus)
        exponent = rng.randrange(math.gcd(checks.part_gcd(mu), k))
        commands += _lookup_pair(n, k, mu, exponent, len(commands))
    return commands


def catalog_workload(rng: random.Random) -> list[Command]:
    n = CATALOG_N
    return [
        Command(["decompose", "--n", str(n), "--k", "4", "--format", "json"],
                lambda out, _: checks.check_complex_catalog(out, n, 4)),
        Command(["decompose", "--n", str(n), "--k", "1", "--form", "real", "--format", "csv"],
                lambda out, _: checks.check_real_catalog_k1(out, n)),
    ]


WORKLOADS = {"verify": verify_workload, "duality": duality_workload, "catalog": catalog_workload}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better).  `.calls`, `.items`, `.rows` and
# `.hits` are exact counts of one pass; `.s` is self time, the median over
# passes of its per-pass sum.

LAYER_METRICS = [
    ("partitions.iter_gcd_distinct.items", "count", "lower"),
    ("partitions.iter_gcd_distinct.s", "s", "lower"),
    ("partitions.enumerate_partitions.items", "count", "lower"),
    ("partitions.enumerate_partitions.s", "s", "lower"),
    ("partitions.invariants.calls", "count", "lower"),
    ("partitions.invariants.s", "s", "lower"),
    ("partitions.invariants.per_partition", "ratio", "lower"),
    ("numtheory.pillai.calls", "count", "lower"),
    ("numtheory.pillai.hits", "count", "higher"),
    ("numtheory.pillai.s", "s", "lower"),
    ("numtheory.pillai_via_totient.calls", "count", "lower"),
    ("numtheory.pillai_via_totient.s", "s", "lower"),
    ("complex_quotient.decompose_complex.calls", "count", "lower"),
    ("complex_quotient.decompose_complex.rows", "count", "lower"),
    ("complex_quotient.decompose_complex.s", "s", "lower"),
    ("complex_quotient.complex_component.calls", "count", "lower"),
    ("complex_quotient.complex_component.s", "s", "lower"),
    ("complex_quotient.component_count_from_gcd.calls", "count", "lower"),
    ("complex_quotient.component_count_from_gcd.s", "s", "lower"),
    ("complex_quotient.canonical_singularity.calls", "count", "lower"),
    ("complex_quotient.canonical_singularity.s", "s", "lower"),
    ("complex_quotient.variety_normal_form.calls", "count", "lower"),
    ("complex_quotient.variety_normal_form.s", "s", "lower"),
    ("real_quotient.decompose_real.calls", "count", "lower"),
    ("real_quotient.decompose_real.rows", "count", "lower"),
    ("real_quotient.decompose_real.s", "s", "lower"),
    ("real_quotient.real_component.calls", "count", "lower"),
    ("real_quotient.real_component.s", "s", "lower"),
    ("topology.betti.calls", "count", "lower"),
    ("topology.betti.s", "s", "lower"),
    ("topology.duality_report.calls", "count", "lower"),
    ("topology.duality_report.s", "s", "lower"),
    ("reference.verify.calls", "count", "lower"),
    ("reference.verify.s", "s", "lower"),
    ("reference.cells_checked", "count", "higher"),
    ("reference.property_suites.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.decompose.useful", "ratio", "higher"),
    ("setup.import_s", "s", "lower"),
]
FIELDS = {"calls": CALLS, "items": ITEMS, "rows": ROWS}
ZERO = [0, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Running commands.


class SetupFailed(Exception):
    """The program could not even be imported; no result can be measured."""


def spawn(argv: list[str], trace: bool, env: dict, deadline: float) -> dict:
    """Run one command in a fresh interpreter and time it from this side."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "1" if trace else "0", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    exited = time.perf_counter()
    record = None
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith(RECORD_MARK):
            record = json.loads(line[len(RECORD_MARK):])
    ready = record["ready"] if record else spawned
    return {
        "argv": argv,
        "returncode": proc.returncode,
        "stdout": stdout,
        "stderr_tail": stderr[-2000:].decode("utf-8", "replace") if proc.returncode else "",
        "setup_s": ready - spawned if record else None,
        "wall_s": exited - ready,
        "import_s": record["import_s"] if record else None,
        "rss_kb": record["rss_kb"] if record else 0,
        "stats": record.get("stats", {}) if record else {},
        "cache_hits": record.get("cache_hits", {}) if record else {},
    }


def output_counts(argv: list[str], stdout: bytes) -> dict:
    """Catalog rows printed by `decompose`, and cells checked by `verify`."""
    if argv[0] == "decompose":
        if "csv" in argv:
            return {"rows_printed": stdout.count(b"\n") - 1}
        return {"rows_printed": len(json.loads(stdout)["entries"])}
    if argv[0] == "verify":
        return {"cells_checked": sum(r["cells_checked"] for r in json.loads(stdout)["reports"])}
    return {}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    commands = WORKLOADS[workload](random.Random(seed))
    env = dict(os.environ, PYTHONPATH=str(SRC), EXTQUOT_JOBS="1")

    def probe() -> dict:
        res = spawn([], trace, env, deadline)
        if res["returncode"] != 0 or res["setup_s"] is None:
            raise SetupFailed(res["stderr_tail"] or "no set-up record")
        return res

    probe()  # untimed: writes the bytecode caches and warms the file cache
    passes: list[dict] = []
    problems: list[str] = []
    digests: list[str] = []
    counts: list[dict] = []
    setup_samples: list[float] = []
    import_samples: list[float] = []
    attempted = failed = wrong = 0
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        probes = [probe() for _ in range(SETUP_SAMPLES - len(commands))]
        first = not passes
        outputs: list[bytes] = []
        results = []
        for i, cmd in enumerate(commands):
            res = spawn(cmd.argv, trace, env, deadline)
            attempted += 1
            stdout = res.pop("stdout")
            digest = hashlib.sha256(stdout).hexdigest()
            if first:
                reason = checks.judge(res["returncode"], stdout, lambda out: cmd.check(out, outputs))
                digests.append(digest)
                counts.append(output_counts(cmd.argv, stdout) if trace and reason is None else {})
                outputs.append(stdout)
            else:
                reason = checks.judge(res["returncode"], stdout, lambda out: checks.require(
                    digest == digests[i], "stdout differs from the first pass"))
            if reason is not None:
                failed += 1
                wrong += res["returncode"] == 0
                problems.append(f"pass {len(passes)} `extquot {' '.join(cmd.argv)}`: {reason}")
            res["stdout_bytes"] = len(stdout)
            results.append(res)
        del outputs
        for res in probes + results:
            if res["setup_s"] is not None:
                setup_samples.append(res["setup_s"])
                import_samples.append(res["import_s"])
        passes.append({
            "wall_s": sum(r["wall_s"] for r in results),
            "peak_rss_kb": max(r["rss_kb"] for r in results),
            "commands": results,
        })
        now = time.perf_counter()
        if now - measure_start >= seconds or now + (now - pass_start) > started + DEADLINE_S:
            break

    untraced = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    metrics = layer_metrics(passes, counts, import_samples) if trace else untraced
    for line in problems:
        print(line, file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commands": [cmd.argv for cmd in commands],
        "setup_samples_s": setup_samples,
        "passes": passes,
        "problems": problems,
        "end_to_end": {name: value for name, (value, _) in untraced.items()},
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _pass_totals(results: list[dict]) -> tuple[dict, dict]:
    """Span aggregates and cache hits of one pass, summed over its commands."""
    stats: dict[str, list[int]] = {}
    hits: dict[str, int] = {}
    for res in results:
        for name, rec in res["stats"].items():
            stats[name] = [a + b for a, b in zip(stats.get(name, ZERO), rec)]
        for name, value in res["cache_hits"].items():
            hits[name] = hits.get(name, 0) + value
    return stats, hits


def layer_metrics(passes: list[dict], counts: list[dict], import_samples: list[float]) -> dict:
    """The per-layer metrics of LAYER_METRICS from the commands' span aggregates."""
    totals = [_pass_totals(p["commands"]) for p in passes]
    stats, hits = totals[0]

    def self_s(match: Callable[[str], bool]) -> float:
        return statistics.median(
            sum(rec[SELF_NS] for name, rec in pass_stats.items() if match(name)) for pass_stats, _ in totals
        ) / 1e9

    def count(name: str, field: str) -> int:
        return stats.get(name, ZERO)[FIELDS[field]]

    first = passes[0]["commands"]
    built = sum(res["stats"].get(name, ZERO)[ROWS]
                for res in first if res["argv"][0] == "decompose" for name in CATALOG_FUNCTIONS)
    printed = sum(c.get("rows_printed", 0) for c in counts)
    enumerated = count("partitions.enumerate_partitions", "items")
    special = {
        "partitions.invariants.per_partition": (
            count("partitions.invariants", "calls") / enumerated if enumerated else 0.0),
        "reference.cells_checked": sum(c.get("cells_checked", 0) for c in counts),
        "reference.property_suites.s": self_s(lambda name: name.startswith("reference.property_")),
        "cli.self.s": self_s(lambda name: name.startswith("cli.")),
        "cli.output_bytes": sum(res["stdout_bytes"] for res in first),
        "cli.decompose.useful": printed / built if built else 0.0,
        "setup.import_s": statistics.median(import_samples),
    }
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if name in special:
            value = special[name]
        else:
            function, field = name.rsplit(".", 1)
            if field == "s":
                value = self_s(lambda n, f=function: n == f)
            elif field == "hits":
                value = hits.get(function, 0)
            else:
                value = count(function, field)
        metrics[name] = (value, unit)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extquot" / "cli.py").is_file():
        print(f"no extquot sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"extquot could not be set up:\n{exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
