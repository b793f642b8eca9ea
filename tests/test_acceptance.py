"""Acceptance suite.

One test per acceptance criterion, each asserting exact (zero-tolerance)
agreement and printing a PASS line with timing where relevant.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import random
import time

from conftest import (
    bundle_orientable_k1,
    cofactor_det,
    fixture_text,
    grid_text,
    iter_gcd_distinct,
    two_kind_series_coefficients,
    unimodular_completion,
)
from extquot import reference, topology
from extquot.complex_quotient import (
    ComplexComponent,
    canonical_singularity,
    component_count_from_gcd,
    decompose,
    partition_components,
)
from extquot.numtheory import divisors
from extquot.partitions import Partition, partitions_pairs
from extquot.real_quotient import RealComponent


def test_criterion_1_betti_table_k1():
    """Betti numbers for k = 1 match the reference table on all 45 rows."""
    start = time.time()
    report = reference.verify("betti_k1")
    elapsed = time.time() - start
    assert report.ok, report.mismatches
    assert report.cells_checked == 45 * 9
    print(f"\nCRITERION 1 PASS: betti(n,1) matches all 45 reference rows exactly [{elapsed:.1f}s]")


def test_criterion_2_betti_table_k2():
    """Betti numbers for k = 2 match the reference table on all 30 even rows,
    and the CSV emitter reproduces the fixture byte-for-byte."""
    start = time.time()
    report = reference.verify("betti_k2")
    elapsed = time.time() - start
    assert report.ok, report.mismatches
    assert report.cells_checked == 30 * 10
    computed = topology.betti_table(60, 2, even_only=True)
    assert grid_text(topology.betti_grid(computed), "csv") == fixture_text("betti_k2")
    print(f"\nCRITERION 2 PASS: betti(n,2) matches all 30 even rows to n=60 exactly [{elapsed:.1f}s]")


def test_criterion_3_ktheory_table():
    """K-theory ranks match every populated (n, k) cell for n = 2..20."""
    start = time.time()
    report = reference.verify("ktheory")
    elapsed = time.time() - start
    assert report.ok, report.mismatches
    assert sum(1 for n in range(2, 21) for _ in divisors(n)) == 65  # populated cells
    print(f"\nCRITERION 3 PASS: all 65 K-theory cells match exactly [{elapsed:.1f}s]")


def test_criterion_4_complex_catalogs():
    """The n = 6 catalogs for k = 1, 2, 3, 6 and the n = 16 worked cases match
    row-for-row, including the 8-vs-6 component counts."""
    for table_id in ("sl6_catalogs", "sl16_examples"):
        report = reference.verify(table_id)
        assert report.ok, (table_id, report.mismatches)

    mu = Partition.from_parts([4, 4, 4, 4])
    counts = {
        k: sum(comp.multiplicity for comp in partition_components(ComplexComponent, mu, 16, k))
        for k in (4, 8)
    }
    assert counts == {4: 8, 8: 6}

    def classes(k):
        tally = {}
        for comp in partition_components(ComplexComponent, mu, 16, k):
            key = canonical_singularity(comp.singularity)
            tally[key] = tally.get(key, 0) + comp.multiplicity
        return {(c.group_order, c.weights): v for c, v in tally.items()}

    assert classes(4) == {(4, (1, 2, 3)): 4, (2, (0, 1, 1)): 2, (1, (0, 0, 0)): 2}
    assert classes(8) == {(4, (1, 2, 3)): 4, (2, (0, 1, 1)): 2}
    print("\nCRITERION 4 PASS: complex catalogs for n=6 (all k) and the n=16 cases reproduce exactly")


def test_criterion_5_real_orientability_table():
    """The n = 6, k = 1 real catalog reproduces the multiplicity column and
    the orientability column with exactly one non-orientable bundle."""
    report = reference.verify("su6_orientability")
    assert report.ok, report.mismatches
    flags = [(str(e.partition), bundle_orientable_k1(e.partition)) for e in decompose(RealComponent, 6, 1)]
    non_orientable = [text for text, orientable in flags if not orientable]
    assert non_orientable == ["1+1+2+2"]
    print("\nCRITERION 5 PASS: real n=6 table matches; single non-orientable bundle at 1+1+2+2")


def test_criterion_6_duality():
    """For every n <= 30 and k | n: Betti vectors equal entrywise under
    k <-> n/k and per-partition component counts are invariant."""
    start = time.time()
    checked = 0
    for n in range(1, 31):
        gcds = [g for g, _ in iter_gcd_distinct(n)]
        for k in divisors(n):
            dual = n // k
            assert topology.betti(n, k).ranks == topology.betti(n, dual).ranks
            for g in gcds:
                assert component_count_from_gcd(g, n, k) == component_count_from_gcd(g, n, dual)
                checked += 1
    elapsed = time.time() - start
    print(f"\nCRITERION 6 PASS: duality holds entrywise for n<=30 ({checked} partition checks) [{elapsed:.1f}s]")


def test_criterion_7_oracle_equivalence():
    """Closed-form component counts equal the brute-force omega sums for all
    partitions of n <= 40 and every k | n; pillai agrees with its divisor-sum
    form up to 10^4."""
    start = time.time()
    report = reference.property_oracle_equivalence(40)
    assert report.ok, report.mismatches
    pillai_report = reference.property_pillai(10_000)
    assert pillai_report.ok, pillai_report.mismatches
    elapsed = time.time() - start
    print(f"\nCRITERION 7 PASS: closed forms match brute force (n<=40) and pillai to 10^4 [{elapsed:.1f}s]")


def test_criterion_8_euler_divisor_sum():
    """Euler characteristic at k = 1 equals the divisor sum for n <= 45."""
    report = reference.property_euler_divisor(45)
    assert report.ok, report.mismatches
    print("\nCRITERION 8 PASS: euler_characteristic(n,1) = sigma(n) for n<=45")


def test_criterion_9_top_betti():
    """The closed-form top degree and rank agree with the Betti vector for
    n <= 45, and the two-kind partition counts match the generating function
    through degree 20."""
    report = reference.property_top_betti(45)
    assert report.ok, report.mismatches
    coefficients = two_kind_series_coefficients(20)
    for r in range(21):
        assert partitions_pairs(r) == coefficients[r]
    print("\nCRITERION 9 PASS: top Betti formula and generating function verified")


def test_criterion_10_unimodular_completion():
    """1000 random vectors (length <= 8, entries within +-50, not all zero)
    complete to determinant-one matrices with first column v / gcd(v).

    Single-entry vectors are drawn positive: that is the operation's domain,
    since a lone negative entry has no determinant +1 completion.
    """
    rng = random.Random(1729)
    checked = 0
    while checked < 1000:
        length = rng.randint(1, 8)
        if length == 1:
            v = [rng.randint(1, 50)]
        else:
            v = [rng.randint(-50, 50) for _ in range(length)]
            if not any(v):
                continue
        a = unimodular_completion(v)
        g = math.gcd(*v)
        assert a.column(0) == tuple(x // g for x in v)
        assert cofactor_det(a.entries) == 1
        checked += 1
    print("\nCRITERION 10 PASS: 1000 randomized unimodular completions exact")
