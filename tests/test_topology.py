import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (betti_from_catalog, components_profile, duality_report_oracle, enumerated_class_counts,
                      fixture_text, grid_text, variety_normal_form_oracle)
from extquot import topology
from extquot.complex_quotient import (ComplexComponent, component_count_from_gcd, decompose,
                                     partition_components, strata, variety_normal_form)
from extquot.numtheory import divisor_sigma, divisors
from extquot.partitions import Partition, classified_partitions, enumerate_partitions, invariants, partitions_pairs
from extquot.real_quotient import RealComponent
from extquot.topology import (
    betti,
    betti_grid,
    betti_table,
    duality_reports,
    euler_characteristic,
    ktheory_grid,
    ktheory_table,
    ktheory_ranks,
    top_betti,
)


def test_betti_examples():
    assert betti(6, 1).ranks == (20, 9, 1)
    assert betti(8, 2).ranks == (40, 27, 5)
    assert betti(1, 1).ranks == (1,)


def _betti_by_enumeration(n, k):
    """The Betti fold over class counts taken from a walk over every partition."""
    by_distinct = Counter()
    for (g, b), count in enumerated_class_counts(n):
        by_distinct[b] += count * component_count_from_gcd(g, n, k)
    return tuple(
        sum(total * math.comb(b - 1, j) for b, total in by_distinct.items())
        for j in range(max(by_distinct))
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=50).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(divisors(n)))))
def test_betti_matches_enumeration_fold(case):
    n, k = case
    assert betti(n, k).ranks == _betti_by_enumeration(n, k)


def test_betti_rejects_bad_k():
    with pytest.raises(ValueError):
        betti(6, 4)
    with pytest.raises(ValueError):
        betti(0, 1)


def test_ktheory_examples():
    assert ktheory_ranks(6, 1) == ktheory_ranks(6, 6)
    assert (ktheory_ranks(6, 1).k0, ktheory_ranks(6, 1).k1) == (21, 9)
    assert (ktheory_ranks(16, 4).k0, ktheory_ranks(16, 4).k1) == (609, 569)
    assert (ktheory_ranks(20, 10).k0, ktheory_ranks(20, 10).k1) == (2004, 1956)


def test_euler_examples():
    assert euler_characteristic(6, 1) == 12 == divisor_sigma(6)
    assert euler_characteristic(12, 1) == 28
    assert euler_characteristic(1, 1) == 1


def test_top_betti_examples():
    assert top_betti(8) == (2, 5)
    assert top_betti(10) == (3, 1)
    assert top_betti(6) == (2, 1)


def test_top_betti_degenerate_n2():
    """n = 2 is the one case where the P_2 formula undercounts: the partition
    with a single part 2 has gcd 2 and doubles its point component."""
    degree, rank = top_betti(2)
    assert (degree, rank) == (0, 3)
    assert betti(2, 1).ranks == (3,)
    assert partitions_pairs(1) == 2  # the uncorrected closed form


def test_betti_agrees_with_catalog_paths():
    for n in range(1, 31):
        for k in divisors(n):
            streamed = betti(n, k)
            cplx = decompose(ComplexComponent, n, k)
            real = decompose(RealComponent, n, k)
            assert streamed == betti_from_catalog(n, k, cplx) == betti_from_catalog(n, k, real)
            assert all(entry.multiplicity >= 1 for entry in cplx)
            assert streamed.ranks[0] == sum(e.multiplicity for e in cplx) == sum(e.multiplicity for e in real)


def test_b0_counts_components():
    for n, k in ((6, 1), (6, 6), (12, 4), (16, 8)):
        assert betti(n, k).ranks[0] == sum(e.multiplicity for e in decompose(ComplexComponent, n, k))


def _report(n, k):
    """The report for k among all the duality reports of n."""
    return next(report for report in duality_reports(n) if report.k == k)


def _oracle_profile(mu, n, k):
    """The conftest oracle's profile of one side of mu: its component count
    and its multisets of torus dimensions, descriptors and varieties."""
    return components_profile(partition_components(ComplexComponent, mu, n, k))


def _firsts(n):
    """The first partition of each invariant class of n, in enumeration order."""
    firsts = {}
    for runs, key in classified_partitions(n):
        firsts.setdefault(key, runs)
    return [Partition(n, runs) for runs in firsts.values()]


def test_duality_report_12_2():
    report = _report(12, 2)
    assert report.k_dual == 6
    assert report.ok and report.betti_equal
    pair = (ktheory_ranks(12, 2), ktheory_ranks(12, 6))
    assert [(kt.k0, kt.k1) for kt in pair] == [(176, 144), (176, 144)]


def test_duality_report_self_dual():
    report = _report(16, 4)
    assert report.k_dual == 4 and report.ok
    assert not report.singularity_differences


def test_duality_report_6_1_singularity_differences():
    report = _report(6, 1)
    assert report.ok
    diffs = [str(p) for p in report.singularity_differences]
    assert diffs == ["2+2+2", "1+1+2+2", "1+1+1+1+1+1"]
    # at the level of raw group data, 3+3 differs too (A^1 vs A^1 / +-1),
    # but the quotient varieties there are isomorphic
    descriptor_diffs = [str(mu) for mu in enumerate_partitions(6)
                        if _oracle_profile(mu, 6, 1)[2] != _oracle_profile(mu, 6, 6)[2]]
    assert descriptor_diffs == ["3+3", "2+2+2", "1+1+2+2", "1+1+1+1+1+1"]


def test_duality_report_matches_per_partition_oracle():
    """Every side the reports profile from a class's strata has the count,
    torus dimensions and varieties that decomposing each partition gives;
    and every report, computed once per invariant class and pair {k, n/k},
    equals the per-partition loop field for field and flags the same
    partitions in the same order."""
    for n in range(1, 25):
        for mu in enumerate_partitions(n):
            inv = invariants(mu)
            for k in divisors(n):
                count, torus_dims, _, varieties = _oracle_profile(mu, n, k)
                assert topology._profile(strata(inv, n, k), {}) == (count, torus_dims, varieties), (n, k, str(mu))
        reports = duality_reports(n)
        assert [report.k for report in reports] == divisors(n)
        for fast in reports:
            assert fast == duality_report_oracle(n, fast.k), (n, fast.k)


def test_duality_flags_match_brute_force_normal_forms():
    """Every singularity the reports for n <= 24 meet has the normal form the
    brute-force oracle gives, and each class is flagged exactly when the
    oracle's normal forms of its two sides differ as multisets."""
    oracle = {}

    def varieties(inv, n, k):
        counts = Counter()
        for s in strata(inv, n, k):
            singularity = s.singularity
            if singularity not in oracle:
                oracle[singularity] = variety_normal_form_oracle(singularity)
                assert variety_normal_form(singularity) == oracle[singularity], singularity
            counts[oracle[singularity]] += s.multiplicity
        return counts

    for n in range(1, 25):
        firsts = _firsts(n)
        for report in duality_reports(n):
            flagged = set(report.singularity_differences)
            for mu in firsts:
                inv = invariants(mu)
                equal = varieties(inv, n, report.k) == varieties(inv, n, report.k_dual)
                assert (mu in flagged) == (not equal), (n, report.k, str(mu))
    assert len(oracle) == 146  # distinct singularities in the reports for n <= 24


def test_duality_report_builds_no_component(monkeypatch):
    """The report profiles the strata of each class directly."""

    def refuse(*args):
        raise AssertionError("built a component")

    monkeypatch.setattr(ComplexComponent, "from_stratum", refuse)
    assert all(report.ok for report in duality_reports(24))


def test_duality_reports_work_once_per_class(monkeypatch):
    """The 627 partitions of 20 fall in 177 invariant classes: the reports of
    20 take the invariants of each class once and its strata once per
    divisor of 20, and build a Partition for each class and for each of the
    44 distinct partitions some report flags."""
    classified, layered, built = [], [], []

    def counted_invariants(mu):
        classified.append(mu)
        return invariants(mu)

    def counted_strata(inv, n, k):
        layered.append((inv, k))
        return strata(inv, n, k)

    def validated(mu, check=Partition.__post_init__):
        built.append(mu)
        check(mu)

    monkeypatch.setattr(topology, "invariants", counted_invariants)
    monkeypatch.setattr(topology, "strata", counted_strata)
    monkeypatch.setattr(Partition, "__post_init__", validated)
    reports = duality_reports(20)
    flagged = {mu for report in reports for mu in report.singularity_differences}
    assert len(classified) == len({invariants(mu) for mu in classified}) == 177
    assert len(layered) == len(set(layered)) == 177 * len(divisors(20)) == 1_062
    assert len(flagged) == 44
    assert len(built) == 177 + 44 == 221


def test_duality_reports_hold_only_what_they_print():
    """The reports of 30 hold two flags per pair {k, n/k} and the flagged
    partitions, not the 5,604 partitions of 30 nor a comparison per class
    and divisor: their traced peak stays under 0.7 MB, where a comparison
    per class and divisor reached 1.14 MB and labelling every partition
    8 MB."""
    tracemalloc.start()
    try:
        reports = duality_reports(30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(report.ok for report in reports)
    assert peak < 700_000, peak


def test_square_free_answers_do_not_vary_with_k():
    for n in (6, 10, 14, 15, 21, 30):
        vectors = {betti(n, k).ranks for k in divisors(n)}
        assert len(vectors) == 1


def test_betti_table_rows():
    rows = betti_table(20, 2, even_only=True)
    assert [v.n for v in rows] == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def test_render_betti_csv_round_trips_reference_table():
    vectors = betti_table(45, 1)
    assert grid_text(betti_grid(vectors), "csv") == fixture_text("betti_k1")


def test_render_ktheory_csv_round_trips_reference_table():
    rows = ktheory_table(20)
    assert grid_text(ktheory_grid(rows), "csv") == fixture_text("ktheory")


def test_render_empty_and_markdown():
    assert grid_text(betti_grid([]), "csv") == "n\n"
    text = grid_text(betti_grid(betti_table(6, 1)), "markdown")
    assert text.splitlines()[0] == "| n | b_0 | b_1 | b_2 |"
    assert "| 6 | 20 | 9 | 1 |" in text
