import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (descending_partitions, distinct_part_counts, enumerated_class_counts, gcd_distinct_counts,
                      iter_gcd_distinct, two_kind_series_coefficients)
from extquot.numtheory import divisors
from extquot.partitions import (
    Partition,
    by_class,
    classified_partitions,
    distinct_part_sums,
    enumerate_partitions,
    invariants,
    partition_count,
    partitions_pairs,
)

# The eleven partitions of 6, in the expected enumeration order.
PARTITIONS_OF_6 = [
    (6,),
    (1, 5),
    (2, 4),
    (1, 1, 4),
    (3, 3),
    (1, 2, 3),
    (1, 1, 1, 3),
    (2, 2, 2),
    (1, 1, 2, 2),
    (1, 1, 1, 1, 2),
    (1, 1, 1, 1, 1, 1),
]


def test_enumeration_order_for_n6():
    assert [mu.parts for mu in enumerate_partitions(6)] == PARTITIONS_OF_6


def test_enumeration_is_decreasing_lexicographic():
    for n in (5, 9, 12):
        descending = [tuple(sorted(mu.parts, reverse=True)) for mu in enumerate_partitions(n)]
        assert descending == sorted(descending, reverse=True)
        assert len(set(descending)) == len(descending)


def test_enumeration_edge_cases():
    assert [mu.parts for mu in enumerate_partitions(1)] == [(1,)]
    assert list(enumerate_partitions(0)) == [Partition(0, ())]
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_enumerators_match_descending_list_oracle():
    """The step on runs yields the partitions the step on the descending
    list of parts does, in the same order and with the same runs."""
    for n in range(1, 31):
        expected = [Partition.from_parts(a).runs for a in descending_partitions(n)]
        assert [mu.runs for mu in enumerate_partitions(n)] == expected, n
        assert [runs for runs, _ in classified_partitions(n)] == expected, n


def test_class_key_is_in_bijection_with_invariants():
    """Partitions share a class key exactly when they share invariants."""
    for n in range(1, 31):
        by_key, by_invariants = {}, {}
        for runs, key in classified_partitions(n):
            inv = invariants(Partition(n, runs))
            assert by_key.setdefault(key, inv) == inv, (n, key)
            assert by_invariants.setdefault(inv, key) == key, (n, inv)
        assert len(by_key) == len(by_invariants)


def test_classified_partitions_rejects_n_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError):
            list(classified_partitions(n))
        with pytest.raises(ValueError):
            list(by_class(n, invariants))


def test_by_class_calls_first_once_per_class():
    """The walk yields the runs of every partition in enumeration order and
    calls ``first`` once per invariant class, on the class's first partition
    just before yielding it; every partition gets the value of a partition
    with its invariants."""
    for n in range(1, 31):
        walked, called = [], []  # called: (how many were yielded before, the partition given)

        def first(mu):
            called.append((len(walked), mu))
            return mu

        for item in by_class(n, first):
            walked.append(item)
        partitions = list(enumerate_partitions(n))
        assert [runs for runs, _ in walked] == [mu.runs for mu in partitions], n
        firsts = {}
        for mu in partitions:
            firsts.setdefault(invariants(mu), mu)
        assert [mu for _, mu in called] == list(firsts.values()), n
        assert all(walked[at] == (mu.runs, mu) for at, mu in called), n
        assert all(invariants(value) == invariants(Partition(n, runs)) for runs, value in walked), n


def test_enumeration_count_n45():
    assert sum(1 for _ in enumerate_partitions(45)) == 89134 == partition_count(45)


def test_stream_count_matches_partition_function():
    for n in range(1, 41):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)
    for n in (50, 60):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_invariants_examples():
    inv = invariants(Partition.from_parts([2, 2, 2, 2, 4, 4]))
    assert (inv.g, inv.m, inv.b, inv.c) == (2, 2, 2, 6)
    assert inv.p == (2, 1, 1)

    inv = invariants(Partition.from_parts([6]))
    assert (inv.g, inv.m, inv.b, inv.c, inv.p) == (6, 1, 1, 1, ())

    inv = invariants(Partition.from_parts([1] * 6))
    assert (inv.g, inv.m, inv.b, inv.c) == (1, 6, 1, 6)
    assert inv.p == (1, 1, 1, 1, 1)


def test_invariants_rejects_empty():
    with pytest.raises(ValueError):
        invariants(Partition(0, ()))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(5, ((2, 1),))
    with pytest.raises(ValueError):
        Partition(4, ((2, 1), (1, 2)))  # parts not increasing
    with pytest.raises(ValueError):
        Partition.from_parts([0, 3])


def test_partition_text_forms():
    mu = Partition.from_parts([1, 1, 2, 2])
    assert str(mu) == "1+1+2+2"
    assert mu.run_length_str() == "1^2,2^2"
    assert str(Partition(0, ())) == "0"


def test_invariant_relations_small_n():
    for n in range(1, 21):
        for mu in enumerate_partitions(n):
            inv = invariants(mu)
            assert sum(inv.p) == inv.c - inv.b
            assert n % inv.g == 0
            assert all(m % inv.m == 0 for _, m in mu.runs)
            assert inv.b <= inv.c <= n


def test_invariants_p_vector_counts_parts_above_each_multiplicity():
    """p[i-1] is the number of distinct parts whose multiplicity exceeds i."""
    for n in range(1, 21):
        for mu in enumerate_partitions(n):
            mults = Counter(mu.parts).values()
            assert invariants(mu).p == tuple(sum(m > i for m in mults) for i in range(1, max(mults)))


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
def test_invariant_relations_random_partitions(parts):
    mu = Partition.from_parts(parts)
    inv = invariants(mu)
    assert sum(inv.p) == inv.c - inv.b
    assert inv.c == len(parts)
    assert sum(parts) % inv.g == 0
    assert mu.parts == tuple(sorted(parts))


def test_iter_gcd_distinct_agrees_with_invariants():
    for n in (7, 12, 18):
        light = list(iter_gcd_distinct(n))
        full = [(invariants(mu).g, invariants(mu).b) for mu in enumerate_partitions(n)]
        assert light == full


def test_distinct_part_counts_match_enumeration():
    rows = distinct_part_counts(20)
    assert rows[0] == [1, 0, 0, 0, 0, 0]
    for s in range(1, 21):
        counts = Counter(invariants(mu).b for mu in enumerate_partitions(s))
        assert rows[s] == [counts[b] for b in range(len(rows[s]))]
        assert sum(rows[s]) == partition_count(s)


def test_gcd_distinct_counts_match_enumeration():
    """The oracle's (gcd, distinct parts) class counts, read from its
    distinct-part table, against a walk over every partition."""
    for n in range(1, 41):
        assert gcd_distinct_counts(n) == enumerated_class_counts(n), n


def test_distinct_part_sums_match_enumeration():
    """S_(n/d)(t) = sum over mu of n/d of (1 + t)^b(mu), for every divisor d
    of n <= 40, against binomial coefficients summed over a walk over every
    partition of n/d."""
    expected = {}
    for s in range(1, 41):
        coefficients = Counter()
        for mu in enumerate_partitions(s):
            b = invariants(mu).b
            coefficients.update({q: math.comb(b, q) for q in range(b + 1)})
        expected[s] = [coefficients[q] for q in range(len(coefficients))]
    for n in range(1, 41):
        sums = distinct_part_sums(n)
        assert list(sums) == divisors(n), n
        for d, coefficients in sums.items():
            assert coefficients == expected[n // d], (n, d)
    with pytest.raises(ValueError):
        distinct_part_sums(0)


def test_partition_count_values():
    assert partition_count(0) == 1
    assert [partition_count(n) for n in range(1, 11)] == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_count(60) == 966467


def test_partitions_pairs_values():
    assert partitions_pairs(0) == 1
    assert partitions_pairs(2) == 5


def test_partitions_pairs_matches_generating_function():
    coefficients = two_kind_series_coefficients(20)
    for r in range(21):
        assert partitions_pairs(r) == coefficients[r]
