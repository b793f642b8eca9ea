import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import betti_from_catalog, bundle_orientable_k1, catalog_json_dict
from extquot.complex_quotient import ComplexComponent, decompose, partition_components
from extquot.numtheory import divisors
from extquot.partitions import Partition, enumerate_partitions, invariants, partition_count
from extquot.real_quotient import RealComponent, orientable_k1


def test_real_component_examples():
    comp = partition_components(RealComponent, Partition.from_parts([2, 2, 2]), 6, 6)[0]
    assert comp.cyclic_order == 3
    assert comp.fiber_simplex_dims == (2,)
    assert comp.join_counts == (1,)
    assert comp.action_orientation_preserving  # c = 3 is odd

    comp = partition_components(RealComponent, Partition.from_parts([1] * 6), 6, 1)[0]
    assert comp.cyclic_order == 1
    assert comp.fiber_simplex_dims == (5,)
    assert comp.action_orientation_preserving

    comp = partition_components(RealComponent, Partition.from_parts([4, 4, 4, 4]), 16, 4)[0]
    assert comp.cyclic_order == 4
    # c = 4 and d = 4 have equal 2-adic valuations: orientation is reversed.
    assert not comp.action_orientation_preserving


def test_bundle_orientability_examples():
    assert not bundle_orientable_k1(Partition.from_parts([1, 1, 2, 2]))
    assert bundle_orientable_k1(Partition.from_parts([1, 1, 4]))
    assert bundle_orientable_k1(Partition.from_parts([6]))


def _assert_orientability_rule_matches_oracle(mu: Partition) -> None:
    assert orientable_k1(invariants(mu).g, mu.runs) == bundle_orientable_k1(mu), mu.runs


def test_orientability_rule_matches_oracle_up_to_30():
    """The catalog's per-run rule, fed the class's part-gcd, agrees with the
    Z/2 independence oracle on every partition of n <= 30."""
    for n in range(1, 31):
        for mu in enumerate_partitions(n):
            _assert_orientability_rule_matches_oracle(mu)


@given(st.dictionaries(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200),
                       min_size=1, max_size=8), st.integers(min_value=1, max_value=12))
def test_orientability_rule_matches_oracle_on_long_runs(runs, scale):
    """The same on run-length partitions with long runs, their parts scaled
    by a common factor so that the part-gcd is often above 1."""
    _assert_orientability_rule_matches_oracle(Partition(
        sum(scale * part * mult for part, mult in runs.items()),
        tuple(sorted((scale * part, mult) for part, mult in runs.items()))))


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=50)),
                min_size=1, max_size=12, unique_by=lambda run: run[0]),
       st.sampled_from([1, 2, 3, 4, 6, 8]), st.booleans())
def test_orientability_rule_matches_oracle_on_many_runs(runs, scale, odd):
    """The same on partitions of up to 12 runs with multiplicities up to 50,
    beyond n = 30: with every multiplicity made odd (orientable at once)
    or as drawn, where the first run with j/g + m even may stand anywhere."""
    if odd:
        runs = [(part, mult - 1 + (mult & 1)) for part, mult in runs]
    _assert_orientability_rule_matches_oracle(Partition(
        sum(scale * part * mult for part, mult in runs), tuple(sorted((scale * part, mult) for part, mult in runs))))


def test_su6_table():
    entries = decompose(RealComponent, 6, 1)
    assert [e.multiplicity for e in entries] == [6, 1, 2, 1, 3, 1, 1, 2, 1, 1, 1]
    non_orientable = [str(e.partition) for e in entries if not e.bundle_orientable]
    assert non_orientable == ["1+1+2+2"]


def test_decompose_real_small_cases():
    assert sum(e.multiplicity for e in decompose(RealComponent, 2, 1)) == 3
    assert sum(e.multiplicity for e in decompose(RealComponent, 1, 1)) == 1
    with pytest.raises(ValueError):
        decompose(RealComponent, 6, 5)


def test_real_and_complex_catalogs_agree():
    """Per (mu, omega): shared torus dimension, multiplicity and cyclic order,
    hence identical Betti vectors from either catalog."""
    for n in range(1, 13):
        for k in divisors(n):
            real = decompose(RealComponent, n, k)
            cplx = decompose(ComplexComponent, n, k)
            assert len(real) == len(cplx)
            for r, c in zip(real, cplx):
                assert r.partition == c.partition
                assert r.omega == c.omega
                assert r.torus_dim == c.torus_dim
                assert r.multiplicity == c.multiplicity
                assert r.cyclic_order == c.singularity.group_order
                assert r.singularity == c.singularity
            assert betti_from_catalog(n, k, real) == betti_from_catalog(n, k, cplx)


def test_fiber_descriptor_consistency():
    for n in range(1, 17):
        for k in divisors(n):
            for entry in decompose(RealComponent, n, k):
                inv = invariants(entry.partition)
                d = entry.cyclic_order
                assert sum(entry.fiber_simplex_dims) == inv.c - inv.b
                assert all(m % d == 0 for _, m in entry.partition.runs)
                assert entry.join_counts == tuple(m // d for _, m in entry.partition.runs)


def test_trivial_action_preserves_orientation():
    for n in range(1, 15):
        for entry in decompose(RealComponent, n, 1):
            assert entry.cyclic_order == 1
            assert entry.action_orientation_preserving


def test_orientation_criterion_against_direct_parity():
    """The 2-adic criterion agrees with the parity of c - c/d."""
    for n in range(1, 19):
        for k in divisors(n):
            for entry in decompose(RealComponent, n, k):
                inv = invariants(entry.partition)
                d = entry.cyclic_order
                direct = (inv.c - inv.c // d) % 2 == 0
                assert entry.action_orientation_preserving == direct


def test_real_json_fields():
    data = catalog_json_dict(6, 1, "real", decompose(RealComponent, 6, 1))
    entry = data["entries"][0]
    assert set(entry) == {
        "partition", "omega_exponent", "omega_order", "torus_dim", "multiplicity",
        "singularity", "fiber_simplex_dims", "join_counts",
        "action_orientation_preserving", "bundle_orientable",
    }
    data = catalog_json_dict(6, 2, "real", decompose(RealComponent, 6, 2))
    assert "bundle_orientable" not in data["entries"][0]


def test_orientability_vectors_match_table_columns():
    g_vectors = {
        "1+1+4": ((1, 4), (1, 0)),
        "1+1+2+2": ((1, 2), (1, 1)),
        "2+2+2": ((1,), (2,)),
    }
    for text, (jg, m1) in g_vectors.items():
        mu = Partition.from_parts(int(p) for p in text.split("+"))
        g = math.gcd(*(j for j, _ in mu.runs))
        assert tuple(j // g for j, _ in mu.runs) == jg
        assert tuple(m - 1 for _, m in mu.runs) == m1


def test_real_rows_classify_each_partition_once(monkeypatch):
    """Building the real catalog and writing every row computes the
    invariants of each partition once: the rows carry their stratum's
    singularity instead of deriving it again."""
    calls = []

    def counted(mu):
        calls.append(mu)
        return invariants(mu)

    for name, module in list(sys.modules.items()):
        if name.startswith("extquot") and getattr(module, "invariants", None) is invariants:
            monkeypatch.setattr(module, "invariants", counted)
    for entry in decompose(RealComponent, 12, 1):
        entry.to_dict()
    assert len(calls) == partition_count(12) == 77
