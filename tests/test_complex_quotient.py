import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extquot.complex_quotient import (
    ComplexComponent,
    CyclicSingularity,
    OmegaLabel,
    _singularity,
    canonical_singularity,
    catalog_rows,
    component_count_from_gcd,
    decompose,
    partition_components,
    strata,
    variety_normal_form,
)
from conftest import catalog_json_dict, iter_gcd_distinct, variety_normal_form_oracle
from extquot.numtheory import divisors
from extquot.partitions import Partition, enumerate_partitions, invariants
from extquot.topology import betti

MU_2444 = Partition.from_parts([2, 2, 2, 2, 4, 4])
MU_4444 = Partition.from_parts([4, 4, 4, 4])


def test_enumerate_omegas_orders():
    orders = sorted(s.omega.order for s in strata(invariants(MU_4444), 16, 4))
    assert orders == [1, 2, 4, 4]
    orders = sorted(s.omega.order for s in strata(invariants(Partition.from_parts([3, 3])), 6, 6))
    assert orders == [1, 3, 3]
    assert [s.omega.order for s in strata(invariants(MU_2444), 16, 1)] == [1]


def test_enumerate_omegas_count_is_h():
    for n, k in ((12, 4), (16, 8), (18, 6)):
        for mu in enumerate_partitions(n):
            labels = [s.omega for s in strata(invariants(mu), n, k)]
            assert len(labels) == math.gcd(invariants(mu).g, k)
            assert labels[0].order == 1


def test_enumerate_omegas_requires_k_dividing_n():
    with pytest.raises(ValueError):
        strata(invariants(MU_2444), 16, 5)


def test_omega_label_validation():
    with pytest.raises(ValueError):
        OmegaLabel(4, 4)
    assert OmegaLabel(6, 2).order == 3
    assert OmegaLabel(6, 3).zeta_exponent(12) == 6


def test_singularity_weights_examples():
    s = _singularity(invariants(MU_2444), 2)
    assert (s.ambient_dim, s.group_order, s.weights) == (4, 2, (1, 1, 0, 1))

    s = _singularity(invariants(Partition.from_parts([1] * 6)), 6)
    assert s.weights == (1, 2, 3, 4, 5)

    s = _singularity(invariants(MU_2444), 1)
    assert s.group_order == 1 and s.weights == (0, 0, 0, 0)


def test_complex_component_examples():
    # omega of order 2 for 4+4+4+4 at (n, k) = (16, 8)
    comp = partition_components(ComplexComponent, MU_4444, 16, 8)[2]
    assert comp.omega == OmegaLabel(4, 2)
    assert comp.multiplicity == 2
    assert comp.singularity == CyclicSingularity(3, 4, (1, 2, 3))

    comp = partition_components(ComplexComponent, Partition.from_parts([1, 1, 2, 2]), 6, 2)[0]
    assert comp.torus_dim == 1
    assert comp.multiplicity == 1
    assert comp.singularity == CyclicSingularity(2, 2, (1, 1))

    # k = 1: smooth, multiplicity gcd(g, n)
    for mu in enumerate_partitions(9):
        comp = partition_components(ComplexComponent, mu, 9, 1)[0]
        assert comp.singularity.group_order == 1
        assert comp.multiplicity == math.gcd(invariants(mu).g, 9)


def test_component_count_examples():
    assert component_count_from_gcd(invariants(MU_2444).g, 16, 2) == 3
    assert component_count_from_gcd(invariants(MU_4444).g, 16, 4) == 8
    assert component_count_from_gcd(invariants(MU_4444).g, 16, 8) == 6
    for mu in enumerate_partitions(8):
        assert component_count_from_gcd(invariants(mu).g, 8, 8) == invariants(mu).g


def test_component_count_equals_omega_sum():
    """Closed form vs. explicitly summing |X| over the omega labels."""
    for n in range(1, 25):
        for k in divisors(n):
            for mu in enumerate_partitions(n):
                total = sum(comp.multiplicity for comp in partition_components(ComplexComponent, mu, n, k))
                assert component_count_from_gcd(invariants(mu).g, n, k) == total


def test_component_count_duality_symmetry():
    for n in range(1, 25):
        for k in divisors(n):
            for g, _ in set(iter_gcd_distinct(n)):
                assert component_count_from_gcd(g, n, k) == component_count_from_gcd(g, n, n // k)


def test_decompose_complex_totals():
    assert sum(e.multiplicity for e in decompose(ComplexComponent, 6, 1)) == 20
    single = decompose(ComplexComponent, 1, 1)
    assert len(single) == 1
    entry = single[0]
    assert entry.torus_dim == 0 and entry.multiplicity == 1
    assert entry.singularity.ambient_dim == 0


def test_catalog_rows_counts_entries_without_enumeration():
    for n in range(1, 21):
        for k in divisors(n):
            assert catalog_rows(n, k) == len(decompose(ComplexComponent, n, k))
    for n in range(21, 41):
        for k in divisors(n):
            assert catalog_rows(n, k) == sum(math.gcd(g, k) for g, _ in iter_gcd_distinct(n))
    assert catalog_rows(40, 4) == 38_049
    assert catalog_rows(100, 4) == 190_777_434
    with pytest.raises(ValueError):
        catalog_rows(6, 4)


@pytest.mark.parametrize("n, k, message", [
    (0, 1, "n must be positive"),
    (-3, 1, "n must be positive"),
    (6, -2, "k must be positive"),
    (6, 4, "k=4 must divide n=6"),
])
def test_bad_n_or_k_is_named_before_divisibility(n, k, message):
    """A library caller hears what is wrong with n or k, in the words the
    CLI uses: a sign first, a true non-divisor only after."""
    inv = invariants(MU_2444)
    for call in (lambda: catalog_rows(n, k), lambda: strata(inv, n, k), lambda: betti(n, k)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_decompose_complex_ordering():
    entries = decompose(ComplexComponent, 6, 6)
    keys = [(e.partition.parts, e.omega.exponent) for e in entries]
    partitions_order = [mu.parts for mu in enumerate_partitions(6)]
    expected = []
    for parts in partitions_order:
        exps = [exp for p, exp in keys if p == parts]
        assert exps == sorted(exps)
        expected.extend((parts, exp) for exp in exps)
    assert keys == expected
    assert len({e.partition for e in entries}) == 11


def test_decompose_complex_rejects_bad_k():
    with pytest.raises(ValueError):
        decompose(ComplexComponent, 6, 4)


def test_smooth_when_k_is_one():
    for n in (2, 5, 9, 12):
        for entry in decompose(ComplexComponent, n, 1):
            assert entry.singularity.group_order == 1


def test_canonical_singularity_examples():
    assert canonical_singularity(CyclicSingularity(3, 4, (3, 2, 1))).weights == (1, 2, 3)
    assert canonical_singularity(CyclicSingularity(2, 3, (1, 2))).weights == (1, 2)
    assert canonical_singularity(CyclicSingularity(4, 2, (1, 1, 0, 1))).weights == (0, 1, 1, 1)


def test_canonical_singularity_is_unit_invariant():
    s = CyclicSingularity(3, 5, (1, 2, 4))
    for u in (1, 2, 3, 4):
        rescaled = CyclicSingularity(3, 5, tuple(sorted(u * w % 5 for w in s.weights)))
        assert canonical_singularity(rescaled) == canonical_singularity(s)


def test_sl16_k8_component_isomorphism_classes():
    """4+4+4+4 at k=8 gives six components in two isomorphism classes."""
    classes = Counter()
    for comp in partition_components(ComplexComponent, MU_4444, 16, 8):
        classes[canonical_singularity(comp.singularity)] += comp.multiplicity
    assert classes == Counter({
        CyclicSingularity(3, 4, (1, 2, 3)): 4,
        CyclicSingularity(3, 2, (0, 1, 1)): 2,
    })


def test_variety_normal_form_reductions():
    # reflection on a line: smooth
    assert variety_normal_form(CyclicSingularity(1, 2, (1,))) == CyclicSingularity(1, 1, (0,))
    # C_4 (1, 2): quasi-reflection splits off, leaving C_2 (1, 1)
    assert variety_normal_form(CyclicSingularity(2, 4, (1, 2))) == CyclicSingularity(2, 2, (1, 1))
    # non-faithful action rescales
    assert variety_normal_form(CyclicSingularity(2, 4, (2, 2))) == CyclicSingularity(2, 2, (1, 1))
    # genuine singularities survive untouched
    assert variety_normal_form(CyclicSingularity(2, 2, (1, 1))) == CyclicSingularity(2, 2, (1, 1))
    assert variety_normal_form(CyclicSingularity(3, 4, (1, 2, 3))) == CyclicSingularity(3, 4, (1, 2, 3))
    assert variety_normal_form(CyclicSingularity(5, 2, (1, 0, 1, 0, 1))) == CyclicSingularity(
        5, 2, (0, 0, 1, 1, 1)
    )


def _generated_by_quasi_reflections(d, weights):
    """Brute-force Chevalley criterion: the quotient is smooth iff the group
    is generated by its quasi-reflections (elements moving one coordinate)."""
    exponents = [
        s for s in range(1, d)
        if sum(1 for w in weights if s * w % d != 0) == 1
    ]
    return math.gcd(d, *exponents) == 1 if exponents else d == 1


def test_variety_normal_form_smoothness_matches_chevalley_criterion():
    from itertools import product

    for d in range(1, 9):
        for count in (1, 2, 3):
            for weights in product(range(d), repeat=count):
                if math.gcd(d, *weights) != 1 and d > 1:
                    continue  # only faithful actions
                form = variety_normal_form(CyclicSingularity(count, d, weights))
                smooth = form.group_order == 1
                assert smooth == _generated_by_quasi_reflections(d, weights), (d, weights)


def test_variety_normal_form_is_idempotent_and_unit_invariant():
    from itertools import product

    for d in (2, 3, 4, 6):
        for weights in product(range(d), repeat=3):
            s = CyclicSingularity(3, d, weights)
            form = variety_normal_form(s)
            assert variety_normal_form(form) == form
            for u in range(1, d):
                if math.gcd(u, d) == 1:
                    rescaled = CyclicSingularity(3, d, tuple(u * w % d for w in weights))
                    assert variety_normal_form(rescaled) == form


def test_variety_normal_form_matches_brute_force_on_random_singularities():
    """A seeded sample of diagonal actions with d <= 30 on up to five
    coordinates, each normalized from the definitions by listing the group."""
    rng = random.Random(1611)
    for _ in range(8000):
        d, count = rng.randint(1, 30), rng.randint(0, 5)
        s = CyclicSingularity(count, d, tuple(rng.randrange(d) for _ in range(count)))
        assert variety_normal_form(s) == variety_normal_form_oracle(s), s


def test_variety_normal_form_trivial_ambient():
    assert variety_normal_form(CyclicSingularity(0, 5, ())) == CyclicSingularity(0, 1, ())


def test_sl16_k4_2444_matches_k8_varieties():
    """For 2+2+2+2+4+4 the self-dual k = 4 case yields the same variety
    multiset as k = 8: three copies of the same torus-times-quotient."""
    mu = Partition.from_parts([2, 2, 2, 2, 4, 4])

    def variety_multiset(k):
        tally = Counter()
        for comp in partition_components(ComplexComponent, mu, 16, k):
            tally[(comp.torus_dim, variety_normal_form(comp.singularity))] += comp.multiplicity
        return tally

    assert variety_multiset(4) == variety_multiset(8)
    assert sum(variety_multiset(4).values()) == 3


def test_catalog_json_schema():
    data = catalog_json_dict(6, 2, "complex", decompose(ComplexComponent, 6, 2))
    assert set(data) == {"n", "k", "form", "entries"}
    assert data["form"] == "complex"
    entry = data["entries"][0]
    assert set(entry) == {
        "partition", "omega_exponent", "omega_order", "torus_dim", "multiplicity", "singularity",
    }
    assert set(entry["singularity"]) == {"ambient_dim", "group_order", "weights"}
    assert entry["partition"] == [6]


def test_weights_fill_the_ambient_space():
    for n in range(1, 29):
        for mu in enumerate_partitions(n):
            inv = invariants(mu)
            for d in (1, 2, inv.m):
                s = _singularity(inv, d)
                assert len(s.weights) == inv.c - inv.b


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=9),
       st.integers(min_value=1, max_value=12))
def test_weight_multiplicities_follow_p_vector(parts, d):
    mu = Partition.from_parts(parts)
    inv = invariants(mu)
    raw = [l for l, p_l in enumerate(inv.p, start=1) for _ in range(p_l)]
    s = _singularity(inv, d)
    assert s.weights == tuple(l % d for l in raw)
