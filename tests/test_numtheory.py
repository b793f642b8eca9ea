import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UnimodularMatrix,
    cofactor_det,
    det_exact,
    pillai_gcd_sum,
    pillai_via_totient,
    plain_cofactor_det,
    primes_up_to,
    unimodular_completion,
)
from extquot.numtheory import divisor_sigma, divisors, pillai, pillai_via_totient_table, totient, two_adic_valuation


def test_pillai_small_values():
    assert pillai(1) == 1
    assert pillai(2) == 3
    assert pillai(4) == 8
    assert pillai(6) == 15
    with pytest.raises(ValueError):
        pillai(0)


def test_pillai_closed_form_matches_gcd_sum():
    for a in range(1, 2001):
        assert pillai(a) == pillai_gcd_sum(a), a


def test_pillai_via_totient_values():
    assert pillai_via_totient(1) == 1
    assert pillai_via_totient(2) == 3
    assert pillai_via_totient(6) == 15


def test_pillai_via_totient_table_matches_both_forms():
    """The sieved table against the per-a divisor sum of trial-division
    totients and the multiplicative closed form, for every a <= 10^4; a
    smaller table is the prefix of a larger one."""
    table = pillai_via_totient_table(10_000)
    assert len(table) == 10_001 and table[0] == 0
    for a in range(1, 10_001):
        assert table[a] == pillai_via_totient(a) == pillai(a), a
    for max_a in range(1, 40):
        assert list(pillai_via_totient_table(max_a)) == list(table[:max_a + 1]), max_a
    for max_a in (0, -5):
        with pytest.raises(ValueError):
            pillai_via_totient_table(max_a)


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_gcd_is_periodic(a, s):
    assert math.gcd(a, s + a) == math.gcd(a, s)


def test_totient_matches_coprime_count():
    for n in range(1, 300):
        assert totient(n) == sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def test_divisor_sigma():
    assert divisor_sigma(6) == 12
    for p in primes_up_to(200)[1:]:
        assert divisor_sigma(p) == p + 1


@given(st.integers(min_value=1, max_value=10**5))
def test_divisors_properties(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert ds[0] == 1 and ds[-1] == n
    assert all(n % d == 0 for d in ds)


def test_two_adic_valuation():
    assert two_adic_valuation(12) == 2
    assert two_adic_valuation(1) == 0
    with pytest.raises(ValueError):
        two_adic_valuation(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_two_adic_valuation_defining_property(n):
    v = two_adic_valuation(n)
    assert n % 2**v == 0 and (n // 2**v) % 2 == 1


def test_unimodular_completion_trivial():
    assert unimodular_completion((1,)).entries == ((1,),)


def test_unimodular_completion_examples():
    a = unimodular_completion((2, 3))
    assert a.column(0) == (2, 3)
    assert cofactor_det(a.entries) == 1
    b = unimodular_completion((4, 6))
    assert b.column(0) == (2, 3)
    assert cofactor_det(b.entries) == 1


def test_unimodular_completion_is_deterministic():
    first = unimodular_completion((3, -5, 0, 7))
    second = unimodular_completion((3, -5, 0, 7))
    assert first.entries == second.entries


def test_unimodular_completion_rejects_degenerate_input():
    with pytest.raises(ValueError):
        unimodular_completion(())
    with pytest.raises(ValueError):
        unimodular_completion((0, 0, 0))
    # SL_1(Z) = {(1)}: a lone negative entry has no determinant +1 completion.
    with pytest.raises(ValueError):
        unimodular_completion((-4,))


vectors = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8).filter(
    lambda v: any(v) and not (len(v) == 1 and v[0] < 0)
)


@settings(max_examples=300)
@given(vectors)
def test_unimodular_completion_randomized(v):
    g = math.gcd(*v)
    a = unimodular_completion(v)
    assert a.column(0) == tuple(x // g for x in v)
    assert cofactor_det(a.entries) == 1


def test_unimodular_matrix_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        UnimodularMatrix(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        UnimodularMatrix(((0, 1), (1, 0)))


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4), min_size=4, max_size=4))
def test_det_exact_matches_cofactor_expansion(rows):
    assert det_exact(rows) == cofactor_det(rows)


def test_memoized_cofactor_det_matches_plain_expansion():
    """The oracle that memoizes minors against the plain recursion it
    replaces, on square matrices up to 6 x 6 with entries within +-50."""
    rng = random.Random(6)
    for size in range(1, 7):
        for _ in range(40):
            rows = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size)]
            assert cofactor_det(rows) == plain_cofactor_det(rows)
        singular = [[1] * size for _ in range(size)]
        assert cofactor_det(singular) == plain_cofactor_det(singular)
