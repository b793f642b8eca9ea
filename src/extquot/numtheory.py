"""Exact integer arithmetic helpers.

Everything in this module is pure, deterministic and carried out in
arbitrary-precision integers, apart from the 64-bit cells of
:func:`pillai_via_totient_table`, which refuse a value that does not fit;
no floating point is used anywhere.
"""

from __future__ import annotations


def pillai(a: int) -> int:
    """Pillai's arithmetical function: sum of gcd(a, s) for s = 0, ..., a-1.

    The s = 0 term contributes gcd(a, 0) = a.  The function is multiplicative
    with pillai(p^e) = p^(e-1) ((e+1) p - e), which is how it is evaluated.
    """
    if a < 1:
        raise ValueError("pillai is defined for positive integers")
    result = 1
    p = 2
    while p * p <= a:
        if a % p == 0:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            result *= p ** (e - 1) * ((e + 1) * p - e)
        p += 1 if p == 2 else 2
    if a > 1:  # a leftover prime p, with pillai(p) = 2p - 1
        result *= 2 * a - 1
    return result


def pillai_via_totient_table(max_a: int) -> memoryview:
    """Pillai's function by its divisor-sum identity, the sum over d | a of
    d * phi(a/d), since gcd(a, s) = d for exactly phi(a/d) of s = 0, ..., a-1.
    Every a <= max_a at once, indexed by a (entry 0 is 0), from one totient
    sieve run in place.

    The sieve leaves phi(q) at each q.  Then, for q from max_a // 2 down to
    1, d * phi(q) is added at d * q for every d >= 2; x[q] still holds
    phi(q) when q is reached, because only its proper divisors write to it
    and they come later.  The table is a buffer of 64-bit integers, not a
    list of int objects.
    """
    if max_a < 1:
        raise ValueError("pillai_via_totient_table needs max_a >= 1")
    x = memoryview(bytearray(8 * (max_a + 1))).cast("q")
    for a in range(max_a + 1):
        x[a] = a
    for p in range(2, max_a + 1):
        if x[p] == p:  # untouched by any smaller prime, so p is prime
            for m in range(p, max_a + 1, p):
                x[m] -= x[m] // p
    for q in range(max_a // 2, 0, -1):
        phi = x[q]
        for d in range(2, max_a // q + 1):
            x[d * q] += d * phi
    return x


def totient(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("totient is defined for positive integers")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, in increasing order."""
    if n < 1:
        raise ValueError("divisors is defined for positive integers")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    return sum(divisors(n))


def two_adic_valuation(n: int) -> int:
    """The exponent v with 2^v dividing n exactly (so the 2-adic norm is 2^-v)."""
    if n < 1:
        raise ValueError("two_adic_valuation is defined for positive integers")
    return (n & -n).bit_length() - 1
