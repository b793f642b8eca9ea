"""Exact integer arithmetic helpers.

Everything in this module is pure, deterministic and carried out in
arbitrary-precision integers, apart from the 64-bit cells of
:func:`pillai_via_totient_table`, which refuse a value that does not fit;
no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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


def pillai_via_totient(a: int) -> int:
    """Pillai's function computed as the sum over divisors d of a of
    d * phi(a/d): gcd(a, s) = d for exactly phi(a/d) of s = 0, ..., a-1.
    The result always equals ``pillai(a)``.
    """
    if a < 1:
        raise ValueError("pillai_via_totient is defined for positive integers")
    return sum(d * totient(a // d) for d in divisors(a))


def pillai_via_totient_table(max_a: int) -> memoryview:
    """The same divisor sums for every a <= max_a at once, indexed by a
    (entry 0 is 0), from one totient sieve run in place.

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


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b == g == gcd(|a|, |b|) >= 0."""
    old_r, r = abs(a), abs(b)
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if a < 0:
        old_x = -old_x
    if b < 0:
        old_y = -old_y
    return old_r, old_x, old_y


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for col in range(i + 1, n):
                m[j][col] = (m[j][col] * m[i][i] - m[j][i] * m[i][col]) // prev
            m[j][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class UnimodularMatrix:
    """Square integer matrix with determinant exactly +1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.entries)
        if size == 0:
            raise ValueError("empty matrix")
        if any(len(row) != size for row in self.entries):
            raise ValueError("matrix is not square")
        if det_exact(self.entries) != 1:
            raise ValueError("determinant is not +1")

    @property
    def size(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def unimodular_completion(v: Sequence[int]) -> UnimodularMatrix:
    """Complete an integer vector to a determinant-one matrix.

    Returns A in SL_b(Z) whose first column is v / gcd(v).  The matrix is
    assembled deterministically by chaining 2x2 extended-Euclid blocks from
    the bottom of the vector upwards: each block folds a pair of entries into
    their gcd, and A accumulates the inverse blocks.

    For b == 1 the entry must be positive, since SL_1(Z) = {(1)}: a single
    negative entry has no completion with determinant +1.
    """
    vec = list(v)
    if not vec or all(x == 0 for x in vec):
        raise ValueError("cannot complete the zero vector")
    g = math.gcd(*vec)
    w = [x // g for x in vec]
    b = len(w)
    if b == 1:
        if w[0] != 1:
            raise ValueError("a single-entry vector must be positive")
        return UnimodularMatrix(((1,),))
    a = [[1 if i == j else 0 for j in range(b)] for i in range(b)]
    u = w[:]
    for i in range(b - 1, 0, -1):
        x, y = u[i - 1], u[i]
        if x == 0 and y == 0:
            continue
        g2, p, q = ext_gcd(x, y)
        u[i - 1], u[i] = g2, 0
        xg, yg = x // g2, y // g2
        # Right-multiply by the inverse block [[xg, -q], [yg, p]] acting on
        # columns (i-1, i); only those two columns change.
        for row in a:
            left, right = row[i - 1], row[i]
            row[i - 1] = left * xg + right * yg
            row[i] = -left * q + right * p
    return UnimodularMatrix(tuple(tuple(row) for row in a))
