"""Shared oracles for the test suite.

These are deliberately written independently of the library code they check:
cofactor expansion instead of Bareiss elimination, a sieve instead of trial
division, direct power-series multiplication instead of the convolution
formula, the defining gcd sum instead of Pillai's multiplicative formula, a
walk over every partition instead of the product series of distinct-part
sums, a fold over a full catalog instead of the weighted product-series
Betti fold, binomial coefficients over (gcd, distinct parts) class counts
from a distinct-part table instead of dividing by 1 + t, a
duality report that builds and compares both sides of every partition
instead of sharing one comparison per invariant class, and CSV and markdown
grids of a held catalog instead of rows streamed from per-class cells.

They also hold what only the tests call: the unimodular change of torus
coordinates with its Bareiss determinant, Pillai's identity summed per a, the
Z/2 orientability test of a k = 1 bundle, and the text of a reference
fixture.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Iterator, Sequence

from extquot import reference
from extquot.catalog import _flag, _omega_str, _variety_str
from extquot.complex_quotient import (
    ComplexComponent,
    CyclicSingularity,
    _require_divides,
    canonical_singularity,
    component_count_from_gcd,
    partition_components,
    variety_normal_form,
)
from extquot.numtheory import divisors, totient
from extquot.partitions import Partition, enumerate_partitions
from extquot.topology import BettiVector, DualityReport, betti, grid_lines


def plain_cofactor_det(rows) -> int:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [tuple(row[:j]) + tuple(row[j + 1 :]) for row in rows[1:]]
        term = rows[0][j] * plain_cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def cofactor_det(rows) -> int:
    """The same cofactor expansion along the first row, each minor evaluated
    once: the minor on rows i.. and the columns left in a bitmask."""
    n = len(rows)
    minors: dict[tuple[int, int], int] = {}

    def minor(i: int, columns: int) -> int:
        if i == n:
            return 1
        if (i, columns) not in minors:
            total, sign = 0, 1
            for j in range(n):
                if columns >> j & 1:
                    total += sign * rows[i][j] * minor(i + 1, columns & ~(1 << j))
                    sign = -sign
            minors[i, columns] = total
        return minors[i, columns]

    return minor(0, (1 << n) - 1)


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
    """Complete an integer vector to a determinant-one matrix: the change of
    torus coordinates that pushes a diagonal cyclic action onto one
    coordinate.

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


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


def two_kind_series_coefficients(max_degree: int) -> list[int]:
    """Coefficients of the product over s >= 1 of (1 - x^s)^(-2), truncated."""
    coeffs = [1] + [0] * max_degree
    for s in range(1, max_degree + 1):
        for _ in range(2):
            for i in range(s, max_degree + 1):
                coeffs[i] += coeffs[i - s]
    return coeffs


def pillai_gcd_sum(a: int) -> int:
    """Pillai's function by its definition: sum of gcd(a, s) for s = 0..a-1."""
    return sum(map(math.gcd, repeat(a), range(a)))


def pillai_via_totient(a: int) -> int:
    """Pillai's function computed as the sum over divisors d of a of
    d * phi(a/d): gcd(a, s) = d for exactly phi(a/d) of s = 0, ..., a-1.
    The result always equals ``pillai(a)``.
    """
    if a < 1:
        raise ValueError("pillai_via_totient is defined for positive integers")
    return sum(d * totient(a // d) for d in divisors(a))


def bundle_orientable_k1(mu: Partition) -> bool:
    """Orientability of the k = 1 polysimplex bundle over the base torus.

    The bundle is non-orientable exactly when the vectors (j_1/g, ..., j_b/g)
    and (m_{j_1} - 1, ..., m_{j_b} - 1) are linearly independent over Z/2.
    The first vector is never zero mod 2 (its entries are coprime), so for
    two vectors independence means: second vector nonzero and different from
    the first.
    """
    g = math.gcd(*[j for j, _ in mu.runs])
    parts_vec = [j // g % 2 for j, _ in mu.runs]
    mults_vec = [(m - 1) % 2 for _, m in mu.runs]
    independent = any(mults_vec) and mults_vec != parts_vec
    return not independent


def fixture_text(table_id: str) -> str:
    """The text of the bundled reference fixture ``table_id``."""
    return reference.fixture_path(table_id).read_text(encoding="utf-8")


def descending_partitions(n: int) -> Iterator[list[int]]:
    """Yield each partition of n >= 1 as a descending list, in decreasing
    lexicographic order.

    The same list object is reused between yields; callers must not keep or
    mutate it.
    """
    a = [n]
    while True:
        yield a
        i = len(a) - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        x = a[i] - 1
        m = len(a) - i
        del a[i + 1 :]
        a[i] = x
        q, r = divmod(m, x)
        if q:
            a.extend([x] * q)
        if r:
            a.append(r)


def iter_gcd_distinct(n: int):
    """Yield (gcd of parts, number of distinct parts) for every partition of
    n >= 1, walking every partition in enumeration order."""
    gcd = math.gcd
    for a in descending_partitions(n):
        g = 0
        b = 0
        prev = 0
        for x in a:
            if x != prev:
                b += 1
                prev = x
                if g != 1:
                    g = gcd(g, x)
        yield g, b


@lru_cache(maxsize=None)
def enumerated_class_counts(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The (gcd, distinct parts) class counts of n, by walking every partition."""
    return tuple(sorted(Counter(iter_gcd_distinct(n)).items()))


def components_profile(components: list) -> tuple[int, Counter, Counter, Counter]:
    """One side of a partition's duality comparison: its component count and
    the multisets of torus dimensions, canonical singularities and variety
    normal forms, each weighted by multiplicity."""
    torus_dims, descriptors, varieties = Counter(), Counter(), Counter()
    for e in components:
        torus_dims[e.torus_dim] += e.multiplicity
        descriptors[canonical_singularity(e.singularity)] += e.multiplicity
        varieties[variety_normal_form(e.singularity)] += e.multiplicity
    return sum(torus_dims.values()), torus_dims, descriptors, varieties


def variety_normal_form_oracle(s: CyclicSingularity) -> CyclicSingularity:
    """The normal form of the variety A^ambient_dim / C_group_order, from the
    definitions.

    The group is held as the set of its elements' exponents per coordinate,
    as fractions mod 1, so the kernel of the action drops out.  While some
    element moves exactly one coordinate (a quasi-reflection), the variety is
    rewritten as the quotient by the subgroup they generate: y_i = x_i^r_i,
    with r_i the number of quasi-reflections moving coordinate i plus one,
    on which each element acts by r_i times its exponents.  The normal form
    is the smallest sorted weight tuple over the generators of what is left.
    """
    group = {tuple(Fraction(j * w, s.group_order) % 1 for w in s.weights) for j in range(s.group_order)}
    while True:
        reflections = [g for g in group if sum(1 for e in g if e) == 1]
        if not reflections:
            break
        r = [1 + sum(1 for g in reflections if g[i]) for i in range(s.ambient_dim)]
        group = {tuple(e * r_i % 1 for e, r_i in zip(g, r)) for g in group}
    order = len(group)
    generators = [g for g in group if math.lcm(*(e.denominator for e in g)) == order]
    weights = min(tuple(sorted(int(e * order) for e in g)) for g in generators)
    return CyclicSingularity(s.ambient_dim, order, weights)


def duality_report_oracle(n: int, k: int) -> DualityReport:
    """The duality report built partition by partition: both sides of every
    partition of n are decomposed and compared on their own."""
    _require_divides(k, n)
    k_dual = n // k
    flagged, counts_equal, torus_counts_equal = [], True, True
    for mu in enumerate_partitions(n):
        count, torus_dims, _, varieties = components_profile(partition_components(ComplexComponent, mu, n, k))
        count_dual, torus_dims_dual, _, varieties_dual = components_profile(
            partition_components(ComplexComponent, mu, n, k_dual))
        counts_equal &= count == count_dual
        torus_counts_equal &= torus_dims == torus_dims_dual
        if varieties != varieties_dual:
            flagged.append(mu)
    return DualityReport(
        n=n,
        k=k,
        k_dual=k_dual,
        betti_equal=betti(n, k).ranks == betti(n, k_dual).ranks,
        counts_equal=counts_equal,
        torus_counts_equal=torus_counts_equal,
        singularity_differences=tuple(flagged),
    )


def distinct_part_counts(n: int) -> list[list[int]]:
    """Rows ``c[s][b]``, s = 0..n: the number of partitions of s with exactly
    b distinct parts, for b up to the most distinct parts a partition of n has.

    Dynamic programming over the generating function
    prod over j of (1 + y x^j / (1 - x^j)): part size j either does not occur,
    or occurs with some multiplicity m >= 1 and adds one distinct part.
    """
    width = (math.isqrt(8 * n + 1) - 1) // 2 + 1  # 1 + 2 + ... + b <= n
    rows = [[1] + [0] * (width - 1)] + [[0] * width for _ in range(n)]
    for j in range(1, n + 1):
        # used[s]: partitions of s with largest part j, from the rows over
        # parts < j; used[s] = rows[s - j] shifted one part up + used[s - j].
        used = [[0] * width] * j
        for s in range(j, n + 1):
            used.append([0, *map(add, rows[s - j], used[s - j][1:])])
        for s in range(j, n + 1):
            rows[s] = list(map(add, rows[s], used[s]))
    return rows


def gcd_distinct_counts(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """How many partitions of n >= 1 fall in each (gcd of parts, distinct
    parts) class, as sorted ((g, b), count) pairs with count > 0.

    The partitions of n with every part divisible by d are d times those of
    n/d, so they number c(n/d, b) of :func:`distinct_part_counts`.  Those
    with part gcd exactly g are left after subtracting the exact counts of
    every divisor d > g of n with g | d.
    """
    rows = distinct_part_counts(n)
    exact: dict[int, list[int]] = {}
    for g in reversed(divisors(n)):
        row = rows[n // g]
        for d, finer in exact.items():
            if d % g == 0:
                row = list(map(int.__sub__, row, finer))
        exact[g] = row
    return tuple(sorted(
        ((g, b), count) for g, row in exact.items() for b, count in enumerate(row) if count
    ))


def betti_binomial_fold(n: int, k: int, class_counts=gcd_distinct_counts) -> tuple[int, ...]:
    """The Betti ranks of (n, k) as a sum of binomial coefficients: degree j
    gets total_b * C(b - 1, j) for each distinct-part count b, where total_b
    takes one component count per (g, b) class of ``class_counts(n)``, by
    default :func:`gcd_distinct_counts`.

    Cross-check for the product-series fold of :func:`extquot.topology.betti`."""
    by_distinct: Counter[int] = Counter()
    for (g, b), count in class_counts(n):
        by_distinct[b] += count * component_count_from_gcd(g, n, k)
    return tuple(
        sum(total * math.comb(b - 1, j) for b, total in by_distinct.items())
        for j in range(max(by_distinct))
    )


def betti_from_catalog(n: int, k: int, entries) -> BettiVector:
    """Betti vector recomputed from the entries of a full (n, k) catalog
    (complex or real).

    Cross-check for :func:`extquot.topology.betti`; both forms give the same
    answer since real and complex components share base dimension and
    multiplicity.
    """
    by_dim: Counter[int] = Counter()
    for entry in entries:
        by_dim[entry.torus_dim] += entry.multiplicity
    top = max(by_dim)
    ranks = tuple(
        sum(total * math.comb(dim, j) for dim, total in by_dim.items())
        for j in range(top + 1)
    )
    return BettiVector(n=n, k=k, ranks=ranks)


def grid_text(rows, fmt: str) -> str:
    """The text of :func:`extquot.topology.grid_lines` for ``rows``."""
    return "".join(grid_lines(rows, fmt))


def catalog_json_dict(n: int, k: int, form: str, entries) -> dict:
    """The object ``decompose --format json`` lays out for the held entries
    of an (n, k) catalog."""
    return {"n": n, "k": k, "form": form, "entries": [entry.to_dict() for entry in entries]}


def _catalog_grid(k: int, form: str, entries) -> list[list[str]]:
    if form == "complex":
        rows = [["mu", "omega", "X", "variety"]]
        for entry in entries:
            rows.append([str(entry.partition), _omega_str(entry, k), str(entry.multiplicity),
                         _variety_str(entry)])
        return rows
    rows = [["mu", "omega", "X", "base", "fiber dims", "C_d", "joins", "fiber action preserves orientation"]]
    if k == 1:
        rows[0].append("bundle orientable")
    for entry in entries:
        cells = [
            str(entry.partition),
            _omega_str(entry, k),
            str(entry.multiplicity),
            f"T^{entry.torus_dim}",
            ",".join(str(d) for d in entry.fiber_simplex_dims),
            str(entry.cyclic_order),
            ",".join(str(c) for c in entry.join_counts),
            _flag(entry.action_orientation_preserving),
        ]
        if k == 1:
            cells.append(_flag(entry.bundle_orientable))
        rows.append(cells)
    return rows


def _catalog_csv_rows(entries) -> Iterator[list]:
    """A header, then each entry's ``to_dict`` as CSV cells with the
    singularity's fields in its place."""
    for i, entry in enumerate(entries):
        fields = {}
        for key, value in entry.to_dict().items():
            for name, v in value.items() if key == "singularity" else [(key, value)]:
                if isinstance(v, list):
                    v = " ".join(map(str, v))
                fields[name] = _flag(v) if isinstance(v, bool) else v
        fields["partition"] = str(entry.partition)
        if i == 0:
            yield list(fields)
        yield list(fields.values())
