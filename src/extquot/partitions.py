"""Integer partitions in run-length form, with the invariants that drive the
torus-quotient decompositions.

A partition of n is stored as (part, multiplicity) runs over its distinct
parts.  The invariants of interest are

    g  gcd of the parts,
    m  gcd of the multiplicities,
    b  number of distinct parts,
    c  total number of parts,
    p  the vector whose i-th entry counts distinct parts of multiplicity > i.

Every downstream formula depends on the partition only through these numbers,
so representative permutations are never materialized, and sums that need
only (g, b) count the partitions per class without walking them.

The enumerator steps on runs and yields bare runs, keyed by the gcd of the
parts and the sorted multiplicities, a key in bijection with (g, m, b, c, p):
catalogs and duality reports walk them by class with :func:`by_class`.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

from .numtheory import divisors


class Partition:
    """A partition of ``n``, stored as (part, multiplicity) runs.

    Runs are ordered by strictly increasing part size, multiplicities are
    positive, and sum(part * mult) == n.  The empty partition of 0 is allowed.
    A value: equal and hashed by ``(n, runs)``, and never changed after
    construction.
    """

    __slots__ = ("n", "runs")

    def __init__(self, n: int, runs: tuple[tuple[int, int], ...]) -> None:
        total = 0
        prev = 0
        for part, mult in runs:
            if part <= prev or mult < 1:
                raise ValueError(f"invalid runs {runs!r}")
            total += part * mult
            prev = part
        if total != n:
            raise ValueError(f"runs {runs!r} do not sum to {n}")
        self.n = n
        self.runs = runs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Partition:
            return NotImplemented
        return self.n == other.n and self.runs == other.runs

    def __hash__(self) -> int:
        return hash((self.n, self.runs))

    def __repr__(self) -> str:
        return f"Partition(n={self.n!r}, runs={self.runs!r})"

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        counts = Counter(parts)
        if any(p < 1 for p in counts):
            raise ValueError("parts must be positive")
        return cls(sum(p * m for p, m in counts.items()), tuple(sorted(counts.items())))

    @property
    def parts(self) -> tuple[int, ...]:
        """All parts, ascending, with repetition."""
        return tuple(p for p, m in self.runs for _ in range(m))

    def __str__(self) -> str:
        """The parts, ascending with repetition, joined by "+"."""
        return "+".join(["+".join([str(p)] * m) for p, m in self.runs]) if self.runs else "0"

    def run_length_str(self) -> str:
        return ",".join(f"{p}^{m}" for p, m in self.runs) if self.runs else "0"


class PartitionInvariants(NamedTuple):
    g: int
    m: int
    b: int
    c: int
    p: tuple[int, ...]


def invariants(mu: Partition) -> PartitionInvariants:
    """The invariants (g, m, b, c, p) of a nonempty partition.

    p is indexed from 1 and never carries trailing zeros: its last entry
    counts the parts achieving the maximal multiplicity.
    """
    if not mu.runs:
        raise ValueError("the empty partition has no invariants")
    mults = [m for _, m in mu.runs]
    p = [0] * (max(mults) - 1)
    for mm in mults:  # a part of multiplicity mm counts at every level i < mm
        for i in range(mm - 1):
            p[i] += 1
    g = math.gcd(*[j for j, _ in mu.runs])
    return PartitionInvariants(g=g, m=math.gcd(*mults), b=len(mults), c=sum(mults), p=tuple(p))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once.

    Order is decreasing-lexicographic on the descending part list, i.e. the
    order partition tables are usually printed in: ``n`` first, ``1+1+...+1``
    last.  ``n == 0`` yields the single empty partition.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield Partition(0, ())
        return
    for runs, _ in classified_partitions(n):
        yield Partition(n, runs)


def classified_partitions(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """Yield the runs of every partition of n >= 1 in enumerate_partitions
    order with its class key: the part gcd, then the sorted multiplicities.

    Partitions share a key exactly when they share their invariants: b, c
    and m are the count, sum and gcd of the multiplicities, p_i counts those
    above i, and p gives back how many equal each i.  The distinct parts are
    held descending beside their multiplicities; the step to the next
    partition takes away the 1s and one part x > 1, the smallest, and puts
    their sum back as parts x - 1 and a smaller remainder, so it touches at
    most the last three runs however many parts there are.
    """
    if n < 1:
        raise ValueError("classified_partitions needs a positive integer")
    parts, mults = [n], [1]
    while True:
        # Sized exactly: tuple(zip(...)) resizes a 10-slot tuple, which fills the tuple free lists.
        yield (*zip(parts[::-1], mults[::-1]),), (math.gcd(*parts), *sorted(mults))
        ones = mults.pop() if parts[-1] == 1 else 0
        if ones:
            parts.pop()
        if not parts:
            return
        x = parts[-1]
        mults[-1] -= 1
        if not mults[-1]:
            del parts[-1], mults[-1]
        q, r = divmod(x + ones, x - 1)
        parts.append(x - 1)
        mults.append(q)
        if r:
            parts.append(r)
            mults.append(1)


def by_class(n: int, first: Callable[[Partition], object]) -> Iterator[tuple[tuple[tuple[int, int], ...], object]]:
    """Yield the runs of every partition of n >= 1 in enumerate_partitions
    order, each with ``first(mu)`` of the first partition mu of its invariant
    class, the only one built as a Partition: one call per class, made just
    before mu's runs are yielded."""
    values: dict[tuple[int, ...], object] = {}
    for runs, key in classified_partitions(n):
        if key not in values:
            values[key] = first(Partition(n, runs))
        yield runs, values[key]


_PCOUNT = [1]  # P(0)


def partition_count(n: int) -> int:
    """The partition function P(n), by Euler's pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("partition_count needs a nonnegative integer")
    while len(_PCOUNT) <= n:
        m = len(_PCOUNT)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * _PCOUNT[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _PCOUNT[m - g2]
            k += 1
        _PCOUNT.append(total)
    return _PCOUNT[n]


def partitions_pairs(r: int) -> int:
    """P_2(r): the number of partitions of r into parts of two kinds.

    Equivalently the number of ordered pairs of partitions with total size r:
    P_2(r) = sum over s of P(s) * P(r - s).
    """
    if r < 0:
        raise ValueError("partitions_pairs needs a nonnegative integer")
    return sum(partition_count(s) * partition_count(r - s) for s in range(r + 1))


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


_DISTINCT = [[1]]  # distinct_part_counts(N) for the last N built, here N = 0


@lru_cache(maxsize=128)
def gcd_distinct_counts(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """How many partitions of n fall in each (gcd of parts, distinct parts)
    class, as sorted ((g, b), count) pairs with count > 0.

    The partitions of n with every part divisible by d are d times those of
    n/d, so they number c(n/d, b).  Those with part-gcd exactly g are left
    after subtracting the exact counts of every divisor d > g of n with g | d.

    The rows c(s, .) come from one module table, the rows of
    distinct_part_counts(N): for s <= N they do not depend on N but for
    trailing zero columns.  When n > N it is rebuilt at max(n, 2N), so a run
    of ascending n rebuilds it O(log n) times and it never holds more than
    twice the largest n asked for.
    """
    if n < 1:
        raise ValueError("gcd_distinct_counts needs a positive integer")
    rows = _DISTINCT
    if len(rows) <= n:
        rows[:] = distinct_part_counts(max(n, 2 * (len(rows) - 1)))
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
