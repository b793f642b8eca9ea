"""Betti numbers, K-theory ranks, Euler characteristics and duality checks.

Every component of the quotient deformation-retracts onto its base torus, so
the Betti vector for (n, k) is a binomial fold: degree j picks up
C(b(mu) - 1, j) from each component of a partition with b distinct parts,
the coefficients of (1 + t)^(b - 1).  It is read from the sums over the
partitions of n/d of (1 + t)^b, one per divisor d of n and each weighted by
component counts, with no partition enumerated and no binomial coefficient.

K-theory ranks are the even/odd Betti sums (Chern character over C), and the
Euler characteristic for k = 1 equals the divisor sum of n.

Duality reports compare the (n, k) and (n, n/k) quotients for every divisor k
of n in one pass over the partitions of n, once per invariant class
(g, m, b, c, p) and pair {k, n/k}, not once per partition.  A report holds
two flags and only the partitions it flags, so its size grows with the
flagged partitions, not with the classes or P(n).
"""

from __future__ import annotations

import csv
import math
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complex_quotient import (
    CyclicSingularity,
    Stratum,
    component_count_from_gcd,
    strata,
    variety_normal_form,
    _require_divides,
)
from .numtheory import divisors
from .partitions import Partition, by_class, distinct_part_sums, invariants, partitions_pairs


class BettiVector(NamedTuple):
    """Graded complex-cohomology ranks b_0..b_D for the (n, k) quotient."""

    n: int
    k: int
    ranks: tuple[int, ...]

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1


class KTheoryRanks(NamedTuple):
    k0: int
    k1: int


def betti(n: int, k: int) -> BettiVector:
    """The Betti vector: b_j = sum over mu of |components(mu)| * C(b(mu)-1, j).

    The partitions of n whose parts d divides are d times those of n/d, so
    the sum over them of (1 + t)^b is S_(n/d)(t) of :func:`distinct_part_sums`.
    A partition of part gcd g lies in S_(n/d) for every d | g, so weights
    w(d) whose sum over d | g is the component count of g, taken for d
    ascending, give sum over mu of |components(mu)| (1 + t)^b(mu) as the sum
    of w(d) S_(n/d); dividing it by 1 + t leaves the Betti polynomial."""
    _require_divides(k, n)
    sums = distinct_part_sums(n)
    weights: dict[int, int] = {}
    total = [0] * len(sums[1])
    for d, coefficients in sums.items():
        weights[d] = weight = component_count_from_gcd(d, n, k) - sum(
            w for e, w in weights.items() if d % e == 0)
        for q, c in enumerate(coefficients):
            total[q] += weight * c
    ranks = accumulate(total[:-1], lambda r, s: s - r)  # r_0 = s_0, r_j = s_j - r_(j-1)
    return BettiVector(n=n, k=k, ranks=tuple(ranks))


def ktheory_ranks(n: int, k: int) -> KTheoryRanks:
    """(K0, K1) ranks: sums of the even- and odd-degree Betti numbers."""
    vector = betti(n, k)
    return KTheoryRanks(
        k0=sum(vector.ranks[0::2]),
        k1=sum(vector.ranks[1::2]),
    )


def euler_characteristic(n: int, k: int) -> int:
    """Alternating sum of the Betti numbers; equals sigma(n) when k = 1."""
    vector = betti(n, k)
    return sum(rank if j % 2 == 0 else -rank for j, rank in enumerate(vector.ranks))


def top_betti(n: int) -> tuple[int, int]:
    """Top nonzero degree and its rank for the k = 1 quotient, in closed form.

    With b the largest integer whose triangle number T_b = 1+2+...+b is at
    most n, the top degree is b - 1 and its rank is the two-kind partition
    count P_2(n - T_b); the rank resets to 1 at each triangle number.  The
    single exception is n = 2: the partition 2 has part-gcd 2 and contributes
    two point components instead of one, so the rank is 3 rather than
    P_2(1) = 2.
    """
    if n < 1:
        raise ValueError("top_betti needs a positive integer")
    if n == 2:
        return 0, 3
    b = (math.isqrt(8 * n + 1) - 1) // 2
    r = n - b * (b + 1) // 2
    return b - 1, partitions_pairs(r)


class DualityReport(NamedTuple):
    """The comparison of the (n, k) and (n, n/k) quotients: whether their Betti
    vectors agree, whether every invariant class of partitions of n has as many
    components and the same torus dimensions on both sides, and the partitions
    whose varieties differ between the two sides, in enumeration order."""

    n: int
    k: int
    k_dual: int
    betti_equal: bool
    counts_equal: bool
    torus_counts_equal: bool
    singularity_differences: tuple[Partition, ...]

    @property
    def ok(self) -> bool:
        return self.betti_equal and self.counts_equal and self.torus_counts_equal


def _profile(layers: list[Stratum], forms: dict[tuple, CyclicSingularity]
             ) -> tuple[int, dict[int, int], dict[CyclicSingularity, int]]:
    """One side of a class's duality comparison: its component count and the
    multisets of torus dimensions and variety normal forms, each weighted by
    multiplicity, tallied in plain dicts, which cost less to build than
    Counters and hold no zero tally, since every multiplicity is positive.
    ``forms`` maps (p, d) to the normal form of A^(c-b) / C_d, which
    (p, c - b = sum(p), d) fix."""
    torus_dims: dict[int, int] = {}
    varieties: dict[CyclicSingularity, int] = {}
    for s in layers:
        key = (s.invariants.p, s.d)
        if key not in forms:
            forms[key] = variety_normal_form(s.singularity)
        torus_dims[s.torus_dim] = torus_dims.get(s.torus_dim, 0) + s.multiplicity
        variety = forms[key]
        varieties[variety] = varieties.get(variety, 0) + s.multiplicity
    return sum(torus_dims.values()), torus_dims, varieties


def duality_reports(n: int) -> list[DualityReport]:
    """Compare the (n, k) quotient with its dual (n, n/k) stratum by stratum,
    for every divisor k of n in increasing order.

    Betti vectors, per-partition component counts and torus-dimension
    histograms always agree.  The singularity structure may differ; it is
    compared at the level of the underlying varieties (quasi-reflections
    discarded), and partitions are flagged when the varieties differ.

    One walk over the runs of the partitions of n (:func:`by_class`): each
    class is compared once per pair k < n/k on its first partition, each
    side (n, k) profiled once; a self-dual k = n/k compares a side with
    itself, so it is neither profiled nor compared.  The reports of k and
    n/k share the pair's verdicts.  Any other partition is built only to
    join the flagged list of a pair whose varieties differ.  Each distinct
    singularity is normalized once; only the reports outlive the call.
    """
    if n < 1:
        raise ValueError("duality_reports needs a positive integer")
    ks = divisors(n)
    lows = [k for k in ks if k * k <= n]  # the smaller k of each pair {k, n/k}
    pairs = [k for k in lows if k * k < n]
    forms: dict[tuple, CyclicSingularity] = {}
    counts_equal, torus_counts_equal = dict.fromkeys(lows, True), dict.fromkeys(lows, True)
    flagged: dict[int, list[Partition]] = {k: [] for k in lows}

    def compare(mu: Partition) -> tuple[int, ...]:  # the pairs whose varieties differ in the class of mu
        inv = invariants(mu)
        profiles = {k: _profile(strata(inv, n, k), forms) for k in ks if k * k != n}
        differing = []
        for k in pairs:
            count, torus_dims, varieties = profiles[k]
            count_dual, torus_dims_dual, varieties_dual = profiles[n // k]
            counts_equal[k] &= count == count_dual
            torus_counts_equal[k] &= torus_dims == torus_dims_dual
            if varieties != varieties_dual:
                differing.append(k)
        return tuple(differing)

    for runs, differing in by_class(n, compare):
        if differing:
            mu = Partition(n, runs)  # one, shared by the reports that flag it
        for k in differing:
            flagged[k].append(mu)
    differences = {k: tuple(mus) for k, mus in flagged.items()}
    ranks = {k: betti(n, k).ranks for k in ks}
    return [DualityReport(n=n, k=k, k_dual=n // k, betti_equal=ranks[k] == ranks[n // k],
                          counts_equal=counts_equal[low], torus_counts_equal=torus_counts_equal[low],
                          singularity_differences=differences[low])
            for k in ks for low in [min(k, n // k)]]


# ---------------------------------------------------------------------------
# Table construction and rendering.


def betti_table(max_n: int, k: int, even_only: bool = False) -> list[BettiVector]:
    """Betti vectors for every n <= max_n with k | n (optionally even n only),
    ascending in n."""
    return [betti(n, k) for n in range(k, max_n + 1, k) if not even_only or n % 2 == 0]


def ktheory_table(max_n: int) -> list[tuple[int, dict[int, KTheoryRanks]]]:
    """K-theory ranks for n = 2..max_n and every k | n, ascending in n."""
    return [(n, {k: ktheory_ranks(n, k) for k in divisors(n)}) for n in range(2, max_n + 1)]


def betti_grid(vectors: Sequence[BettiVector]) -> list[list[str]]:
    """The reference-table layout: one row per n, blank cells for degrees
    above the row's top degree."""
    width = max((len(v.ranks) for v in vectors), default=0)
    rows = [["n"] + [f"b_{j}" for j in range(width)]]
    for v in vectors:
        rows.append([str(v.n)] + [str(r) for r in v.ranks] + [""] * (width - len(v.ranks)))
    return rows


def ktheory_grid(rows: Sequence[tuple[int, dict[int, KTheoryRanks]]]) -> list[list[str]]:
    """One row per n, one column per k, cells "k0/k1" and blanks where k does
    not divide n."""
    max_k = max((n for n, _ in rows), default=0)
    grid = [["n"] + [str(k) for k in range(1, max_k + 1)]]
    for n, cells in rows:
        grid.append([str(n)] + [
            f"{cells[k].k0}/{cells[k].k1}" if k in cells else "" for k in range(1, max_k + 1)
        ])
    return grid


class _Echo:
    """A file whose ``write`` returns the text it is given, so that
    ``csv.writer(...).writerow``, which returns what ``write`` returns, gives
    the line it formats."""

    @staticmethod
    def write(text: str) -> str:
        return text


def grid_line(row: Sequence[str], fmt: str) -> str:
    """One line, newline included, of a CSV or markdown grid."""
    if fmt == "csv":
        return csv.writer(_Echo(), lineterminator="\n").writerow(row)
    return "| " + " | ".join(row) + " |\n"


def grid_lines(rows: Iterable[Sequence[str]], fmt: str) -> Iterator[str]:
    """The lines, newline included, of a table whose first row is its header:
    CSV, or a markdown grid whose header line carries the rule under it."""
    for i, row in enumerate(rows):
        line = grid_line(row, fmt)
        yield line + "|" + "---|" * len(row) + "\n" if i == 0 and fmt == "markdown" else line
