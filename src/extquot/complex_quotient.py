"""Component catalogs of the extended quotients of a maximal torus of
SL_n(C)/C_k (complex form) and SU_n(C)/C_k (real form) by the Weyl group S_n.

Both quotients split into strata indexed by a partition mu of n (the
conjugacy class) together with a root of unity omega drawn from the cyclic
group of order gcd(g(mu), k).  Every stratum has a base torus of dimension
b-1, a cyclic group of order d = gcd(m, k/|omega|) acting on its fibre, and
gcd(g/|omega|, n/k) discrete points, where b, c are the distinct/total part
counts of mu and m is the gcd of its multiplicities.  This module computes
that shared data once per omega and invariant class (g, m, b, c, p) of mu,
and builds the catalogs of either form from it; only the fibre differs.  In
the complex form it is

    A^(c-b) / C_d,

where the cyclic group acts diagonally with weight l on p_l coordinates; the
real form's polysimplex fibre lives in :mod:`extquot.real_quotient`.  Only
this descriptor data is materialized.
"""

from __future__ import annotations

import math
from typing import ClassVar, NamedTuple

from .numtheory import divisors, pillai, totient
from .partitions import Partition, PartitionInvariants, enumerate_partitions, invariants, partition_count


class OmegaLabel:
    """A root of unity omega = zeta_h^exponent in the cyclic group C_h.

    Here h = gcd(g(mu), k); every omega attached to a partition satisfies
    order | h.  Labels are kept distinct per exponent even though the
    component formulas only consume the order, so per-omega tables can be
    reproduced exactly.  A value: equal and hashed by ``(h, exponent)``.
    """

    __slots__ = ("h", "exponent")

    def __init__(self, h: int, exponent: int) -> None:
        if h < 1 or not 0 <= exponent < h:
            raise ValueError(f"invalid omega label ({h}, {exponent})")
        self.h = h
        self.exponent = exponent

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OmegaLabel:
            return NotImplemented
        return self.h == other.h and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.h, self.exponent))

    def __repr__(self) -> str:
        return f"OmegaLabel(h={self.h!r}, exponent={self.exponent!r})"

    @property
    def order(self) -> int:
        return self.h // math.gcd(self.h, self.exponent)

    def zeta_exponent(self, k: int) -> int:
        """Exponent of omega as a power of the primitive k-th root of unity."""
        if k % self.h != 0:
            raise ValueError(f"h={self.h} does not divide k={k}")
        return self.exponent * (k // self.h)


class CyclicSingularity:
    """The quotient A^ambient_dim / C_group_order for a diagonal action.

    ``weights`` lists, per coordinate, the power of the group generator's
    eigenvalue; entries are reduced modulo group_order and weight 0 (a
    coordinate with trivial action) is retained.  group_order == 1 means the
    space is smooth affine space.  A value: equal and hashed by
    ``(ambient_dim, group_order, weights)``.
    """

    __slots__ = ("ambient_dim", "group_order", "weights")

    def __init__(self, ambient_dim: int, group_order: int, weights: tuple[int, ...]) -> None:
        if ambient_dim < 0 or group_order < 1:
            raise ValueError("invalid singularity data")
        if len(weights) != ambient_dim:
            raise ValueError("one weight per ambient coordinate is required")
        if any(not 0 <= w < group_order for w in weights):
            raise ValueError("weights must be residues mod group_order")
        self.ambient_dim = ambient_dim
        self.group_order = group_order
        self.weights = weights

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CyclicSingularity:
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.group_order == other.group_order
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.group_order, self.weights))

    def __repr__(self) -> str:
        return (f"CyclicSingularity(ambient_dim={self.ambient_dim!r}, group_order={self.group_order!r}, "
                f"weights={self.weights!r})")

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "group_order": self.group_order,
            "weights": list(self.weights),
        }


class Stratum(NamedTuple):
    """What both forms share for the stratum (class, omega) of the (n, k)
    quotient, where the class is the invariants (g, m, b, c, p) of its
    partitions: the torus dimension b - 1, the order d of the cyclic group
    on the fibre and the number of discrete points."""

    invariants: PartitionInvariants
    omega: OmegaLabel
    k: int
    torus_dim: int
    d: int
    multiplicity: int

    @property
    def singularity(self) -> CyclicSingularity:
        """The singularity A^(c-b) / C_d of the stratum's fibre."""
        return _singularity(self.invariants, self.d)


def _require_divides(k: int, n: int) -> None:
    if n < 1 or k < 1 or n % k != 0:
        raise ValueError(f"k={k} must divide n={n}")


def strata(inv: PartitionInvariants, n: int, k: int) -> list[Stratum]:
    """The strata of every partition of n with invariants ``inv``, one per
    omega = zeta_h^e for e = 0..h-1 with h = gcd(g, k)."""
    _require_divides(k, n)
    h = math.gcd(inv.g, k)
    layers = []
    for e in range(h):
        omega = OmegaLabel(h, e)
        order = omega.order
        layers.append(Stratum(inv, omega, k, torus_dim=inv.b - 1, d=math.gcd(inv.m, k // order),
                              multiplicity=math.gcd(inv.g // order, n // k)))
    return layers


def partition_components(component_type: type, mu: Partition, n: int, k: int) -> list:
    """The components of one partition in omega order, each built by
    ``component_type.from_stratum``: :class:`ComplexComponent` or
    :class:`~extquot.real_quotient.RealComponent`.

    Every single-partition lookup goes through here, so none of them
    enumerates the other partitions of n.
    """
    return [component_type.from_stratum(s, mu) for s in strata(invariants(mu), n, k)]


def decompose(component_type: type, n: int, k: int) -> list:
    """The full catalog for (n, k): its components, partitions in enumeration
    order, then omega exponents.  The total component count is the sum of
    their multiplicities.

    It stays per partition, with no walk by invariant class: it is the
    independent oracle the streamed catalog writer is checked against."""
    _require_divides(k, n)
    return [entry for mu in enumerate_partitions(n)
            for entry in partition_components(component_type, mu, n, k)]


def catalog_rows(n: int, k: int) -> int:
    """The number of entries :func:`decompose` gives for (n, k) in either
    form, counted without enumerating partitions.

    A partition with part-gcd g has gcd(g, k) = sum over e | gcd(g, k) of
    totient(e) strata, and the partitions of n whose parts are all divisible
    by e number P(n/e), so the count is the sum over e | k of
    totient(e) * P(n/e).
    """
    _require_divides(k, n)
    return sum(totient(e) * partition_count(n // e) for e in divisors(k))


def _singularity(inv: PartitionInvariants, d: int) -> CyclicSingularity:
    """The cyclic singularity A^(c-b) / C_d of a partition with invariants inv.

    The generator multiplies p_l coordinates by its l-th power; weights are
    listed by increasing l and reduced mod d.
    """
    if d < 1:
        raise ValueError("group order must be positive")
    weights = tuple(l % d for l, p_l in enumerate(inv.p, start=1) for _ in range(p_l))
    return CyclicSingularity(inv.c - inv.b, d, weights)


class Component:
    """What a component carries in either form: its stratum's label, base
    torus dimension, cyclic singularity and number of discrete points.  A
    value: equal, within one class, and hashed by its fields, in the order
    ``field_names`` lists them."""

    __slots__ = ("partition", "omega", "torus_dim", "singularity", "multiplicity")
    field_names: ClassVar[tuple[str, ...]] = __slots__
    # The fields whose values run_flags gives, in row order.
    flag_names: ClassVar[tuple[str, ...]] = ()

    def __init__(self, partition: Partition, omega: OmegaLabel, torus_dim: int, singularity: CyclicSingularity,
                 multiplicity: int) -> None:
        self.partition = partition
        self.omega = omega
        self.torus_dim = torus_dim
        self.singularity = singularity
        self.multiplicity = multiplicity

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.field_names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.field_names, self._values()))
        return f"{type(self).__name__}({fields})"

    @classmethod
    def from_stratum(cls, s: Stratum, mu: Partition) -> Component:
        """The component of the stratum ``s`` of the partition ``mu``."""
        return cls(omega=s.omega, torus_dim=s.torus_dim, singularity=s.singularity,
                   multiplicity=s.multiplicity, **cls.run_fields(s, mu))

    @classmethod
    def run_fields(cls, s: Stratum, mu: Partition) -> dict:
        """The fields of the component of the stratum ``s`` of ``mu`` that
        follow the run order of ``mu``: the partition itself, each field
        whose entries ``run_items`` lists run by run, and ``run_flags``.
        Every other field depends on the partition only through its
        invariants (g, m, b, c, p) and on omega."""
        fields: dict = {}
        for part, mult in mu.runs:
            for name, items in cls.run_items(s.d, part, mult).items():
                fields[name] = fields.get(name, ()) + items
        return {**fields, "partition": mu, **dict(zip(cls.flag_names, cls.run_flags(s, mu.runs)))}

    @classmethod
    def run_items(cls, d: int, part: int, mult: int) -> dict[str, tuple[int, ...]]:
        """The entries that the run (part, mult) of a partition adds, in a
        stratum whose fibre group has order d, to each field listing the
        runs in order of part size: to the partition, its parts."""
        return {"partition": (part,) * mult}

    @classmethod
    def run_flags(cls, s: Stratum, runs: tuple[tuple[int, int], ...]) -> tuple[bool, ...]:
        """The values of the fields ``flag_names``, which read all the runs ``runs``
        together, of the component of the stratum ``s``; none if it has none."""
        return ()

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "omega_exponent": self.omega.exponent,
            "omega_order": self.omega.order,
            "torus_dim": self.torus_dim,
            "multiplicity": self.multiplicity,
            "singularity": self.singularity.to_dict(),
        }


class ComplexComponent(Component):
    """One stratum of the complex extended quotient: the torus times the
    singularity."""

    __slots__ = ()
    form: ClassVar[str] = "complex"


def component_count_from_gcd(g: int, n: int, k: int) -> int:
    """Number of components contributed by any partition with part-gcd g.

    Closed form: (g/a) * pillai(a) with a = gcd(g, n/g, k, n/k); it equals
    the direct sum over omega of gcd(g/|omega|, n/k).
    """
    a = math.gcd(math.gcd(g, n // g), math.gcd(k, n // k))
    return (g // a) * pillai(a)


def canonical_singularity(s: CyclicSingularity) -> CyclicSingularity:
    """Canonical representative under relabelling the acting group.

    Rescaling the weights by a unit mod d amounts to choosing a different
    generator of the same group, and permuting coordinates is harmless, so
    the canonical form is the lexicographically smallest sorted weight tuple
    over all unit multiples.  Two singularities are isomorphic in this
    group-data sense iff their canonical forms (ambient dim, d, weights)
    agree.
    """
    d = s.group_order
    if d == 1 or s.ambient_dim == 0:
        return CyclicSingularity(s.ambient_dim, d, tuple(sorted(s.weights)))
    best = min(
        tuple(sorted(u * w % d for w in s.weights))
        for u in range(1, d)
        if math.gcd(u, d) == 1
    )
    return CyclicSingularity(s.ambient_dim, d, best)


def variety_normal_form(s: CyclicSingularity) -> CyclicSingularity:
    """Normal form of the underlying quotient variety.

    Goes beyond :func:`canonical_singularity` by discarding the part of the
    group data that does not affect the variety: the kernel of the action,
    and the subgroup generated by quasi-reflections (elements moving a single
    coordinate), whose quotient is again affine space by Chevalley's theorem.
    E.g. A^1 / C_2 acting by -1 normalizes to smooth A^1, and
    A^2 / C_4 (1, 2) normalizes to A^2 / C_2 (1, 1).
    """
    d = s.group_order
    weights = list(s.weights)
    count = len(weights)
    # Every weight stays a residue below d, so all are 0 once d is 1; with no
    # coordinates, gcd(d) = d and the first shrink already reaches d = 1.
    while d > 1:
        shrink = math.gcd(d, *weights)
        if shrink > 1:
            d //= shrink
            weights = [w // shrink for w in weights]
            continue
        # Order of the generator on each coordinate; a quasi-reflection moving
        # coordinate i is a power fixing every other coordinate (exponent a
        # multiple of fix_others) while still acting on coordinate i.
        orders = [d // math.gcd(d, w) for w in weights]
        reflect_exponents = []
        for i in range(count):
            fix_others = math.lcm(*orders[:i], *orders[i + 1 :])
            if fix_others % orders[i] != 0:
                reflect_exponents.append(fix_others)
        if not reflect_exponents:
            break
        # Quotient by the subgroup the quasi-reflections generate: coordinate i
        # maps to its c_i-th power and the residual group has order d_new < d.
        d_new = math.gcd(d, *reflect_exponents)
        new_weights = []
        for w in weights:
            c_i = d // math.gcd(d, d_new * w)
            new_weights.append((c_i * w * d_new // d) % d_new)
        d, weights = d_new, new_weights
    return canonical_singularity(CyclicSingularity(count, d, tuple(weights)))
