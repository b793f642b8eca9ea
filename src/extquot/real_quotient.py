"""The real form: components of the extended quotient of a maximal torus of
SU_n(C)/C_k by the Weyl group S_n.

Each component is a bundle of polysimplices over a compact torus of dimension
b-1, quotiented by the cyclic group C_d of its stratum acting on the fibres,
times a discrete set; the base, d and the discrete set are shared with the
complex form (:mod:`extquot.complex_quotient`).  The fibre over a base point
is a product of simplices of dimensions m_j - 1, one per distinct part j; the
cyclic action cuts each simplex into a join of m_j / d smaller simplices
whose vertices it permutes cyclically.  Only descriptor data (dimensions,
join structure, orientation behaviour, multiplicities) is materialized.

Two different orientability questions arise and are kept separate: whether
the cyclic group preserves the orientation of the fibres (any k), and whether
the bundle itself is orientable (answered here for k = 1 only).
"""

from __future__ import annotations

from typing import ClassVar

from .complex_quotient import Component, CyclicSingularity, OmegaLabel, Stratum
from .numtheory import two_adic_valuation
from .partitions import Partition


class RealComponent(Component):
    """One stratum of the real extended quotient.

    ``bundle_orientable`` is populated only in k = 1 catalogs, where the
    bundle-orientability criterion applies.
    """

    __slots__ = ("fiber_simplex_dims", "join_counts", "bundle_orientable")
    field_names: ClassVar[tuple[str, ...]] = Component.field_names + __slots__
    form: ClassVar[str] = "real"
    flag_names: ClassVar[tuple[str, ...]] = ("bundle_orientable",)

    def __init__(self, partition: Partition, omega: OmegaLabel, torus_dim: int, singularity: CyclicSingularity,
                 multiplicity: int, fiber_simplex_dims: tuple[int, ...], join_counts: tuple[int, ...],
                 bundle_orientable: bool | None = None) -> None:
        super().__init__(partition, omega, torus_dim, singularity, multiplicity)
        self.fiber_simplex_dims = fiber_simplex_dims
        self.join_counts = join_counts
        self.bundle_orientable = bundle_orientable

    @classmethod
    def run_items(cls, d: int, part: int, mult: int) -> dict[str, tuple[int, ...]]:
        """A run of mult parts adds one simplex of dimension mult - 1, a join
        of mult / d smaller ones."""
        return {**super().run_items(d, part, mult), "fiber_simplex_dims": (mult - 1,),
                "join_counts": (mult // d,)}

    @classmethod
    def run_flags(cls, s: Stratum, runs: tuple[tuple[int, int], ...]) -> tuple[bool, ...]:
        """At k = 1, the bundle orientability, which pairs each part with its
        multiplicity."""
        return (orientable_k1(s.invariants.g, runs),) if s.k == 1 else ()

    @property
    def cyclic_order(self) -> int:
        """The order d of the cyclic group acting on the fibres."""
        return self.singularity.group_order

    @property
    def action_orientation_preserving(self) -> bool:
        """Whether the cyclic group preserves the orientation of the fibres:
        iff the part count c is odd or the 2-adic norm of c is smaller than
        that of d, i.e. the 2-adic valuation of c exceeds that of d."""
        c = self.torus_dim + 1 + self.singularity.ambient_dim  # (b - 1) + 1 + (c - b)
        d = self.cyclic_order
        return c % 2 == 1 or two_adic_valuation(c) > two_adic_valuation(d)

    def to_dict(self) -> dict:
        data = {
            **super().to_dict(),
            "fiber_simplex_dims": list(self.fiber_simplex_dims),
            "join_counts": list(self.join_counts),
            "action_orientation_preserving": self.action_orientation_preserving,
        }
        if self.bundle_orientable is not None:
            data["bundle_orientable"] = self.bundle_orientable
        return data


def orientable_k1(g: int, runs: tuple[tuple[int, int], ...]) -> bool:
    """Orientability of the k = 1 polysimplex bundle over the base torus of
    a partition with part-gcd g and (part, multiplicity) runs ``runs``.

    The bundle is non-orientable exactly when the vectors (j_1/g, ..., j_b/g)
    and (m_{j_1} - 1, ..., m_{j_b} - 1) are linearly independent over Z/2.
    The first is never zero mod 2, its entries being coprime, so that means:
    some m is even, and some run (j, m) has j/g + m even.  This is the one
    rule every command prints.

    Called once per row of a k = 1 real catalog, so it reads the runs in
    plain loops, which build no generator: orientable as soon as every m is
    odd, else not at the first run with j/g + m even."""
    for _, m in runs:
        if not m & 1:
            break
    else:
        return True
    for j, m in runs:
        if not (j // g + m) & 1:
            return False
    return True
