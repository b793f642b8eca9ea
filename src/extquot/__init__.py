"""Extended quotients of maximal tori of SL_n(C)/C_k and SU_n(C)/C_k by the
Weyl group S_n: explicit component catalogs, Betti numbers, K-theory ranks,
and duality verification with exact regression against bundled reference
tables."""

from .complex_quotient import ComplexComponent, decompose, partition_components
from .partitions import Partition, invariants
from .real_quotient import RealComponent
from .topology import betti, duality_reports, ktheory_ranks

__version__ = "0.1.0"

__all__ = [
    "ComplexComponent",
    "Partition",
    "RealComponent",
    "betti",
    "decompose",
    "duality_reports",
    "invariants",
    "ktheory_ranks",
    "partition_components",
]
