"""Extended quotients of maximal tori of SL_n(C)/C_k and SU_n(C)/C_k by the
Weyl group S_n: explicit component catalogs, Betti numbers, K-theory ranks,
and duality verification with exact regression against bundled reference
tables."""

from .complex_quotient import (
    ComplexComponent,
    CyclicSingularity,
    OmegaLabel,
    canonical_singularity,
    decompose,
    partition_components,
    variety_normal_form,
)
from .numtheory import (
    UnimodularMatrix,
    divisor_sigma,
    divisors,
    pillai,
    pillai_via_totient,
    totient,
    two_adic_valuation,
    unimodular_completion,
)
from .partitions import (
    Partition,
    PartitionInvariants,
    enumerate_partitions,
    invariants,
    partition_count,
    partitions_pairs,
)
from .real_quotient import (
    RealComponent,
    bundle_orientable_k1,
)
from .topology import (
    BettiVector,
    DualityReport,
    KTheoryRanks,
    betti,
    duality_reports,
    euler_characteristic,
    ktheory_ranks,
    top_betti,
)

__version__ = "0.1.0"

__all__ = [
    "BettiVector",
    "ComplexComponent",
    "CyclicSingularity",
    "DualityReport",
    "KTheoryRanks",
    "OmegaLabel",
    "Partition",
    "PartitionInvariants",
    "RealComponent",
    "UnimodularMatrix",
    "betti",
    "bundle_orientable_k1",
    "canonical_singularity",
    "decompose",
    "divisor_sigma",
    "divisors",
    "duality_reports",
    "enumerate_partitions",
    "euler_characteristic",
    "invariants",
    "ktheory_ranks",
    "partition_components",
    "partition_count",
    "partitions_pairs",
    "pillai",
    "pillai_via_totient",
    "top_betti",
    "totient",
    "two_adic_valuation",
    "unimodular_completion",
    "variety_normal_form",
]
