"""Spectrahull membership with pivot and witness certificates.

The package decides whether a target vector lies in the image of the
spectraplex under a family of symmetric matrices, returning either a factored
convex-combination representation or a separating hyperplane backed by a
smallest eigenvalue from LAPACK that clears the pivot bar by more than its
rigorous error bound.  Reductions to semidefinite feasibility and the
cut-value relaxation ride on top, as does separation of two such image sets.
"""

from .symcore import (
    DimensionError,
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    image,
    rank_one_image,
)
from .eigen import (
    certified_min_eig,
    jacobi_eigen,
)
from .chm import (
    FEASIBLE,
    INCONCLUSIVE,
    WITNESS,
    ChmCertificate,
    ChmIterate,
    DegeneratePivotError,
    Hyperplane,
    PointSet,
    find_pivot,
)
from .shm import (
    Certificate,
    PivotOutcome,
    VerificationReport,
    pivot_oracle,
    prune_representation,
    solve_chm,
    solve_shm,
    solve_shm_cached,
    verify_certificate,
)
from .reductions import (
    MaxCutInstance,
    MaxCutResult,
    RecessionDirectionError,
    SdpFeasibilityInstance,
    SdpReduction,
    maxcut_feasibility_probe,
    reduce_sdp_to_shm,
    solve_maxcut_relaxation,
)
from .svmsep import (
    INTERSECTING,
    SEPARATED,
    PairCertificate,
    PairIterate,
    solve_separation,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChmCertificate",
    "ChmIterate",
    "DegeneratePivotError",
    "DimensionError",
    "FEASIBLE",
    "Hyperplane",
    "INCONCLUSIVE",
    "INTERSECTING",
    "MaxCutInstance",
    "MaxCutResult",
    "PairCertificate",
    "PairIterate",
    "PivotOutcome",
    "PointSet",
    "RecessionDirectionError",
    "SEPARATED",
    "SdpFeasibilityInstance",
    "SdpReduction",
    "ShmInstance",
    "SpectraplexPoint",
    "SymmetricMatrix",
    "VerificationReport",
    "WITNESS",
    "certified_min_eig",
    "find_pivot",
    "image",
    "jacobi_eigen",
    "maxcut_feasibility_probe",
    "pivot_oracle",
    "prune_representation",
    "rank_one_image",
    "reduce_sdp_to_shm",
    "solve_chm",
    "solve_maxcut_relaxation",
    "solve_separation",
    "solve_shm",
    "solve_shm_cached",
    "verify_certificate",
]
