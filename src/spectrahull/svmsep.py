"""Distance and separation between two spectrahulls in a shared image space.

Each side keeps its own dense iterate, shared with the membership solver, and
the two chase each other: a pivot query on one side uses the other side's
current image as the target.  Factors are built only for the returned pair,
at most min(m+1, n) per side.
When both sides certify pivot absence against each other in the same sweep,
the bisector of the connecting segment strictly separates the hulls.  When
the connecting segment collapses within tolerance, the hulls intersect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chm import INCONCLUSIVE, Hyperplane, default_iteration_cap
from .shm import PivotCache, SolveStats, _Iterate, _make_assembly, _search_pivot
from .symcore import ShmInstance, SpectraplexPoint, SymmetricMatrix, rank_one_image

__all__ = [
    "INTERSECTING",
    "SEPARATED",
    "PairCertificate",
    "PairIterate",
    "solve_separation",
]

INTERSECTING = "intersecting"
SEPARATED = "separated"


@dataclass(frozen=True)
class PairIterate:
    """Snapshot of the two chasing representations and their image distance."""

    left: SpectraplexPoint
    right: SpectraplexPoint
    gap: float


@dataclass
class PairCertificate:
    """Outcome of a separation run.

    Separated carries the bisector of the final connecting segment, with the
    left hull strictly below the offset and the right hull strictly above,
    plus each side's certified eigenvalue margin, error bound taken off.  Intersecting carries a
    pair of representations whose images agree within tolerance.
    """

    kind: str
    pair: PairIterate
    epsilon: float
    scale: float
    iterations: int
    oracle_calls: int
    hyperplane: Hyperplane | None = None
    left_margin: float | None = None
    right_margin: float | None = None
    stats: SolveStats = field(default_factory=SolveStats)


def _coerce_side(side, name: str) -> ShmInstance:
    if isinstance(side, ShmInstance):
        if float(np.linalg.norm(side.b)) != 0.0:
            return ShmInstance(side.mats, np.zeros(side.m))
        return side
    mats = tuple(a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a) for a in side)
    if not mats:
        raise ValueError(f"{name} side needs at least one matrix")
    return ShmInstance(mats, np.zeros(len(mats)))


def solve_separation(
    left,
    right,
    epsilon: float,
    max_iters: int | None = None,
    mode: str = "power",
    seed=0,
    strict: bool = False,
) -> PairCertificate:
    """Decide whether two spectrahulls intersect or are strictly separated.

    ``left`` and ``right`` are matrix families (or instances, targets
    ignored) sharing the image dimension; their orders may differ.  The
    distance tolerance is ``epsilon`` times the larger side's radius bound.
    Sides are visited most-recently-successful first, alternating by sweep
    parity until one succeeds.
    """
    inst_l = _coerce_side(left, "left")
    inst_r = _coerce_side(right, "right")
    if inst_l.m != inst_r.m:
        raise ValueError("sides must share the image dimension")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if max_iters is None:
        max_iters = default_iteration_cap(epsilon)
    if mode == "cached":
        oracle_mode = "cached-first"
        caches = (PivotCache(), PivotCache())
    elif mode in ("power", "exact"):
        oracle_mode = mode
        caches = (None, None)
    else:
        raise ValueError(f"unknown solve mode {mode!r}")
    gen = np.random.default_rng(seed)
    sides = (_Iterate.from_start(inst_l, "rankone-e"), _Iterate.from_start(inst_r, "rankone-e"))
    insts = (inst_l, inst_r)
    scale = max(inst_l.radius_bound, inst_r.radius_bound)
    tol = epsilon * scale
    stats = SolveStats()
    oracle_calls = 0
    iterations = 0
    sweep = 0
    last_success: int | None = None

    def snapshot(gap: float) -> PairIterate:
        return PairIterate(sides[0].snapshot(), sides[1].snapshot(), gap)

    while True:
        gap = float(np.linalg.norm(sides[0].image - sides[1].image))
        if gap <= tol:
            return PairCertificate(
                INTERSECTING, snapshot(gap), epsilon, scale, iterations, oracle_calls,
                stats=stats,
            )
        if iterations >= max_iters:
            return PairCertificate(
                INCONCLUSIVE, snapshot(gap), epsilon, scale, iterations, oracle_calls,
                stats=stats,
            )
        if last_success is None:
            order = (sweep % 2, 1 - sweep % 2)
        else:
            order = (last_success, 1 - last_success)
        sweep += 1
        margins = [None, None]
        stepped = False
        for k in order:
            it = sides[k]
            other = sides[1 - k]
            asm = _make_assembly(insts[k], it.image, target=other.image)
            out, calls = _search_pivot(asm, oracle_mode, caches[k], gen, strict, stats)
            oracle_calls += calls
            if caches[k] is not None:
                if out.method == "cache":
                    stats.cache_hits += 1
                else:
                    stats.cache_misses += 1
            if out.method == "jacobi":
                stats.jacobi_certs += 1
            if not out.found:
                if not out.certified:
                    # the bar lies within the eigenvalue error bound
                    return PairCertificate(
                        INCONCLUSIVE, snapshot(gap), epsilon, scale, iterations,
                        oracle_calls, stats=stats,
                    )
                margins[k] = out.margin
                continue
            if out.method == "cache":
                v_img = caches[k].images[out.cache_index].copy()
            else:
                v_img = rank_one_image(insts[k], out.vector)
                if caches[k] is not None:
                    caches[k].add(out.vector, v_img)
            d = v_img - it.image
            dd = float(d @ d)
            if dd == 0.0:
                # a true pivot never shares the iterate's image; selecting one
                # means the pair gap is float noise and the hulls touch
                return PairCertificate(
                    INTERSECTING, snapshot(gap), epsilon, scale, iterations,
                    oracle_calls, stats=stats,
                )
            alpha = min(1.0, max(0.0, float((other.image - it.image) @ d) / dd))
            it.apply(out.vector, v_img, alpha)
            iterations += 1
            last_success = k
            stepped = True
            break
        if stepped:
            continue
        # both sides certified in one sweep with nothing moving in between,
        # so the bisector of the connecting segment separates the hulls
        p_l, p_r = sides[0].image, sides[1].image
        normal = p_r - p_l
        offset = 0.5 * float(normal @ (p_r + p_l))
        return PairCertificate(
            SEPARATED, snapshot(gap), epsilon, scale, iterations, oracle_calls,
            hyperplane=Hyperplane(normal, offset),
            left_margin=margins[0], right_margin=margins[1], stats=stats,
        )
