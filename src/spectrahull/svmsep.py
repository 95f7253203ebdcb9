"""Distance and separation between two spectrahulls in a shared image space.

Each side keeps its own walk over rank-one atoms, and the two chase each
other: a side steps with the membership solver's step engine,
``_Iterate.step``, aiming at the other side's current image instead of a
fixed target.  A side's image moves only in a step whose query found a
pivot.  This module adds only the sweep order and the verdicts.  Factors are
built only for the returned pair, at most min(m+1, n) per side.  When both
sides certify pivot absence against each other in the same sweep, the
bisector of the connecting segment strictly separates the hulls.  When the
connecting segment collapses within tolerance, the hulls intersect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chm import INCONCLUSIVE, DegeneratePivotError, Hyperplane, _bisector
from .shm import SolveStats, _budget, _Iterate
from .symcore import ShmInstance, SpectraplexPoint

# not called here (the kernel runs in shm's step engine), but perfbench
# --trace 1 wraps this name; ROADMAP item 2 drops it
from .symcore import rank_one_image  # noqa: F401

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
    plus each side's certified eigenvalue margin, error bound taken off.
    Intersecting carries a pair of representations whose images agree within
    tolerance.
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
        if np.any(side.b):
            return side._with_target(np.zeros(side.m))
        return side
    mats = tuple(side)
    if not mats:
        raise ValueError(f"{name} side needs at least one matrix")
    return ShmInstance(mats, np.zeros(len(mats)))


def solve_separation(
    left,
    right,
    epsilon: float,
    max_iters: int | None = None,
) -> PairCertificate:
    """Decide whether two spectrahulls intersect or are strictly separated.

    ``left`` and ``right`` are matrix families (or instances, targets
    ignored) sharing the image dimension; their orders may differ.  The
    distance tolerance is ``epsilon`` times the larger side's radius bound.
    Each sweep visits the side whose step last found a pivot first, the left
    side before any has.
    """
    inst_l = _coerce_side(left, "left")
    inst_r = _coerce_side(right, "right")
    if inst_l.m != inst_r.m:
        raise ValueError("sides must share the image dimension")
    max_iters = _budget(epsilon, max_iters)
    stats = SolveStats()
    sides = (_Iterate(inst_l, "rankone-e", stats), _Iterate(inst_r, "rankone-e", stats))
    scale = max(inst_l.radius_bound, inst_r.radius_bound)
    tol = epsilon * scale
    iterations = 0
    last_success = 0

    def certificate(kind: str, gap: float, **extra) -> PairCertificate:
        pair = PairIterate(sides[0].snapshot()[0], sides[1].snapshot()[0], gap)
        return PairCertificate(
            kind, pair, epsilon, scale, iterations, stats.oracle_calls, stats=stats, **extra
        )

    while True:
        gap = float(np.linalg.norm(sides[0].image - sides[1].image))
        if gap <= tol:
            return certificate(INTERSECTING, gap)
        if iterations >= max_iters:
            return certificate(INCONCLUSIVE, gap)
        margins = [None, None]
        for k in (last_success, 1 - last_success):
            try:
                out, _ = sides[k].step(sides[1 - k].image)
            except DegeneratePivotError:
                # a true pivot never shares the iterate's image; selecting one
                # means the pair gap is float noise and the hulls touch
                return certificate(INTERSECTING, gap)
            if out.found:
                iterations += 1
                last_success = k
                break
            if not out.certified:
                # the bar lies within the eigenvalue error bound
                return certificate(INCONCLUSIVE, gap)
            margins[k] = out.margin
        else:
            # both sides certified in one sweep with nothing moving in
            # between, so the bisector of the connecting segment separates
            # the hulls
            hp = Hyperplane(*_bisector(sides[1].image, sides[0].image))
            return certificate(
                SEPARATED, gap, hyperplane=hp, left_margin=margins[0], right_margin=margins[1]
            )
