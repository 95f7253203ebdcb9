"""Hull membership over an explicit finite point set.

The classic geometric loop: scan for a pivot point that is at least as far
from the iterate as from the target, take the distance-minimizing step along
the segment to it, and stop either inside the tolerance ball or at an iterate
whose bisecting hyperplane separates the target from every point.  This module
is self-contained in the image space.  It also holds the two step rules the
spectraplex walk in ``shm`` shares: the segment step ``_ta_step`` and
Wolfe's minor cycles ``_nearest_weights``, which move a walk's weights to
the point of its atoms' hull nearest the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FEASIBLE",
    "WITNESS",
    "INCONCLUSIVE",
    "DegeneratePivotError",
    "PointSet",
    "ChmIterate",
    "ChmCertificate",
    "Hyperplane",
    "find_pivot",
    "ta_step",
    "solve_chm",
    "default_iteration_cap",
]

FEASIBLE = "feasible"
WITNESS = "witness"
INCONCLUSIVE = "inconclusive"

REFRESH_PERIOD = 1000

# absolute stopping floor: below this scale a gap is indistinguishable from
# roundoff and no hyperplane built from it can be trusted
NOISE_FLOOR = 1e-12


class DegeneratePivotError(ValueError):
    """A step toward a point that coincides with the current iterate."""


@dataclass(frozen=True)
class PointSet:
    """Finite collection of points, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must form a (count, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Hyperplane:
    """Affine functional normal . x = offset with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        nrm = np.array(self.normal, dtype=float).reshape(-1)
        if not np.all(np.isfinite(nrm)) or not np.any(nrm):
            raise ValueError("hyperplane needs a finite nonzero normal")
        nrm.flags.writeable = False
        object.__setattr__(self, "normal", nrm)
        object.__setattr__(self, "offset", float(self.offset))

    def side(self, x) -> float:
        """Signed value normal . x - offset."""
        return float(self.normal @ np.asarray(x, dtype=float)) - self.offset


@dataclass(frozen=True)
class ChmIterate:
    """Convex coefficients over the set together with the point they encode."""

    coeffs: np.ndarray
    current: np.ndarray

    def __post_init__(self):
        for name in ("coeffs", "current"):
            a = np.array(getattr(self, name), dtype=float).reshape(-1)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ChmCertificate:
    kind: str
    iterate: ChmIterate
    gap: float
    radius: float
    epsilon: float
    iterations: int
    hyperplane: Hyperplane | None = None
    strict_fallbacks: int = 0


def default_iteration_cap(epsilon: float) -> int:
    """Budget matching the worst-case feasible-run guarantee."""
    return int(math.ceil(64.0 / (epsilon * epsilon)))


def _bisector(p: np.ndarray, q: np.ndarray):
    """Normal ``p - q`` and offset of the hyperplane bisecting the segment
    from q to p; p lies on its positive side, q on its negative side."""
    normal = p - q
    return normal, 0.5 * float(normal @ (p + q))


def _scan(points: np.ndarray, direction: np.ndarray, threshold: float):
    # greedy rule: take the linear minimizer, accept only if it clears the bar
    scores = points @ direction
    idx = int(np.argmin(scores))
    if scores[idx] <= threshold:
        return idx
    return None


def find_pivot(point_set: PointSet, p0, p_prime, strict: bool = False):
    """Greedy pivot search.

    Minimizes (p' - p0) . v over the set and returns ``(index, point)`` when
    the minimum clears the pivot inequality, ``None`` otherwise.  The strict
    variant tightens the bar so accepted points keep working for every target
    on the far side of the iterate.  Ties resolve to the lowest index.
    """
    if point_set.size == 0:
        raise ValueError("empty point set")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    pp = np.asarray(p_prime, dtype=float).reshape(-1)
    if strict:
        c = pp - p0
        threshold = float(c @ p0)
    else:
        c, threshold = _bisector(pp, p0)
    idx = _scan(point_set.points, c, threshold)
    if idx is None:
        return None
    return idx, point_set.points[idx].copy()


def ta_step(p0, p_prime, v):
    """Step to the closest point to p0 on the segment [p', v].

    Returns the new iterate and the step size, clamped to keep the result a
    convex combination.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    pp = np.asarray(p_prime, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    return _ta_step(p0, pp, v)


def _ta_step(p0: np.ndarray, pp: np.ndarray, v: np.ndarray):
    """``ta_step`` on flat float arrays, unchecked: the step every walk takes."""
    d = v - pp
    dd = float(d @ d)
    if dd == 0.0:
        raise DegeneratePivotError("pivot coincides with the current iterate")
    alpha = float((p0 - pp) @ d) / dd
    alpha = min(1.0, max(0.0, alpha))
    return (1.0 - alpha) * pp + alpha * v, alpha


def _nearest_weights(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Wolfe's (1976) minor cycles over the rows of ``y``, started from
    convex weights ``w``: convex weights of a point no farther from the
    origin, which is the point nearest the origin in the affine hull of the
    rows it keeps, and so in their convex hull.

    Each cycle takes the minimiser mu of |y^T mu| over the affine hull of the
    live rows, mu = a / sum(a) with (Y Y^T + s 1 1^T) a = 1 for any s > 0.  A
    mu with every entry positive is the answer; otherwise the weights move
    from ``w`` toward mu until the first one reaches zero, that row is
    dropped, and the cycle repeats.  No cycle ends farther from the origin
    than it started, and each drops a row, so there are at most as many
    cycles as rows.  Given the nearest point of the hull of the other rows
    and a new row at weight zero that is closer to the origin along that
    point's direction, the result is strictly closer (one major cycle of
    Wolfe's algorithm).  Affinely dependent rows make the system exactly
    singular; it is still consistent, so a least-squares solution gives a
    valid minimiser.  Dropped rows get weight zero.
    """
    w = np.array(w, dtype=float)
    live = np.arange(w.size)
    while True:
        yl = y[live]
        g = yl @ yl.T
        # s scaled to the rows keeps the system's conditioning independent
        # of the image scale; any positive value gives the same minimiser
        g += float(np.trace(g)) / live.size or 1.0
        ones = np.ones(live.size)
        try:
            a = np.linalg.solve(g, ones)
        except np.linalg.LinAlgError:
            a = np.linalg.lstsq(g, ones, rcond=None)[0]
        mu = a / a.sum()
        out = mu <= 0.0
        if not out.any():
            w[live] = mu
            return w
        wl = w[live]
        den = wl[out] - mu[out]  # >= 0, zero only for a zero weight at mu = 0
        ratio = np.divide(wl[out], den, out=np.zeros_like(den), where=den > 0.0)
        j = int(np.argmin(ratio))
        wl = np.maximum(wl + ratio[j] * (mu - wl), 0.0)
        wl[np.flatnonzero(out)[j]] = 0.0
        w[live] = wl
        live = live[wl > 0.0]


def solve_chm(
    point_set: PointSet,
    p0,
    epsilon: float,
    max_iters: int | None = None,
    strict: bool = False,
) -> ChmCertificate:
    """Decide membership of p0 in the hull of the set.

    Parameters
    ----------
    point_set : PointSet
        Candidate points spanning the hull.
    p0 : array_like
        Query point.
    epsilon : float
        Relative tolerance in (0, 1); feasibility means reaching within
        ``epsilon * R`` of p0 where R is the exact farthest-point distance.
    max_iters : int, optional
        Step budget; defaults to the worst-case feasible-run cap.
    strict : bool
        Prefer strict pivots, falling back to ordinary ones (the fallback
        count is reported on the certificate).

    Returns
    -------
    ChmCertificate
        Feasible with reproducing coefficients, Witness with the bisecting
        hyperplane, or Inconclusive when the budget runs out.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if point_set.size == 0:
        raise ValueError("empty point set")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.shape[0] != point_set.dim:
        raise ValueError(f"query of dim {p0.shape[0]} against points of dim {point_set.dim}")
    if max_iters is None:
        max_iters = default_iteration_cap(epsilon)
    pts = point_set.points
    dists = np.linalg.norm(pts - p0, axis=1)
    radius = float(dists.max())
    start = int(np.argmin(dists))
    coeffs = np.zeros(point_set.size)
    coeffs[start] = 1.0
    p = pts[start].copy()
    target = epsilon * radius + NOISE_FLOOR * (1.0 + float(np.linalg.norm(p0)))
    fallbacks = 0
    iterations = 0
    while True:
        gap = float(np.linalg.norm(p - p0))
        if gap <= target:
            return ChmCertificate(
                FEASIBLE, ChmIterate(coeffs, p), gap, radius, epsilon, iterations,
                strict_fallbacks=fallbacks,
            )
        if iterations >= max_iters:
            return ChmCertificate(
                INCONCLUSIVE, ChmIterate(coeffs, p), gap, radius, epsilon, iterations,
                strict_fallbacks=fallbacks,
            )
        hit = find_pivot(point_set, p0, p, strict=strict)
        if hit is None and strict:
            hit = find_pivot(point_set, p0, p, strict=False)
            if hit is not None:
                fallbacks += 1
        if hit is None:
            hp = Hyperplane(*_bisector(p, p0))
            return ChmCertificate(
                WITNESS, ChmIterate(coeffs, p), gap, radius, epsilon, iterations,
                hyperplane=hp, strict_fallbacks=fallbacks,
            )
        idx, v = hit
        try:
            p, alpha = _ta_step(p0, p, v)
        except DegeneratePivotError:
            # a true pivot never equals the iterate, so this selection means
            # the remaining gap is float noise; the iterate is as good as done
            return ChmCertificate(
                FEASIBLE, ChmIterate(coeffs, p), gap, radius, epsilon, iterations,
                strict_fallbacks=fallbacks,
            )
        coeffs *= 1.0 - alpha
        coeffs[idx] += alpha
        iterations += 1
        if iterations % REFRESH_PERIOD == 0:
            p = coeffs @ pts  # shed accumulated roundoff in the recurrence
