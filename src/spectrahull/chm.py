"""The walk every solver steps with, and the types of point-set membership.

``_Walk`` keeps a convex combination of at most m+1 atoms by their images
in R^m, and its step moves to the point of the atoms' hull nearest the
target (Wolfe's minor cycles), never farther from it than the segment step.
``shm`` and ``svmsep`` walk over rank-one atoms; ``shm.solve_chm`` walks
over the coordinate vectors e_i of a ``PointSet``, the paper's diagonal
embedding, on the same driver loop as ``solve_shm``.  This module also
holds the point-set types, the hyperplane every Witness states, the bisector
(a pivot bar and a witness plane) and ``find_pivot``, one step's scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "default_iteration_cap",
]

FEASIBLE = "feasible"
WITNESS = "witness"
INCONCLUSIVE = "inconclusive"

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
        if not np.isfinite(pts).all():
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


def default_iteration_cap(epsilon: float) -> int:
    """Budget matching the worst-case feasible-run guarantee."""
    return int(math.ceil(64.0 / (epsilon * epsilon)))


def _bisector(p: np.ndarray, q: np.ndarray):
    """Normal ``p - q`` and offset of the hyperplane bisecting the segment
    from q to p; p lies on its positive side, q on its negative side."""
    normal = p - q
    return normal, 0.5 * float(normal @ (p + q))


def find_pivot(point_set: PointSet, p0, p_prime):
    """Greedy pivot search.

    Minimizes (p' - p0) . v over the set and returns ``(index, point)`` when
    the minimum clears the pivot inequality, ``None`` otherwise.  The
    minimizer clears any bar that some point of the set clears, the paper's
    tighter one included.  Ties resolve to the lowest index.
    """
    if point_set.size == 0:
        raise ValueError("empty point set")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    pp = np.asarray(p_prime, dtype=float).reshape(-1)
    c, threshold = _bisector(pp, p0)
    # greedy rule: take the linear minimizer, accept only if it clears the bar
    scores = point_set.points @ c
    idx = int(np.argmin(scores))
    if scores[idx] <= threshold:
        return idx, point_set.points[idx].copy()
    return None


def _ta_step(p0: np.ndarray, pp: np.ndarray, v: np.ndarray):
    """Step to the closest point to p0 on the segment [p', v].

    Returns the new iterate and the step size, clamped to keep the result a
    convex combination.  Takes flat float arrays, unchecked: the step every
    walk takes.
    """
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
    yl, ones = y, np.ones(w.size)
    while True:
        g = yl @ yl.T
        # s scaled to the rows keeps the system's conditioning independent
        # of the image scale; any positive value gives the same minimiser
        g += float(g.trace()) / live.size or 1.0
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
        pos = wl > 0.0
        live, yl, ones = live[pos], yl[pos], ones[pos]


class _Walk:
    """A convex combination of at most m+1 atoms, with their images in R^m.

    ``w``, ``v`` and ``ti`` (weights, atoms, images; one row per atom) are
    views of the first ``k`` rows of arrays allocated once per walk, with
    room for m+2 atoms, and ``image`` is ``w @ ti``.
    """

    def __init__(self, m: int, w: np.ndarray, v: np.ndarray, ti: np.ndarray):
        # m+1 atoms at most, plus the pivot that joins them in a step
        self.m = m
        self._w, self._ti = np.empty(m + 2), np.empty((m + 2, m))
        self._v = np.empty((m + 2, v.shape[1]))
        self._load(w, v, ti)
        self.image = w @ ti

    def _load(self, w, v, ti):
        k = self.k = w.size
        self._w[:k], self._v[:k], self._ti[:k] = w, v, ti

    @property
    def w(self) -> np.ndarray:
        return self._w[: self.k]

    @property
    def v(self) -> np.ndarray:
        return self._v[: self.k]

    @property
    def ti(self) -> np.ndarray:
        return self._ti[: self.k]

    def add(self, target: np.ndarray, vec: np.ndarray, img: np.ndarray) -> None:
        """Step toward the pivot atom ``vec`` with image ``img``, never ending
        farther from ``target`` than the segment step; raises
        ``DegeneratePivotError``, changing nothing, when ``img`` is ``image``."""
        k = self.k
        seg, alpha = _ta_step(target, self.image, img)
        w0, v, ti = self._w[: k + 1], self._v[: k + 1], self._ti[: k + 1]
        w0[k], v[k], ti[k] = 0.0, vec, img
        y = ti - target
        w = _nearest_weights(y, w0)
        near, d = w @ y, seg - target
        if math.sqrt(near @ near) > math.sqrt(d @ d):
            # a warm start's weights need not be nearest for this target;
            # the segment step's point lies in the same hull
            w = (1.0 - alpha) * w0
            w[k] = alpha
        keep = w > 0.0
        if keep.all():
            w0[:] = w
            self.k = k + 1
        else:
            self._load(w[keep], v[keep], ti[keep])
        if self.k > self.m + 1:
            # affinely dependent atoms (a repeated pivot) can all keep weight
            self._load(*_prune_arrays(self.m, self.w, self.v, self.ti))
        self.image = self.w @ self.ti


def _prune_arrays(m: int, w: np.ndarray, v: np.ndarray, ti: np.ndarray):
    """Eliminate affine dependencies among the atom images ``ti`` in R^m: at
    most m+1 atoms remain, and the bordered matrix ``[ti^T; 1^T]`` has full
    column rank (smallest singular value above 1e-12 of the largest)."""
    while True:
        t = w.shape[0]
        if t == 1:
            return w, v, ti  # one column with a unit entry: full rank, no SVD
        mat = np.ones((m + 1, t))
        mat[:m] = ti.T
        _, sv, vt = np.linalg.svd(mat)
        if t <= m + 1 and sv[-1] > 1e-12 * sv[0]:
            return w, v, ti
        gamma = vt[-1]
        lead = int(np.argmax(np.abs(gamma) > 1e-9))  # unit norm, so one always clears
        if gamma[lead] < 0.0:
            gamma = -gamma  # canonical orientation: first significant entry positive
        pos = gamma > 0.0
        ratios = w[pos] / gamma[pos]
        j = int(np.argmin(ratios))
        theta = float(ratios[j])
        drop = np.flatnonzero(pos)[j]
        w = w - theta * gamma
        w[drop] = 0.0
        keep = w > 1e-15
        w, v, ti = w[keep], v[keep], ti[keep]
        w = w / w.sum()
