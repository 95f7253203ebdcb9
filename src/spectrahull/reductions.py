"""Reductions of standard feasibility questions onto spectrahull membership.

Two front ends live here.  The general one embeds linear matrix equalities
with a free trace into one order higher, homogenizing the right-hand side
into a corner entry so the target becomes the origin.  The combinatorial one
drives the membership solver as a feasibility probe inside a search over the
objective value of the cut relaxation, where each probe's certificate moves
the bracket to the bounds it proves: a witness's separating hyperplane gives
a spectral lower bound, and the probe's point, of either verdict, rescaled
to a unit diagonal gives an upper bound that it attains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chm import FEASIBLE, INCONCLUSIVE, WITNESS
from .symcore import ShmInstance, SpectraplexPoint, SymmetricMatrix, _squares_fit, _symmetrize
from .shm import solve_shm

__all__ = [
    "MaxCutInstance",
    "MaxCutResult",
    "ProbeRecord",
    "RecessionDirectionError",
    "SdpFeasibilityInstance",
    "SdpReduction",
    "maxcut_feasibility_probe",
    "reduce_sdp_to_shm",
    "solve_maxcut_relaxation",
]

MIN_CORNER_WEIGHT = 1e-10  # see SdpReduction.recover
FLOOR_RETRIES, RETRY_CUT = 3, 0.25  # see solve_maxcut_relaxation


class RecessionDirectionError(RuntimeError):
    """Raised when a solution concentrates in the homogenizing corner.

    The corner weight is the scale that undoes the embedding; when it
    vanishes the recovered matrix would blow up, and the certificate only
    says the original constraints are satisfiable in a limiting sense.
    """


@dataclass(frozen=True)
class SdpFeasibilityInstance:
    """Find X positive semidefinite with <A_i, X> = b_i for every i."""

    mats: tuple
    rhs: np.ndarray

    def __post_init__(self):
        mats = tuple(
            a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a) for a in self.mats
        )
        if not mats:
            raise ValueError("instance needs at least one constraint matrix")
        order = mats[0].n
        if any(a.n != order for a in mats):
            raise ValueError("constraint matrices must share one order")
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        if rhs.shape[0] != len(mats):
            raise ValueError("rhs length must match the number of constraints")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs must be finite")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "rhs", rhs)

    @property
    def m(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].n


@dataclass(frozen=True)
class SdpReduction:
    """Membership instance equivalent to an SdpFeasibilityInstance.

    Each constraint matrix gains one bordering row and column holding its
    negated right-hand side in the corner, and the membership target is the
    origin.  ``degenerate_rhs`` flags an all-zero right-hand side, where the
    pure corner point satisfies everything and recovery is meaningless.
    The source family is not kept: the bordered stack holds its entries, and
    recovery reads the order from the membership instance.
    """

    membership: ShmInstance
    degenerate_rhs: bool

    def recover(self, point: SpectraplexPoint):
        """Undo the embedding: return (X, alpha) with X from the leading block.

        ``alpha`` is the corner weight; at or below ``MIN_CORNER_WEIGHT`` the
        scale division is untrustworthy and RecessionDirectionError is raised.
        """
        n = self.membership.n - 1
        if point.n != n + 1:
            raise ValueError("point order does not match the reduction")
        dense = point.dense()
        alpha = float(dense[n, n])
        if alpha <= MIN_CORNER_WEIGHT:
            raise RecessionDirectionError(
                f"corner weight {alpha:.3e} is at or below {MIN_CORNER_WEIGHT:.3e}; "
                "the certificate describes a recession direction, not a finite solution"
            )
        return dense[:n, :n] / alpha, alpha


def reduce_sdp_to_shm(sdp: SdpFeasibilityInstance) -> SdpReduction:
    """Border each constraint matrix with its negated rhs and target zero."""
    n = sdp.n
    bordered = np.zeros((sdp.m, n + 1, n + 1))
    for k, a in enumerate(sdp.mats):
        bordered[k, :n, :n] = a.entries
    bordered[:, n, n] = -sdp.rhs
    instance = ShmInstance(bordered, np.zeros(sdp.m))
    # not the norm: squares of entries below about 1e-160 underflow to zero
    return SdpReduction(instance, not np.any(sdp.rhs))


@dataclass(frozen=True)
class MaxCutInstance:
    """Nonnegative edge weights of an undirected graph, zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        amax = np.abs(w).max() if w.size else 0.0
        with np.errstate(over="ignore"):
            if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, amax)):
                raise ValueError("weight matrix must be symmetric")
            w = _symmetrize(w, not _squares_fit(amax, w.shape[0]))
            if not math.isfinite(float(np.linalg.norm(w))):
                raise ValueError("weights are too large: their Frobenius norm overflows")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal weights must be zero")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n: int, edges) -> "MaxCutInstance":
        w = np.zeros((n, n))
        # parallel edges may sum past the float range; the constructor
        # rejects the resulting inf
        with np.errstate(over="ignore"):
            for i, j, wt in edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"edge endpoints must lie in [0, {n})")
                if i == j:
                    raise ValueError("self loops are not allowed")
                w[i, j] += wt
                w[j, i] += wt
        return cls(w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def _probe_base(self) -> ShmInstance:
        # W, e_1 e_1^T, ..., e_n e_n^T in one stack, built at the first probe;
        # every probe re-targets it
        n = self.n
        family = np.zeros((n + 1, n, n))
        family[0] = self.weights
        family[np.arange(1, n + 1), np.arange(n), np.arange(n)] = 1.0
        return ShmInstance(family, np.zeros(n + 1))

    def cut_upper_bound(self, relaxation_value: float) -> float:
        # cut(S) = (sum of all weights - <W, Y>) / 4 for the sign vector of S
        return 0.25 * (float(self.weights.sum()) - relaxation_value)


def _probe_instance(mc: MaxCutInstance, w: float) -> ShmInstance:
    n = mc.n
    b = np.full(n + 1, 1.0 / n)
    b[0] = w / n
    return mc._probe_base._with_target(b)


def maxcut_feasibility_probe(
    mc: MaxCutInstance,
    w: float,
    abs_gap: float,
    max_iters: int | None = None,
    start="rankone-e",
):
    """Ask whether some unit-diagonal PSD matrix Y has <W, Y> equal to w.

    The trace-one change of variables divides everything by the order, so the
    membership target is (w, 1, ..., 1) over n and ``abs_gap`` is an absolute
    image-space tolerance.  Returns the probe instance and its certificate.
    """
    instance = _probe_instance(mc, w)
    eps = abs_gap / instance.radius_bound
    eps = min(max(eps, 1e-15), 0.5)
    cert = solve_shm(instance, eps, max_iters, start=start)
    return instance, cert


@dataclass(frozen=True)
class ProbeRecord:
    """One probe of the search, in the scale of <W, Y>.

    ``floor`` is the lower bound a witness proves (its spectral floor rounded
    down onto the bracket's grid, or its level if higher); ``attained`` is
    the value of the probe's point rescaled to a unit diagonal, rounded up
    onto the grid.  Each is None where the probe has none.
    """

    w: float
    kind: str
    gap: float
    iterations: int
    oracle_calls: int
    floor: float | None = None
    attained: float | None = None


@dataclass
class MaxCutResult:
    """Bracket on the minimum of <W, Y> over unit-diagonal PSD Y.

    Both ends are proven bounds.  ``lower`` is the highest floor a witness
    proved: its certified eigenvalue floor, or the level of the probe that
    gave it, or the starting bound -n ||W||.  ``upper`` is the least value a
    probe's point attained once rescaled to a unit diagonal, or 0, and
    ``matrix``, a unit-diagonal PSD matrix, attains it.  ``value`` is the
    lower end.
    """

    value: float
    matrix: np.ndarray
    lower: float
    upper: float
    epsilon: float
    status: str
    trace: tuple[ProbeRecord, ...] = ()
    widened: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _unit_diagonal(y: np.ndarray) -> np.ndarray | None:
    """D^{-1/2} Y D^{-1/2} for D = diag(Y): PSD with an exactly unit diagonal,
    or None when a diagonal entry is not positive."""
    d = np.diag(y)
    if not np.all(d > 0.0):
        return None
    s = 1.0 / np.sqrt(d)
    out = (y * s[:, None]) * s[None, :]
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out


def _witness_floor(cert, n: int, norm_w: float) -> float | None:
    """The lower bound on omega that a witness proves, or None without one.

    Its normal c and offset h satisfy c . p(X) >= h + eig_margin for every
    X on the spectraplex (the margin is lambda_min - delta - h).  On the
    relaxation's points p(X) = (omega, 1/n, ..., 1/n), so omega is at least
    (h + eig_margin - sum_{i>=1} c_i / n) / c_0 when c_0 > 0.  The rounding
    of the pivot matrix and of this expression is taken off.
    """
    c, h, margin = cert.hyperplane.normal, cert.hyperplane.offset, cert.eig_margin
    c0 = float(c[0])
    if not c0 > 0.0:
        return None
    rest = float(c[1:].sum()) / n
    scale = abs(h) + abs(margin) + abs(rest) + float(np.abs(c).sum()) * (norm_w + 1.0)
    rounding = 4.0 * (n + 4) * np.finfo(float).eps * scale
    return (h + margin - rest - rounding) / c0


def solve_maxcut_relaxation(
    mc: MaxCutInstance,
    epsilon: float = 1e-2,
    max_iters: int = 50_000,
) -> MaxCutResult:
    """Bracket the relaxation value to within epsilon using membership probes.

    Works in trace-one scale omega = <W, X>: the identity certifies omega = 0
    attained and Cauchy-Schwarz bounds the minimum by the negated Frobenius
    norm, where the first probe sits.  Every probe's certificate moves the
    bracket to the bounds it proves.  Its point, of any verdict, rescaled to
    an exactly unit diagonal, lowers the upper end to the value it attains.
    A witness also raises the lower end to its spectral floor (see
    ``_witness_floor``), at least the probe level.  Both ends are rounded
    outward onto a grid of spacing epsilon / (8 n) anchored at the starting
    bound, so the rounding-level differences that relabelling the vertices
    makes in the certificates do not move the bracket.  After a witness that
    raised the floor the next probe sits at the floor, where the nearest
    point of the relaxation attains a value close to the minimum; otherwise
    the next probe bisects between the floor and the lower of the upper end
    and the lowest feasible level.  A feasible answer at the floor that does
    not close the bracket is asked again with the tolerance cut by
    ``RETRY_CUT``, which holds until the floor moves; after ``FLOOR_RETRIES``
    such retries, or when an inconclusive probe's widened retry is
    inconclusive too, the run aborts with the partial bracket.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    n = mc.n
    norm_w = float(np.linalg.norm(mc.weights))
    identity_y = np.eye(n)
    if norm_w == 0.0:
        return MaxCutResult(0.0, identity_y, 0.0, 0.0, epsilon, "converged")
    lo, hi = -norm_w, 0.0
    best_y = identity_y
    trace: list[ProbeRecord] = []
    widened = 0
    abs_gap = epsilon / n
    stop_width = epsilon / n
    spacing = stop_width / 8.0
    warm = "rankone-e"

    def probe(omega: float, gap_target: float):
        """Run one probe and move the bracket ends its certificate bounds."""
        nonlocal warm, lo, hi, best_y
        _, cert = maxcut_feasibility_probe(mc, n * omega, gap_target, max_iters, start=warm)
        # any iterate transfers between probes: the target moves, the set
        # does not, so the next probe resumes instead of restarting
        warm = cert.point
        floor = attained = None
        if cert.kind == WITNESS:
            bound = _witness_floor(cert, n, norm_w)
            floor = omega
            if bound is not None:
                floor = max(floor, -norm_w + spacing * math.floor((bound + norm_w) / spacing))
            lo = max(lo, min(floor, hi))
        unit = _unit_diagonal(n * cert.point.dense())
        if unit is not None:
            value = float(np.vdot(mc.weights, unit))
            attained = -norm_w + spacing * math.ceil((value / n + norm_w) / spacing)
            if attained < hi:
                # mixing in the identity (<W, I> = 0) lifts the attained
                # value onto the grid point above it
                keep = n * attained / value
                hi, best_y = attained, keep * unit + (1.0 - keep) * identity_y
                np.fill_diagonal(best_y, 1.0)
        trace.append(ProbeRecord(
            n * omega, cert.kind, cert.gap, cert.iterations, cert.oracle_calls,
            None if floor is None else n * floor, None if attained is None else n * attained,
        ))
        return cert

    feasible_level = hi  # the lowest level a probe answered feasible
    at_floor, retries = True, 0
    while hi - lo > stop_width and retries <= FLOOR_RETRIES:
        top = min(hi, feasible_level) if feasible_level > lo else hi
        omega, below = (lo if at_floor else 0.5 * (lo + top)), lo
        gap = abs_gap * RETRY_CUT**retries
        cert = probe(omega, gap)
        if cert.kind == INCONCLUSIVE:
            cert = probe(omega, 10.0 * gap)
            widened += 1
        if cert.kind == INCONCLUSIVE:
            break
        if cert.kind == FEASIBLE:
            feasible_level = min(feasible_level, omega)
        # a witness that raised the floor is followed by a probe there, and
        # a feasible answer at the floor by a retry with a tighter tolerance
        at_floor = lo > below or (cert.kind == FEASIBLE and omega == lo)
        retries = 0 if lo > below else retries + at_floor
    status = "converged" if hi - lo <= stop_width else "aborted"
    return MaxCutResult(n * lo, best_y, n * lo, n * hi, epsilon, status, tuple(trace), widened)
