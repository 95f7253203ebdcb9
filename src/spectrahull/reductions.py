"""Reductions of standard feasibility questions onto spectrahull membership.

Two front ends live here.  The general one embeds linear matrix equalities
with a free trace into one order higher, homogenizing the right-hand side
into a corner entry so the target becomes the origin.  The combinatorial one
drives the membership solver as a feasibility probe inside a bisection over
the objective value of the cut relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chm import FEASIBLE, INCONCLUSIVE, WITNESS
from .symcore import ShmInstance, SpectraplexPoint, SymmetricMatrix
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
    """

    membership: ShmInstance
    source: SdpFeasibilityInstance
    degenerate_rhs: bool

    def recover(self, point: SpectraplexPoint, min_alpha: float = 1e-10):
        """Undo the embedding: return (X, alpha) with X from the leading block.

        ``alpha`` is the corner weight; below ``min_alpha`` the scale division
        is untrustworthy and RecessionDirectionError is raised.
        """
        n = self.source.n
        if point.n != n + 1:
            raise ValueError("point order does not match the reduction")
        dense = point.dense()
        alpha = float(dense[n, n])
        if alpha <= min_alpha:
            raise RecessionDirectionError(
                f"corner weight {alpha:.3e} is at or below {min_alpha:.3e}; "
                "the certificate describes a recession direction, not a finite solution"
            )
        return dense[:n, :n] / alpha, alpha


def reduce_sdp_to_shm(sdp: SdpFeasibilityInstance) -> SdpReduction:
    """Border each constraint matrix with its negated rhs and target zero."""
    n = sdp.n
    mats = []
    for a, b_i in zip(sdp.mats, sdp.rhs):
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = a.entries
        bordered[n, n] = -b_i
        mats.append(SymmetricMatrix(bordered))
    instance = ShmInstance(tuple(mats), np.zeros(sdp.m))
    return SdpReduction(instance, sdp, bool(np.linalg.norm(sdp.rhs) == 0.0))


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
        if not np.allclose(w, w.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(w).max())):
            raise ValueError("weight matrix must be symmetric")
        w = 0.5 * (w + w.T)
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal weights must be zero")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n: int, edges) -> "MaxCutInstance":
        w = np.zeros((n, n))
        for i, j, wt in edges:
            if i == j:
                raise ValueError("self loops are not allowed")
            w[i, j] += wt
            w[j, i] += wt
        return cls(w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def cut_upper_bound(self, relaxation_value: float) -> float:
        # cut(S) = (sum of all weights - <W, Y>) / 4 for the sign vector of S
        return 0.25 * (float(self.weights.sum()) - relaxation_value)


def _probe_instance(mc: MaxCutInstance, w: float) -> ShmInstance:
    n = mc.n
    mats = [SymmetricMatrix(mc.weights)]
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        mats.append(SymmetricMatrix(e))
    b = np.full(n + 1, 1.0 / n)
    b[0] = w / n
    return ShmInstance(tuple(mats), b)


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
    w: float
    kind: str
    gap: float
    iterations: int
    oracle_calls: int


@dataclass
class MaxCutResult:
    """Bisection outcome for the minimum of <W, Y> over unit-diagonal PSD Y."""

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


def solve_maxcut_relaxation(
    mc: MaxCutInstance,
    epsilon: float = 1e-2,
    max_iters: int = 50_000,
) -> MaxCutResult:
    """Bisect the relaxation value to within epsilon using membership probes.

    Works in trace-one scale omega = <W, X>: the identity certifies omega = 0
    feasible, Cauchy-Schwarz bounds the minimum by the negated Frobenius norm,
    and each probe either lands inside the tolerance ball (feasible, shrink
    from above) or certifies a separating witness (shrink from below).  An
    inconclusive probe gets one widened retry before the run aborts with the
    partial bracket.
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
    warm = "rankone-e"

    def probe(omega: float, gap_target: float):
        nonlocal warm
        inst, cert = maxcut_feasibility_probe(mc, n * omega, gap_target, max_iters, start=warm)
        trace.append(
            ProbeRecord(n * omega, cert.kind, cert.gap, cert.iterations, cert.oracle_calls)
        )
        if cert.point is not None:
            # any iterate transfers between probes: the target moves, the set
            # does not, so the next probe resumes instead of restarting
            warm = cert.point
        return cert

    cert = probe(lo, abs_gap)
    if cert.kind == FEASIBLE:
        y = n * cert.point.dense()
        return MaxCutResult(n * lo, y, lo * n, hi * n, epsilon, "converged", tuple(trace))
    if cert.kind == INCONCLUSIVE:
        cert = probe(lo, 10.0 * abs_gap)
        widened += 1
        if cert.kind != WITNESS:
            return MaxCutResult(
                n * lo, best_y, n * lo, n * hi, epsilon, "aborted", tuple(trace), widened
            )
    stop_width = epsilon / n
    while hi - lo > stop_width:
        mid = 0.5 * (lo + hi)
        cert = probe(mid, abs_gap)
        if cert.kind == INCONCLUSIVE:
            cert = probe(mid, 10.0 * abs_gap)
            widened += 1
        if cert.kind == FEASIBLE:
            hi = mid
            best_y = n * cert.point.dense()
        elif cert.kind == WITNESS:
            lo = mid
        else:
            return MaxCutResult(
                n * lo, best_y, n * lo, n * hi, epsilon, "aborted", tuple(trace), widened
            )
    return MaxCutResult(n * lo, best_y, n * lo, n * hi, epsilon, "converged", tuple(trace), widened)
