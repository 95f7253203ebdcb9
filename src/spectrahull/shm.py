"""Membership of a target vector in the image of the spectraplex.

The solver runs the Triangle Algorithm as if solving a convex hull
membership problem over rank-one points, with one pivot policy.  The iterate
is a convex combination of at most m+1 rank-one atoms v v^T.  The step
engine ``_Iterate.step``, which the separation driver also uses with a
moving target, assembles the residual-weighted pivot matrix, asks one LAPACK
eigendecomposition for a direction whose quadratic form clears the pivot
bar, adds it as an atom and moves to the point of the atoms' hull nearest
the target (Wolfe's minor cycles, ``chm._nearest_weights``), never ending
farther from it than ``chm``'s segment step toward the same pivot.  This is
a fully corrective walk (simplicial decomposition).  Factors are built only
when a result leaves the walk, by ``_factor`` (which
``prune_representation`` shares): one eigendecomposition of the atoms' sum,
then affine elimination down to min(m+1, n) terms (the semidefinite
Caratheodory bound).  Absence of a pivot is certified by a smallest
eigenvalue that clears the pivot bar by more than its rigorous error bound,
and converts directly into a separating-hyperplane witness; an eigenvalue
within its error bound of the bar ends the run inconclusive.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chm import (
    FEASIBLE,
    INCONCLUSIVE,
    NOISE_FLOOR,
    WITNESS,
    DegeneratePivotError,
    Hyperplane,
    _bisector,
    _nearest_weights,
    _ta_step,
    default_iteration_cap,
)
from .eigen import certified_min_eig
from .symcore import (
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    _term_images,
    bind,
    image,
    rank_one_image,
)

# not called here (every pivot comes from one eigendecomposition), but
# perfbench --trace 1 wraps these names in this module
from .chm import find_pivot  # noqa: F401
from .eigen import min_eig_power  # noqa: F401

__all__ = [
    "Certificate",
    "PivotMatrixAssembly",
    "PivotOutcome",
    "SolveStats",
    "VerificationReport",
    "assemble_pivot_matrix",
    "pivot_oracle",
    "prune_representation",
    "solve_shm",
    "solve_shm_cached",
    "verify_certificate",
]

logger = logging.getLogger(__name__)

TERM_DROP_EPS = 1e-14


@dataclass
class PivotMatrixAssembly:
    """Residual-weighted combination of the instance matrices.

    ``matrix`` is assembled on first use.  ``threshold`` is the pivot bar
    for quadratic forms; ``strict_threshold`` the tighter one.
    """

    instance: ShmInstance
    target: np.ndarray
    p_image: np.ndarray
    resid: np.ndarray
    threshold: float

    @cached_property
    def matrix(self) -> SymmetricMatrix:
        # a combination of validated matrices: symmetrize, skip the checks
        return SymmetricMatrix._symmetrized(np.tensordot(self.resid, self.instance.stack, axes=1))

    @property
    def strict_threshold(self) -> float:
        return float(self.resid @ self.target)


def _make_assembly(instance: ShmInstance, p_image: np.ndarray, target=None) -> PivotMatrixAssembly:
    if target is None:
        target = instance.b
    # the bar is algebraically (|p'|^2 - |target|^2)/2; the bisector's form
    # survives p' near target
    resid, threshold = _bisector(p_image, target)
    return PivotMatrixAssembly(instance, target, p_image, resid, threshold)


def assemble_pivot_matrix(instance: ShmInstance, point: SpectraplexPoint) -> PivotMatrixAssembly:
    """Build the pivot matrix and bar for a bound iterate."""
    if point.image is None:
        raise ValueError("point must be bound to the instance (see symcore.bind)")
    return _make_assembly(instance, np.asarray(point.image, dtype=float))


@dataclass(frozen=True)
class PivotOutcome:
    """Either a usable pivot direction or the evidence that none exists.

    ``found`` with ``vector``/``rayleigh`` set means the direction clears the
    bar as computed by the reporting route (``method`` is always ``jacobi``,
    the name of the LAPACK eigendecomposition).  ``found=False``
    carries the eigendecomposition's ``lambda_min`` above the bar and its
    rigorous ``error_bound``; absence is ``certified`` only when ``margin``,
    ``lambda_min - error_bound - threshold``, is positive.
    """

    found: bool
    vector: np.ndarray | None
    rayleigh: float | None
    lambda_min: float | None
    threshold: float
    method: str
    error_bound: float = math.inf  # no bound known: never certified

    @property
    def margin(self) -> float | None:
        if self.found:
            return None
        return float(self.lambda_min - self.error_bound - self.threshold)

    @property
    def certified(self) -> bool:
        return not self.found and self.margin > 0.0


def pivot_oracle(assembly: PivotMatrixAssembly, strict: bool = False) -> PivotOutcome:
    """Search the spectraplex for a pivot direction with one LAPACK
    eigendecomposition (``method="jacobi"``).

    Only a ``found=False`` outcome pays for the eigenvalue error bound; it is
    ``certified`` when the smallest eigenvalue clears the bar by more than
    that bound.  With ``strict`` the oracle looks for a pivot below the
    strict bar.  The plain bar lies ``|resid|^2 / 2`` above it, so a miss
    answers the plain query from the same eigendecomposition: the
    eigenvector when it clears the plain bar, else absence judged by the
    error bound.  The outcome's ``threshold`` is the bar it was decided
    against.
    """
    plain = assembly.threshold
    thr = assembly.strict_threshold if strict else plain
    lam, vec, delta = certified_min_eig(assembly.matrix, thr)
    # perfbench's trace counts the "jacobi" label; ROADMAP item 4 renames it
    if lam <= thr:
        return PivotOutcome(True, vec, lam, lam, thr, "jacobi")
    if lam <= plain:
        return PivotOutcome(True, vec, lam, lam, plain, "jacobi")
    # lam clears the strict bar, so delta was computed
    return PivotOutcome(False, None, None, lam, plain, "jacobi", error_bound=delta)


@dataclass
class SolveStats:
    """Pivot-query tallies of one run."""

    oracle_calls: int = 0
    strict_fallbacks: int = 0


@dataclass
class Certificate:
    """Outcome of a membership run.

    Feasible carries a representation whose image lands within the tolerance
    ball; Witness carries the bisecting hyperplane plus the certified margin
    by which no pivot exists, the eigenvalue error bound already taken off;
    Inconclusive only reports how far the run got, either because the budget
    ran out or because the smallest eigenvalue cleared the bar by less than
    its error bound.
    """

    kind: str
    point: SpectraplexPoint
    gap: float
    epsilon: float
    radius_bound: float
    iterations: int
    oracle_calls: int
    hyperplane: Hyperplane | None = None
    eig_margin: float | None = None
    stats: SolveStats = field(default_factory=SolveStats)


class _Iterate:
    """One walk: a convex combination of rank-one atoms v v^T on the
    spectraplex, with the atoms' images and the pivot oracle it queries.

    ``w`` holds the weights, ``v`` the unit vectors and ``ti`` their images,
    one row per atom, and ``image`` is ``w @ ti``.  The constructor resolves
    the start (``rankone-e``, ``identity`` or an explicit point), whose
    factors become the first atoms; a start with more than one term has its
    atoms' images made affinely independent by ``_prune_arrays``.  A step
    changes the atoms and the image only when its query found a pivot: the
    pivot joins the atoms, the weights move to the point of their hull
    nearest the target, and atoms left with zero weight are dropped, so at
    most m+1 remain.  Only ``snapshot`` builds factors.
    """

    def __init__(self, instance: ShmInstance, start, strict: bool, stats):
        if isinstance(start, SpectraplexPoint):
            point = start
        elif start == "rankone-e":
            point = SpectraplexPoint.uniform_rank_one(instance.n)
        elif start == "identity":
            point = SpectraplexPoint.uniform_diagonal(instance.n)
        else:
            raise ValueError(f"unknown start {start!r}")
        if point.n != instance.n:
            raise ValueError("start point order does not match the instance")
        self.instance = instance
        self.strict, self.stats = strict, stats
        w, v = point.weights, point.vectors
        ti = _term_images(instance, v)
        if w.size > 1:
            w, v, ti = _prune_arrays(instance, w, v, ti)
        self.w, self.v, self.ti = w, v, ti
        self.image = w @ ti

    def step(self, target):
        """One pivot query against ``target`` and, if it finds a pivot, the
        step toward it.  Returns the oracle outcome and the assembly it
        answered; raises ``DegeneratePivotError`` when the pivot's image
        equals the iterate's."""
        instance, stats = self.instance, self.stats
        asm = _make_assembly(instance, self.image, target)
        out = pivot_oracle(asm, strict=self.strict)
        stats.oracle_calls += 1
        stats.strict_fallbacks += self.strict and out.found and out.threshold > asm.strict_threshold
        if out.found:
            v_img = rank_one_image(instance, out.vector)
            seg, alpha = _ta_step(target, self.image, v_img)
            ti = np.vstack([self.ti, v_img])
            y = ti - target
            w = _nearest_weights(y, np.append(self.w, 0.0))
            if np.linalg.norm(w @ y) > np.linalg.norm(seg - target):
                # a warm start's weights need not be nearest for this target;
                # the segment step's point lies in the same hull
                w = np.append((1.0 - alpha) * self.w, alpha)
            keep = w > 0.0
            w, v, ti = w[keep], np.vstack([self.v, out.vector])[keep], ti[keep]
            if w.size > instance.m + 1:
                # affinely dependent atoms (a repeated pivot) can all keep weight
                w, v, ti = _prune_arrays(instance, w, v, ti)
            self.w, self.v, self.ti = w, v, ti
            self.image = w @ ti
        return out, asm

    def snapshot(self) -> SpectraplexPoint:
        """Factor the atoms' sum with at most min(m+1, n) terms (see
        ``_factor``); m+1 atoms can exceed n."""
        return _factor(self.instance, (self.v.T * self.w) @ self.v)


def _spectral_factors(instance: ShmInstance, dense: np.ndarray):
    """Factors of a dense spectraplex point from its eigendecomposition.

    Eigenvalues at or below ``TERM_DROP_EPS`` (rounding of a unit-trace
    matrix) are dropped and the rest renormalized into weights; at most n
    factors remain.
    """
    from .eigen import jacobi_eigen  # resolved per call, where perfbench's trace wraps it

    dec = jacobi_eigen(SymmetricMatrix(dense))
    vals = np.clip(dec.values, 0.0, None)
    keep = vals > TERM_DROP_EPS
    vals = vals[keep]
    v = dec.vectors[:, keep].T.copy()
    return vals / vals.sum(), v, _term_images(instance, v)


def _prune_arrays(instance: ShmInstance, w: np.ndarray, v: np.ndarray, ti: np.ndarray):
    """Eliminate affine dependencies among the factor images: at most m+1
    terms remain, and the bordered matrix ``[ti^T; 1^T]`` has full column
    rank (smallest singular value above 1e-12 of the largest)."""
    while True:
        t = w.shape[0]
        mat = np.vstack([ti.T, np.ones((1, t))])
        _, sv, vt = np.linalg.svd(mat)
        if t <= instance.m + 1 and sv[-1] > 1e-12 * sv[0]:
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


def _factor(instance: ShmInstance, dense: np.ndarray) -> SpectraplexPoint:
    """Factor a dense spectraplex point with at most min(m+1, n) terms.

    One eigendecomposition gives at most n factors (parallel ones fold into
    one eigenvector); affine elimination among their images leaves at most
    m+1.  Every certificate's point is built here.
    """
    w, v, ti = _spectral_factors(instance, dense)
    w, v, ti = _prune_arrays(instance, w, v, ti)
    return SpectraplexPoint(w, v, image=w @ ti, term_images=ti)


def prune_representation(instance: ShmInstance, point: SpectraplexPoint) -> SpectraplexPoint:
    """Rewrite a point with at most min(m+1, n) factors and the same image.

    The point's dense matrix is factored by the route every certificate
    takes: one eigendecomposition, then affine elimination among the factor
    images.  That result is returned when it has fewer terms than the input;
    otherwise the input itself, bound to the instance if it was not.  On
    linear-algebra failure the input is returned unchanged with a logged
    warning rather than a corrupted representation.
    """
    if point.n != instance.n:
        raise ValueError("point order does not match the instance")
    try:
        out = _factor(instance, point.dense())
    except np.linalg.LinAlgError as err:
        logger.warning("prune left the representation unchanged: %s", err)
        return point
    if out.num_terms < point.num_terms:
        return out
    return point if point.term_images is not None else bind(instance, point)


def _run(instance, epsilon, max_iters, start, strict):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if max_iters is None:
        max_iters = default_iteration_cap(epsilon)
    stats = SolveStats()
    it = _Iterate(instance, start, strict, stats)
    b = instance.b
    radius = instance.radius_bound
    target_gap = epsilon * radius + NOISE_FLOOR * (1.0 + float(np.linalg.norm(b)))
    iterations = 0

    def certificate(kind, point, gap, **extra):
        return Certificate(
            kind, point, gap, epsilon, radius, iterations, stats.oracle_calls,
            stats=stats, **extra,
        )

    while True:
        gap = float(np.linalg.norm(it.image - b))
        if gap <= target_gap:
            pt = it.snapshot()
            exact_gap = float(np.linalg.norm(pt.image - b))
            if exact_gap <= target_gap:
                return certificate(FEASIBLE, pt, exact_gap)
            # factoring moved the image out of the ball: keep walking
        if iterations >= max_iters:
            return certificate(INCONCLUSIVE, it.snapshot(), gap)
        try:
            out, asm = it.step(b)
        except DegeneratePivotError:
            # a true pivot never shares the iterate's image; reaching here
            # means the residual is float noise and the point is as good as
            # done, provided its factors still land in the ball
            pt = it.snapshot()
            exact_gap = float(np.linalg.norm(pt.image - b))
            return certificate(
                FEASIBLE if exact_gap <= target_gap else INCONCLUSIVE, pt, exact_gap
            )
        if out.found:
            iterations += 1
        elif out.certified:
            hp = Hyperplane(asm.resid.copy(), asm.threshold)
            return certificate(
                WITNESS, it.snapshot(), gap, hyperplane=hp, eig_margin=out.margin
            )
        else:
            # no pivot, but the bar lies within the eigenvalue error bound
            return certificate(INCONCLUSIVE, it.snapshot(), gap)


def solve_shm(
    instance: ShmInstance,
    epsilon: float,
    max_iters: int | None = None,
    start="rankone-e",
    strict: bool = False,
) -> Certificate:
    """Decide membership of the instance target in the spectrahull.

    Each iteration asks one eigendecomposition for a pivot, adds it to the
    iterate's rank-one atoms and moves to the point of their hull nearest
    the target (see ``_Iterate``).  Witnesses are certified over the full
    spectraplex.

    Parameters
    ----------
    instance : ShmInstance
        Matrix family and target.
    epsilon : float
        Relative tolerance in (0, 1); feasibility means a gap at most
        ``epsilon`` times the instance radius bound.
    max_iters : int, optional
        Pivot-step budget, defaulting to the worst-case feasible cap.
    start : str or SpectraplexPoint
        ``rankone-e`` (uniform rank-one), ``identity`` (maximally mixed), or
        an explicit warm-start point.
    strict : bool
        Prefer strict pivots, falling back to plain ones.
    """
    return _run(instance, epsilon, max_iters, start, strict)


# a second name, which perfbench's shm-cached workload calls
solve_shm_cached = solve_shm


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: int
    checks: tuple[str, ...]


def _positive_definite(a: SymmetricMatrix, shift: float) -> bool:
    """Whether ``a - shift*I`` admits a Cholesky factorisation."""
    try:
        np.linalg.cholesky(a.entries - shift * np.eye(a.n))
    except np.linalg.LinAlgError:
        return False
    return True


def verify_certificate(
    instance: ShmInstance,
    cert: Certificate,
    sample_count: int = 10000,
    seed=0,
) -> VerificationReport:
    """Audit a decided certificate without trusting its cached numbers.

    Feasible: re-evaluate the representation from its factors and re-check the
    tolerance.  Witness: recompute the pivot matrix A and bar, confirm absence
    of a pivot by a Cholesky factorisation of ``A - bar*I`` (a route
    independent of the solver's eigensolver), confirm the stored margin by
    one of ``A - (bar + eig_margin/2)*I``, and hammer the claimed
    inequalities with random rank-one points.
    """
    if cert.kind not in (FEASIBLE, WITNESS):
        raise ValueError("only Feasible or Witness certificates can be verified")
    msgs: list[str] = []
    bad = 0

    def note(ok: bool, text: str) -> None:
        nonlocal bad
        msgs.append(("ok " if ok else "FAIL ") + text)
        if not ok:
            bad += 1

    pt = cert.point
    try:
        pt.validate()
        note(True, "representation invariants")
    except ValueError as err:
        note(False, f"representation invariants: {err}")
    tol = 1e-9 * instance.radius_bound + 1e-12
    img = image(instance, pt)
    gap = float(np.linalg.norm(img - instance.b))
    note(abs(gap - cert.gap) <= tol, f"reported gap reproduced ({gap:.3e})")
    if cert.kind == FEASIBLE:
        note(gap <= cert.epsilon * instance.radius_bound + tol, "gap within tolerance ball")
    else:
        note(cert.hyperplane is not None, "hyperplane present")
        asm = _make_assembly(instance, img)
        note(_positive_definite(asm.matrix, asm.threshold), "Cholesky of A - bar*I")
        stored = cert.eig_margin
        note(
            stored is not None and stored > 0.0
            and _positive_definite(asm.matrix, asm.threshold + 0.5 * stored),
            f"stored margin {'missing' if stored is None else f'{stored:.3e}'}"
            " confirmed by Cholesky of A - (bar + margin/2)*I",
        )
        gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        u = gen.standard_normal((sample_count, instance.n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        samples = np.einsum("kij,ti,tj->tk", instance.stack, u, u, optimize=True)
        d_w = np.linalg.norm(samples - img, axis=1)
        d_b = np.linalg.norm(samples - instance.b, axis=1)
        closer = int(np.count_nonzero(d_w >= d_b))
        note(closer == 0, f"witness inequality on {samples.shape[0]} rank-one points")
        if cert.hyperplane is not None:
            hp = cert.hyperplane
            side_hull = samples @ hp.normal - hp.offset
            side_b = float(hp.normal @ instance.b) - hp.offset
            note(
                bool(np.all(side_hull > 0.0) and side_b < 0.0),
                "hyperplane separates samples from the target",
            )
    return VerificationReport(bad == 0, bad, tuple(msgs))
