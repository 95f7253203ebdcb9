"""Membership of a target vector in the image of the spectraplex, and in
the hull of a finite point set, on one driver loop.

``_run`` is the Triangle Algorithm's only membership loop.  ``solve_shm``
runs it as if solving a convex hull membership problem over rank-one points,
with one pivot policy and the walk of ``chm._Walk``; ``solve_chm`` runs it
over the coordinate vectors of a point set, the paper's diagonal case, with
an exact scan as its pivot query (``_PointWalk``).  Both answer with one
``Certificate``, a chm answer being that of the diagonal embedding.  The
iterate is a convex combination of at most m+1 rank-one atoms v v^T.  Each
step of ``_Iterate``, which the separation driver also takes with a moving
target, assembles the residual-weighted pivot matrix, asks LAPACK for a
direction whose quadratic form clears the pivot bar (from order 16 up the
lowest eigenpair alone, otherwise or failing that one full
eigendecomposition), and hands it to the walk, which adds it as an atom and
moves to the point of the atoms' hull nearest the target.  This is a fully
corrective walk (simplicial decomposition).  A result leaves the walk through ``_factor`` (which
``prune_representation`` shares): at most n atoms are kept as the factors,
more are folded into the eigenvectors of their sum by one
eigendecomposition, and affine elimination then leaves at most min(m+1, n)
terms (the semidefinite Caratheodory bound).  Absence of a pivot is certified
by a smallest eigenvalue that clears the pivot bar by more than its rigorous
error bound, and converts directly into a separating-hyperplane witness; an
eigenvalue within its error bound of the bar ends the run inconclusive.
``verify_certificate`` audits a certificate by what it states: a Witness by
its stored hyperplane and margin, with one Cholesky factorisation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .chm import (
    FEASIBLE,
    INCONCLUSIVE,
    NOISE_FLOOR,
    WITNESS,
    DegeneratePivotError,
    Hyperplane,
    PointSet,
    _bisector,
    _prune_arrays,
    _Walk,
    default_iteration_cap,
)
from .eigen import _lowest_pair_below, certified_min_eig
from .symcore import (
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    _term_images,
    image,
    rank_one_image,
)

# not called here (every pivot comes from one eigendecomposition or from the
# point walk's own scan), but perfbench --trace 1 wraps these names in this
# module; the placeholder stands in for the retired power probe until
# ROADMAP item 2 removes it
from .chm import find_pivot  # noqa: F401
min_eig_power = None

__all__ = [
    "Certificate",
    "PivotOutcome",
    "SolveStats",
    "VerificationReport",
    "pivot_oracle",
    "prune_representation",
    "solve_chm",
    "solve_shm",
    "solve_shm_cached",
    "verify_certificate",
]

logger = logging.getLogger(__name__)

TERM_DROP_EPS = 1e-14


def _pivot_matrix(instance: ShmInstance, resid: np.ndarray) -> SymmetricMatrix:
    """The residual-weighted combination, the sum of ``resid[k] * A_k``: one
    matrix-vector product with the instance's (m, n*n) ``flat`` view, then
    symmetrized exactly."""
    # a combination of validated matrices: symmetrize, skip the checks
    n = instance.n
    return SymmetricMatrix._symmetrized((resid @ instance.flat).reshape(n, n))


@dataclass(frozen=True)
class PivotOutcome:
    """Either a usable pivot direction or the evidence that none exists.

    Both come from LAPACK (``method``, always ``"jacobi"``).  ``found``
    means the smallest eigenvalue ``lambda_min`` is at or below the bar
    ``threshold`` and ``vector`` is the matching unit eigenvector; from
    order 16 up it usually comes from the lowest eigenpair alone
    (``lowest_pair``), whose recomputed quadratic form is also at or below
    the bar.  ``found=False`` always comes from the full decomposition and
    carries ``lambda_min`` above the bar and its rigorous ``error_bound``;
    absence is ``certified`` only when ``margin``,
    ``lambda_min - error_bound - threshold``, is positive.  A point walk's
    scan (``_PointWalk.step``) states its answer in the same fields: the
    smallest score over the points and a zero error bound.
    """

    found: bool
    vector: np.ndarray | None
    lambda_min: float
    threshold: float
    error_bound: float = math.inf  # no bound known: never certified
    lowest_pair: bool = False  # answered by dsyevr's lowest pair, not eigh

    # perfbench's trace counts this label; ROADMAP item 2 renames it
    method = "jacobi"

    @property
    def margin(self) -> float | None:
        if self.found:
            return None
        return float(self.lambda_min - self.error_bound - self.threshold)

    @property
    def certified(self) -> bool:
        return not self.found and self.margin > 0.0


def pivot_oracle(matrix: SymmetricMatrix, threshold: float) -> PivotOutcome:
    """Search the spectraplex for a direction whose quadratic form under the
    pivot matrix is at or below the bar ``threshold`` (``method="jacobi"``).

    The pivot is the eigenvector of the smallest eigenvalue, which minimises
    the quadratic form over the spectraplex: whenever any direction clears a
    bar, this one does, the paper's tighter bar included.  From order 16 up
    the query first asks ``dsyevr`` for that eigenpair alone and answers
    with it when it is found (``lowest_pair``; see
    ``eigen._lowest_pair_below``).  Otherwise, and at every smaller order,
    one full ``eigh`` answers, as ``certified_min_eig``; so a query that
    finds no pivot at order 16 or more makes two LAPACK calls.  Only a
    ``found=False`` outcome pays for the eigenvalue error bound; it is
    ``certified`` when the smallest eigenvalue clears the bar by more than
    that bound.
    """
    pair = _lowest_pair_below(matrix, threshold)
    if pair is not None:
        return PivotOutcome(True, pair[1], pair[0], threshold, lowest_pair=True)
    lam, vec, delta = certified_min_eig(matrix, threshold)
    if lam <= threshold:
        return PivotOutcome(True, vec, lam, threshold)
    # lam clears the bar, so delta was computed
    return PivotOutcome(False, None, lam, threshold, error_bound=delta)


@dataclass
class SolveStats:
    """Pivot-query tallies of one run: every query, the queries answered by
    the lowest eigenpair alone, and the queries that took a full ``eigh``
    (every query below order 16; above it, each that found no pivot or
    whose lowest pair was rejected).  A point walk's scans count only as
    queries."""

    oracle_calls: int = 0
    lowest_pair_answers: int = 0
    full_decompositions: int = 0


@dataclass
class Certificate:
    """Outcome of a membership run, from ``solve_shm`` and ``solve_chm``
    alike.

    Feasible carries a representation whose image lands within the tolerance
    ball; Witness carries the bisecting hyperplane plus the certified margin
    by which no pivot exists, the eigenvalue error bound already taken off;
    Inconclusive only reports how far the run got, either because the budget
    ran out or because the smallest eigenvalue cleared the bar by less than
    its error bound.  ``image`` is the image of ``point``, and
    ``radius_bound`` the R that scales the tolerance ball.

    A ``solve_chm`` certificate is the certificate of the paper's diagonal
    embedding, the instance whose k-th matrix is the diagonal of the points'
    k-th coordinates: ``point`` is of order N, the number of points, and its
    factors are coordinate vectors, so ``point.weights @ point.vectors`` are
    the coefficients over the points and ``image`` is the hull point they
    reach.  Read that point through its factors; ``dense()`` would build an
    N-by-N matrix.  Its ``radius_bound`` is the exact farthest distance from
    the query, and a Witness's ``eig_margin`` the exact scan slack.
    """

    kind: str
    point: SpectraplexPoint
    image: np.ndarray
    gap: float
    epsilon: float
    radius_bound: float
    iterations: int
    oracle_calls: int
    hyperplane: Hyperplane | None = None
    eig_margin: float | None = None
    stats: SolveStats = field(default_factory=SolveStats)


@lru_cache(maxsize=64)
def _rank_one_start(n: int) -> SpectraplexPoint:
    """The default ``rankone-e`` start of order n, built and validated once;
    a frozen point whose arrays are read-only, so solves can share it."""
    return SpectraplexPoint.uniform_rank_one(n)


class _Iterate(_Walk):
    """One walk over rank-one atoms v v^T on the spectraplex (see
    ``chm._Walk``), with the pivot oracle it queries.

    The constructor resolves the start (``rankone-e``, ``identity`` or an
    explicit point), whose factors become the first atoms; a start with more
    than one term has its atoms' images made affinely independent by
    ``_prune_arrays``.  A step asks ``pivot_oracle`` for a pivot and, when
    it finds one, adds it to the walk.  Only ``snapshot`` builds a
    point from the atoms, and it needs an eigendecomposition only when there
    are more than n.
    """

    def __init__(self, instance: ShmInstance, start, stats):
        if isinstance(start, SpectraplexPoint):
            point = start
        elif start == "rankone-e":
            point = _rank_one_start(instance.n)
        elif start == "identity":
            point = SpectraplexPoint.uniform_diagonal(instance.n)
        else:
            raise ValueError(f"unknown start {start!r}")
        if point.n != instance.n:
            raise ValueError("start point order does not match the instance")
        self.instance = instance
        self.stats = stats
        w, v = point.weights, point.vectors
        ti = _term_images(instance, v)
        if w.size > 1:
            w, v, ti = _prune_arrays(instance.m, w, v, ti)
        super().__init__(instance.m, w, v, ti)

    def step(self, target):
        """One pivot query against ``target`` and, if it finds a pivot, the
        step toward it.  Returns the oracle outcome and the residual that
        weights its pivot matrix; raises ``DegeneratePivotError`` when the
        pivot's image equals the iterate's."""
        # the bar is algebraically (|p'|^2 - |target|^2)/2; the bisector's
        # form survives p' near target
        resid, threshold = _bisector(self.image, target)
        out = pivot_oracle(_pivot_matrix(self.instance, resid), threshold)
        self.stats.oracle_calls += 1
        if out.lowest_pair:
            self.stats.lowest_pair_answers += 1
        else:
            self.stats.full_decompositions += 1
        if out.found:
            self.add(target, out.vector, rank_one_image(self.instance, out.vector))
        return out, resid

    def snapshot(self) -> tuple[SpectraplexPoint, np.ndarray]:
        """The atoms as a point with at most min(m+1, n) terms, and its
        image (see ``_factor``): the atoms themselves unless there are more
        than n of them, which m+1 atoms can be."""
        return _factor(self.instance, (self.w, self.v, self.ti))


def _spectral_factors(instance: ShmInstance, dense: np.ndarray):
    """Factors of a dense spectraplex point from its eigendecomposition.

    Eigenvalues at or below ``TERM_DROP_EPS`` (rounding of a unit-trace
    matrix) are dropped and the rest renormalized into weights; at most n
    factors remain.
    """
    from .eigen import jacobi_eigen  # resolved per call, where perfbench's trace wraps it

    # a spectraplex point's entries are finite and at most 1 in size:
    # symmetrize, skip the checks
    vals, vecs = jacobi_eigen(SymmetricMatrix._symmetrized(dense))
    vals = np.clip(vals, 0.0, None)
    keep = vals > TERM_DROP_EPS
    vals = vals[keep]
    v = vecs[:, keep].T.copy()
    return vals / vals.sum(), v, _term_images(instance, v)


def _factor(instance: ShmInstance, atoms) -> tuple[SpectraplexPoint, np.ndarray]:
    """A point with at most min(m+1, n) terms from rank-one atoms
    ``(w, v, ti)``, and the point's image.

    More than n atoms are first folded into the eigenvectors of their sum,
    at most n of them; affine elimination among the images then leaves at
    most m+1.  The image is the weight combination of the kept atoms'
    images, so it costs no further kernel call.  Every certificate's point
    is built here.
    """
    w, v, ti = atoms
    if w.size > instance.n:
        w, v, ti = _spectral_factors(instance, (v.T * w) @ v)
    w, v, ti = _prune_arrays(instance.m, w, v, ti)
    return SpectraplexPoint(w, v), w @ ti


def prune_representation(instance: ShmInstance, point: SpectraplexPoint) -> SpectraplexPoint:
    """Rewrite a point with at most min(m+1, n) factors and the same image.

    The point's dense matrix is factored by one eigendecomposition, then
    reduced by affine elimination among the factor images in ``_factor``,
    the function that builds every certificate's point.  That result is
    returned when it has fewer terms than the input; otherwise the input
    itself.  On linear-algebra failure the input is returned unchanged with
    a logged warning rather than a corrupted representation.
    """
    if point.n != instance.n:
        raise ValueError("point order does not match the instance")
    try:
        out, _ = _factor(instance, _spectral_factors(instance, point.dense()))
    except np.linalg.LinAlgError as err:
        logger.warning("prune left the representation unchanged: %s", err)
        return point
    return out if out.num_terms < point.num_terms else point


def _budget(epsilon: float, max_iters: int | None) -> int:
    """The step budget of a run, after checking its tolerance, which every
    solver checks before its other arguments."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return default_iteration_cap(epsilon) if max_iters is None else max_iters


def _run(walk, b, radius, epsilon, max_iters) -> Certificate:
    """The membership loop of every solver: step ``walk`` toward ``b`` until
    its image is within ``epsilon * radius``, a step proves that no pivot
    exists, or ``max_iters`` steps are taken.  The walk's ``step(target)``
    returns a ``PivotOutcome`` and the normal of its bar, ``snapshot()`` the
    certificate's point and that point's image; ``stats`` counts queries."""
    stats = walk.stats
    target_gap = epsilon * radius + NOISE_FLOOR * (1.0 + math.sqrt(b @ b))
    iterations = 0

    def gap_of(img):
        d = img - b
        return math.sqrt(d @ d)

    def certificate(kind, snap, gap, **extra):
        return Certificate(
            kind, *snap, gap, epsilon, radius, iterations, stats.oracle_calls,
            stats=stats, **extra,
        )

    while True:
        gap = gap_of(walk.image)
        if gap <= target_gap:
            snap = walk.snapshot()
            exact_gap = gap_of(snap[1])
            if exact_gap <= target_gap:
                return certificate(FEASIBLE, snap, exact_gap)
            # factoring moved the image out of the ball: keep walking
        if iterations >= max_iters:
            return certificate(INCONCLUSIVE, walk.snapshot(), gap)
        try:
            out, resid = walk.step(b)
        except DegeneratePivotError:
            # a true pivot never shares the iterate's image; reaching here
            # means the residual is float noise and the point is as good as
            # done, provided its factors still land in the ball
            snap = walk.snapshot()
            exact_gap = gap_of(snap[1])
            return certificate(
                FEASIBLE if exact_gap <= target_gap else INCONCLUSIVE, snap, exact_gap
            )
        if out.found:
            iterations += 1
        elif out.certified:
            hp = Hyperplane(resid.copy(), out.threshold)
            return certificate(
                WITNESS, walk.snapshot(), gap, hyperplane=hp, eig_margin=out.margin
            )
        else:
            # no pivot, but the bar lies within the eigenvalue error bound
            return certificate(INCONCLUSIVE, walk.snapshot(), gap)


def solve_shm(
    instance: ShmInstance,
    epsilon: float,
    max_iters: int | None = None,
    start="rankone-e",
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
    """
    max_iters = _budget(epsilon, max_iters)
    walk = _Iterate(instance, start, SolveStats())
    return _run(walk, instance.b, instance.radius_bound, epsilon, max_iters)


class _PointWalk(_Walk):
    """The walk over the coordinate vectors e_i of a point set from e_start:
    atom images are points, so ``w @ v`` are the coefficients.  A step takes
    the exact argmin of the bar's normal over the points; when that misses
    the bar, the bisector of iterate and target separates target and points."""

    def __init__(self, points: np.ndarray, start: int):
        self.points = points
        self.stats = SolveStats()
        e = np.eye(1, points.shape[0], start)
        super().__init__(points.shape[1], np.ones(1), e, points[start : start + 1])

    def step(self, target):
        """One scan against ``target``, then as ``_Iterate.step``."""
        c, bar = _bisector(self.image, target)
        scores = self.points @ c
        idx = int(scores.argmin())
        score = float(scores[idx])
        self.stats.oracle_calls += 1
        out = PivotOutcome(score <= bar, None, score, bar, 0.0)
        if out.found:
            e = np.zeros(self.points.shape[0])
            e[idx] = 1.0
            self.add(target, e, self.points[idx])
        return out, c

    def snapshot(self) -> tuple[SpectraplexPoint, np.ndarray]:
        """The atoms as a point of order N, the number of points: its factors
        are coordinate vectors, so ``weights @ vectors`` are the coefficients
        over the points, and its image is the walk's."""
        return SpectraplexPoint(self.w, self.v), self.image


def _query_distances(pts: np.ndarray, p0: np.ndarray) -> tuple[np.ndarray, float]:
    """Distance from the query to every point, and the farthest one.
    ValueError when that overflows, since a stopping rule scaled by it would
    pass any gap."""
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(pts - p0, axis=1)
    radius = float(dists.max())
    if not math.isfinite(radius):
        raise ValueError("the farthest point's distance from the query overflows")
    return dists, radius


def solve_chm(
    point_set: PointSet,
    p0,
    epsilon: float,
    max_iters: int | None = None,
) -> Certificate:
    """Decide membership of p0 in the hull of the set.

    ``solve_shm``'s driver loop walks from the point nearest p0, with the
    scan's argmin as its pivot (see ``_PointWalk``).

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

    Returns
    -------
    Certificate
        The diagonal embedding's certificate (see ``Certificate``): Feasible
        with a point whose coordinate weights reproduce the hull point,
        Witness with the bisecting hyperplane, or Inconclusive when the
        budget runs out.
    """
    max_iters = _budget(epsilon, max_iters)
    if point_set.size == 0:
        raise ValueError("empty point set")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if p0.shape[0] != point_set.dim:
        raise ValueError(f"query of dim {p0.shape[0]} against points of dim {point_set.dim}")
    if not np.isfinite(p0).all():
        raise ValueError("query must be finite")
    dists, radius = _query_distances(point_set.points, p0)
    walk = _PointWalk(point_set.points, int(dists.argmin()))
    return _run(walk, p0, radius, epsilon, max_iters)


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


def verify_certificate(instance: ShmInstance, cert: Certificate) -> VerificationReport:
    """Audit a decided certificate by what it states, without trusting its
    cached numbers or calling the solver's eigensolver.

    Both kinds: the point's invariants hold and its image, recomputed from
    the factors, reproduces the reported gap.  Feasible: that gap lies within
    the tolerance ball.  Witness: the stored hyperplane ``c . x = h`` puts
    the target on its negative side, ``c . b < h``, and one Cholesky
    factorisation proves ``sum_k c_k A_k - (h + eig_margin/2)*I`` positive
    definite for a positive stored margin, so every rank-one point, and with
    them the whole image set, lies on the positive side by more than half
    that margin.  A point of another order than the instance's fails a check.
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
    if pt.n != instance.n:
        note(False, f"point of order {pt.n}, not the instance's {instance.n}")
    else:
        gap = float(np.linalg.norm(image(instance, pt) - instance.b))
        note(abs(gap - cert.gap) <= tol, f"reported gap reproduced ({gap:.3e})")
        if cert.kind == FEASIBLE:
            note(gap <= cert.epsilon * instance.radius_bound + tol, "gap within tolerance ball")
    if cert.kind == WITNESS:
        hp = cert.hyperplane
        present = hp is not None and hp.normal.shape == (instance.m,)
        note(present, f"hyperplane with a normal of length {instance.m} present")
        if present:
            note(hp.side(instance.b) < 0.0, "target on the negative side, c.b < h")
            stored = cert.eig_margin
            note(
                stored is not None and stored > 0.0
                and _positive_definite(
                    _pivot_matrix(instance, hp.normal), hp.offset + 0.5 * stored
                ),
                f"stored margin {'missing' if stored is None else f'{stored:.3e}'}"
                " confirmed by Cholesky of sum c_k A_k - (h + margin/2)*I",
            )
    return VerificationReport(bad == 0, bad, tuple(msgs))
