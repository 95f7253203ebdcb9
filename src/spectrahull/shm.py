"""Membership of a target vector in the image of the spectraplex.

The solver walks a dense iterate X toward the target: assemble the
residual-weighted pivot matrix, ask an escalating oracle (cache scan, shifted
power probe, LAPACK eigendecomposition) for a direction whose quadratic form
clears the pivot bar, and take the distance-minimizing convex step, a rank-one
update of X.  Factors are built only when a result leaves the walk: one
eigendecomposition of X, then affine elimination down to min(m+1, n) terms
(the semidefinite Caratheodory bound).  Absence of a pivot is certified by a
smallest eigenvalue that clears the pivot bar by more than its rigorous error
bound, and converts directly into a separating-hyperplane witness; an
eigenvalue within its error bound of the bar ends the run inconclusive.
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
    Hyperplane,
    PointSet,
    default_iteration_cap,
    find_pivot,
)
from .eigen import certified_min_eig, min_eig_power
from .symcore import (
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    _term_images,
    image,
    rank_one_image,
)

__all__ = [
    "Certificate",
    "PivotCache",
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
CACHE_COS_TOL = 1e-9
MERGE_COS_TOL = 1e-12
ORACLE_MODES = ("power", "exact", "cached-first")


@dataclass
class PivotMatrixAssembly:
    """Residual-weighted combination of the instance matrices.

    ``matrix`` is assembled lazily so cache-scan iterations that never touch
    eigen machinery also never pay the dense combination.  ``threshold`` is
    the pivot bar for quadratic forms; ``strict_threshold`` the tighter one.
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
    resid = p_image - target
    # algebraically (|p'|^2 - |target|^2)/2, written to survive p' near target
    threshold = 0.5 * float(resid @ (p_image + target))
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
    bar as computed by the reporting route (``method`` one of cache, power,
    jacobi; ``jacobi`` names the LAPACK eigendecomposition).  ``found=False``
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
    cache_index: int | None = None
    power_iterations: int = 0
    error_bound: float = math.inf  # no bound known: never certified

    @property
    def margin(self) -> float | None:
        if self.found:
            return None
        return float(self.lambda_min - self.error_bound - self.threshold)

    @property
    def certified(self) -> bool:
        return not self.found and self.margin > 0.0


class PivotCache:
    """Deduplicated store of pivot directions and their images.

    Two directions count as one when their cosine is within 1e-9 of a sign
    flip, since they generate the same rank-one matrix for our purposes.
    """

    def __init__(self):
        self._vectors: list[np.ndarray] = []
        self._images: list[np.ndarray] = []
        self._vec_arr: np.ndarray | None = None
        self._img_arr: np.ndarray | None = None
        self._point_set: PointSet | None = None

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def vectors(self) -> np.ndarray:
        if self._vec_arr is None:
            self._vec_arr = np.array(self._vectors)
        return self._vec_arr

    @property
    def images(self) -> np.ndarray:
        if self._img_arr is None:
            self._img_arr = np.array(self._images)
        return self._img_arr

    def point_set(self) -> PointSet:
        if self._point_set is None:
            self._point_set = PointSet(self.images)
        return self._point_set

    def add(self, vector: np.ndarray, img: np.ndarray) -> int:
        """Insert a direction, returning its index (existing on near-duplicates)."""
        v = np.asarray(vector, dtype=float).reshape(-1)
        if self._vectors:
            cos = np.abs(self.vectors @ v)
            hit = int(np.argmax(cos))
            if cos[hit] > 1.0 - CACHE_COS_TOL:
                return hit
        self._vectors.append(v.copy())
        self._images.append(np.asarray(img, dtype=float).copy())
        self._vec_arr = None
        self._img_arr = None
        self._point_set = None
        return len(self._vectors) - 1


def pivot_oracle(
    assembly: PivotMatrixAssembly,
    mode: str = "power",
    cache: PivotCache | None = None,
    rng=0,
    budget: int | None = None,
    strict: bool = False,
) -> PivotOutcome:
    """Search the spectraplex for a pivot direction.

    Escalation order in cached-first mode: scan the cache images with the
    finite-set pivot rule (no matrix work at all), then the shifted power
    probe with one restart, then a full LAPACK eigendecomposition
    (``method="jacobi"``).  ``power`` skips the scan, ``exact`` goes straight
    to the eigendecomposition.  Only a ``found=False`` outcome pays for the
    eigenvalue error bound; it is ``certified`` when the smallest eigenvalue
    clears the bar by more than that bound.

    With ``strict`` every rung looks for a pivot below the strict bar.  The
    plain bar lies ``|resid|^2 / 2`` above it, so the power and
    eigendecomposition rungs answer the plain query from the work that
    missed the strict bar before anything more is paid for: the probes' best
    direction when it clears the plain bar, else the eigenvector, else
    absence judged by the same error bound.  The outcome's ``threshold`` is
    the bar it was decided against.
    """
    if mode not in ORACLE_MODES:
        raise ValueError(f"unknown oracle mode {mode!r}")
    plain = assembly.threshold
    thr = assembly.strict_threshold if strict else plain
    if mode == "cached-first" and cache is not None and len(cache) > 0:
        hit = find_pivot(cache.point_set(), assembly.target, assembly.p_image, strict=strict)
        if hit is not None:
            idx, img = hit
            score = float(assembly.resid @ img)
            return PivotOutcome(
                True, cache.vectors[idx].copy(), score, None, thr, "cache", cache_index=idx
            )
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    total_power = 0
    if mode != "exact":
        a = assembly.matrix
        best = None
        for _ in range(2):  # one restart before escalating
            r = min_eig_power(a, thr, budget, gen)
            total_power += r.iterations
            if r.exited_early:
                return PivotOutcome(
                    True, r.vector, r.rayleigh, None, thr, "power", power_iterations=total_power
                )
            if best is None or r.rayleigh < best.rayleigh:
                best = r
        if strict and best.rayleigh <= plain:
            return PivotOutcome(
                True, best.vector, best.rayleigh, None, plain, "power",
                power_iterations=total_power,
            )
    lam, vec, delta = certified_min_eig(assembly.matrix, thr)
    # perfbench's trace counts the "jacobi" label; ROADMAP item 4 renames it
    if lam <= thr:
        return PivotOutcome(True, vec, lam, lam, thr, "jacobi", power_iterations=total_power)
    if lam <= plain:
        return PivotOutcome(True, vec, lam, lam, plain, "jacobi", power_iterations=total_power)
    # lam clears the strict bar, so delta was computed
    return PivotOutcome(
        False, None, None, lam, plain, "jacobi", power_iterations=total_power, error_bound=delta
    )


@dataclass
class SolveStats:
    cache_hits: int = 0
    cache_misses: int = 0
    strict_fallbacks: int = 0
    jacobi_certs: int = 0


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
    cache: PivotCache | None = None


def _term_limit(instance: ShmInstance) -> int:
    return min(instance.m + 1, instance.n)


class _Iterate:
    """Dense iterate X on the spectraplex with its image, factored on demand.

    A step is the rank-one update X <- (1 - alpha) X + alpha v v^T, O(n^2),
    and the image follows by the same convex combination with the pivot
    image the step already has.  Both updates shrink earlier rounding by
    1 - alpha, so the two stay close (within 3e-15 R of each other over a
    1.5e5-step walk), and a Feasible answer is decided on the factors of X
    in any case.  Only ``snapshot`` builds factors.
    """

    def __init__(self, instance: ShmInstance, point: SpectraplexPoint):
        self.instance = instance
        x = point.dense()
        self.x = 0.5 * (x + x.T)
        self.image = image(instance, point)

    @classmethod
    def from_start(cls, instance: ShmInstance, start) -> "_Iterate":
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
        return cls(instance, point)

    def apply(self, vector: np.ndarray, v_image: np.ndarray, alpha: float) -> None:
        self.x *= 1.0 - alpha
        self.x += alpha * np.outer(vector, vector)
        self.image = (1.0 - alpha) * self.image + alpha * v_image

    def snapshot(self) -> SpectraplexPoint:
        """Factor X with at most min(m+1, n) terms.

        One eigendecomposition of X gives at most n factors; affine
        elimination among their images leaves at most m+1.
        """
        w, v, ti = _spectral_factors(self.instance, self.x)
        w, v, ti = _prune_arrays(self.instance, w, v, ti)
        return SpectraplexPoint(w, v, image=w @ ti, term_images=ti)


def _merge_duplicate_factors(w: np.ndarray, v: np.ndarray, ti: np.ndarray):
    t = w.shape[0]
    if t < 2:
        return w, v, ti
    gram = np.abs(v @ v.T)
    absorbed = np.zeros(t, dtype=bool)
    w = w.copy()
    for i in range(t):
        if absorbed[i]:
            continue
        dup = (gram[i] >= 1.0 - MERGE_COS_TOL) & ~absorbed
        dup[: i + 1] = False
        if np.any(dup):
            w[i] += w[dup].sum()
            absorbed |= dup
    keep = ~absorbed
    return w[keep], v[keep], ti[keep]


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
    n, m = instance.n, instance.m
    if w.shape[0] > n:
        # the point has rank at most n, so its own eigendecomposition is a
        # representation with at most n factors
        w, v, ti = _spectral_factors(instance, (v.T * w) @ v)
    while w.shape[0] > m + 1:
        t = w.shape[0]
        mat = np.vstack([ti.T, np.ones((1, t))])
        _, _, vt = np.linalg.svd(mat)
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
    return w, v, ti


def prune_representation(instance: ShmInstance, point: SpectraplexPoint) -> SpectraplexPoint:
    """Rewrite a point with at most min(m+1, n) factors and the same image.

    Near-duplicate factors merge first; a factor count above the order n is
    collapsed through the iterate's own eigendecomposition; what remains is
    squeezed by eliminating affine dependencies among the factor images.  On
    linear-algebra failure the input is returned unchanged with a logged
    warning rather than a corrupted representation.
    """
    if point.n != instance.n:
        raise ValueError("point order does not match the instance")
    ti = point.term_images
    if ti is None:
        ti = _term_images(instance, point.vectors)
    w, v, ti = _merge_duplicate_factors(point.weights, point.vectors, ti)
    if w.shape[0] <= _term_limit(instance):
        if w.shape[0] == point.num_terms and point.term_images is not None:
            return point
        return SpectraplexPoint(w, v, image=w @ ti, term_images=ti)
    try:
        w, v, ti = _prune_arrays(instance, w, v, ti)
    except np.linalg.LinAlgError as err:
        logger.warning("prune left the representation unchanged: %s", err)
        return point
    if logger.isEnabledFor(logging.DEBUG):
        # diagnostic only, never enforced: a support this small always exists
        support = int((math.isqrt(8 * instance.m + 9) - 1) // 2)
        logger.debug("prune kept %d factors (minimal support bound %d)", w.size, support)
    return SpectraplexPoint(w, v, image=w @ ti, term_images=ti)


def _search_pivot(assembly, oracle_mode, cache, gen, strict, stats):
    """One pivot query; strict queries that settle for the plain bar count
    as fallbacks.

    Returns the outcome together with the number of eigen engagements it
    cost (cache hits are free).
    """
    out = pivot_oracle(assembly, oracle_mode, cache, gen, strict=strict)
    if strict and out.found and out.threshold > assembly.strict_threshold:
        stats.strict_fallbacks += 1
    return out, 0 if out.method == "cache" else 1


def _run(instance, epsilon, max_iters, oracle_mode, seed, start, strict, cache):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if max_iters is None:
        max_iters = default_iteration_cap(epsilon)
    gen = np.random.default_rng(seed)
    it = _Iterate.from_start(instance, start)
    b = instance.b
    radius = instance.radius_bound
    target_gap = epsilon * radius + NOISE_FLOOR * (1.0 + float(np.linalg.norm(b)))
    stats = SolveStats()
    oracle_calls = 0
    iterations = 0
    while True:
        gap = float(np.linalg.norm(it.image - b))
        if gap <= target_gap:
            pt = it.snapshot()
            exact_gap = float(np.linalg.norm(pt.image - b))
            if exact_gap <= target_gap:
                return Certificate(
                    FEASIBLE, pt, exact_gap, epsilon, radius, iterations, oracle_calls,
                    stats=stats, cache=cache,
                )
            # factoring moved the image out of the ball: keep walking
        if iterations >= max_iters:
            return Certificate(
                INCONCLUSIVE, it.snapshot(), gap, epsilon, radius, iterations,
                oracle_calls, stats=stats, cache=cache,
            )
        asm = _make_assembly(instance, it.image)
        out, calls = _search_pivot(asm, oracle_mode, cache, gen, strict, stats)
        oracle_calls += calls
        if cache is not None:
            if out.method == "cache":
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
        if out.method == "jacobi":
            stats.jacobi_certs += 1
        if not out.found:
            if not out.certified:
                # no pivot, but the bar lies within the eigenvalue error bound
                return Certificate(
                    INCONCLUSIVE, it.snapshot(), gap, epsilon, radius, iterations,
                    oracle_calls, stats=stats, cache=cache,
                )
            hp = Hyperplane(asm.resid.copy(), asm.threshold)
            return Certificate(
                WITNESS, it.snapshot(), gap, epsilon, radius, iterations, oracle_calls,
                hyperplane=hp, eig_margin=out.margin, stats=stats, cache=cache,
            )
        v = out.vector
        if out.method == "cache":
            v_img = cache.images[out.cache_index].copy()
        else:
            v_img = rank_one_image(instance, v)
            if cache is not None:
                cache.add(v, v_img)
        d = v_img - it.image
        dd = float(d @ d)
        if dd == 0.0:
            # a true pivot never shares the iterate's image; reaching here
            # means the residual is float noise and the point is as good as
            # done, provided its factors still land in the ball
            pt = it.snapshot()
            exact_gap = float(np.linalg.norm(pt.image - b))
            kind = FEASIBLE if exact_gap <= target_gap else INCONCLUSIVE
            return Certificate(
                kind, pt, exact_gap, epsilon, radius, iterations, oracle_calls,
                stats=stats, cache=cache,
            )
        alpha = min(1.0, max(0.0, float((b - it.image) @ d) / dd))
        it.apply(v, v_img, alpha)
        iterations += 1


def solve_shm(
    instance: ShmInstance,
    epsilon: float,
    max_iters: int | None = None,
    mode: str = "power",
    seed=0,
    start="rankone-e",
    strict: bool = False,
) -> Certificate:
    """Decide membership of the instance target in the spectrahull.

    Parameters
    ----------
    instance : ShmInstance
        Matrix family and target.
    epsilon : float
        Relative tolerance in (0, 1); feasibility means a gap at most
        ``epsilon`` times the instance radius bound.
    max_iters : int, optional
        Pivot-step budget, defaulting to the worst-case feasible cap.
    mode : str
        Pivot oracle mode, ``power`` (probe then exact) or ``exact``;
        ``cached`` delegates to :func:`solve_shm_cached`.
    seed : int or numpy Generator
        Drives the power-probe start vectors only.
    start : str or SpectraplexPoint
        ``rankone-e`` (uniform rank-one), ``identity`` (maximally mixed), or
        an explicit warm-start point.
    strict : bool
        Prefer strict pivots, falling back to plain ones.
    """
    if mode == "cached":
        return solve_shm_cached(instance, epsilon, max_iters, seed, start=start, strict=strict)
    if mode not in ("power", "exact"):
        raise ValueError(f"unknown solve mode {mode!r}")
    return _run(instance, epsilon, max_iters, mode, seed, start, strict, cache=None)


def solve_shm_cached(
    instance: ShmInstance,
    epsilon: float,
    max_iters: int | None = None,
    seed=0,
    start="rankone-e",
    strict: bool = False,
) -> Certificate:
    """Membership with the image-cache driver.

    Every iteration first scans previously seen pivot directions through the
    finite-set pivot rule on their cached images, touching eigen machinery
    only on a scan miss.  Witness outcomes are still certified over the full
    spectraplex, never from the cache alone.
    """
    return _run(instance, epsilon, max_iters, "cached-first", seed, start, strict, PivotCache())


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
    inequalities with random rank-one points plus every cached pivot.
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
        if cert.cache is not None and len(cert.cache) > 0:
            samples = np.vstack([samples, cert.cache.images])
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
