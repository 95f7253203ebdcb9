"""Finite-set membership: pivot search, step geometry, and the full driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrahull import (
    FEASIBLE,
    INCONCLUSIVE,
    WITNESS,
    DegeneratePivotError,
    PointSet,
    find_pivot,
    solve_chm,
)
from spectrahull.chm import _nearest_weights, _ta_step, _Walk, default_iteration_cap

TRIANGLE = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
SEGMENT = PointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))


# ----------------------------------------------------------------- find_pivot


def test_find_pivot_returns_linear_minimizer():
    """The greedy rule picks the direction minimizer, not just any pivot."""
    p0 = np.array([0.25, 0.25])
    pp = np.array([1.0, 0.0])
    idx, v = find_pivot(TRIANGLE, p0, pp)
    assert idx == 2
    assert np.allclose(v, [0.0, 1.0])
    # both corners clear the pivot inequality; the minimizer wins
    c = pp - p0
    bar = 0.5 * (pp @ pp - p0 @ p0)
    assert c @ np.array([0.0, 0.0]) <= bar
    assert c @ v <= bar
    assert c @ v == min(c @ q for q in TRIANGLE.points)


def test_find_pivot_none_at_witness():
    hit = find_pivot(SEGMENT, np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    assert hit is None


def test_find_pivot_degenerate_coincidence_takes_lowest_index():
    p0 = np.array([0.25, 0.25])
    idx, v = find_pivot(TRIANGLE, p0, p0)
    assert idx == 0
    assert np.allclose(v, [0.0, 0.0])


def test_find_pivot_empty_set():
    with pytest.raises(ValueError):
        find_pivot(PointSet(np.zeros((0, 2))), np.zeros(2), np.zeros(2))


def test_find_pivot_meets_the_tighter_bar_whenever_a_point_does():
    """The paper's tighter bar c . v <= c . p0 shares the plain bar's
    normal, so the scan's minimizer meets it whenever any point does: with
    p0 in the hull some point always does."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        pts = PointSet(rng.standard_normal((int(rng.integers(2, 9)), 3)))
        p0 = rng.dirichlet(np.ones(pts.size)) @ pts.points
        pp = rng.dirichlet(np.ones(pts.size)) @ pts.points
        c = pp - p0
        hit = find_pivot(pts, p0, pp)
        assert hit is not None
        idx, v = hit
        assert idx == int(np.argmin(pts.points @ c))
        assert c @ v <= c @ p0 + 1e-12 * (1.0 + np.abs(c) @ np.abs(p0))


# -------------------------------------------------------------------- ta_step


def test_ta_step_one_dimensional():
    p, alpha = _ta_step(np.array([2.0]), np.array([1.0]), np.array([3.0]))
    assert alpha == 0.5
    assert p[0] == 2.0


def test_ta_step_pivot_equals_target():
    p, alpha = _ta_step(np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert alpha == 1.0
    assert np.allclose(p, [0.0, 0.0])


def test_ta_step_two_dimensional():
    p, alpha = _ta_step(
        np.array([0.25, 0.25]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    )
    assert alpha == 0.5
    assert np.allclose(p, [0.5, 0.5])


def test_ta_step_clamps_both_ends():
    p_hi, a_hi = _ta_step(np.array([3.0]), np.array([1.0]), np.array([2.0]))
    assert a_hi == 1.0 and p_hi[0] == 2.0
    p_lo, a_lo = _ta_step(np.array([0.0]), np.array([1.0]), np.array([3.0]))
    assert a_lo == 0.0 and p_lo[0] == 1.0


def test_ta_step_degenerate_pivot():
    with pytest.raises(DegeneratePivotError):
        _ta_step(np.zeros(2), np.ones(2), np.ones(2))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ta_step_never_increases_distance(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    p0 = rng.standard_normal(dim)
    pp = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    if np.allclose(v, pp):
        v = pp + 1.0
    p, alpha = _ta_step(p0, pp, v)
    assert 0.0 <= alpha <= 1.0
    assert np.linalg.norm(p - p0) <= np.linalg.norm(pp - p0) + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_nearest_weights_end_on_the_affine_minimiser_of_the_kept_rows(seed):
    """Wolfe's minor cycles end on convex weights whose point x is no
    farther from the origin than the start and is orthogonal to the affine
    hull of the rows kept (x . y = |x|^2 on each), also when a row repeats
    another and the affine system turns singular."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    count = int(rng.integers(2, dim + 3))
    y = rng.standard_normal((count, dim))
    if rng.random() < 0.5:
        y[-1] = y[0]
    w0 = rng.dirichlet(np.ones(count))
    w0[-1] = 0.0
    w0 /= w0.sum()
    w = _nearest_weights(y, w0)
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    x = w @ y
    assert np.linalg.norm(x) <= np.linalg.norm(w0 @ y) + 1e-12
    assert np.allclose(y[w > 0.0] @ x, x @ x, atol=1e-9)


def test_nearest_weights_reach_the_origin_through_a_new_row():
    # from the row 2 alone, the new row -1 puts the origin in the hull
    w = _nearest_weights(np.array([[2.0], [-1.0]]), np.array([1.0, 0.0]))
    assert w == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-15)


def test_walk_step_never_ends_farther_than_its_segment_step():
    """After every step the walk's image is no farther from the target than
    the Triangle Algorithm's segment point, its weights are positive and sum
    to one, and it keeps at most m+1 atoms: for a fixed target and for one
    that moves before each step, as a separation side's does, also when a
    pivot repeats an atom and Wolfe's system turns singular."""
    rng = np.random.default_rng(1)
    for walk_no in range(400):
        m = 1 + walk_no % 5
        moving = walk_no % 2 == 1
        img = rng.standard_normal(m)
        walk = _Walk(m, np.ones(1), img[None, :], img[None, :])
        target = rng.standard_normal(m)
        for _ in range(16):
            if moving:
                target = target + rng.standard_normal(m)
            if rng.random() < 0.25:
                img = walk.ti[int(rng.integers(walk.k))].copy()
            else:
                img = rng.standard_normal(m)
            try:
                seg, _ = _ta_step(target, walk.image, img)
                walk.add(target, img, img)
            except DegeneratePivotError:
                continue
            bound = np.linalg.norm(seg - target) + 1e-13 * (1.0 + np.linalg.norm(target))
            assert np.linalg.norm(walk.image - target) <= bound
            assert np.all(walk.w > 0.0)
            assert walk.w.sum() == pytest.approx(1.0, abs=1e-12)
            assert walk.k <= m + 1


# ------------------------------------------------------------------ solve_chm


def test_solve_chm_segment_witness():
    cert = solve_chm(SEGMENT, np.array([0.0, 0.0]), 1e-3)
    assert cert.kind == WITNESS
    assert np.allclose(cert.image, [0.5, 0.5])
    delta = np.sqrt(0.5)
    # the walk's weights come from a linear solve, (0.5, 0.49999999999999994)
    # here, so the gap may fall below delta by a few ulps
    assert delta * (1.0 - 4.0 * np.finfo(float).eps) <= cert.gap <= 2.0 * delta
    assert cert.gap == pytest.approx(delta, abs=1e-12)
    hp = cert.hyperplane
    assert np.allclose(hp.normal, [0.5, 0.5])
    assert hp.offset == pytest.approx(0.25, abs=1e-15)
    # the set sits strictly above the offset, the query strictly below
    assert all(hp.side(q) > 0.0 for q in SEGMENT.points)
    assert hp.side([0.0, 0.0]) < 0.0


def test_solve_chm_witness_distance_dominance():
    cert = solve_chm(SEGMENT, np.array([0.0, 0.0]), 1e-3)
    p = cert.image
    for q in SEGMENT.points:
        assert np.linalg.norm(p - q) < np.linalg.norm(q)


def test_solve_chm_triangle_feasible():
    p0 = np.array([0.25, 0.25])
    cert = solve_chm(TRIANGLE, p0, 1e-3)
    assert cert.kind == FEASIBLE
    assert cert.gap <= 1e-3 * cert.radius_bound
    coeffs = cert.point.weights @ cert.point.vectors
    assert coeffs.min() >= 0.0
    assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(coeffs @ TRIANGLE.points, cert.image, atol=1e-12)


def test_solve_chm_singleton():
    cert = solve_chm(PointSet(np.array([[0.3, -0.7]])), np.array([0.3, -0.7]), 1e-6)
    assert cert.kind == FEASIBLE
    assert cert.gap == 0.0
    assert cert.iterations == 0


def test_solve_chm_budget_exhaustion():
    cert = solve_chm(SEGMENT, np.array([0.0, 0.0]), 1e-3, max_iters=0)
    assert cert.kind == INCONCLUSIVE
    assert cert.iterations == 0


def test_solve_chm_input_validation():
    with pytest.raises(ValueError):
        solve_chm(TRIANGLE, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        solve_chm(TRIANGLE, np.zeros(3), 1e-3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_solve_chm_rejects_a_non_finite_query(bad):
    """No verdict for a query that is not a point: an infinite one used to
    come back Feasible with an infinite gap, a NaN one crashed building the
    witness hyperplane."""
    with pytest.raises(ValueError, match="query must be finite"):
        solve_chm(SEGMENT, np.array([bad, 0.0]), 0.1)


def test_default_iteration_cap():
    assert default_iteration_cap(1e-2) == 640000
    assert default_iteration_cap(0.5) == 256


# ----------------------------------------------------------------- invariants


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_driven_gaps_strictly_decrease(seed):
    """Walking pivot steps by hand, the distance to the query always drops."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    count = int(rng.integers(2, 7))
    pts = PointSet(rng.standard_normal((count, dim)))
    lam = rng.dirichlet(np.ones(count))
    p0 = lam @ pts.points  # guaranteed inside
    p = pts.points[0].copy()
    last = np.linalg.norm(p - p0)
    for _ in range(30):
        if last <= 1e-12:
            break
        hit = find_pivot(pts, p0, p)
        assert hit is not None  # feasible targets always admit a pivot
        _, v = hit
        if np.allclose(v, p):
            break
        p, _ = _ta_step(p0, p, v)
        gap = np.linalg.norm(p - p0)
        assert gap <= last + 1e-12
        assert gap < last or gap <= 1e-12
        last = gap


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_solver_verdicts_are_certified(seed):
    """Feasible gaps meet the tolerance with convex coefficients that
    reproduce the point; witnesses dominate all distances."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    count = int(rng.integers(1, 7))
    pts = PointSet(rng.standard_normal((count, dim)))
    if rng.random() < 0.5:
        p0 = rng.dirichlet(np.ones(count)) @ pts.points
    else:
        p0 = rng.standard_normal(dim) * 3.0
    cert = solve_chm(pts, p0, 1e-4)
    if cert.kind == FEASIBLE:
        assert cert.gap <= 1e-4 * cert.radius_bound + 1e-15
        coeffs = cert.point.weights @ cert.point.vectors
        assert coeffs.min() >= 0.0
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        scale = 1.0 + float(np.abs(pts.points).max())
        assert np.abs(coeffs @ pts.points - cert.image).max() <= 1e-12 * scale
        # Caratheodory: the walk keeps at most dim+1 atoms
        assert np.count_nonzero(coeffs > 0.0) <= dim + 1
    elif cert.kind == WITNESS:
        p = cert.image
        for q in pts.points:
            assert np.linalg.norm(p - q) < np.linalg.norm(p0 - q) + 1e-12
        assert cert.hyperplane.side(p0) < 0.0


def test_solve_chm_rejects_an_overflowing_farthest_distance():
    points = PointSet(np.array([[1e308], [0.5e308]]))
    with pytest.raises(ValueError, match="overflows"):
        solve_chm(points, np.array([-1.7e308]), 1e-2)
