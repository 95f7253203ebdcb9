"""Intersection and separation of two spectrahull image sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrahull import (
    INCONCLUSIVE,
    INTERSECTING,
    SEPARATED,
    ShmInstance,
    certified_min_eig,
    image,
    solve_separation,
)

# one-dimensional image sets: a single diagonal family maps the spectraplex
# onto the closed interval between its smallest and largest diagonal entries
LEFT_LOW = (np.diag([1.0, 2.0]),)
RIGHT_HIGH = (np.diag([4.0, 5.0]),)
LEFT_WIDE = (np.diag([1.0, 3.0]),)
RIGHT_WIDE = (np.diag([2.0, 5.0]),)

SOLVE_MODES = ("power", "exact", "cached")
MODES = pytest.mark.parametrize("mode", SOLVE_MODES)


def interval_instance(lo, hi):
    return ShmInstance((np.diag([lo, hi]),), np.zeros(1))


# ------------------------------------------------------------------ separated


def test_disjoint_intervals_certify_without_moving():
    # the uniform starts sit at the interval midpoints (1.5, 4.5), and both
    # already see no pivot against each other, so the first sweep certifies
    # with the bisector crossing at 3
    for mode in SOLVE_MODES:
        cert = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4, mode=mode)
        assert cert.kind == SEPARATED, mode
        assert cert.iterations == 0, mode
        assert cert.pair.gap == pytest.approx(3.0), mode
        assert cert.hyperplane.normal[0] == pytest.approx(3.0), mode
        assert cert.hyperplane.offset == pytest.approx(9.0), mode
        assert cert.left_margin == pytest.approx(3.0), mode
        assert cert.right_margin == pytest.approx(3.0), mode


def test_margin_within_error_bound_ends_inconclusive(monkeypatch):
    # an error bound as wide as the spectrum leaves no absence certifiable
    monkeypatch.setattr(
        "spectrahull.shm.certified_min_eig",
        lambda a, bar=None: certified_min_eig(a, bar)[:2] + (math.inf,),
    )
    cert = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4)
    assert cert.kind == INCONCLUSIVE
    assert cert.hyperplane is None and cert.left_margin is None


def test_disjoint_interval_bisector_classifies_endpoints():
    cert = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4)
    hp = cert.hyperplane
    for v in (1.0, 2.0):
        assert hp.side(np.array([v])) < 0.0
    for v in (4.0, 5.0):
        assert hp.side(np.array([v])) > 0.0


def test_close_intervals_walk_then_certify_between_hulls():
    # hulls [1, 2] and [2.5, 5]: the left side must step toward the gap
    # first, and the certified bisector has to land strictly inside it
    for mode in SOLVE_MODES:
        cert = solve_separation((np.diag([1.0, 2.0]),), (np.diag([2.5, 5.0]),), 1e-4, mode=mode)
        assert cert.kind == SEPARATED, mode
        assert cert.left_margin is not None and cert.left_margin > 0.0, mode
        assert cert.right_margin is not None and cert.right_margin > 0.0, mode
        crossing = cert.hyperplane.offset / cert.hyperplane.normal[0]
        assert 2.0 - 1e-9 <= crossing <= 2.5 + 1e-9, mode
        assert cert.hyperplane.side(np.array([2.0])) < 0.0, mode
        assert cert.hyperplane.side(np.array([2.5])) > 0.0, mode


def test_swapping_sides_flips_the_certificate_orientation():
    fwd = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4)
    rev = solve_separation(RIGHT_HIGH, LEFT_LOW, 1e-4)
    assert fwd.kind == rev.kind == SEPARATED
    assert rev.hyperplane.normal[0] == pytest.approx(-fwd.hyperplane.normal[0])
    assert rev.hyperplane.offset == pytest.approx(-fwd.hyperplane.offset)


# ---------------------------------------------------------------- intersecting


def test_overlapping_intervals_meet_within_tolerance():
    for mode in SOLVE_MODES:
        cert = solve_separation(LEFT_WIDE, RIGHT_WIDE, 1e-4, mode=mode)
        assert cert.kind == INTERSECTING, mode
        assert cert.pair.gap <= 1e-4 * cert.scale, mode
        left_val = float(image(interval_instance(1.0, 3.0), cert.pair.left)[0])
        right_val = float(image(interval_instance(2.0, 5.0), cert.pair.right)[0])
        assert 1.0 - 1e-9 <= left_val <= 3.0 + 1e-9, mode
        assert 2.0 - 1e-9 <= right_val <= 5.0 + 1e-9, mode


@MODES
def test_overlapping_squares_meet_and_the_cache_answers_repeat_pivots(mode):
    # two diagonal families whose images are overlapping squares: the chase
    # returns to corners it has found before, which a cache answers for free
    def square(x, y):
        return (np.diag([x, x + 2.0, x, x + 2.0]), np.diag([y, y, y + 2.0, y + 2.0]))

    cert = solve_separation(square(0.0, 0.0), square(1.0, 0.7), 1e-3, mode=mode)
    assert cert.kind == INTERSECTING
    assert cert.pair.gap <= 1e-3 * cert.scale
    if mode == "cached":
        assert cert.stats.cache_hits > 0
        assert cert.oracle_calls == cert.stats.cache_misses
    else:
        assert cert.stats.cache_hits == cert.stats.cache_misses == 0


def test_identical_instances_touch_at_the_start():
    cert = solve_separation(LEFT_LOW, LEFT_LOW, 1e-4)
    assert cert.kind == INTERSECTING
    assert cert.iterations == 0
    assert cert.oracle_calls == 0


def test_pair_snapshot_is_consistent():
    cert = solve_separation(LEFT_WIDE, RIGHT_WIDE, 1e-4)
    cert.pair.left.validate()
    cert.pair.right.validate()
    li = image(interval_instance(1.0, 3.0), cert.pair.left)
    ri = image(interval_instance(2.0, 5.0), cert.pair.right)
    recomputed = float(np.linalg.norm(li - ri))
    assert abs(recomputed - cert.pair.gap) <= 1e-10 * 2.0 * cert.scale


# ------------------------------------------------------------------- plumbing


def test_mismatched_image_dimensions_are_rejected():
    with pytest.raises(ValueError):
        solve_separation((np.eye(2),), (np.eye(2), np.diag([1.0, -1.0])), 1e-4)


def test_epsilon_domain():
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            solve_separation(LEFT_LOW, RIGHT_HIGH, eps)


def test_empty_side_is_rejected():
    with pytest.raises(ValueError):
        solve_separation((), RIGHT_HIGH, 1e-4)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown solve mode"):
        solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4, mode="mystery")


def test_zero_budget_reports_inconclusive():
    # uniform starts land on the interval midpoints 2.0 and 3.5
    cert = solve_separation(LEFT_WIDE, RIGHT_WIDE, 1e-4, max_iters=0)
    assert cert.kind == INCONCLUSIVE
    assert cert.pair.gap == pytest.approx(1.5)


def test_instances_with_targets_are_accepted_and_targets_ignored():
    a = ShmInstance((np.diag([1.0, 2.0]),), np.array([7.0]))
    b = ShmInstance((np.diag([4.0, 5.0]),), np.array([-3.0]))
    cert = solve_separation(a, b, 1e-4)
    assert cert.kind == SEPARATED


# ------------------------------------------------------------------ properties


@given(st.lists(st.integers(0, 40), min_size=4, max_size=4, unique=True))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_interval_verdicts_match_geometry(quarters):
    a, b, c, d = sorted(q * 0.25 for q in quarters)
    eps = 1e-3
    left = (np.diag([a, b]),)
    for mode in SOLVE_MODES:
        if c - b >= 0.5:
            cert = solve_separation(left, (np.diag([c, d]),), eps, mode=mode)
            assert cert.kind == SEPARATED, mode
            crossing = cert.hyperplane.offset / cert.hyperplane.normal[0]
            assert b < crossing < c, mode
        else:
            # re-anchor the right interval to start inside [a, b]
            mid = 0.5 * (a + b)
            cert = solve_separation(left, (np.diag([mid, mid + d - c + 0.5]),), eps, mode=mode)
            assert cert.kind == INTERSECTING, mode
            assert cert.pair.gap <= eps * cert.scale, mode
