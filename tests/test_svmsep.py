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

import helpers

# one-dimensional image sets: a single diagonal family maps the spectraplex
# onto the closed interval between its smallest and largest diagonal entries
LEFT_LOW = (np.diag([1.0, 2.0]),)
RIGHT_HIGH = (np.diag([4.0, 5.0]),)
LEFT_WIDE = (np.diag([1.0, 3.0]),)
RIGHT_WIDE = (np.diag([2.0, 5.0]),)

def interval_instance(lo, hi):
    return ShmInstance((np.diag([lo, hi]),), np.zeros(1))


# ------------------------------------------------------------------ separated


def test_disjoint_intervals_certify_without_moving():
    # the uniform starts sit at the interval midpoints (1.5, 4.5), and both
    # already see no pivot against each other, so the first sweep certifies
    # with the bisector crossing at 3
    cert = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4)
    assert cert.kind == SEPARATED
    assert cert.iterations == 0
    assert cert.pair.gap == pytest.approx(3.0)
    assert cert.hyperplane.normal[0] == pytest.approx(3.0)
    assert cert.hyperplane.offset == pytest.approx(9.0)
    assert cert.left_margin == pytest.approx(3.0)
    assert cert.right_margin == pytest.approx(3.0)


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
    cert = solve_separation((np.diag([1.0, 2.0]),), (np.diag([2.5, 5.0]),), 1e-4)
    assert cert.kind == SEPARATED
    assert cert.left_margin is not None and cert.left_margin > 0.0
    assert cert.right_margin is not None and cert.right_margin > 0.0
    crossing = cert.hyperplane.offset / cert.hyperplane.normal[0]
    assert 2.0 - 1e-9 <= crossing <= 2.5 + 1e-9
    assert cert.hyperplane.side(np.array([2.0])) < 0.0
    assert cert.hyperplane.side(np.array([2.5])) > 0.0


def test_swapping_sides_flips_the_certificate_orientation():
    fwd = solve_separation(LEFT_LOW, RIGHT_HIGH, 1e-4)
    rev = solve_separation(RIGHT_HIGH, LEFT_LOW, 1e-4)
    assert fwd.kind == rev.kind == SEPARATED
    assert rev.hyperplane.normal[0] == pytest.approx(-fwd.hyperplane.normal[0])
    assert rev.hyperplane.offset == pytest.approx(-fwd.hyperplane.offset)


# ---------------------------------------------------------------- intersecting


def test_overlapping_intervals_meet_within_tolerance():
    cert = solve_separation(LEFT_WIDE, RIGHT_WIDE, 1e-4)
    assert cert.kind == INTERSECTING
    assert cert.pair.gap <= 1e-4 * cert.scale
    left_val = float(image(interval_instance(1.0, 3.0), cert.pair.left)[0])
    right_val = float(image(interval_instance(2.0, 5.0), cert.pair.right)[0])
    assert 1.0 - 1e-9 <= left_val <= 3.0 + 1e-9
    assert 2.0 - 1e-9 <= right_val <= 5.0 + 1e-9


def test_overlapping_squares_meet_in_few_oracle_calls():
    # two diagonal families whose images are the squares [0, 2]^2 and
    # [1, 3] x [0.7, 2.7]: they share a unit of area, so a walk that moves
    # to the nearest point of its atoms' hull meets the other side in a few
    # pivots, and a tighter tolerance costs no more
    def square(x, y):
        return (np.diag([x, x + 2.0, x, x + 2.0]), np.diag([y, y, y + 2.0, y + 2.0]))

    for eps in (1e-3, 1e-4):
        cert = solve_separation(square(0.0, 0.0), square(1.0, 0.7), eps)
        assert cert.kind == INTERSECTING, eps
        assert cert.pair.gap <= eps * cert.scale, eps
        assert cert.oracle_calls <= 10, (eps, cert.oracle_calls)


def test_intersecting_pairs_never_come_back_separated():
    """Each right family is shifted by a multiple of I per matrix so that
    both image sets contain the image of I/3; no such pair may be reported
    Separated, however the two walks move their targets."""
    rng = np.random.default_rng(2024)
    for i in range(400):
        left = np.stack([helpers.random_symmetric(rng, 3) for _ in range(3)])
        right = np.stack([helpers.random_symmetric(rng, 3) for _ in range(3)])
        shift = (np.trace(left, axis1=1, axis2=2) - np.trace(right, axis1=1, axis2=2)) / 3.0
        right = right + shift[:, None, None] * np.eye(3)
        cert = solve_separation(tuple(left), tuple(right), 1e-2)
        assert cert.kind != SEPARATED, i


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
    if c - b >= 0.5:
        cert = solve_separation(left, (np.diag([c, d]),), eps)
        assert cert.kind == SEPARATED
        crossing = cert.hyperplane.offset / cert.hyperplane.normal[0]
        assert b < crossing < c
    else:
        # re-anchor the right interval to start inside [a, b]
        mid = 0.5 * (a + b)
        cert = solve_separation(left, (np.diag([mid, mid + d - c + 0.5]),), eps)
        assert cert.kind == INTERSECTING
        assert cert.pair.gap <= eps * cert.scale
