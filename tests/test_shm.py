"""Spectrahull membership: pivot matrix, oracle, solver, verification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectrahull.eigen
from spectrahull import (
    FEASIBLE,
    INCONCLUSIVE,
    WITNESS,
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    certified_min_eig,
    image,
    pivot_oracle,
    prune_representation,
    rank_one_image,
    solve_separation,
    solve_shm,
    solve_shm_cached,
    verify_certificate,
)
from spectrahull import shm
from spectrahull.chm import NOISE_FLOOR, Hyperplane, _bisector

import helpers

INTERVAL = ShmInstance((np.diag([1.0, 2.0, 3.0]),), np.array([2.0]))
E1 = SpectraplexPoint.rank_one([1.0, 0.0, 0.0])
E3 = SpectraplexPoint.rank_one([0.0, 0.0, 1.0])


def interval_with(b):
    return ShmInstance((np.diag([1.0, 2.0, 3.0]),), np.array([float(b)]))


def pivot_query(inst, p_image):
    """The residual, pivot matrix and bar at an iterate's image, formed as
    ``_Iterate.step`` forms them."""
    resid, bar = _bisector(p_image, inst.b)
    return resid, shm._pivot_matrix(inst, resid), bar


# --------------------------------------------------------------- pivot matrix


def test_assembly_interval_from_corner():
    resid, a, bar = pivot_query(INTERVAL, image(INTERVAL, E1))
    assert np.allclose(a.entries, -np.diag([1.0, 2.0, 3.0]))
    assert bar == -1.5
    assert np.allclose(resid, [-1.0])


def test_assembly_zero_residual():
    # a point whose image already equals the target gives the zero matrix
    half = SpectraplexPoint(
        np.array([0.5, 0.5]),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    )
    _, a, bar = pivot_query(INTERVAL, image(INTERVAL, half))
    assert np.allclose(a.entries, 0.0)
    assert bar == 0.0


def test_assembly_two_constraint_example():
    coords = ShmInstance(
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.array([0.5, 0.5])
    )
    corner = SpectraplexPoint.rank_one([1.0, 0.0])
    _, a, bar = pivot_query(coords, image(coords, corner))
    assert np.allclose(a.entries, np.diag([0.5, -0.5]))
    assert bar == 0.25


def test_pivot_matrix_is_the_exact_symmetrization():
    rng = np.random.default_rng(4)
    inst = ShmInstance(
        tuple(helpers.random_symmetric(rng, 6) for _ in range(4)), rng.standard_normal(4)
    )
    resid, piv, _ = pivot_query(inst, rng.standard_normal(4))
    raw = np.tensordot(resid, inst.stack, axes=1)
    entries = piv.entries
    assert np.array_equal(entries, 0.5 * (raw + raw.T))
    assert np.array_equal(entries, entries.T)
    assert not entries.flags.writeable


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_pivot_matrix_through_the_flat_view_is_the_dense_contraction(n, m, zero):
    """One matrix-vector product with the (m, n*n) view gives sum_k r_k A_k,
    exactly symmetric, and exactly zero for a zero residual."""
    rng = np.random.default_rng(100 * n + m)
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    inst = ShmInstance(mats, rng.standard_normal(m))
    resid, piv, _ = pivot_query(inst, inst.b if zero else rng.standard_normal(m))
    entries = piv.entries
    dense = sum(r * a for r, a in zip(resid, mats))
    scale = sum(abs(r) * np.abs(a) for r, a in zip(resid, mats))
    assert np.all(np.abs(entries - dense) <= 1e-14 * scale)
    assert np.array_equal(entries, entries.T)
    if zero:
        assert not np.any(entries)
    assert not inst.flat.flags.writeable
    assert np.shares_memory(inst.flat, inst.stack)


def test_assembly_strict_threshold():
    # the bisector's bar (|p'|^2 - |b|^2) / 2 at p' = 1, b = 2
    _, _, bar = pivot_query(INTERVAL, np.array([1.0]))
    assert bar == -1.5


# --------------------------------------------------------------- pivot oracle


# the pivot matrix and bar of INTERVAL at the iterate image 1: residual -1
NEG_INTERVAL = SymmetricMatrix(-np.diag([1.0, 2.0, 3.0]))


def test_oracle_exact_finds_corner_pivot():
    out = pivot_oracle(NEG_INTERVAL, -1.5)
    assert out.found
    assert np.allclose(np.abs(out.vector), [0.0, 0.0, 1.0])
    assert out.lambda_min == pytest.approx(-3.0, abs=1e-12)
    assert out.method == "jacobi"


def test_oracle_power_clears_bar():
    out = pivot_oracle(NEG_INTERVAL, -1.5)
    assert out.found
    assert out.lambda_min <= -1.5
    v_img = rank_one_image(INTERVAL, out.vector)
    # the residual is -1, so the pivot's value is -v_img[0]
    assert float(-v_img[0]) == pytest.approx(out.lambda_min, abs=1e-10)


def test_oracle_certified_absence():
    # hand-built bar well below the spectrum: lambda_min -6 beats -8
    out = pivot_oracle(SymmetricMatrix(-2.0 * np.diag([1.0, 2.0, 3.0])), -8.0)
    assert not out.found
    assert out.lambda_min == pytest.approx(-6.0, abs=1e-9)
    assert out.method == "jacobi"  # absence is always eigensolver-certified
    assert out.lambda_min > out.threshold
    assert 0.0 < out.error_bound < 1e-12
    assert out.certified
    assert out.margin == pytest.approx(2.0, abs=1e-9)


def test_oracle_bar_within_error_bound_is_not_certified():
    # lambda_min is -6 exactly; a bar one ulp below it sits inside the bound
    bar = math.nextafter(-6.0, -math.inf)
    out = pivot_oracle(SymmetricMatrix(-2.0 * np.diag([1.0, 2.0, 3.0])), bar)
    assert not out.found
    assert out.lambda_min > out.threshold
    assert out.margin < 0.0
    assert not out.certified


def test_oracle_zero_matrix_degenerate_pivot():
    out = pivot_oracle(SymmetricMatrix(np.zeros((3, 3))), 0.0)
    assert out.found
    assert out.lambda_min == 0.0


def test_found_pivot_minimises_the_form():
    """A found pivot's value r . p(v) is lambda_min, no greater than r . p(u)
    for any unit u, so it meets the paper's tighter bar r . b whenever any
    direction does; with b the image of a spectraplex point, one does."""
    rng = np.random.default_rng(5)
    for n, m in ((2, 1), (3, 2), (6, 4), (9, 7)):
        mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
        x, y = (
            SpectraplexPoint(rng.dirichlet(np.ones(n)), helpers.random_unit_vectors(rng, n, n))
            for _ in range(2)
        )
        inst = ShmInstance(mats, image(ShmInstance(mats, np.zeros(m)), x))
        resid, a, bar = pivot_query(inst, image(inst, y))
        out = pivot_oracle(a, bar)
        assert out.found
        allowance = 1e-12 * (1.0 + np.linalg.norm(a.entries))
        value = float(resid @ rank_one_image(inst, out.vector))
        lam = np.linalg.eigvalsh(a.entries)[0]
        assert out.lambda_min == pytest.approx(lam, abs=allowance)
        assert value == pytest.approx(out.lambda_min, abs=allowance)
        u = helpers.random_unit_vectors(rng, 1000, n)
        assert np.all(shm._term_images(inst, u) @ resid >= value - allowance)
        assert value <= float(resid @ inst.b) + allowance


# ---------------------------------------------------------------------- solve


def test_solve_interval_single_exact_step():
    cert = solve_shm(INTERVAL, 1e-6, start=E1)
    assert cert.kind == FEASIBLE
    assert cert.iterations == 1
    assert cert.gap <= 1e-12
    assert np.allclose(np.sort(cert.point.weights), [0.5, 0.5])
    imgs = [float(rank_one_image(INTERVAL, v)[0]) for v in cert.point.vectors]
    assert sorted(imgs) == pytest.approx([1.0, 3.0], abs=1e-12)


def test_solve_interval_default_start_is_exact_hit():
    # the uniform rank-one start already images to 2 for diag(1,2,3)
    cert = solve_shm(INTERVAL, 1e-6)
    assert cert.kind == FEASIBLE
    assert cert.iterations == 0
    assert cert.oracle_calls == 0


def test_solve_witness_trace_from_corner():
    inst = interval_with(5.0)
    cert = solve_shm(inst, 1e-6, start=E1)
    assert cert.kind == WITNESS
    assert cert.iterations == 1
    assert cert.gap == pytest.approx(2.0, abs=1e-12)
    assert 2.0 <= cert.gap <= 4.0  # delta* = 2 bracket
    hp = cert.hyperplane
    assert np.allclose(hp.normal, [-2.0])
    assert hp.offset == pytest.approx(-8.0, abs=1e-12)
    # -2x = -8 separates the image interval [1, 3] from b = 5
    assert hp.side([1.0]) > 0.0 and hp.side([3.0]) > 0.0
    assert hp.side([5.0]) < 0.0
    assert cert.eig_margin == pytest.approx(2.0, abs=1e-9)


def test_solve_witness_low_side():
    cert = solve_shm(interval_with(0.0), 1e-6)
    assert cert.kind == WITNESS
    assert 1.0 <= cert.gap <= 2.0
    assert cert.eig_margin is not None and cert.eig_margin > 0.0


def test_solve_inconclusive_on_zero_budget():
    cert = solve_shm(interval_with(1.0), 1e-6, max_iters=0)
    assert cert.kind == INCONCLUSIVE
    assert cert.iterations == 0
    assert cert.hyperplane is None


def test_solve_identity_start():
    cert = solve_shm(INTERVAL, 1e-6, start="identity")
    assert cert.kind == FEASIBLE
    assert cert.gap <= 1e-6 * cert.radius_bound


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve_shm(INTERVAL, 0.0)
    with pytest.raises(ValueError):
        solve_shm(INTERVAL, 1.0)
    with pytest.raises(ValueError):
        solve_shm(INTERVAL, 1e-3, start="corner")


def test_solve_feasible_meets_contract():
    cert = solve_shm(interval_with(1.0), 1e-6)
    assert cert.kind == FEASIBLE
    assert cert.gap <= 1e-6 * cert.radius_bound
    pt = cert.point
    assert np.allclose(pt.weights.sum(), 1.0)
    reproduced = image(INTERVAL, SpectraplexPoint(pt.weights, pt.vectors))
    assert abs(float(reproduced[0]) - 1.0) <= 1e-6 * cert.radius_bound + 1e-12


def test_cached_name_is_the_one_solver():
    assert solve_shm_cached is solve_shm


def test_solve_cached_interval_call_budget():
    cert0 = solve_shm_cached(INTERVAL, 1e-6)
    assert cert0.kind == FEASIBLE and cert0.oracle_calls == 0
    cert1 = solve_shm_cached(INTERVAL, 1e-6, start=E1)
    assert cert1.kind == FEASIBLE
    assert cert1.oracle_calls <= 2
    for v in cert1.point.vectors:
        (img,) = rank_one_image(INTERVAL, v)
        assert 1.0 - 1e-12 <= img <= 3.0 + 1e-12


def test_solve_cached_witness_margin():
    cert = solve_shm_cached(interval_with(5.0), 1e-6)
    assert cert.kind == WITNESS
    assert cert.eig_margin is not None and cert.eig_margin > 0.0
    assert cert.oracle_calls <= max(cert.iterations, 1)


@pytest.mark.parametrize("scale", [1e60, 1e80, 1e100, 1e150])
def test_witness_at_large_finite_scale(scale):
    """The pivot matrix's entries grow as the square of the family's scale;
    its eigenvalue error bound must neither overflow nor warn, so a target
    far outside the hull still gets a witness."""
    inst = ShmInstance(
        (np.diag([scale, 1.0]), np.diag([1.0, scale])), np.array([3.0 * scale, 0.5 * scale])
    )
    cert = solve_shm(inst, 1e-3)
    assert cert.kind == WITNESS
    assert cert.eig_margin > 0.0
    assert verify_certificate(inst, cert).passed


def test_solve_ends_inconclusive_when_margin_within_bound(monkeypatch):
    # an error bound as wide as the spectrum leaves no absence certifiable
    monkeypatch.setattr(
        "spectrahull.shm.certified_min_eig",
        lambda a, bar=None: certified_min_eig(a, bar)[:2] + (math.inf,),
    )
    for solve in (solve_shm, solve_shm_cached):
        cert = solve(interval_with(5.0), 1e-6)
        assert cert.kind == INCONCLUSIVE
        assert cert.hyperplane is None and cert.eig_margin is None


def test_strict_misses_reuse_their_work():
    """Outside targets, where some of the walk's pivots miss the paper's
    tighter bar: each run still ends in a certified, verifiable witness."""
    rng = np.random.default_rng(7)
    cases = [helpers.random_diagonal_case(rng, inside=False)[0] for _ in range(40)]
    for inst in cases:
        cert = solve_shm(inst, 1e-4)
        assert cert.kind == WITNESS
        assert cert.eig_margin > 0.0
        assert verify_certificate(inst, cert).passed


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cached_and_plain_verdicts_never_contradict(seed):
    # a decided verdict must match how the case was built: a target drawn
    # inside the image set is Feasible, one drawn outside is a Witness
    rng = np.random.default_rng(seed)
    inst, _, inside = helpers.random_diagonal_case(rng, inside=bool(seed % 2))
    cert = solve_shm(inst, 1e-4, max_iters=50_000)
    if cert.kind != INCONCLUSIVE:
        assert cert.kind == (FEASIBLE if inside else WITNESS)


# ---------------------------------------------------------------------- prune


def test_prune_merges_duplicate_factors():
    p = SpectraplexPoint(
        np.array([0.3, 0.7]),
        np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
    )
    out = prune_representation(INTERVAL, p)
    assert out.num_terms == 1
    assert out.weights[0] == pytest.approx(1.0, abs=1e-15)


def test_prune_three_terms_down_to_limit():
    p = SpectraplexPoint(np.array([0.25, 0.5, 0.25]), np.eye(3))
    before = image(INTERVAL, p)
    out = prune_representation(INTERVAL, p)
    assert out.num_terms <= 2  # min(m+1, n) for one constraint in order 3
    assert np.allclose(image(INTERVAL, out), before, atol=1e-12)
    assert float(before[0]) == pytest.approx(2.0, abs=1e-15)


def test_prune_leaves_small_representations_alone():
    p = SpectraplexPoint(np.array([0.5, 0.5]), np.eye(3)[:2])
    assert prune_representation(INTERVAL, p) is p


def test_prune_folds_dependent_factors_within_the_limit():
    """Three factors within min(m+1, n) = 3 that span only a plane factor
    into two, by the eigendecomposition every certificate goes through."""
    rng = np.random.default_rng(11)
    inst = ShmInstance(
        tuple(helpers.random_symmetric(rng, 3) for _ in range(3)), rng.standard_normal(3)
    )
    e1, e2 = np.eye(3)[:2]
    p = SpectraplexPoint(np.full(3, 1.0 / 3.0), np.array([e1, e2, (e1 + e2) / np.sqrt(2.0)]))
    before = image(inst, p)
    out = prune_representation(inst, p)
    assert out.num_terms == 2
    out.validate()
    assert np.linalg.norm(image(inst, out) - before) <= 1e-12 * inst.radius_bound
    assert np.allclose(out.dense(), p.dense(), atol=1e-15)


def test_prune_spectral_route_collapses_redundancy():
    rng = np.random.default_rng(5)
    mats = tuple(helpers.random_symmetric(rng, 3) for _ in range(5))
    inst = ShmInstance(mats, rng.standard_normal(5))
    p = SpectraplexPoint(
        rng.dirichlet(np.ones(7)), helpers.random_unit_vectors(rng, 7, 3)
    )
    before = image(inst, p)
    out = prune_representation(inst, p)
    assert out.num_terms <= 3
    assert np.linalg.norm(image(inst, out) - before) <= 1e-9 * inst.radius_bound


def test_prune_order_mismatch():
    with pytest.raises(ValueError):
        prune_representation(INTERVAL, SpectraplexPoint.rank_one([1.0, 0.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prune_contract_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 6))
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    inst = ShmInstance(mats, rng.standard_normal(m))
    limit = min(m + 1, n)
    t = limit + int(rng.integers(1, 6))
    p = SpectraplexPoint(
        rng.dirichlet(np.ones(t)), helpers.random_unit_vectors(rng, t, n)
    )
    before = image(inst, p)
    out = prune_representation(inst, p)
    assert out.num_terms <= limit
    assert np.linalg.norm(image(inst, out) - before) <= 1e-9 * inst.radius_bound
    out.validate()


# -------------------------------------------------------------- dense iterate


def _dense_image(inst, point):
    """Image by dense contraction, independent of the factor kernel."""
    return np.einsum("kij,ij->k", inst.stack, point.dense())


def _random_case(rng, n, m):
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    if rng.random() < 0.5:
        lam = rng.dirichlet(np.ones(n))
        vs = helpers.random_unit_vectors(rng, n, n)
        return mats, lam @ np.einsum("kij,ti,tj->tk", np.stack(mats), vs, vs)
    return mats, rng.standard_normal(m) * 2.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_certificates_carry_at_most_the_caratheodory_count(seed):
    """Each result is factored with at most min(m+1, n) terms whose image
    reproduces the reported gap; a Feasible one lands in the solver's ball."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    mats, b = _random_case(rng, n, m)
    inst = ShmInstance(mats, b)
    ball = 1e-4 * inst.radius_bound + NOISE_FLOOR * (1.0 + float(np.linalg.norm(b)))
    cert = solve_shm(inst, 1e-4, max_iters=20_000)
    assert cert.point.num_terms <= min(m + 1, n)
    gap = float(np.linalg.norm(_dense_image(inst, cert.point) - b))
    assert abs(gap - cert.gap) <= 1e-9 * inst.radius_bound
    if cert.kind == FEASIBLE:
        assert gap <= ball


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_separation_pairs_carry_at_most_the_caratheodory_count(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    sides = []
    for _ in range(2):
        n = int(rng.integers(1, 7))
        shift = rng.uniform(-2.0, 2.0)
        sides.append(tuple(helpers.random_symmetric(rng, n) + shift * np.eye(n) for _ in range(m)))
    cert = solve_separation(sides[0], sides[1], 1e-3, max_iters=20_000)
    images = []
    for mats, point in zip(sides, (cert.pair.left, cert.pair.right)):
        inst = ShmInstance(mats, np.zeros(m))
        assert point.num_terms <= min(m + 1, inst.n)
        images.append(_dense_image(inst, point))
    gap = float(np.linalg.norm(images[0] - images[1]))
    assert abs(gap - cert.pair.gap) <= 1e-9 * cert.scale


def test_feasible_walk_continues_past_factoring_drift(monkeypatch):
    """A factored point outside the ball is never returned as Feasible."""
    real = shm._prune_arrays
    calls = []

    def drifting(instance, w, v, ti):
        w, v, ti = real(instance, w, v, ti)
        calls.append(w.size)
        if len(calls) == 1:  # once, keep only the heaviest factor
            j = int(np.argmax(w))
            return np.ones(1), v[j : j + 1], ti[j : j + 1]
        return w, v, ti

    monkeypatch.setattr(shm, "_prune_arrays", drifting)
    cert = solve_shm(INTERVAL, 1e-6, start=E1)
    # unperturbed, one step lands on (e1 e1^T + e3 e3^T) / 2 and stops
    assert calls[0] == 2
    assert len(calls) >= 2
    assert cert.kind == FEASIBLE
    assert cert.iterations >= 2
    gap = abs(float(_dense_image(INTERVAL, cert.point)[0]) - 2.0)
    assert gap <= 1e-6 * cert.radius_bound
    assert gap == pytest.approx(cert.gap, abs=1e-12)


def test_walk_within_n_atoms_returns_them_without_an_eigensolve(monkeypatch):
    """A walk that ends with at most n atoms hands them out as the factors:
    the pivot queries are the run's only eigendecompositions."""
    rng = np.random.default_rng(5)
    n, m = 6, 2
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    vs = helpers.random_unit_vectors(rng, n, n)
    inside = rng.dirichlet(np.ones(n)) @ np.einsum("kij,ti,tj->tk", np.stack(mats), vs, vs)
    eig_calls, walks = [], []
    real_eigen, real_snapshot = spectrahull.eigen.jacobi_eigen, shm._Iterate.snapshot

    def counting(a):
        eig_calls.append(a.n)
        return real_eigen(a)

    def recording(it):
        walks.append((it.w.copy(), it.v.copy()))
        return real_snapshot(it)

    monkeypatch.setattr(spectrahull.eigen, "jacobi_eigen", counting)
    monkeypatch.setattr(shm._Iterate, "snapshot", recording)
    for b, kind in ((inside, FEASIBLE), (inside + 1.0, WITNESS)):
        eig_calls.clear()
        cert = solve_shm(ShmInstance(mats, b), 1e-4)
        assert cert.kind == kind
        assert cert.iterations > 0
        assert len(eig_calls) == cert.oracle_calls
        w, v = walks[-1]
        assert w.size <= n
        np.testing.assert_array_equal(cert.point.weights, w)
        np.testing.assert_array_equal(cert.point.vectors, v)


def test_solves_share_no_mutable_state(monkeypatch):
    """The start point cached per order, the walk's atom arrays and the
    eigendecompositions handed out without a copy carry nothing from one
    solve into the next: one instance solved twice, around a solve at
    another order, gives identical certificates, and no solve writes into
    an eigendecomposition it was handed."""
    rng = np.random.default_rng(21)

    def instance(n, m, push):
        mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
        vs = helpers.random_unit_vectors(rng, n, n)
        imgs = np.einsum("kij,ti,tj->tk", np.stack(mats), vs, vs)
        return ShmInstance(mats, rng.dirichlet(np.ones(n)) @ imgs + push)

    decs = []
    real_eigen = spectrahull.eigen.jacobi_eigen

    def recording(a):
        vals, vecs = real_eigen(a)
        decs.append((vals, vecs, vals.copy(), vecs.copy()))
        return vals, vecs

    monkeypatch.setattr(spectrahull.eigen, "jacobi_eigen", recording)
    start = shm._rank_one_start(5)
    start_w, start_v = start.weights.copy(), start.vectors.copy()
    for push in (0.0, 1.0):  # a Feasible walk, then a Witness
        inst, other = instance(5, 4, push), instance(3, 2, push)
        first = solve_shm(inst, 1e-4)
        kept = first.point.weights.copy(), first.point.vectors.copy()
        solve_shm(other, 1e-4)
        second = solve_shm(inst, 1e-4)
        assert first.kind == (WITNESS if push else FEASIBLE)
        assert first.iterations > 1
        assert (second.kind, second.iterations, second.oracle_calls) == (
            first.kind, first.iterations, first.oracle_calls
        )
        np.testing.assert_array_equal(second.point.weights, first.point.weights)
        np.testing.assert_array_equal(second.point.vectors, first.point.vectors)
        np.testing.assert_array_equal(first.point.weights, kept[0])
        np.testing.assert_array_equal(first.point.vectors, kept[1])
    assert shm._rank_one_start(5) is start
    for arr, was in ((start.weights, start_w), (start.vectors, start_v)):
        assert not arr.flags.writeable
        np.testing.assert_array_equal(arr, was)
    assert decs
    for vals, vecs, values, vectors in decs:
        np.testing.assert_array_equal(vals, values)
        np.testing.assert_array_equal(vecs, vectors)


# ----------------------------------------------------------------- verify


def test_verify_feasible_certificate():
    cert = solve_shm(interval_with(1.0), 1e-6)
    report = verify_certificate(interval_with(1.0), cert)
    assert report.passed
    assert report.violations == 0
    assert len(report.checks) > 0


def test_verify_witness_certificate():
    inst = interval_with(5.0)
    cert = solve_shm(inst, 1e-6)
    report = verify_certificate(inst, cert)
    assert report.passed
    assert report.violations == 0


def test_verify_flags_tampered_weights():
    inst = interval_with(1.0)
    cert = solve_shm(inst, 1e-6)
    object.__setattr__(cert.point, "weights", cert.point.weights * 0.9)
    report = verify_certificate(inst, cert)
    assert not report.passed
    assert report.violations >= 1


def test_verify_flags_shifted_hyperplane():
    inst = interval_with(5.0)
    cert = solve_shm(inst, 1e-6)
    cert.hyperplane = type(cert.hyperplane)(cert.hyperplane.normal, -2.0)
    report = verify_certificate(inst, cert)
    assert not report.passed


def test_verify_flags_tampered_margin():
    inst = interval_with(5.0)
    cert = solve_shm(inst, 1e-6, start=E1)
    assert cert.eig_margin == pytest.approx(2.0, abs=1e-9)
    assert verify_certificate(inst, cert).passed
    # lambda_min - bar is 2, so any stored margin above 4 overstates it
    for forged in (4.5, 20.0, 0.0, -1.0, None):
        report = verify_certificate(inst, dataclasses.replace(cert, eig_margin=forged))
        assert not report.passed, forged
        assert report.violations == 1, report.checks


@pytest.mark.parametrize(
    "forge",
    [
        # the plane still separates, but by a quarter of the stated margin
        lambda hp, margin: (hp.normal, hp.offset + 0.75 * margin),
        lambda hp, margin: (1.5 * hp.normal, hp.offset),
    ],
    ids=["offset-moved-toward-hull", "normal-scaled"],
)
def test_verify_checks_the_stated_hyperplane(forge):
    """The audit proves the margin of the hyperplane the witness stores, not
    of one rebuilt from its point: a forged plane fails the Cholesky check."""
    inst = interval_with(5.0)
    cert = solve_shm(inst, 1e-6, start=E3)
    assert cert.hyperplane.offset == pytest.approx(-8.0)
    assert cert.eig_margin == pytest.approx(2.0, abs=1e-9)
    forged = Hyperplane(*forge(cert.hyperplane, cert.eig_margin))
    assert forged.side(inst.b) < 0.0
    report = verify_certificate(inst, dataclasses.replace(cert, hyperplane=forged))
    assert not report.passed
    assert report.violations == 1, report.checks
    assert report.checks[-1].startswith("FAIL stored margin"), report.checks


def test_verify_rejects_inconclusive():
    cert = solve_shm(interval_with(1.0), 1e-6, max_iters=0)
    with pytest.raises(ValueError):
        verify_certificate(interval_with(1.0), cert)


# ----------------------------------------------------------------- invariants


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_solver_certificates_are_sound(seed):
    """Every verdict sustains independent re-checking on random instances."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    if rng.random() < 0.5:
        lam = rng.dirichlet(np.ones(n))
        vs = helpers.random_unit_vectors(rng, n, n)
        b = lam @ np.einsum("kij,ti,tj->tk", np.stack(mats), vs, vs)
    else:
        b = rng.standard_normal(m) * 4.0
    inst = ShmInstance(mats, b)
    cert = solve_shm(inst, 1e-4, max_iters=50_000)
    if cert.kind == INCONCLUSIVE:
        return
    report = verify_certificate(inst, cert)
    assert report.passed, report.checks


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_witness_fuzz_at_tolerance_depth(seed):
    """Targets just over eps * R past the support value: witnesses hold up.

    The image set lies in d.x <= lambda_max(sum_k d_k A_k), so a target that
    far beyond the support point along d cannot be certified feasible; every
    witness either driver returns must keep a positive margin net of the
    eigenvalue error bound and pass the Cholesky audit.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    eps = float(rng.choice([1e-2, 1e-3]))
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    stack = np.stack(mats)
    d = rng.standard_normal(m)
    d /= np.linalg.norm(d)
    vals, vecs = np.linalg.eigh(np.tensordot(d, stack, axes=1))
    top = np.einsum("kij,i,j->k", stack, vecs[:, -1], vecs[:, -1])
    # pushing the target raises R by at most the push, so dividing by
    # 1 - 2 eps keeps the push above eps * R at the pushed target
    base = ShmInstance(mats, top).radius_bound
    depth = float(rng.uniform(1.1, 2.0)) * eps * base / (1.0 - 2.0 * eps)
    inst = ShmInstance(mats, top + depth * d)
    assert float(d @ inst.b) - vals[-1] > eps * inst.radius_bound
    witnesses = 0
    for solve in (solve_shm, solve_shm_cached):
        cert = solve(inst, eps)
        assert cert.kind != FEASIBLE
        if cert.kind != WITNESS:
            continue
        witnesses += 1
        assert cert.eig_margin > 0.0
        _, a, bar = pivot_query(inst, image(inst, cert.point))
        lam, _, delta = certified_min_eig(a)
        assert lam - delta - bar > 0.0
        report = verify_certificate(inst, cert)
        assert report.passed, report.checks
    assert witnesses >= 1
