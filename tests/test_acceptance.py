"""End-to-end acceptance gates, one test per shipped guarantee.

The first three gates build a shared corpus of solver runs (interval family,
diagonal cross-check, exhaustive order-two grid); the witness-validity and
budget gates then audit every certificate that corpus produced.  Each gate
pins its tolerances inline so a red line here names the broken guarantee
directly.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import helpers
from spectrahull import (
    FEASIBLE,
    INTERSECTING,
    SEPARATED,
    WITNESS,
    MaxCutInstance,
    SdpFeasibilityInstance,
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    certified_min_eig,
    image,
    jacobi_eigen,
    prune_representation,
    reduce_sdp_to_shm,
    solve_chm,
    solve_maxcut_relaxation,
    solve_separation,
    solve_shm,
    verify_certificate,
)
from spectrahull.chm import _bisector
from spectrahull.shm import _pivot_matrix

INTERVAL_MATS = (np.diag([1.0, 2.0, 3.0]),)


@dataclass
class SolveRecord:
    label: str
    instance: ShmInstance
    epsilon: float
    cert: object
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


def timed_solve(instance, epsilon):
    t0 = time.perf_counter()
    cert = solve_shm(instance, epsilon)
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def corpus():
    records = []

    # warm up once so the timed runs below measure the solver, not
    # one-time import and allocation costs
    solve_shm(ShmInstance((np.diag([1.0, 2.0]),), np.array([1.5])), 1e-4)

    for b in (1.0, 1.5, 2.0, 3.0, 0.0, 5.0):
        inst = ShmInstance(INTERVAL_MATS, np.array([b]))
        cert, wall = timed_solve(inst, 1e-6)
        records.append(SolveRecord(f"interval b={b}", inst, 1e-6, cert, wall))

    rng = np.random.default_rng(202)
    for i in range(200):
        inst, cols, _ = helpers.random_diagonal_case(rng, inside=(i % 2 == 0))
        cert = solve_shm(inst, 1e-4)
        chm = solve_chm(cols, inst.b, 1e-4)
        records.append(SolveRecord(f"diagonal {i}", inst, 1e-4, cert, extra={"chm": chm}))

    rng = np.random.default_rng(303)
    kept = 0
    while kept < 50:
        m = int(rng.integers(1, 5))
        mats = helpers.order_two_family(rng, m)
        if kept % 2 == 0:
            r = 0.5 * np.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * np.pi)
            b = helpers.order_two_images(mats, 0.5 + r * np.cos(th), r * np.sin(th))
        else:
            th = rng.uniform(0.0, 2.0 * np.pi)
            edge = helpers.order_two_images(mats, 0.5 + 0.5 * np.cos(th), 0.5 * np.sin(th))
            d = rng.standard_normal(m)
            d /= np.linalg.norm(d)
            b = edge + rng.uniform(0.3, 1.0) * d
        inst = ShmInstance(tuple(mats), np.asarray(b, dtype=float))
        bar = 1e-2 * inst.radius_bound
        min_grid_gap = helpers.order_two_grid_distance(mats, b)
        if 0.5 * bar < min_grid_gap < 2.0 * bar:
            continue  # undecidable at grid resolution, excluded by contract
        kept += 1
        cert = solve_shm(inst, 1e-2)
        records.append(
            SolveRecord(
                f"order-two {kept}", inst, 1e-2, cert,
                extra={"grid_feasible": bool(min_grid_gap <= 0.5 * bar)},
            )
        )
    return records


def interval_records(records):
    return [r for r in records if r.label.startswith("interval")]


def diagonal_records(records):
    return [r for r in records if r.label.startswith("diagonal")]


def grid_records(records):
    return [r for r in records if r.label.startswith("order-two")]


def test_c01_interval_verdicts_witness_gaps_and_speed(corpus):
    runs = {float(r.label.split("=")[1]): r for r in interval_records(corpus)}
    assert set(runs) == {1.0, 1.5, 2.0, 3.0, 0.0, 5.0}
    for b in (1.0, 1.5, 2.0, 3.0):
        rec = runs[b]
        assert rec.cert.kind == FEASIBLE, f"b={b}"
        assert rec.cert.gap <= 1e-6 * rec.instance.radius_bound
    for b, dist in ((0.0, 1.0), (5.0, 2.0)):
        rec = runs[b]
        assert rec.cert.kind == WITNESS, f"b={b}"
        assert dist <= rec.cert.gap <= 2.0 * dist
    for rec in runs.values():
        assert rec.wall_seconds < 1.0, f"{rec.label} took {rec.wall_seconds:.3f}s"


def test_c02_diagonal_family_matches_point_solver(corpus):
    records = diagonal_records(corpus)
    assert len(records) == 200
    for rec in records:
        chm = rec.extra["chm"]
        assert rec.cert.kind in (FEASIBLE, WITNESS), rec.label
        assert rec.cert.kind == chm.kind, rec.label
        if rec.cert.kind == FEASIBLE:
            bound = 1e-3 * rec.instance.radius_bound
            assert abs(rec.cert.gap - chm.gap) <= bound, rec.label


def test_c03_exhaustive_order_two_grid_agreement(corpus):
    records = grid_records(corpus)
    assert len(records) == 50
    verdicts = {True: 0, False: 0}
    for rec in records:
        want = FEASIBLE if rec.extra["grid_feasible"] else WITNESS
        verdicts[rec.extra["grid_feasible"]] += 1
        assert rec.cert.kind == want, rec.label
    assert min(verdicts.values()) >= 5, f"degenerate verdict mix {verdicts}"


def test_c04_every_witness_certificate_verifies(corpus):
    audited = 0
    for rec in corpus:
        cert = rec.cert
        if cert.kind != WITNESS:
            continue
        audited += 1
        report = verify_certificate(rec.instance, cert, sample_count=10_000, seed=0)
        assert report.passed, f"{rec.label}: {report.checks}"
        assert report.violations == 0, rec.label
        # recompute the eigenvalue margin from scratch rather than
        # trusting the number stored on the certificate
        resid, bar = _bisector(image(rec.instance, cert.point), rec.instance.b)
        lam, _, _ = certified_min_eig(_pivot_matrix(rec.instance, resid))
        assert lam - bar > 0.0, rec.label
        assert cert.eig_margin is not None and cert.eig_margin > 0.0, rec.label
    assert audited >= 20, f"only {audited} witnesses audited; corpus too tame"


def test_c05_pruning_bounds_terms_and_preserves_images():
    rng = np.random.default_rng(505)
    for run in range(100):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(1, 21))
        inst = ShmInstance(
            tuple(helpers.random_symmetric(rng, n) for _ in range(m)),
            rng.uniform(-1.0, 1.0, size=m),
        )
        bound = min(m + 1, n)
        terms = bound + int(rng.integers(1, 13))
        point = SpectraplexPoint(
            rng.dirichlet(np.ones(terms)), helpers.random_unit_vectors(rng, terms, n)
        )
        before = image(inst, point)
        out = prune_representation(inst, point)
        assert out.num_terms <= bound, f"run {run}: {out.num_terms} > {bound}"
        drift = float(np.linalg.norm(image(inst, out) - before))
        assert drift <= 1e-9 * inst.radius_bound, f"run {run}: drift {drift:.2e}"


def test_c06_cut_relaxation_matches_small_graph_oracles():
    # two vertices: the relaxation minimizes 2*y over off-diagonal y in
    # [-1, 1], so the oracle value is exactly -2
    k2_oracle = -2.0
    mc2 = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    t0 = time.perf_counter()
    res2 = solve_maxcut_relaxation(mc2, epsilon=1e-3)
    t2 = time.perf_counter() - t0
    assert t2 < 30.0, f"two-vertex search took {t2:.1f}s"
    assert res2.converged
    assert abs(res2.value - k2_oracle) <= 1e-2
    assert np.all(np.abs(np.diag(res2.matrix) - 1.0) <= 2 * 1e-3)

    # three vertices: brute-force the unit-diagonal feasible set over its
    # three off-diagonal parameters on an 81-point axis grid
    g = np.linspace(-1.0, 1.0, 81)
    a, b, c = np.meshgrid(g, g, g, indexing="ij")
    psd = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c >= 0.0
    k3_oracle = float(np.min(2.0 * (a + b + c)[psd]))
    assert k3_oracle == -3.0
    mc3 = MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    t0 = time.perf_counter()
    res3 = solve_maxcut_relaxation(mc3, epsilon=1e-3)
    t3 = time.perf_counter() - t0
    assert t3 < 30.0, f"three-vertex search took {t3:.1f}s"
    assert res3.converged
    assert abs(res3.value - k3_oracle) <= 1e-2
    assert np.all(np.abs(np.diag(res3.matrix) - 1.0) <= 3 * 1e-3)


def test_c07_affine_feasibility_reduction_round_trips():
    # pinned scalar cases: one uniquely solvable, one impossible
    feasible = reduce_sdp_to_shm(
        SdpFeasibilityInstance((np.array([[1.0]]),), np.array([2.0]))
    )
    cert = solve_shm(feasible.membership, 1e-6)
    assert cert.kind == FEASIBLE
    x, _ = feasible.recover(cert.point)
    assert x[0, 0] == pytest.approx(2.0, abs=1e-3)
    infeasible = reduce_sdp_to_shm(
        SdpFeasibilityInstance((np.array([[-1.0]]),), np.array([1.0]))
    )
    assert solve_shm(infeasible.membership, 1e-6).kind == WITNESS

    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(50):
        mats, b, _ = helpers.bounded_feasible_sdp(rng)
        red = reduce_sdp_to_shm(SdpFeasibilityInstance(mats, b))
        cert = solve_shm(red.membership, 1e-5, max_iters=500_000)
        assert cert.kind == FEASIBLE, f"instance {i}: {cert.kind}"
        x, _ = red.recover(cert.point)
        viol = max(
            abs(float(np.vdot(a, x)) - b_i)
            for a, b_i in zip(mats, b)
        )
        worst = max(worst, viol)
    assert worst <= 1e-3, f"worst constraint violation {worst:.2e}"


def test_c08_pair_separation_and_intersection():
    rng = np.random.default_rng(808)
    cert = solve_separation((np.diag([1.0, 2.0]),), (np.diag([4.0, 5.0]),), 1e-4)
    assert cert.kind == SEPARATED
    hp = cert.hyperplane
    left_inst = ShmInstance((np.diag([1.0, 2.0]),), np.zeros(1))
    right_inst = ShmInstance((np.diag([4.0, 5.0]),), np.zeros(1))
    errors = 0
    for inst, expect_low in ((left_inst, True), (right_inst, False)):
        for u in helpers.random_unit_vectors(rng, 5000, 2):
            side = hp.side(image(inst, SpectraplexPoint(np.array([1.0]), u[None, :])))
            if (side < 0.0) != expect_low or side == 0.0:
                errors += 1
    assert errors == 0, f"{errors} misclassified samples"

    overlap = solve_separation((np.diag([1.0, 3.0]),), (np.diag([2.0, 5.0]),), 1e-4)
    assert overlap.kind == INTERSECTING
    assert overlap.pair.gap <= 1e-4 * overlap.scale


def test_c09_iteration_budgets_and_cache_parity(corpus):
    for rec in diagonal_records(corpus):
        # the point solver walks with the spectraplex solver's atom engine:
        # a handful of steps per case, not the segment step's O(1/eps^2)
        chm = rec.extra["chm"]
        assert chm.iterations <= 50, f"{rec.label}: {chm.iterations} point-solver steps"
    for rec in corpus:
        cap = math.ceil(64.0 / rec.epsilon**2)
        if rec.cert.kind == FEASIBLE:
            assert rec.cert.iterations <= cap, f"{rec.label}: {rec.cert.iterations}"


def test_c10_eigen_backend_accuracy():
    rng = np.random.default_rng(1010)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        a = SymmetricMatrix(helpers.random_symmetric(rng, n, scale=2.0))
        fro = float(np.linalg.norm(a.entries))
        vals, vecs = jacobi_eigen(a)
        recon = vecs @ np.diag(vals) @ vecs.T
        assert np.linalg.norm(recon - a.entries) <= 1e-9 * max(fro, 1e-300)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-10
