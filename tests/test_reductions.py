"""Embedding of affine feasibility into membership, plus the cut relaxation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from spectrahull import cli, reductions
from spectrahull import (
    FEASIBLE,
    INCONCLUSIVE,
    WITNESS,
    MaxCutInstance,
    RecessionDirectionError,
    SdpFeasibilityInstance,
    SpectraplexPoint,
    image,
    maxcut_feasibility_probe,
    reduce_sdp_to_shm,
    solve_maxcut_relaxation,
    solve_shm,
    verify_certificate,
)


# ------------------------------------------------------------- sdp embedding


def test_reduce_borders_each_matrix_and_targets_zero():
    sdp = SdpFeasibilityInstance((np.array([[1.0]]),), np.array([2.0]))
    red = reduce_sdp_to_shm(sdp)
    assert red.membership.n == 2
    assert red.membership.m == 1
    np.testing.assert_array_equal(
        red.membership.mats[0].entries, np.array([[1.0, 0.0], [0.0, -2.0]])
    )
    np.testing.assert_array_equal(red.membership.b, np.zeros(1))
    assert not red.degenerate_rhs


def test_scalar_constraint_recovers_planted_value():
    # x >= 0 with 1*x = 2 has the unique solution x = 2; the embedded
    # membership splits weight 2/3 on the original block and 1/3 on the corner
    sdp = SdpFeasibilityInstance((np.array([[1.0]]),), np.array([2.0]))
    red = reduce_sdp_to_shm(sdp)
    cert = solve_shm(red.membership, 1e-6)
    assert cert.kind == FEASIBLE
    x, alpha = red.recover(cert.point)
    assert alpha == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert x[0, 0] == pytest.approx(2.0, abs=1e-4)


def test_scalar_constraint_with_wrong_sign_is_witnessed():
    # -x = 1 with x >= 0 is infeasible; the bordered family is -I, whose
    # image is the single value -1, so zero sits strictly outside
    sdp = SdpFeasibilityInstance((np.array([[-1.0]]),), np.array([1.0]))
    red = reduce_sdp_to_shm(sdp)
    cert = solve_shm(red.membership, 1e-6)
    assert cert.kind == WITNESS
    assert cert.hyperplane is not None
    assert verify_certificate(red.membership, cert).passed


def test_zero_rhs_sets_degenerate_flag():
    red = reduce_sdp_to_shm(SdpFeasibilityInstance((np.eye(2),), np.array([0.0])))
    assert red.degenerate_rhs
    # the pure corner point always maps to the zero image here
    corner = SpectraplexPoint(np.array([1.0]), np.array([[0.0, 0.0, 1.0]]))
    np.testing.assert_allclose(image(red.membership, corner), np.zeros(1))


def test_tiny_nonzero_rhs_is_not_degenerate(tmp_path, capsys):
    """A right-hand side whose squares underflow is still nonzero: the flag
    stays False and the CLI reports the recovered solution."""
    sdp = SdpFeasibilityInstance((np.eye(2),), np.array([1e-200]))
    assert not reduce_sdp_to_shm(sdp).degenerate_rhs
    path = tmp_path / "tiny-rhs.sdp"
    path.write_text("sdp\nn 2\nm 1\nb 1e-200\nA 1\n1 0\n0 1\n")
    assert cli.run(["solve", "--input", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "degenerate-rhs false" in lines
    assert sum(line.startswith("alpha ") for line in lines) == 1
    assert sum(line.startswith("solution-row ") for line in lines) == 2


def test_recover_rejects_vanishing_corner_weight():
    sdp = SdpFeasibilityInstance((np.array([[1.0]]),), np.array([2.0]))
    red = reduce_sdp_to_shm(sdp)
    no_corner = SpectraplexPoint(np.array([1.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(RecessionDirectionError):
        red.recover(no_corner)


def test_recover_rejects_mismatched_order():
    sdp = SdpFeasibilityInstance((np.array([[1.0]]),), np.array([2.0]))
    red = reduce_sdp_to_shm(sdp)
    wrong = SpectraplexPoint(np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        red.recover(wrong)


def test_instance_validation():
    with pytest.raises(ValueError):
        SdpFeasibilityInstance((), np.array([]))
    with pytest.raises(ValueError):
        SdpFeasibilityInstance((np.eye(2), np.eye(3)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SdpFeasibilityInstance((np.eye(2),), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SdpFeasibilityInstance((np.eye(2),), np.array([np.inf]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_feasible_embedding_round_trips(seed):
    rng = np.random.default_rng(seed)
    mats, b, _ = helpers.bounded_feasible_sdp(rng)
    sdp = SdpFeasibilityInstance(mats, b)
    red = reduce_sdp_to_shm(sdp)
    eps = 1e-5
    cert = solve_shm(red.membership, eps, max_iters=300_000)
    assert cert.kind == FEASIBLE
    x, alpha = red.recover(cert.point)
    assert alpha > 1e-6
    bound = 10.0 * eps * red.membership.radius_bound / alpha
    for a, b_i in zip(sdp.mats, sdp.rhs):
        assert abs(float(np.vdot(a.entries, x)) - b_i) <= bound


# ------------------------------------------------------------ cut relaxation


def test_maxcut_instance_validation():
    with pytest.raises(ValueError):
        MaxCutInstance(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        MaxCutInstance(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        MaxCutInstance(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MaxCutInstance(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        MaxCutInstance.from_edges(2, [(0, 0, 1.0)])
    # negative indices would wrap, and n itself is past the end
    for edge in [(0, -1, 1.0), (0, 3, 1.0), (2, -1, 1.0)]:
        with pytest.raises(ValueError, match=r"endpoints must lie in \[0, 3\)"):
            MaxCutInstance.from_edges(3, [edge])


def test_from_edges_accumulates_parallel_edges():
    mc = MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 0, 0.5), (1, 2, 2.0)])
    assert mc.n == 3
    assert mc.weights[0, 1] == 1.5
    assert mc.weights[1, 0] == 1.5
    assert mc.weights[1, 2] == 2.0
    assert mc.weights[0, 2] == 0.0


def test_probe_instance_layout():
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    inst, _ = maxcut_feasibility_probe(mc, 0.0, 1e-2, max_iters=0)
    assert inst.m == 3
    np.testing.assert_array_equal(inst.mats[0].entries, mc.weights)
    np.testing.assert_array_equal(inst.mats[1].entries, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(inst.b, np.array([0.0, 0.5, 0.5]))


def test_probe_target_at_minus_two_is_exactly_achievable():
    # the opposite-signs unit vector reaches value -1 per vertex pair, which
    # is the two-vertex optimum after undoing the trace scaling
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    inst, _ = maxcut_feasibility_probe(mc, -2.0, 1e-2, max_iters=0)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    pt = SpectraplexPoint(np.array([1.0]), u[None, :])
    np.testing.assert_allclose(image(inst, pt), inst.b, atol=1e-15)


def test_probe_verdicts_bracket_the_two_vertex_optimum():
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    _, at_zero = maxcut_feasibility_probe(mc, 0.0, 1e-3, max_iters=50_000)
    assert at_zero.kind == FEASIBLE
    _, inside = maxcut_feasibility_probe(mc, -1.9, 1e-3, max_iters=50_000)
    assert inside.kind == FEASIBLE
    _, outside = maxcut_feasibility_probe(mc, -3.0, 1e-3, max_iters=50_000)
    assert outside.kind == WITNESS


def test_two_vertex_relaxation_value():
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    res = solve_maxcut_relaxation(mc, epsilon=1e-2)
    assert res.converged
    assert res.value == pytest.approx(-2.0, abs=0.05)
    assert res.upper - res.lower <= 1e-2 + 1e-12
    assert np.all(np.abs(np.diag(res.matrix) - 1.0) <= mc.n * 1e-2)
    assert len(res.trace) > 0
    kinds = {FEASIBLE, WITNESS, INCONCLUSIVE}
    assert all(rec.kind in kinds for rec in res.trace)
    assert res.trace[0].w == pytest.approx(-mc.n * np.linalg.norm(mc.weights))


def test_empty_graph_short_circuits():
    res = solve_maxcut_relaxation(MaxCutInstance(np.zeros((3, 3))), epsilon=1e-2)
    assert res.converged
    assert res.value == 0.0
    np.testing.assert_array_equal(res.matrix, np.eye(3))
    assert res.trace == ()


def test_cut_upper_bound_matches_hand_count():
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    # total weight 2, relaxation value -2: the bound lands on the true cut 1
    assert mc.cut_upper_bound(-2.0) == pytest.approx(1.0)


def test_relaxation_rejects_bad_epsilon():
    mc = MaxCutInstance.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        solve_maxcut_relaxation(mc, epsilon=0.0)
    # the rule the CLI's maxcut --epsilon applies, checked before any probe
    k3 = MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    for eps in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            solve_maxcut_relaxation(k3, epsilon=eps)


def _graph_edges(name):
    if name[0] == "K" and "," in name:
        a, b = (int(k) for k in name[1:].split(","))
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    n = int(name[1:])
    if name[0] == "K":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, [(i, (i + 1) % n) for i in range(n)]


@pytest.mark.parametrize("name", ["K3", "K4", "C4", "C6", "K2,3"])
def test_relaxation_does_not_depend_on_vertex_labels(name):
    """Relabelled graphs give the same bracket at a bounded, similar cost."""
    n, edges = _graph_edges(name)
    rng = np.random.default_rng(17)
    perms = [np.arange(n)] + [rng.permutation(n) for _ in range(3)]
    results = []
    for p in perms:
        mc = MaxCutInstance.from_edges(n, [(p[i], p[j], 1.0) for i, j in edges])
        results.append(solve_maxcut_relaxation(mc, epsilon=1e-2))
    steps = [sum(rec.iterations for rec in res.trace) for res in results]
    for res in results:
        assert res.status == "converged", name
        assert res.lower == results[0].lower and res.upper == results[0].upper, name
    assert max(steps) <= 200, (name, steps)
    assert max(steps) <= 2 * min(steps), (name, steps)


def _closed_form(name):
    """Relaxation minimum of <W, Y> for unit weights, by the graph's symmetry:
    -n on K_n, -2|E| on bipartite graphs, -2n cos(pi/n) on odd cycles."""
    n, edges = _graph_edges(name)
    if name[0] == "K" and "," not in name:
        return -float(n)
    if name[0] == "C" and n % 2 == 1:
        return -2.0 * n * math.cos(math.pi / n)
    return -2.0 * len(edges)


def _check_attained(mc, res):
    """``matrix`` is PSD with a unit diagonal and attains ``upper``, the least
    value a probe attained; ``lower`` is the best witness floor."""
    w, y = mc.weights, res.matrix
    assert float(np.abs(y - y.T).max()) <= 1e-12 * float(np.abs(y).max())
    assert float(np.linalg.eigvalsh(y)[0]) >= -1e-12 * mc.n
    assert float(np.abs(np.diag(y) - 1.0).max()) <= 1e-12
    assert abs(float(np.vdot(w, y)) - res.upper) <= 1e-9 * abs(res.upper)
    assert res.lower == max(rec.floor for rec in res.trace if rec.floor is not None)
    assert res.upper == min(rec.attained for rec in res.trace if rec.attained is not None)


def _check_certified_bracket(mc, res, closed, epsilon):
    """A converged bracket of proven ends that contains the closed form."""
    assert res.converged
    tol = 1e-12 * (1.0 + abs(closed))
    assert res.lower <= closed + tol, (res.lower, closed)
    assert closed <= res.upper + tol, (res.upper, closed)
    assert res.upper - res.lower <= epsilon + 1e-12
    _check_attained(mc, res)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_relaxation_bracket_is_certified(epsilon):
    """The lower end is a proven bound, the upper end is attained, and a few
    probes suffice.  K3 at both tolerances, K2,3 at 1e-3 and K2,1 at 1e-2
    once gave brackets wholly below the optimum, closed by a feasible probe
    level up to the probe tolerance under it."""
    rng = np.random.default_rng(5)
    for wt in rng.uniform(0.1, 10.0, size=4):
        mc = MaxCutInstance.from_edges(2, [(0, 1, float(wt))])
        res = solve_maxcut_relaxation(mc, epsilon=epsilon)
        _check_certified_bracket(mc, res, -2.0 * wt, epsilon)
        assert len(res.trace) <= 2, (wt, len(res.trace))
    for name in ["K3", "K4", "C4", "C5", "C6", "K2,3", "K2,1"]:
        n, edges = _graph_edges(name)
        mc = MaxCutInstance.from_edges(n, [(i, j, 1.0) for i, j in edges])
        res = solve_maxcut_relaxation(mc, epsilon=epsilon)
        _check_certified_bracket(mc, res, _closed_form(name), epsilon)
        assert len(res.trace) <= (6 if epsilon == 1e-2 else 7), (name, len(res.trace))


@pytest.mark.parametrize("name", ["C5", "C7"])
def test_odd_cycle_brackets_contain_the_optimum_under_relabelling(name):
    n, edges = _graph_edges(name)
    rng = np.random.default_rng(3)
    for _ in range(8):
        p = rng.permutation(n)
        mc = MaxCutInstance.from_edges(n, [(p[i], p[j], 1.0) for i, j in edges])
        res = solve_maxcut_relaxation(mc, epsilon=1e-2)
        _check_certified_bracket(mc, res, _closed_form(name), 1e-2)


def test_inconclusive_probes_abort_with_a_sound_bracket():
    # one step per probe: the widened retry at the first floor is still
    # inconclusive, and the run ends with what the earlier probes proved
    n, edges = _graph_edges("K3")
    mc = MaxCutInstance.from_edges(n, [(i, j, 1.0) for i, j in edges])
    res = solve_maxcut_relaxation(mc, epsilon=1e-2, max_iters=1)
    assert res.status == "aborted"
    assert [rec.kind for rec in res.trace[-2:]] == [INCONCLUSIVE, INCONCLUSIVE]
    assert res.lower <= -3.0 <= res.upper
    assert res.upper - res.lower > 1e-2
    _check_attained(mc, res)


def test_floor_retries_run_out_with_a_sound_bracket(monkeypatch):
    """A feasible answer at the floor that leaves the bracket open is retried
    with a tighter tolerance; with no retries allowed the run aborts there,
    and its bracket still overlaps the converged one."""
    rng = np.random.default_rng(0)
    edges = [
        (i, j, float(rng.uniform(0.1, 1.0)))
        for i in range(12) for j in range(i + 1, 12) if rng.uniform() < 0.4
    ]
    mc = MaxCutInstance.from_edges(12, edges)
    full = solve_maxcut_relaxation(mc, epsilon=1e-3)
    assert full.converged
    assert any(
        a.kind == FEASIBLE and a.w == b.w for a, b in zip(full.trace, full.trace[1:])
    ), "no feasible probe at the floor was retried"
    _check_attained(mc, full)
    monkeypatch.setattr(reductions, "FLOOR_RETRIES", 0)
    res = solve_maxcut_relaxation(mc, epsilon=1e-3)
    assert res.status == "aborted"
    assert res.trace[-1].kind == FEASIBLE and res.trace[-1].w == res.lower
    assert res.lower <= full.upper and full.lower <= res.upper
    _check_attained(mc, res)


@pytest.mark.parametrize("name", ["K2", "K3", "C5", "K2,3"])
def test_witness_floor_lies_between_level_and_optimum(name):
    n, edges = _graph_edges(name)
    mc = MaxCutInstance.from_edges(n, [(i, j, 1.0) for i, j in edges])
    closed = _closed_form(name)
    norm_w = float(np.linalg.norm(mc.weights))
    for share in (1.5, 1.1, 1.02):
        w = share * closed
        _, cert = maxcut_feasibility_probe(mc, w, 1e-3 / n, max_iters=50_000)
        assert cert.kind == WITNESS
        floor = reductions._witness_floor(cert, n, norm_w)
        assert floor is not None
        assert w / n <= floor <= closed / n + 1e-12
        # the spectral bound of the witness normal, recomputed by eigvalsh
        c = cert.hyperplane.normal
        lam = float(np.linalg.eigvalsh(c[0] * mc.weights + np.diag(c[1:]))[0])
        spectral = (lam - float(c[1:].sum()) / n) / c[0]
        assert spectral - 1e-9 * norm_w <= floor <= spectral


@pytest.mark.parametrize("epsilon", [1.5, 5.0])
def test_relaxation_with_large_epsilon_converges(epsilon):
    for name in ["K2", "K3", "C5"]:
        n, edges = _graph_edges(name)
        mc = MaxCutInstance.from_edges(n, [(i, j, 1.0) for i, j in edges])
        res = solve_maxcut_relaxation(mc, epsilon=epsilon)
        assert res.converged, name
        assert np.all(np.isfinite(res.matrix)), name
        assert res.lower <= _closed_form(name) + 1e-12 * n, name
        assert res.upper - res.lower <= epsilon + 1e-12, name


def test_probes_share_one_matrix_family():
    mc = MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    first, _ = maxcut_feasibility_probe(mc, -1.0, 1e-2, max_iters=0)
    second, _ = maxcut_feasibility_probe(mc, -2.0, 1e-2, max_iters=0)
    assert all(a is b for a, b in zip(first.mats, second.mats))
    np.testing.assert_array_equal(second.b, np.array([-2.0, 1.0, 1.0, 1.0]) / 3.0)


def test_maxcut_instance_rejects_overflowing_weights():
    for edges in ([(0, 1, 1e308)], [(0, 1, 1e200)], [(0, 1, 1e308), (1, 0, 1e308)]):
        with pytest.raises(ValueError, match="weights"):
            MaxCutInstance.from_edges(2, edges)
    big = MaxCutInstance.from_edges(2, [(0, 1, 1e150)])
    assert np.isfinite(big.weights).all()
