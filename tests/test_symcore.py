"""Frozen values and invariants for the symmetric-matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrahull import (
    DimensionError,
    MaxCutInstance,
    SdpFeasibilityInstance,
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    frobenius_dot,
    gershgorin_bound,
    image,
    maxcut_feasibility_probe,
    quad_form,
    radius_bound,
    rank_one_image,
    reduce_sdp_to_shm,
)
from spectrahull.symcore import ASYMMETRY_TOL, _term_images

import helpers

OFFDIAG = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def small_symmetric(max_n=6, scale=10.0):
    """Strategy producing a SymmetricMatrix with bounded finite entries."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-scale, scale, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        ).map(lambda vals: SymmetricMatrix(_symmetrize(np.array(vals).reshape(n, n))))
    )


def _symmetrize(a):
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------- construction


def test_symmetric_matrix_symmetrizes_roundoff():
    a = np.array([[1.0, 2.0 + 1e-13], [2.0, 3.0]])
    m = SymmetricMatrix(a)
    assert m.entries[0, 1] == m.entries[1, 0]


def test_symmetric_matrix_rejects_gross_asymmetry():
    with pytest.raises(ValueError):
        SymmetricMatrix(np.array([[1.0, 2.0], [0.5, 3.0]]))


def test_symmetric_matrix_rejects_non_square():
    with pytest.raises(DimensionError):
        SymmetricMatrix(np.zeros((2, 3)))


def test_symmetric_matrix_rejects_nan():
    with pytest.raises(ValueError):
        SymmetricMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_entries_are_read_only():
    m = SymmetricMatrix.identity(2)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_spectraplex_point_rejects_bad_weights():
    with pytest.raises(ValueError):
        SpectraplexPoint(np.array([0.5, 0.4]), np.eye(2))
    with pytest.raises(ValueError):
        SpectraplexPoint(np.array([1.5, -0.5]), np.eye(2))


def test_spectraplex_point_rejects_non_unit_factor():
    with pytest.raises(ValueError):
        SpectraplexPoint(np.array([1.0]), np.array([[1.0, 1.0]]))


def test_rank_one_normalizes():
    p = SpectraplexPoint.rank_one(np.array([3.0, 4.0]))
    assert np.allclose(p.vectors[0], [0.6, 0.8])
    assert p.weights[0] == 1.0


def test_dense_is_psd_unit_trace():
    rng = np.random.default_rng(7)
    v = helpers.random_unit_vectors(rng, 4, 3)
    w = rng.dirichlet(np.ones(4))
    x = SpectraplexPoint(w, v).dense()
    assert abs(np.trace(x) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(x)[0] > -1e-12


def test_uniform_diagonal_is_scaled_identity():
    p = SpectraplexPoint.uniform_diagonal(3)
    assert np.allclose(p.dense(), np.eye(3) / 3.0)


def test_instance_requires_matching_orders():
    with pytest.raises(DimensionError):
        ShmInstance((np.eye(2), np.eye(3)), np.zeros(2))
    with pytest.raises(DimensionError):
        ShmInstance((np.eye(2),), np.zeros(2))


# -------------------------------------------------------------- frozen values


def test_frobenius_dot_frozen():
    assert frobenius_dot(SymmetricMatrix.identity(2), SymmetricMatrix.identity(2)) == 2.0
    assert (
        frobenius_dot(SymmetricMatrix.diag([1.0, 2.0]), SymmetricMatrix.diag([3.0, 4.0]))
        == 11.0
    )
    assert frobenius_dot(OFFDIAG, OFFDIAG) == 2.0


def test_frobenius_dot_order_mismatch():
    with pytest.raises(DimensionError):
        frobenius_dot(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3))


def test_quad_form_frozen():
    assert quad_form(SymmetricMatrix.diag([1.0, 2.0, 3.0]), [0.0, 0.0, 1.0]) == 3.0
    s = 1.0 / np.sqrt(2.0)
    assert quad_form(OFFDIAG, [s, s]) == pytest.approx(1.0, abs=1e-15)
    two_one = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert quad_form(two_one, [s, -s]) == pytest.approx(1.0, abs=1e-15)


def test_quad_form_rejects_zero_vector():
    with pytest.raises(ValueError):
        quad_form(OFFDIAG, [0.0, 0.0])


def test_image_frozen():
    coords = ShmInstance((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.zeros(2))
    assert np.allclose(
        image(coords, SpectraplexPoint.uniform_diagonal(2)), [0.5, 0.5]
    )
    assert np.allclose(rank_one_image(coords, [1.0, 0.0]), [1.0, 0.0])
    off = ShmInstance((OFFDIAG,), np.zeros(1))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(rank_one_image(off, [s, s]), [1.0])


def test_radius_bound_frozen():
    assert radius_bound((np.diag([1.0, 2.0, 3.0]),), [2.0]) == pytest.approx(
        2.0 + np.sqrt(14.0)
    )
    assert radius_bound((np.zeros((2, 2)),), [0.0]) == 0.0
    half = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert radius_bound((half,), [2.0]) == pytest.approx(np.sqrt(0.5) + 2.0)


def test_gershgorin_frozen():
    assert gershgorin_bound(SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))) == 3.0
    assert gershgorin_bound(SymmetricMatrix(np.array([[1.0, 2.0], [2.0, 5.0]]))) == 7.0
    assert gershgorin_bound(OFFDIAG) == 1.0


# ----------------------------------------------------------------- invariants


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_image_matches_dense_contraction(seed):
    """The factored image equals Frobenius products against the dense matrix."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
    inst = ShmInstance(mats, rng.standard_normal(m))
    t = int(rng.integers(1, 5))
    p = SpectraplexPoint(
        rng.dirichlet(np.ones(t)), helpers.random_unit_vectors(rng, t, n)
    )
    dense = p.dense()
    expect = np.array([np.vdot(a, dense) for a in mats])
    assert np.allclose(image(inst, p), expect, atol=1e-10 * max(1.0, inst.radius_bound))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_term_images_kernel_matches_dense_contraction(seed):
    """Row t, column k of the kernel is tr(A_k v_t v_t^T) to 1e-12 relative.

    Relative to ||A_k||_F ||v_t||^2, which bounds the contraction's terms.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 41))
    m = int(rng.integers(1, 13))
    t = int(rng.integers(1, 13))
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    mats = tuple(helpers.random_symmetric(rng, n, scale=scale) for _ in range(m))
    inst = ShmInstance(mats, np.zeros(m))
    vectors = rng.standard_normal((t, n))
    got = _term_images(inst, vectors)
    assert got.shape == (t, m)
    for row, v in zip(got, vectors):
        outer = np.outer(v, v)
        for k, a in enumerate(inst.stack):
            expect = float(np.trace(a @ outer))
            assert abs(row[k] - expect) <= 1e-12 * float(np.linalg.norm(a)) * float(v @ v)


@given(small_symmetric())
@settings(max_examples=60, deadline=None)
def test_quad_form_equals_rank_one_dot(a):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.n)
    v /= np.linalg.norm(v)
    outer = SymmetricMatrix(np.outer(v, v))
    assert quad_form(a, v) == pytest.approx(
        frobenius_dot(a, outer), abs=1e-12 * max(1.0, a.frob)
    )


@given(small_symmetric())
@settings(max_examples=60, deadline=None)
def test_gershgorin_dominates_spectrum(a):
    vals = np.linalg.eigvalsh(a.entries)
    assert np.abs(vals).max() <= gershgorin_bound(a) + 1e-9 * max(1.0, a.frob)


def test_radius_bound_dominates_rank_one_images():
    """Exhaustive rank-one sampling never escapes the claimed radius."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 5))
        mats = tuple(helpers.random_symmetric(rng, n) for _ in range(m))
        b = rng.standard_normal(m)
        inst = ShmInstance(mats, b)
        v = helpers.random_unit_vectors(rng, 500, n)
        imgs = np.einsum("kij,ti,tj->tk", inst.stack, v, v)
        dists = np.linalg.norm(imgs - b, axis=1)
        assert dists.max() <= inst.radius_bound + 1e-12


# ------------------------------------------------------ one copy of the family


def _built_five_ways():
    """(how, instance) for every way an instance comes to exist."""
    rng = np.random.default_rng(5)
    raw = tuple(helpers.random_symmetric(rng, 3) for _ in range(2))
    from_raw = ShmInstance(raw, np.ones(2))
    from_sym = ShmInstance(tuple(SymmetricMatrix(a) for a in raw), np.ones(2))
    sdp = SdpFeasibilityInstance(raw, np.array([1.0, -1.0]))
    mc = MaxCutInstance.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    probe, _ = maxcut_feasibility_probe(mc, -1.0, 1e-2, max_iters=0)
    return [
        ("raw", from_raw),
        ("symmetric", from_sym),
        ("retargeted", from_raw._with_target(np.zeros(2))),
        ("sdp", reduce_sdp_to_shm(sdp).membership),
        ("probe", probe),
    ]


@pytest.mark.parametrize("how", ["raw", "symmetric", "retargeted", "sdp", "probe"])
def test_mats_are_read_only_views_of_the_stack(how):
    inst = dict(_built_five_ways())[how]
    assert not inst.stack.flags.writeable
    assert inst.stack.shape == (inst.m, inst.n, inst.n)
    for k, a in enumerate(inst.mats):
        assert not a.entries.flags.writeable
        assert np.shares_memory(a.entries, inst.stack)
        np.testing.assert_array_equal(a.entries, inst.stack[k])
    with pytest.raises(ValueError):
        inst.mats[0].entries[0, 0] = 1.0


@pytest.mark.parametrize("as_array", [False, True])
def test_mutating_the_inputs_leaves_the_instance_unchanged(as_array):
    rng = np.random.default_rng(6)
    raw = [helpers.random_symmetric(rng, 3) for _ in range(2)]
    family = np.stack(raw) if as_array else tuple(raw)
    b = np.array([0.5, -0.5])
    inst = ShmInstance(family, b)
    stack, target, bound = inst.stack.copy(), inst.b.copy(), inst.radius_bound
    for a in family:
        a[...] = 7.0
    b[...] = 7.0
    np.testing.assert_array_equal(inst.stack, stack)
    np.testing.assert_array_equal(inst.b, target)
    assert inst.radius_bound == bound


def test_retargeted_probes_share_one_stack_and_match_fresh_bounds():
    mc = MaxCutInstance.from_edges(4, [(0, 1, 1.0), (1, 2, 2.5), (2, 3, 0.3), (0, 3, 1.7)])
    first, _ = maxcut_feasibility_probe(mc, -1.3, 1e-2, max_iters=0)
    second, _ = maxcut_feasibility_probe(mc, -2.9, 1e-2, max_iters=0)
    assert first.stack is second.stack
    assert first.flat is second.flat
    assert first.mats is second.mats
    for inst in (first, second):
        fresh = ShmInstance(inst.mats, inst.b)
        assert inst.radius_bound == fresh.radius_bound
        assert inst.radius_bound == radius_bound(inst.mats, inst.b)
        np.testing.assert_array_equal(inst.stack, fresh.stack)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_instance_radius_bound_is_the_public_bound_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    scale = 10.0 ** rng.integers(-150, 150, size=m)
    raw = tuple(helpers.random_symmetric(rng, n) * s for s in scale)
    b = rng.standard_normal(m) * 10.0 ** rng.integers(-5, 5)
    for inst in (ShmInstance(raw, b), ShmInstance(raw, np.zeros(m))._with_target(b)):
        assert inst.radius_bound == radius_bound(raw, b)
        assert inst.radius_bound == radius_bound(inst.mats, b)


def test_retargeting_checks_the_new_target():
    inst = ShmInstance((np.eye(2), np.diag([1.0, 0.0])), np.zeros(2))
    with pytest.raises(DimensionError):
        inst._with_target(np.zeros(3))
    with pytest.raises(ValueError):
        inst._with_target(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        inst._with_target(np.array([1e308, 1e308]))
    np.testing.assert_array_equal(inst.b, np.zeros(2))


# ------------------------------------- vectorised validation = per-matrix checks

_FLAWS = ("none", "none", "roundoff", "skew", "nonfinite", "nonsquare", "order", "large", "symmetric")


@st.composite
def _families(draw):
    """Families whose members are sometimes asymmetric beyond tolerance,
    non-finite, non-square, of another order or very large; "symmetric"
    members are ``SymmetricMatrix`` objects, the rest raw arrays."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    family = []
    for _ in range(m):
        flaw = draw(st.sampled_from(_FLAWS))
        rows = n + (flaw == "order")
        cols = rows + (flaw == "nonsquare")
        vals = draw(st.lists(st.floats(-10.0, 10.0), min_size=rows * cols, max_size=rows * cols))
        a = np.array(vals).reshape(rows, cols)
        if rows == cols:
            a = _symmetrize(a)
        if flaw == "roundoff" and n > 1:
            a[0, -1] += 1e-12 * max(1.0, float(np.abs(a).max()))
        elif flaw == "skew" and n > 1:
            a[0, -1] += draw(st.floats(1e-6, 10.0))
        elif flaw == "nonfinite":
            a.flat[draw(st.integers(0, a.size - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf])
            )
        elif flaw == "large":
            # past the squared-entry range of the one-pass checks, but with a
            # finite Frobenius norm
            a = a * 1e152
        family.append(SymmetricMatrix(a) if flaw == "symmetric" else a)
    return family


def _reference_stack(family):
    """What building each member as a SymmetricMatrix gives: the stack, or the
    (class, message) of the first failure."""
    try:
        mats = [a if isinstance(a, SymmetricMatrix) else SymmetricMatrix(a) for a in family]
    except ValueError as err:
        return type(err), str(err)
    if any(a.n != mats[0].n for a in mats):
        return DimensionError, "all matrices must share one order"
    return np.stack([a.entries for a in mats])


@given(_families())
@settings(max_examples=300, deadline=None)
def test_one_pass_validation_matches_per_matrix_checks(family):
    want = _reference_stack(family)
    try:
        inst = ShmInstance(family, np.zeros(len(family)))
    except ValueError as err:
        assert isinstance(want, tuple), f"rejected a valid family: {err}"
        assert (type(err), str(err)) == want
        return
    assert not isinstance(want, tuple), f"accepted a family that raises {want}"
    assert inst.stack.dtype == want.dtype and inst.stack.shape == want.shape
    assert inst.stack.tobytes() == want.tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sdp_border_matches_per_matrix_bordering(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    sdp = SdpFeasibilityInstance(
        tuple(helpers.random_symmetric(rng, n) for _ in range(m)), rng.standard_normal(m)
    )
    old = []
    for a, b_i in zip(sdp.mats, sdp.rhs):
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = a.entries
        bordered[n, n] = -b_i
        old.append(SymmetricMatrix(bordered).entries)
    inst = reduce_sdp_to_shm(sdp).membership
    assert inst.stack.tobytes() == np.stack(old).tobytes()
    assert inst.radius_bound == ShmInstance(tuple(old), np.zeros(m)).radius_bound


# ------------------------------------------------------------------- overflow


def test_huge_entries_symmetrize_without_overflow():
    a = np.diag([1e308, 1.0])
    try:
        m = SymmetricMatrix(a)
    except ValueError:
        return
    assert np.isfinite(m.entries).all()
    np.testing.assert_array_equal(m.entries, a)
    flipped = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        SymmetricMatrix(flipped)


def test_instance_rejects_an_overflowing_radius_bound():
    with pytest.raises(ValueError, match="radius bound"):
        ShmInstance((np.diag([1e308, 1.0]),), [0.5])
    with pytest.raises(ValueError, match="radius bound"):
        ShmInstance((np.eye(2), np.eye(2)), [1e308, 1e308])


def test_one_pass_skew_threshold_is_bit_exact():
    """Around the tolerance boundary, float by float, the one-pass checks
    accept exactly the skews that SymmetricMatrix accepts."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        base = helpers.random_symmetric(rng, n)
        base[0, 1] = base[1, 0] = 0.0
        skew = ASYMMETRY_TOL * float(np.linalg.norm(base))
        for _ in range(12):
            skew = np.nextafter(skew, 0.0)
        for _ in range(24):
            a = base.copy()
            a[0, 1] = skew
            try:
                SymmetricMatrix(a)
                want = True
            except ValueError:
                want = False
            try:
                ShmInstance((base, a), np.zeros(2))
                got = True
            except ValueError:
                got = False
            assert got == want, (n, skew)
            skew = np.nextafter(skew, 1.0)
