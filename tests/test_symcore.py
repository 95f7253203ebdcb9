"""Frozen values and invariants for the symmetric-matrix primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrahull import (
    DimensionError,
    ShmInstance,
    SpectraplexPoint,
    SymmetricMatrix,
    bind,
    frobenius_dot,
    gershgorin_bound,
    image,
    quad_form,
    radius_bound,
    rank_one_image,
)
from spectrahull.symcore import _term_images

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


def test_bind_caches_consistent_images():
    rng = np.random.default_rng(3)
    inst = ShmInstance(
        tuple(helpers.random_symmetric(rng, 3) for _ in range(2)), rng.standard_normal(2)
    )
    p = SpectraplexPoint(
        rng.dirichlet(np.ones(3)), helpers.random_unit_vectors(rng, 3, 3)
    )
    bound = bind(inst, p)
    assert np.allclose(bound.image, image(inst, p))
    assert np.allclose(bound.weights @ bound.term_images, bound.image)


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
