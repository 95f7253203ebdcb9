"""LAPACK decomposition with its error bound: frozen cases plus spectra
invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrahull import (
    SymmetricMatrix,
    certified_min_eig,
    jacobi_eigen,
)

import helpers

TWO_ONE = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
OFFDIAG = SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _reconstruct(vals, vecs):
    return vecs @ np.diag(vals) @ vecs.T


# --------------------------------------------------------------------- jacobi


def test_jacobi_frozen_diagonal():
    vals, vecs = jacobi_eigen(SymmetricMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(vals, [1.0, 3.0])
    # ascending order pairs the first column with the small eigenvalue
    assert np.allclose(np.abs(vecs[:, 0]), [0.0, 1.0])


def test_jacobi_frozen_coupled():
    vals, _ = jacobi_eigen(TWO_ONE)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)
    vals2, _ = jacobi_eigen(OFFDIAG)
    assert np.allclose(vals2, [-1.0, 1.0], atol=1e-12)


def test_jacobi_order_one():
    vals, vecs = jacobi_eigen(SymmetricMatrix(np.array([[4.5]])))
    assert vals[0] == 4.5
    assert vecs[0, 0] == 1.0


def test_jacobi_zero_matrix():
    vals, vecs = jacobi_eigen(SymmetricMatrix(np.zeros((3, 3))))
    assert np.all(vals == 0.0)
    assert np.allclose(vecs, np.eye(3))


def test_jacobi_takes_no_tol():
    # the LAPACK route has no stopping tolerance to tune
    with pytest.raises(TypeError):
        jacobi_eigen(TWO_ONE, tol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_jacobi_reconstruction_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = SymmetricMatrix(helpers.random_symmetric(rng, n, scale=5.0))
    vals, vecs = jacobi_eigen(a)
    scale = max(1.0, np.linalg.norm(a.entries))
    assert np.abs(_reconstruct(vals, vecs) - a.entries).max() <= 1e-9 * scale
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-10
    assert np.all(np.diff(vals) >= 0.0)


# ------------------------------------------------------------- certified path


def test_certified_min_eig_frozen():
    lam, v, _ = certified_min_eig(SymmetricMatrix(np.diag([1.0, 2.0, 3.0])))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(v), [1.0, 0.0, 0.0])
    lam2, v2, _ = certified_min_eig(OFFDIAG)
    assert lam2 == pytest.approx(-1.0, abs=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(v2), [s, s])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_certified_min_eig_shift_consistency(seed):
    """Adding c I moves the bottom eigenvalue by c and keeps its eigenspace."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    a = helpers.random_symmetric(rng, n)
    c = float(rng.uniform(-2.0, 2.0))
    lam, v, _ = certified_min_eig(SymmetricMatrix(a))
    lam_s, v_s, _ = certified_min_eig(SymmetricMatrix(a + c * np.eye(n)))
    assert lam_s == pytest.approx(lam + c, abs=1e-9)
    # compare through the Rayleigh quotient to stay stable under degeneracy
    assert v_s @ a @ v_s == pytest.approx(lam, abs=1e-8)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_certified_vector_attains_value(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    a = SymmetricMatrix(helpers.random_symmetric(rng, n, scale=4.0))
    lam, v, _ = certified_min_eig(a)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    scale = max(1.0, np.linalg.norm(a.entries))
    assert v @ a.entries @ v == pytest.approx(lam, abs=1e-9 * scale)


def _exactly_positive_definite(a: np.ndarray, shift: Fraction) -> bool:
    """Whether a - shift*I is positive definite, decided in exact rationals.

    Gaussian elimination without pivoting keeps every pivot positive exactly
    when all leading principal minors are, which is Sylvester's criterion.
    """
    n = a.shape[0]
    m = [[Fraction(float(a[i, j])) - (shift if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
    return True


def _planted_spectrum(rng, n):
    """Eigenvalues with repeats and tight clusters at one of many scales."""
    kind = int(rng.integers(0, 3))
    if kind == 0:  # one value repeated, a few stragglers
        lam = np.full(n, rng.standard_normal())
        lam[: int(rng.integers(0, n))] = rng.standard_normal()
    elif kind == 1:  # a cluster 1e-10 wide around the bottom
        lam = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        lam[:k] = lam.min() + 1e-10 * rng.random(k)
    else:  # well spread, both signs
        lam = rng.uniform(-1.0, 1.0, n)
    return lam * 10.0 ** rng.uniform(-8.0, 8.0)


def _assert_bound_brackets(entries: np.ndarray, tight: float) -> None:
    """|lambda_min - value| <= delta <= tight, the bracket checked in exact
    rational arithmetic."""
    lam, _, delta = certified_min_eig(SymmetricMatrix(entries))
    assert 0.0 < delta <= tight
    lam_q, delta_q = Fraction(lam), Fraction(delta)
    assert _exactly_positive_definite(entries, lam_q - delta_q)
    assert not _exactly_positive_definite(entries, lam_q + delta_q)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_certified_bound_brackets_planted_spectrum(seed):
    """|lambda_min - value| <= delta, checked in exact rational arithmetic."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = SymmetricMatrix((q * _planted_spectrum(rng, n)) @ q.T)
    _assert_bound_brackets(a.entries, 1e-12 * max(np.linalg.norm(a.entries), 1e-300))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certified_bound_brackets_planted_spectrum_scaled_by_2_600(seed):
    """At a scale whose squares overflow, the bound is taken on the matrix
    scaled down by a power of two, with no warning, and still brackets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = SymmetricMatrix((q * np.ldexp(_planted_spectrum(rng, n), 600)) @ q.T)
    # the Frobenius norm itself would overflow: measure it scaled
    frob = math.ldexp(float(np.linalg.norm(np.ldexp(a.entries, -600))), 600)
    _assert_bound_brackets(a.entries, 1e-12 * frob)


def test_certified_bound_charges_entries_scaled_into_subnormals():
    """Scaling a matrix whose largest entry is near the top of the float
    range pushes its small entries below the normal range, where some lose
    bits; the bound still brackets the exact smallest eigenvalue."""
    big = 0.7 * np.finfo(float).max
    a = np.array([[big, 0.1, 1e-3], [0.1, 3.0, 0.2], [1e-3, 0.2, 1.0 / 3.0]])
    assert np.all(np.ldexp(np.abs(a[1:, 1:]), -math.frexp(big)[1]) < np.finfo(float).tiny)
    _assert_bound_brackets(a, 1e-12 * big)


def test_certified_bound_skipped_below_bar():
    a = SymmetricMatrix(np.diag([1.0, 2.0]))
    assert certified_min_eig(a, bar=1.5)[2] == math.inf
    lam, _, delta = certified_min_eig(a, bar=0.5)
    assert lam == 1.0 and 0.0 < delta < 1e-14
