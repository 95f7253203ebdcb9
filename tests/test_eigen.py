"""LAPACK decomposition with its error bound: frozen cases plus spectra
invariants; the lowest-pair route and its fallback to the decomposition."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectrahull.eigen
from spectrahull import (
    FEASIBLE,
    WITNESS,
    ShmInstance,
    SymmetricMatrix,
    certified_min_eig,
    jacobi_eigen,
    pivot_oracle,
    solve_shm,
    verify_certificate,
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


# --------------------------------------------------------- lowest-pair route

needs_dsyevr = pytest.mark.skipif(
    spectrahull.eigen._dsyevr() is None, reason="numpy's LAPACK exports no dsyevr"
)


def _planted(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SymmetricMatrix((q * _planted_spectrum(rng, n)) @ q.T)


@needs_dsyevr
@pytest.mark.parametrize("n", [16, 24, 32, 64])
def test_lowest_pair_agrees_with_the_certified_decomposition(n):
    """dsyevr's lowest value lies within the certified error bound of
    eigh's, its vector is unit, and the vector's quadratic form lies within
    that bound of the value: on repeats, 1e-10 clusters and scales 10^+-8."""
    rng = np.random.default_rng(n)
    for _ in range(30):
        a = _planted(rng, n)
        lam, _, delta = certified_min_eig(a)
        vals, vecs = jacobi_eigen(a, lowest=1)
        assert vals.shape == (1,) and vecs.shape == (n, 1)
        v = vecs[:, 0]
        assert abs(vals[0] - lam) <= delta
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v @ a.entries @ v - vals[0]) <= delta


@needs_dsyevr
def test_lowest_pairs_are_fresh_arrays():
    """Each call hands out its own arrays, so a caller that keeps or writes
    into one answer changes no later answer."""
    rng = np.random.default_rng(3)
    a, b = _planted(rng, 20), _planted(rng, 20)
    first = jacobi_eigen(a, lowest=2)
    kept = first[0].copy(), first[1].copy()
    jacobi_eigen(b, lowest=2)
    np.testing.assert_array_equal(first[0], kept[0])
    np.testing.assert_array_equal(first[1], kept[1])
    first[1][:] = np.nan
    again = jacobi_eigen(a, lowest=2)
    np.testing.assert_array_equal(again[0], kept[0])
    np.testing.assert_array_equal(again[1], kept[1])
    with pytest.raises(ValueError):
        jacobi_eigen(a, lowest=0)


@needs_dsyevr
def test_lowest_pairs_on_threads_keep_their_own_buffers():
    """dsyevr runs with the interpreter lock released, so each thread needs
    its own workspace: four threads, each calling at order 24 on its own
    matrix with a short switch interval, all get their single-thread answers."""
    rng = np.random.default_rng(9)
    mats = [_planted(rng, 24) for _ in range(4)]
    want = [jacobi_eigen(a, lowest=1) for a in mats]
    wrong = []

    def work(i):
        for _ in range(200):
            vals, vecs = jacobi_eigen(mats[i], lowest=1)
            if vals[0] != want[i][0][0] or not np.array_equal(vecs, want[i][1]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def _pivot_case(n, seed=0):
    """A pivot matrix of order n and a bar its lowest eigenvalue clears."""
    rng = np.random.default_rng(seed)
    a = SymmetricMatrix(helpers.random_symmetric(rng, n))
    lam = float(np.linalg.eigvalsh(a.entries)[0])
    return a, lam + 0.1 * abs(lam)


def test_unavailable_route_returns_eigh_exactly(monkeypatch):
    """Without dsyevr a query at order 16 and up answers from eigh, bit for
    bit, and a direct lowest-pair request says so."""
    monkeypatch.setattr(spectrahull.eigen, "_dsyevr", lambda: None)
    for n in (16, 32):
        a, bar = _pivot_case(n)
        vals, vecs = np.linalg.eigh(a.entries)
        out = pivot_oracle(a, bar)
        assert out.found and not out.lowest_pair
        assert out.lambda_min == float(vals[0])
        np.testing.assert_array_equal(out.vector, vecs[:, 0])
        assert certified_min_eig(a, bar)[0] == float(vals[0])
        with pytest.raises(np.linalg.LinAlgError):
            jacobi_eigen(a, lowest=1)


def _corrupt(kind):
    """A lowest-pair answer the route must reject: a vector that is not
    finite, not unit or whose form misses the bar under the true bottom
    value, the true bottom vector under a value far above any bar, or a
    LAPACK failure."""

    def answer(a):
        vals, vecs = np.linalg.eigh(a.entries)
        v = vecs[:, 0]
        if kind == "error":
            raise np.linalg.LinAlgError("dsyevr failed: info 1")
        if kind == "nan":
            v = np.full(a.n, np.nan)
        elif kind == "non-unit":
            v = (1.0 + 1e-9) * v
        elif kind == "form-above-bar":
            v = vecs[:, -1]
        else:  # "value-above-bar"
            vals = vals + 1e3
        return vals[:1], v[:, None]

    return answer


@needs_dsyevr
@pytest.mark.parametrize(
    "kind", ["nan", "non-unit", "form-above-bar", "value-above-bar", "error"]
)
def test_rejected_lowest_pair_falls_through_to_eigh(monkeypatch, kind):
    """A lowest pair whose vector is not finite or not unit, whose form or
    value misses the bar, or that LAPACK failed to deliver is set aside:
    the query answers from eigh exactly, and solves keep their verdicts."""
    real = spectrahull.eigen.jacobi_eigen
    a, bar = _pivot_case(32)
    rng = np.random.default_rng(8)
    cases = [
        (ShmInstance(*helpers.spectral_case(rng, 16, 4, inside)), verdict)
        for inside, verdict in ((True, FEASIBLE), (False, WITNESS))
    ]
    honest = [solve_shm(inst, 1e-4) for inst, _ in cases]
    assert [c.kind for c in honest] == [verdict for _, verdict in cases]
    assert all(c.stats.lowest_pair_answers > 0 for c in honest)
    corrupt = _corrupt(kind)
    monkeypatch.setattr(
        spectrahull.eigen,
        "jacobi_eigen",
        lambda m_, lowest=None: real(m_) if lowest is None else corrupt(m_),
    )
    vals, vecs = np.linalg.eigh(a.entries)
    out = pivot_oracle(a, bar)
    assert out.found and not out.lowest_pair
    assert out.lambda_min == float(vals[0])
    np.testing.assert_array_equal(out.vector, vecs[:, 0])
    for inst, verdict in cases:
        cert = solve_shm(inst, 1e-4)
        assert cert.kind == verdict
        assert cert.stats.lowest_pair_answers == 0
        assert cert.stats.full_decompositions == cert.oracle_calls
        assert verify_certificate(inst, cert).passed
