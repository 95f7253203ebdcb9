"""Symmetric eigenvalue machinery.

Two LAPACK routes.  A full decomposition (``numpy.linalg.eigh``) whose
smallest eigenvalue comes with a rigorous error bound certifies every
absence of a pivot and every witness margin of the solvers.  A pivot that
exists needs no certificate, only a direction whose quadratic form is at or
below the bar: from order 16 up, a query first asks LAPACK's ``dsyevr`` for
the lowest eigenpair alone, in the OpenBLAS that numpy already loads, and
keeps the answer only when its vector is finite and unit and its recomputed
form is at or below the bar.  Any other outcome (a value above the bar, a
rejected vector, a LAPACK error, a numpy build without that driver) falls
back to the full decomposition, unchanged.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .symcore import SymmetricMatrix, _squares_fit

# perfbench's environment header reads this flag; ROADMAP item 2 drops it
HAVE_NUMBA = False

__all__ = [
    "jacobi_eigen",
    "certified_min_eig",
]

UNIT_ROUNDOFF = np.finfo(float).eps / 2
SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal

# Below this order a query keeps its single ``eigh``: the lowest pair saves
# at most about 4 us per query there (8 us against 8 us at n=4, 10 against
# 14 at n=8), and taken at every order it made the max-cut bracket of K2,3
# depend on vertex labels.  The small problems (max-cut probes, CLI files)
# thus keep their certificates bit for bit.
_LOWEST_PAIR_MIN_ORDER = 16


@functools.cache
def _dsyevr():
    """LAPACK's ``dsyevr`` as exported by the ILP64 OpenBLAS that numpy's
    linear algebra module links (``scipy_dsyevr_64_``, 64-bit integers,
    gfortran's string lengths appended), or None when numpy's build does
    not export it.  Resolved on the first lowest-pair call, not at import."""
    import ctypes

    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dsyevr_64_
    except (OSError, AttributeError):
        return None
    # JOBZ, RANGE, UPLO; eighteen pointers N ... INFO; three string lengths
    fn.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
    fn.restype = None
    return fn


class _Dsyevr:
    """The buffers and argument list of ``dsyevr`` for one order, owned by
    one thread.  A call overwrites the whole matrix buffer (LAPACK destroys
    it), resets the scalars it reads back, and copies its outputs out."""

    def __init__(self, fn, n: int):
        self.fn, self.n = fn, n
        self.a = np.empty((n, n))
        # N, LDA, IL, IU, M, LDZ, LWORK, LIWORK, INFO
        self.ints = np.array([n, n, 1, 1, 0, n, 26 * n, 10 * n, 0], dtype=np.int64)
        self.reals = np.zeros(3)  # VL, VU (unused with RANGE='I'), ABSTOL
        self.w = np.empty(n)
        self.z = np.empty((n, n))  # column j of the Fortran Z is row j
        self.isuppz = np.empty(2 * n, dtype=np.int64)
        self.work = np.empty(26 * n)
        self.iwork = np.empty(10 * n, dtype=np.int64)
        i, r = self.ints.ctypes.data, self.reals.ctypes.data
        self.args = (
            b"V", b"I", b"L", i, self.a.ctypes.data, i + 8, r, r + 8, i + 16, i + 24,
            r + 16, i + 32, self.w.ctypes.data, self.z.ctypes.data, i + 40,
            self.isuppz.ctypes.data, self.work.ctypes.data, i + 48,
            self.iwork.ctypes.data, i + 56, i + 64, 1, 1, 1,
        )

    def __call__(self, entries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # row-major symmetric entries read column-major are the same matrix
        np.copyto(self.a, entries)
        self.ints[3], self.ints[4], self.ints[8] = k, 0, 0
        self.fn(*self.args)
        info, found = int(self.ints[8]), int(self.ints[4])
        if info != 0 or found != k:
            raise np.linalg.LinAlgError(f"dsyevr failed: info {info}, {found} of {k} pairs")
        return self.w[:k].copy(), self.z[:k].T.copy()


# each thread's ``_Dsyevr`` of the last order it asked for
_per_thread = threading.local()


# perfbench --trace 1 wraps this name; ROADMAP item 2 renames it
def jacobi_eigen(
    a: SymmetricMatrix, lowest: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum from LAPACK's symmetric eigensolvers: values ascending,
    eigenvectors as matching columns.

    By default the full spectrum, ``eigh``'s own ``(values, vectors)``.
    With ``lowest=k`` only the k smallest pairs, from ``dsyevr``
    (``RANGE='I', IL=1, IU=k``) in freshly allocated arrays; LinAlgError
    when numpy's build does not export that driver or it reports a failure.
    """
    if lowest is None:
        return np.linalg.eigh(a.entries)
    if not 1 <= lowest <= a.n:
        raise ValueError(f"lowest must lie in [1, {a.n}]")
    fn = _dsyevr()
    if fn is None:
        raise np.linalg.LinAlgError("numpy's LAPACK does not export dsyevr")
    ws = getattr(_per_thread, "dsyevr", None)
    if ws is None or ws.n != a.n:
        ws = _per_thread.dsyevr = _Dsyevr(fn, a.n)
    return ws(a.entries, lowest)


def _lowest_pair_below(a: SymmetricMatrix, bar: float) -> tuple[float, np.ndarray] | None:
    """The lowest eigenpair ``(value, vector)`` of A from ``dsyevr`` when it
    shows a direction at or below ``bar``, or None.

    None below order ``_LOWEST_PAIR_MIN_ORDER``, without the driver, on a
    LAPACK error, and unless the value is at or below the bar, the vector is
    finite with a norm within 1e-12 of one, and its recomputed quadratic
    form is at or below the bar too.  The caller then takes the full
    decomposition.
    """
    if a.n < _LOWEST_PAIR_MIN_ORDER or _dsyevr() is None:
        return None
    try:
        vals, vecs = jacobi_eigen(a, lowest=1)
    except np.linalg.LinAlgError:
        return None
    value, vec = float(vals[0]), vecs[:, 0]
    # a NaN or infinite entry fails the norm test too
    if not (
        value <= bar
        and abs(math.sqrt(float(vec @ vec)) - 1.0) <= 1e-12
        and float(vec @ (a.entries @ vec)) <= bar
    ):
        return None
    return value, vec


def _gamma(k: int) -> float:
    """Higham's gamma_k: relative error bound of a length-k float sum of products."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _min_eig_error_bound(a: SymmetricMatrix, vals: np.ndarray, vecs: np.ndarray) -> float:
    """A rigorous bound delta on |lambda_min(A) - vals[0]| for the computed
    eigenpairs ``(vals, vecs)`` of A.

    With R = A V - V L and E = V^T V - I for the computed pair (V, L), the
    polar factor Q of V satisfies ||V - Q||_2 <= ||E||_2, hence
    ||Q^T A Q - L||_2 <= ||R||_2 + (||A||_2 + ||L||_2) ||E||_2, and by Weyl's
    theorem no sorted eigenvalue of A is farther than that from its entry of
    L.  Frobenius norms stand in for the 2-norms; gamma terms add the
    rounding of forming R and E themselves, and a final relative allowance
    covers the norms and sums of this function.

    When the largest computed |eigenvalue|, which bounds every entry of A up
    to rounding, fails ``symcore._squares_fit``, the squares could overflow:
    A and L are then scaled by 2^-e, e the binary exponent of that
    eigenvalue, and the bound is scaled back.  The scaling is exact except
    for entries it pushes into the subnormal range, each moved by at most
    half the smallest subnormal: (n+1) smallest subnormals cover the 2-norm
    of those moves in A (Weyl again) and in L's first entry.
    """
    n = a.n
    mat = a.entries
    u = UNIT_ROUNDOFF
    # subnormal products may lose all relative accuracy; charge each entry
    underflow = 2.0 * (n + 2) * n * SMALLEST_SUBNORMAL
    e = 0
    lam_norm = float(np.abs(vals).max())
    if not _squares_fit(lam_norm, n):
        e = math.frexp(lam_norm)[1]
        mat, vals = np.ldexp(mat, -e), np.ldexp(vals, -e)
        lam_norm = math.ldexp(lam_norm, -e)
        underflow += (n + 1) * SMALLEST_SUBNORMAL
    a_norm = float(np.linalg.norm(mat))
    v_norm = float(np.linalg.norm(vecs))
    resid = float(np.linalg.norm(mat @ vecs - vecs * vals))
    resid = (1.0 + 2.0 * u) * resid + _gamma(n + 1) * (a_norm + lam_norm) * v_norm
    ortho = float(np.linalg.norm(vecs.T @ vecs - np.eye(n)))
    ortho = (1.0 + 2.0 * u) * ortho + _gamma(n + 1) * v_norm * v_norm
    delta = resid + (a_norm + lam_norm) * ortho
    return math.ldexp((1.0 + _gamma(n * n + 8)) * (delta + underflow), e)


def certified_min_eig(
    a: SymmetricMatrix, bar: float | None = None
) -> tuple[float, np.ndarray, float]:
    """Smallest eigenvalue, a matching unit eigenvector and its error bound,
    from the full decomposition (``eigh``), at every order.

    Returns ``(value, vector, delta)`` with |lambda_min(A) - value| <= delta.
    The bound costs two more matrix products, so when ``bar`` is given and
    ``value <= bar`` (the caller only wants a direction at or below the bar)
    it is skipped and ``delta`` is ``inf``, which is still a true bound.
    This is the route that certifies absence; a pivot query reaches it
    below order 16, and above it whenever the lowest
    pair alone (``_lowest_pair_below``) does not answer.
    """
    vals, vecs = jacobi_eigen(a)
    value = float(vals[0])
    delta = math.inf if bar is not None and value <= bar else _min_eig_error_bound(a, vals, vecs)
    return value, vecs[:, 0].copy(), delta
