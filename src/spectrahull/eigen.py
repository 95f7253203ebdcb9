"""Symmetric eigenvalue machinery.

One route: a full decomposition from LAPACK (``numpy.linalg.eigh``) whose
smallest eigenvalue comes with a rigorous error bound.  Every pivot query and
every witness margin of the solvers goes through it.
"""

from __future__ import annotations

import math

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


# perfbench --trace 1 wraps this name; ROADMAP item 2 renames it
def jacobi_eigen(a: SymmetricMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum from LAPACK's symmetric eigensolver: ``eigh``'s own
    ``(values, vectors)``, values ascending, eigenvectors as matching
    columns."""
    return np.linalg.eigh(a.entries)


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
    """Smallest eigenvalue, a matching unit eigenvector and its error bound.

    Returns ``(value, vector, delta)`` with |lambda_min(A) - value| <= delta.
    The bound costs two more matrix products, so when ``bar`` is given and
    ``value <= bar`` (the caller only wants a direction at or below the bar)
    it is skipped and ``delta`` is ``inf``, which is still a true bound.
    """
    vals, vecs = jacobi_eigen(a)
    value = float(vals[0])
    delta = math.inf if bar is not None and value <= bar else _min_eig_error_bound(a, vals, vecs)
    return value, vecs[:, 0].copy(), delta
