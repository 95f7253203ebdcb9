"""Symmetric eigenvalue machinery.

Two routes with different contracts: a full decomposition from LAPACK
(``numpy.linalg.eigh``) whose smallest eigenvalue comes with a rigorous error
bound, and a shifted power iteration that exits early as soon as its Rayleigh
value drops below a caller-supplied threshold.  The power route is allowed to
give up; the certified route is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symcore import SymmetricMatrix, gershgorin_bound

# perfbench's environment header reads this flag; ROADMAP item 4 renames it
HAVE_NUMBA = False

__all__ = [
    "EigenDecomposition",
    "PowerResult",
    "jacobi_eigen",
    "min_eig_power",
    "certified_min_eig",
    "default_power_budget",
]

POWER_ACCURACY = 0.1  # resolution parameter behind the default budget
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum, values ascending, eigenvectors as matching columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for name in ("values", "vectors"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class PowerResult:
    """Outcome of the shifted power probe.

    ``exited_early`` means the Rayleigh value crossed the requested threshold
    and ``vector`` can be used as a pivot direction.  Otherwise the fields
    carry the best (smallest) Rayleigh value seen, which is only an upper
    bound on the minimum eigenvalue and decides nothing by itself.
    """

    rayleigh: float
    vector: np.ndarray
    iterations: int
    exited_early: bool


# perfbench --trace 1 wraps this name; ROADMAP item 4 renames it
def jacobi_eigen(a: SymmetricMatrix) -> EigenDecomposition:
    """Full spectrum from LAPACK's symmetric eigensolver (``numpy.linalg.eigh``)."""
    values, vectors = np.linalg.eigh(a.entries)
    return EigenDecomposition(values, vectors)


def _gamma(k: int) -> float:
    """Higham's gamma_k: relative error bound of a length-k float sum of products."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _min_eig_error_bound(a: SymmetricMatrix, dec: EigenDecomposition) -> float:
    """A rigorous bound delta on |lambda_min(A) - dec.values[0]|.

    With R = A V - V L and E = V^T V - I for the computed pair (V, L), the
    polar factor Q of V satisfies ||V - Q||_2 <= ||E||_2, hence
    ||Q^T A Q - L||_2 <= ||R||_2 + (||A||_2 + ||L||_2) ||E||_2, and by Weyl's
    theorem no sorted eigenvalue of A is farther than that from its entry of
    L.  Frobenius norms stand in for the 2-norms; gamma terms add the
    rounding of forming R and E themselves, and a final relative allowance
    covers the norms and sums of this function.
    """
    n = a.n
    mat, vals, vec = a.entries, dec.values, dec.vectors
    u = UNIT_ROUNDOFF
    a_norm = a.frob
    lam_norm = float(np.abs(vals).max())
    v_norm = float(np.linalg.norm(vec))
    resid = float(np.linalg.norm(mat @ vec - vec * vals))
    resid = (1.0 + 2.0 * u) * resid + _gamma(n + 1) * (a_norm + lam_norm) * v_norm
    ortho = float(np.linalg.norm(vec.T @ vec - np.eye(n)))
    ortho = (1.0 + 2.0 * u) * ortho + _gamma(n + 1) * v_norm * v_norm
    delta = resid + (a_norm + lam_norm) * ortho
    # subnormal products may lose all relative accuracy; charge each entry
    underflow = 2.0 * (n + 2) * n * np.finfo(float).smallest_subnormal
    return (1.0 + _gamma(n * n + 8)) * (delta + underflow)


def default_power_budget(n: int) -> int:
    """Iteration allowance scaling with log of the order."""
    return int(math.ceil(10.0 * math.log(max(n, 2)) / POWER_ACCURACY))


def min_eig_power(
    a: SymmetricMatrix,
    threshold: float,
    budget: int | None = None,
    rng=0,
) -> PowerResult:
    """Probe for a direction with Rayleigh value at most ``threshold``.

    Runs power iteration on the spread-reversing shift sigma*I - A, sigma the
    Gershgorin bound, from a random sign vector.  Each iterate's Rayleigh
    value against A is checked and the probe returns the moment it crosses the
    threshold.  Exhausting the budget is an inconclusive outcome, never a
    certificate of absence.
    """
    n = a.n
    if budget is None:
        budget = default_power_budget(n)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    sigma = gershgorin_bound(a)
    if sigma == 0.0:
        # zero matrix: every direction has Rayleigh value exactly 0
        v = np.zeros(n)
        v[0] = 1.0
        return PowerResult(0.0, v, 0, 0.0 <= threshold)
    mat = a.entries

    def draw():
        u = gen.integers(0, 2, size=n) * 2.0 - 1.0
        return u / math.sqrt(n)

    u = draw()
    ray = float(u @ mat @ u)
    best_ray, best_u = ray, u
    if ray <= threshold:
        return PowerResult(ray, u, 0, True)
    resample_left = 3
    for k in range(1, budget + 1):
        w = sigma * u - mat @ u
        nw = float(np.linalg.norm(w))
        if nw <= 1e-14 * sigma:
            # landed on the top eigenspace of A, which the shift annihilates
            if resample_left == 0:
                break
            resample_left -= 1
            u = draw()
            continue
        u = w / nw
        ray = float(u @ mat @ u)
        if ray < best_ray:
            best_ray, best_u = ray, u
        if ray <= threshold:
            return PowerResult(ray, u, k, True)
    return PowerResult(best_ray, best_u, budget, False)


def certified_min_eig(
    a: SymmetricMatrix, bar: float | None = None
) -> tuple[float, np.ndarray, float]:
    """Smallest eigenvalue, a matching unit eigenvector and its error bound.

    Returns ``(value, vector, delta)`` with |lambda_min(A) - value| <= delta.
    The bound costs two more matrix products, so when ``bar`` is given and
    ``value <= bar`` (the caller only wants a direction at or below the bar)
    it is skipped and ``delta`` is ``inf``, which is still a true bound.
    """
    dec = jacobi_eigen(a)
    value = float(dec.values[0])
    delta = math.inf if bar is not None and value <= bar else _min_eig_error_bound(a, dec)
    return value, dec.vectors[:, 0].copy(), delta
