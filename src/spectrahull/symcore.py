"""Dense symmetric-matrix primitives and factored spectraplex points.

Everything downstream (pivot search, membership certificates, separation)
works with three objects defined here: symmetric matrices, instances pairing
a matrix family with a target vector, and spectraplex points stored as convex
combinations of unit rank-one factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionError",
    "SymmetricMatrix",
    "SpectraplexPoint",
    "ShmInstance",
    "frobenius_dot",
    "quad_form",
    "image",
    "rank_one_image",
    "radius_bound",
    "gershgorin_bound",
]

ASYMMETRY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
UNIT_NORM_TOL = 1e-12


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SymmetricMatrix:
    """Square real symmetric matrix.

    Input is symmetrized as (A + A^T)/2.  Inputs whose worst asymmetry exceeds
    1e-9 relative to the Frobenius norm are rejected rather than silently
    averaged; symmetrization is meant to absorb roundoff, not typos.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        skew = float(np.abs(a - a.T).max()) if a.size else 0.0
        if skew > ASYMMETRY_TOL * float(np.linalg.norm(a)):
            raise ValueError(f"matrix is asymmetric beyond tolerance (max skew {skew:g})")
        object.__setattr__(self, "entries", _freeze(0.5 * (a + a.T)))

    @classmethod
    def _symmetrized(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap the exact symmetrization (A + A^T)/2 without the input checks.

        Only for combinations of already validated matrices, which are finite
        and symmetric up to the rounding of the combination itself.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "entries", _freeze(0.5 * (a + a.T)))
        return out

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def frob(self) -> float:
        return float(np.linalg.norm(self.entries))

    @classmethod
    def diag(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, n: int) -> "SymmetricMatrix":
        return cls(np.zeros((n, n)))


@dataclass(frozen=True)
class SpectraplexPoint:
    """Unit-trace PSD matrix in factored form, X = sum_t w_t v_t v_t^T.

    Weights are strictly positive and sum to one; every factor is a unit
    vector, so X lives on the spectraplex by construction.  The point holds
    only its factors: its image under an instance is :func:`image`, and a
    solver's walk keeps the images of its own atoms.
    """

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise DimensionError("vectors must form a (terms, n) array")
        if v.shape[0] != w.shape[0]:
            raise DimensionError(
                f"{w.shape[0]} weights for {v.shape[0]} vectors"
            )
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "vectors", _freeze(v))
        self.validate()

    def validate(self) -> None:
        """Re-check the spectraplex invariants, raising ValueError on violation.

        Exposed separately so certificates coming from outside (files, tampered
        reports) can be audited without trusting construction-time checks.
        """
        # array methods rather than the np.all/np.any/norm wrappers: every
        # returned point passes here, and at small orders the wrappers'
        # dispatch is most of the cost
        w, v = self.weights, self.vectors
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ValueError("non-finite data in spectraplex point")
        if w.size == 0:
            raise ValueError("empty combination")
        if w.min() <= 0.0 or w.max() > 1.0 + WEIGHT_SUM_TOL:
            raise ValueError("weights must lie in (0, 1]")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        norms = np.sqrt((v * v).sum(axis=1))
        if (np.abs(norms - 1.0) > UNIT_NORM_TOL).any():
            raise ValueError("factors must be unit vectors")

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_terms(self) -> int:
        return self.weights.shape[0]

    def dense(self) -> np.ndarray:
        """Materialize the full n-by-n matrix."""
        return (self.vectors.T * self.weights) @ self.vectors

    @classmethod
    def rank_one(cls, v) -> "SpectraplexPoint":
        v = np.asarray(v, dtype=float).reshape(-1)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            raise ValueError("cannot build a rank-one point from the zero vector")
        return cls(np.array([1.0]), (v / nv)[None, :])

    @classmethod
    def uniform_rank_one(cls, n: int) -> "SpectraplexPoint":
        """The all-ones rank-one start, (e/sqrt(n)) (e/sqrt(n))^T."""
        return cls.rank_one(np.ones(n))

    @classmethod
    def uniform_diagonal(cls, n: int) -> "SpectraplexPoint":
        """The maximally mixed start I/n as n coordinate factors."""
        return cls(np.full(n, 1.0 / n), np.eye(n))


@dataclass(frozen=True)
class ShmInstance:
    """A family of symmetric matrices plus the target vector to hit.

    ``radius_bound`` is the precomputed over-estimate of the farthest
    reachable distance; ``stack`` is the (m, n, n) array used by the
    numeric kernels, and ``flat`` the same memory viewed as (m, n*n), so
    that a weighted sum of the matrices is one matrix-vector product,
    ``(y @ flat).reshape(n, n)``.  Both are read-only and made once per
    instance.
    """

    mats: tuple[SymmetricMatrix, ...]
    b: np.ndarray
    radius_bound: float = field(init=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(
            m if isinstance(m, SymmetricMatrix) else SymmetricMatrix(m)
            for m in self.mats
        )
        if not mats:
            raise ValueError("instance needs at least one matrix")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise DimensionError("all matrices must share one order")
        b = np.array(self.b, dtype=float).reshape(-1)
        if b.shape[0] != len(mats):
            raise DimensionError(f"target has {b.shape[0]} entries for {len(mats)} matrices")
        if not np.all(np.isfinite(b)):
            raise ValueError("target must be finite")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "b", _freeze(b))
        stack = _freeze(np.stack([m.entries for m in mats]))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "flat", stack.reshape(len(mats), n * n))
        object.__setattr__(self, "radius_bound", radius_bound(mats, b))

    @property
    def m(self) -> int:
        return len(self.mats)

    @property
    def n(self) -> int:
        return self.mats[0].n


def frobenius_dot(a: SymmetricMatrix, b: SymmetricMatrix) -> float:
    """Frobenius inner product Tr(A B)."""
    if a.n != b.n:
        raise DimensionError(f"orders {a.n} and {b.n} do not match")
    return float(np.vdot(a.entries, b.entries))


def quad_form(a: SymmetricMatrix, v) -> float:
    """Quadratic form v^T A v; equals the Frobenius product of A with v v^T."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != a.n:
        raise DimensionError(f"vector of length {v.shape[0]} against order {a.n}")
    if not np.any(v):
        raise ValueError("quad_form requires a nonzero vector")
    return float(v @ a.entries @ v)


def rank_one_image(instance: ShmInstance, v) -> np.ndarray:
    """Image of the rank-one point v v^T, one quadratic form per matrix."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != instance.n:
        raise DimensionError(f"vector of length {v.shape[0]} against order {instance.n}")
    return (instance.stack @ v) @ v


def _term_images(instance: ShmInstance, vectors: np.ndarray) -> np.ndarray:
    # one row per factor: row t holds (v_t^T A_k v_t) for k = 1..m.  Two
    # operands through matmul: einsum's contraction planner costs more than
    # the whole product at the orders solved here
    return np.einsum("ktj,tj->tk", np.matmul(vectors[None], instance.stack), vectors)


def image(instance: ShmInstance, point: SpectraplexPoint) -> np.ndarray:
    """Evaluate the instance map at a factored point.

    Computed as the weight combination of per-factor quadratic forms, never by
    materializing the dense matrix.
    """
    if point.n != instance.n:
        raise DimensionError(f"point order {point.n} against instance order {instance.n}")
    return point.weights @ _term_images(instance, point.vectors)


def radius_bound(mats, b) -> float:
    """Sound over-estimate of the farthest distance from the target.

    The image of any spectraplex point has norm at most the summed Frobenius
    norms, so ||b|| plus that sum dominates every reachable distance.  Cheap,
    and avoids an eigensolve; only the stopping rule consumes it.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    total = float(np.linalg.norm(b))
    for m in mats:
        e = m.entries if isinstance(m, SymmetricMatrix) else np.asarray(m, dtype=float)
        total += float(np.linalg.norm(e))
    return total


def gershgorin_bound(a: SymmetricMatrix) -> float:
    """Max absolute row sum; dominates every |eigenvalue| of A."""
    if a.n == 0:
        return 0.0
    return float(np.abs(a.entries).sum(axis=1).max())
