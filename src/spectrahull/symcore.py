"""Dense symmetric-matrix primitives and factored spectraplex points.

Everything downstream (pivot search, membership certificates, separation)
works with three objects defined here: symmetric matrices, instances pairing
a matrix family with a target vector, and spectraplex points stored as convex
combinations of unit rank-one factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionError",
    "SymmetricMatrix",
    "SpectraplexPoint",
    "ShmInstance",
    "image",
    "rank_one_image",
]

ASYMMETRY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
UNIT_NORM_TOL = 1e-12


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _squares_fit(amax, n: int) -> bool:
    """Whether the Frobenius norm of an order-n matrix whose largest entry is
    ``amax`` can be summed without overflow.  False for a non-finite
    ``amax``, so it also screens out NaN and inf entries."""
    return amax < 2.0**500 / max(n, 1)


def _excess_skew(a: np.ndarray, large: bool) -> float | None:
    """The max skew of a finite square matrix when it exceeds ASYMMETRY_TOL
    times the Frobenius norm, else None.  ``large`` entries (those that fail
    ``_squares_fit``) are first scaled by a power of two, which keeps the
    test's outcome and brings every square into range."""
    if not a.size:
        return None
    e = math.frexp(float(np.abs(a).max()))[1] if large else 0
    s = np.ldexp(a, -e) if large else a
    skew = float(np.abs(s - s.T).max())
    if skew <= ASYMMETRY_TOL * float(np.linalg.norm(s)):
        return None
    with np.errstate(over="ignore"):
        return float(np.ldexp(skew, e))


def _symmetrize(a: np.ndarray, large: bool) -> np.ndarray:
    """(A + A^T)/2 over the last two axes.  ``large`` entries (those that
    fail ``_squares_fit``) are halved first, which cannot overflow; other
    entries are summed first, so their bits are those of 0.5 * (a + a.T)
    even where halving would underflow."""
    if large:
        t = 0.5 * a
        return t + np.swapaxes(t, -1, -2)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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
        large = a.size > 0 and not _squares_fit(np.abs(a).max(), a.shape[0])
        if large and not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        skew = _excess_skew(a, large)
        if skew is not None:
            raise ValueError(f"matrix is asymmetric beyond tolerance (max skew {skew:g})")
        object.__setattr__(self, "entries", _freeze(_symmetrize(a, large)))

    @classmethod
    def _view(cls, entries: np.ndarray) -> "SymmetricMatrix":
        """Wrap a row of an instance's validated, read-only stack without
        copying or checking it."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        return out

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

    The instance holds its family once: ``stack`` is the read-only (m, n, n)
    array of the symmetrized matrices, validated once at construction, and
    ``mats`` are read-only ``SymmetricMatrix`` views of its rows.  A family
    given as ``SymmetricMatrix`` objects is stacked without checking it
    again; any other family is checked in one vectorised pass that accepts
    and rejects exactly what ``SymmetricMatrix`` does, one matrix at a time.
    ``flat`` is the same memory viewed as (m, n*n), so that a weighted sum
    of the matrices is one matrix-vector product, ``(y @ flat).reshape(n,
    n)``.  ``radius_bound``, ||b|| plus the summed Frobenius norms of the
    members, is a sound over-estimate of the farthest distance from the
    target: the image of any spectraplex point has norm at most that sum.
    Only the stopping rules consume it.  A family or target whose bound
    overflows is rejected.  ``_with_target(b)`` gives the instance of the
    same family with another target, sharing ``mats``, ``stack``, ``flat``
    and the members' Frobenius norms.
    """

    mats: tuple[SymmetricMatrix, ...]
    b: np.ndarray
    radius_bound: float = field(init=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    _norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(self.mats)
        if not mats:
            raise ValueError("instance needs at least one matrix")
        if all(isinstance(a, SymmetricMatrix) for a in mats):
            n = mats[0].n
            if any(a.n != n for a in mats):
                raise DimensionError("all matrices must share one order")
            stack = np.array([a.entries for a in mats])
        else:
            stack = _validated_stack(mats)
        m, n = stack.shape[:2]
        flat = _freeze(stack).reshape(m, n * n)
        # one BLAS dot per member, the sum of squares np.linalg.norm takes
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).reshape(m))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "mats", tuple(map(SymmetricMatrix._view, stack)))
        object.__setattr__(self, "_norms", tuple(norms.tolist()))
        self._set_target(self.b)

    def _set_target(self, b) -> None:
        b = np.array(b, dtype=float).reshape(-1)
        if b.shape[0] != self.m:
            raise DimensionError(f"target has {b.shape[0]} entries for {self.m} matrices")
        if not np.isfinite(b).all():
            raise ValueError("target must be finite")
        # ||b|| first, then each member's kept norm in order
        with np.errstate(over="ignore"):
            bound = float(np.linalg.norm(b))
        for norm in self._norms:
            bound += norm
        if not math.isfinite(bound):
            raise ValueError("radius bound overflows: the family or the target is too large")
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "radius_bound", bound)

    def _with_target(self, b) -> "ShmInstance":
        """The same family with target ``b``: shares ``mats``, ``stack``,
        ``flat`` and the norms, and checks only the target and its bound."""
        out = object.__new__(type(self))
        for name in ("mats", "stack", "flat", "_norms"):
            object.__setattr__(out, name, getattr(self, name))
        out._set_target(b)
        return out

    @property
    def m(self) -> int:
        return self.stack.shape[0]

    @property
    def n(self) -> int:
        return self.stack.shape[1]


def _validated_stack(mats) -> np.ndarray:
    """The symmetrized (m, n, n) stack of a family not all of whose members
    are ``SymmetricMatrix`` objects, checked in one pass.

    Irregular shapes and non-finite or very large entries take the
    per-matrix path, which raises the first failure in member order just as
    building each ``SymmetricMatrix`` would.  Otherwise the skew and
    Frobenius norm of every member are computed together with the same
    arithmetic as ``SymmetricMatrix``: exact differences, and one BLAS dot
    per member for the norm.
    """
    raw = [a.entries if isinstance(a, SymmetricMatrix) else a for a in mats]
    try:
        a = np.array(raw, dtype=float)
    except ValueError:
        a = None
    if (
        a is None
        or a.ndim != 3
        or a.shape[1] != a.shape[2]
        or (a.size and not _squares_fit(np.abs(a).max(), a.shape[1]))
    ):
        checked = [SymmetricMatrix(x) for x in raw]
        if any(x.n != checked[0].n for x in checked):
            raise DimensionError("all matrices must share one order")
        return np.stack([x.entries for x in checked])
    if a.size:
        m, n = a.shape[:2]
        skew = np.abs(a - a.transpose(0, 2, 1)).reshape(m, n * n).max(axis=1)
        flat = a.reshape(m, n * n)
        norm = np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).reshape(m))
        bad = np.flatnonzero(skew > ASYMMETRY_TOL * norm)
        if bad.size:
            raise ValueError(
                f"matrix is asymmetric beyond tolerance (max skew {float(skew[bad[0]]):g})"
            )
    return _symmetrize(a, False)


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
