"""Seeded input generators, independent of the package under test.

Every target's verdict follows from how it is built: planted targets are
images of explicit spectraplex points, and outside targets sit past the
support value lambda_max(sum_k d_k A_k) of the image set in a direction d, so
their distance to the set is at least the chosen depth.  Only numpy is used.
"""

from __future__ import annotations

import numpy as np


def family(rng, n: int, m: int) -> np.ndarray:
    """m symmetric Gaussian matrices of order n as an (m, n, n) stack."""
    g = rng.standard_normal((m, n, n))
    return 0.5 * (g + np.transpose(g, (0, 2, 1)))


def contract(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense image tr(A_k X) for every k."""
    return np.einsum("kij,ij->k", stack, x)


def mass(stack: np.ndarray) -> float:
    """Summed Frobenius norms of the family."""
    return float(np.linalg.norm(stack, axis=(1, 2)).sum())


def radius(stack: np.ndarray, b) -> float:
    """The solver's stopping scale: ||b|| plus the family's mass."""
    return float(np.linalg.norm(b)) + mass(stack)


def interior_point(rng, n: int) -> np.ndarray:
    """A unit-trace PSD matrix mixing I/n with a random few-term point.

    The identity share keeps planted targets away from the boundary of the
    image set, where the pivot walk needs up to 64/eps^2 steps.
    """
    terms = int(rng.integers(1, n + 1))
    v = rng.standard_normal((terms, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x = (v.T * rng.dirichlet(np.ones(terms))) @ v
    tau = rng.uniform(0.5, 1.0)
    return (1.0 - tau) * np.eye(n) / n + tau * x


def unit(rng, m: int) -> np.ndarray:
    d = rng.standard_normal(m)
    return d / np.linalg.norm(d)


def support(stack: np.ndarray, d: np.ndarray) -> float:
    """max over the spectraplex of d . image(X), i.e. lambda_max(sum d_k A_k)."""
    return float(np.linalg.eigvalsh(np.tensordot(d, stack, axes=1))[-1])


def outside_target(rng, stack: np.ndarray, depth: float) -> np.ndarray:
    """A target whose distance to the image set is at least ``depth``."""
    n = stack.shape[1]
    c = contract(stack, interior_point(rng, n))
    d = unit(rng, stack.shape[0])
    return c + (support(stack, d) - float(d @ c) + depth) * d


def shm_case(rng, n: int, m: int, inside: bool, depth_share=(0.005, 0.05)):
    """(stack, target, margin) with a planted or a provably outside target.

    ``margin`` is a lower bound on the target's distance to the image set (0
    for planted targets); an outside target's depth is a share of the
    family's Frobenius mass.
    """
    stack = family(rng, n, m)
    if inside:
        return stack, contract(stack, interior_point(rng, n)), 0.0
    depth = mass(stack) * rng.uniform(*depth_share)
    return stack, outside_target(rng, stack, depth), depth


def chm_case(rng, dim: int, count: int, inside: bool, depth_share=0.2):
    """(points, p0, margin): p0 a convex combination, or past the support."""
    pts = rng.standard_normal((count, dim))
    if inside:
        return pts, rng.dirichlet(np.ones(count)) @ pts, 0.0
    d = unit(rng, dim)
    c = pts.mean(axis=0)
    depth = depth_share * float(np.linalg.norm(pts - c, axis=1).max())
    return pts, c + (float((pts @ d).max() - d @ c) + depth) * d, depth


def sdp_case(rng, n: int, m: int, feasible: bool):
    """(mats, rhs, margin) for <A_i, X> = b_i over PSD X.

    Feasible: rhs is the image of a random PSD X, and A_1 is positive
    definite, so the feasible set is bounded and has no recession direction
    for the solver to return instead of a solution.  Infeasible: a unit y
    makes sum y_i A_i - I positive semidefinite while sum y_i b_i = -1, which
    no PSD X can meet.  In the bordered embedding y . image >= 1 at every
    trace-one point, so the origin is at distance at least 1 from the set.
    """
    stack = family(rng, n, m)
    if feasible:
        g = rng.standard_normal((n, n))
        stack[0] = g @ g.T / n + np.eye(n)
        g = rng.standard_normal((n, n))
        return stack, contract(stack, g @ g.T / n), 0.0
    y = unit(rng, m)
    g = rng.standard_normal((n, n))
    p = g @ g.T / n + np.eye(n)
    k = int(np.argmax(np.abs(y)))
    rest = np.tensordot(y, stack, axes=1) - y[k] * stack[k]
    stack[k] = (p - rest) / y[k]
    rhs = rng.standard_normal(m)
    rhs += (-1.0 - float(y @ rhs)) * y
    return stack, rhs, 1.0


def svm_case(rng, n: int, m: int, separated: bool, depth_share=0.3):
    """(left, right, margin): families whose image sets intersect or are apart.

    The right family is shifted by s * I, which translates its image set by
    s.  Intersecting: both sets contain the image of I/n.  Separated: the
    right set lies past the left one's support in direction d by a margin.
    """
    left, right = family(rng, n, m), family(rng, n, m)
    eye = np.eye(n) / n
    s = contract(left, eye) - contract(right, eye)
    depth = 0.0
    if separated:
        d = unit(rng, m)
        low = float(np.linalg.eigvalsh(np.tensordot(d, right, axes=1))[0])
        depth = depth_share * mass(left)
        s = (support(left, d) - low + depth) * d
    return left, right + s[:, None, None] * np.eye(n), depth


def graph(name: str):
    """(order, edges with unit weight, closed-form relaxation value)."""
    if name[0] == "K" and "," in name:
        a, b = (int(t) for t in name[1:].split(","))
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        return a + b, edges, -2.0 * len(edges)
    n = int(name[1:])
    if name[0] == "K":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)], -float(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    if n % 2:
        return n, edges, -2.0 * n * float(np.cos(np.pi / n))
    return n, edges, -2.0 * n
