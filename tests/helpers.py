"""Shared instance generators for the test suite.

Everything takes an explicit numpy Generator so individual tests stay
reproducible under pytest's random ordering.
"""

import numpy as np

from spectrahull import PointSet, ShmInstance, SymmetricMatrix

# outside targets are pushed at least this far past the supporting face,
# far beyond any epsilon * radius threshold the tests use
OUTSIDE_PUSH = (0.5, 1.5)


def random_symmetric(rng, n, scale=1.0):
    """Symmetric matrix with independent entries uniform in [-scale, scale]."""
    a = rng.uniform(-scale, scale, size=(n, n))
    out = np.triu(a) + np.triu(a, 1).T
    return out


def radius_bound(mats, b):
    """||b|| plus the members' Frobenius norms, each from np.linalg.norm and
    summed in that order: the reference that ``ShmInstance.radius_bound``
    equals bit for bit."""
    total = float(np.linalg.norm(np.asarray(b, dtype=float)))
    for a in mats:
        entries = a.entries if isinstance(a, SymmetricMatrix) else np.asarray(a, dtype=float)
        total += float(np.linalg.norm(entries))
    return total


def diagonal_family(rng, n, m):
    """Stack of m diagonal matrices as a (m, n) array of diagonals."""
    return rng.uniform(-1.0, 1.0, size=(m, n))


def diagonal_instance(diags, b):
    return ShmInstance(tuple(np.diag(row) for row in diags), np.asarray(b, dtype=float))


def diagonal_column_set(diags) -> PointSet:
    """The vertex images of a diagonal family: one column per coordinate point."""
    return PointSet(np.asarray(diags, dtype=float).T.copy())


def inside_target(rng, diags):
    """Convex combination of the vertex images; always in the hull.

    The raw dirichlet draw is blended toward the vertex centroid, keeping the
    target inside while bounding how close it hugs a face; targets on a face
    push first-order solvers into their slow quadratic regime.
    """
    n = diags.shape[1]
    lam = rng.dirichlet(np.ones(n))
    pull = rng.uniform(0.2, 0.6)
    lam = (1.0 - pull) * lam + pull / n
    return diags @ lam


def outside_target(rng, diags):
    """Support point pushed outward along a random direction.

    The hull lies in the halfspace d.x <= max_j d.q_j, so the result sits at
    distance at least the push beyond it.
    """
    m = diags.shape[0]
    d = rng.standard_normal(m)
    d /= np.linalg.norm(d)
    cols = diags.T
    j = int(np.argmax(cols @ d))
    push = rng.uniform(*OUTSIDE_PUSH)
    return cols[j] + push * d


def random_diagonal_case(rng, inside):
    """One criterion-style diagonal membership case: (instance, columns, truth)."""
    n = int(rng.integers(1, 11))
    m = int(rng.integers(1, 11))
    diags = diagonal_family(rng, n, m)
    b = inside_target(rng, diags) if inside else outside_target(rng, diags)
    return diagonal_instance(diags, b), diagonal_column_set(diags), inside


def order_two_family(rng, m):
    """m random symmetric 2x2 matrices, entries uniform in [-1, 1]."""
    mats = []
    for _ in range(m):
        a00, a11, a01 = rng.uniform(-1.0, 1.0, size=3)
        mats.append(np.array([[a00, a01], [a01, a11]]))
    return tuple(mats)


def order_two_images(mats, x, z):
    """Images of X = [[x, z], [z, 1-x]] under the family, vectorized over x, z."""
    cols = []
    for a in mats:
        cols.append(a[1, 1] + (a[0, 0] - a[1, 1]) * x + 2.0 * a[0, 1] * z)
    return np.stack(cols, axis=-1)


def order_two_grid_distance(mats, b, radii=1000, angles=1000):
    """Minimum image distance to b over a polar grid of the PSD disk.

    The order-two unit-trace PSD matrices [[x, z], [z, 1-x]] are exactly the
    disk of radius 1/2 around (1/2, 0) in the (x, z) plane, so a polar grid
    covers the feasible region with spacing about 8e-4 and no masking loss
    near the boundary.
    """
    r = np.linspace(0.0, 0.5, radii)
    t = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    x = 0.5 + np.outer(r, np.cos(t)).ravel()
    z = np.outer(r, np.sin(t)).ravel()
    img = order_two_images(mats, x, z)
    d = img - np.asarray(b, dtype=float)
    return float(np.sqrt((d * d).sum(axis=1).min()))


def bounded_feasible_sdp(rng, n_max=6, m_max=4):
    """Constraint family plus a witness solution with no recession direction.

    The first matrix is positive definite, which rules out nonzero PSD
    directions annihilating every constraint, so the planted solution is
    recoverable from any membership certificate.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    g = rng.standard_normal((n, n))
    mats = [g @ g.T / n + 0.1 * np.eye(n)]
    for _ in range(m - 1):
        mats.append(random_symmetric(rng, n))
    h = rng.standard_normal((n, n))
    x_star = h @ h.T / n + 0.05 * np.eye(n)
    x_star *= rng.uniform(0.5, 2.0) / np.trace(x_star)
    b = np.array([float(np.vdot(a, x_star)) for a in mats])
    return tuple(mats), b, x_star


def random_unit_vectors(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def spectral_case(rng, n, m, inside, depth=0.5):
    """m symmetric Gaussian matrices of order n and a target whose verdict
    follows from its construction: the image of a unit-trace PSD matrix
    mixing I/n with a random few-term point, or a point at least ``depth``
    past the supporting hyperplane lambda_max(sum_k d_k A_k) of the image
    set in a random unit direction d."""
    g = rng.standard_normal((m, n, n))
    stack = 0.5 * (g + np.transpose(g, (0, 2, 1)))
    terms = int(rng.integers(1, n + 1))
    v = random_unit_vectors(rng, terms, n)
    tau = rng.uniform(0.5, 1.0)
    x = (1.0 - tau) * np.eye(n) / n + tau * (v.T * rng.dirichlet(np.ones(terms))) @ v
    c = np.einsum("kij,ij->k", stack, x)
    if not inside:
        d = rng.standard_normal(m)
        d /= np.linalg.norm(d)
        support = float(np.linalg.eigvalsh(np.tensordot(d, stack, axes=1))[-1])
        c = c + (support - float(d @ c) + depth) * d
    return tuple(stack), c
