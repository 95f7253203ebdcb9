"""Independent checkers for every certificate the benchmark receives.

Nothing here calls the package under test: images are recomputed by dense
contraction, witness hyperplanes are confirmed with numpy.linalg.eigvalsh,
cut relaxation values are compared against closed forms, and CLI reports are
parsed and re-checked the same way.  Each checker raises ``Reject`` with the
reason when a certificate does not hold.
"""

from __future__ import annotations

import numpy as np

from gen import contract, mass, radius

REL = 1e-9  # slack for roundoff in our own recomputation, relative to scale


class Reject(Exception):
    """A certificate failed an independent check."""


def _need(ok: bool, why: str) -> None:
    if not ok:
        raise Reject(why)


def spectraplex_point(weights, vectors) -> np.ndarray:
    """Validate a factored point and return it densely."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(vectors, dtype=float)
    _need(w.ndim == 1 and v.ndim == 2 and v.shape[0] == w.size, "malformed factors")
    _need(bool(np.all(w > 0.0)), "nonpositive weight")
    _need(abs(float(w.sum()) - 1.0) <= REL, "weights do not sum to one")
    _need(bool(np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= REL)), "factor not unit")
    return (v.T * w) @ v


def shm_feasible(stack, b, eps: float, weights, vectors) -> None:
    """The representation's dense image lies within eps * R of the target."""
    x = spectraplex_point(weights, vectors)
    r = radius(stack, b)
    gap = float(np.linalg.norm(contract(stack, x) - b))
    _need(gap <= eps * r * (1.0 + REL) + REL * (1.0 + float(np.linalg.norm(b))),
          f"gap {gap:.3e} above eps*R {eps * r:.3e}")


def shm_witness(stack, b, normal, offset: float) -> None:
    """The whole image set is on the positive side, the target negative.

    min over the spectraplex of normal . image(X) is lambda_min of the
    residual-weighted matrix sum_k normal_k A_k.
    """
    normal = np.asarray(normal, dtype=float)
    _need(bool(np.any(normal)), "zero normal")
    tol = REL * (abs(offset) + float(np.linalg.norm(normal)) * mass(stack))
    lam = float(np.linalg.eigvalsh(np.tensordot(normal, stack, axes=1))[0])
    _need(lam - offset > -tol, f"image set crosses the hyperplane by {offset - lam:.3e}")
    _need(float(normal @ b) - offset < 0.0, "target not on the negative side")


def chm_feasible(points, p0, eps: float, coeffs, point) -> None:
    c = np.asarray(coeffs, dtype=float)
    scale = float(np.abs(points).max())
    _need(bool(np.all(c >= -REL)) and abs(float(c.sum()) - 1.0) <= 1e-8, "not convex weights")
    _need(float(np.abs(c @ points - point).max()) <= 1e-8 * scale, "coefficients miss the point")
    r = float(np.linalg.norm(points - p0, axis=1).max())
    gap = float(np.linalg.norm(np.asarray(point) - p0))
    _need(gap <= eps * r * (1.0 + REL) + REL, f"gap {gap:.3e} above eps*R")


def chm_witness(points, p0, normal, offset: float) -> None:
    side = points @ np.asarray(normal, dtype=float) - offset
    _need(bool(np.all(side > 0.0)), "a point lies on the target side")
    _need(float(np.asarray(normal) @ p0) - offset < 0.0, "query not on the negative side")


def separated(left, right, normal, offset: float) -> None:
    """Left image set strictly below the offset, right strictly above."""
    normal = np.asarray(normal, dtype=float)
    top = float(np.linalg.eigvalsh(np.tensordot(normal, left, axes=1))[-1])
    low = float(np.linalg.eigvalsh(np.tensordot(normal, right, axes=1))[0])
    _need(top < offset, f"left set reaches {top - offset:.3e} past the offset")
    _need(low > offset, f"right set reaches {offset - low:.3e} below the offset")


def maxcut(closed: float, eps: float, weights, lower, upper, y, widened: int) -> None:
    """Bracket the closed form; Y is PSD with a unit diagonal.

    A probe accepted at the upper end returns Y = n Z with Z within eps/n of
    the target (upper/n, 1/n, ..., 1/n) in image space, so <W, Y> and the
    diagonal sit within eps (ten times that after a widened retry) of
    (upper, 1, ..., 1).
    """
    y = np.asarray(y, dtype=float)
    tol = eps * (10.0 if widened else 1.0)
    _need(upper - lower <= eps * (1.0 + REL), "bracket wider than epsilon")
    _need(lower <= closed + REL * (1.0 + abs(closed)), f"lower {lower:.6f} above {closed:.6f}")
    _need(closed <= upper + tol * (1.0 + abs(closed)), f"upper {upper:.6f} below {closed:.6f}")
    _need(float(np.abs(y - y.T).max()) <= REL * float(np.abs(y).max()), "Y not symmetric")
    _need(float(np.linalg.eigvalsh(y)[0]) >= -REL * float(np.abs(y).max()), "Y not PSD")
    dev = np.append(np.diag(y) - 1.0, float(np.vdot(weights, y)) - upper)
    _need(float(np.linalg.norm(dev)) <= tol * (1.0 + 1e-6), "Y off the unit diagonal or value")


def sdp_solution(stack, rhs, eps: float, x, alpha: float) -> None:
    """Recovered X is PSD and meets <A_i, X> = b_i within eps * R / alpha."""
    x = np.asarray(x, dtype=float)
    r = mass(bordered(stack, rhs))  # the embedding's radius bound; its target is 0
    resid = float(np.linalg.norm(contract(stack, x) - rhs))
    _need(resid <= eps * r / alpha * (1.0 + 1e-6), f"constraint residual {resid:.3e}")
    _need(float(np.linalg.eigvalsh(0.5 * (x + x.T))[0]) >= -1e-8 * float(np.abs(x).max()),
          "solution not PSD")


def bordered(stack, rhs) -> np.ndarray:
    """The SDP embedding's membership family, built here from scratch."""
    m, n, _ = stack.shape
    out = np.zeros((m, n + 1, n + 1))
    out[:, :n, :n] = stack
    out[:, n, n] = -rhs
    return out


def parse_report(text: str) -> dict:
    """CLI report lines as key -> list of token lists."""
    out: dict = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out.setdefault(key, []).append(rest.split())
    return out


def _f(rep, key):
    return float(rep[key][0][0])


def _vec(rep, key):
    return np.array([float(t) for t in rep[key][0]])


def _terms(rep):
    rows = np.array([[float(t) for t in toks] for toks in rep["term"]])
    return rows[:, 0], rows[:, 1:]


def _shm_report(stack, b, eps, rep, expect_feasible: bool) -> None:
    if expect_feasible:
        shm_feasible(stack, b, eps, *_terms(rep))
    else:
        shm_witness(stack, b, _vec(rep, "hyperplane-normal"), _f(rep, "hyperplane-offset"))


def cli_case(case: dict, code: int, text: str) -> None:
    """Judge one CLI call by its exit code and the certificate in its report."""
    _need(code == case["code"], f"exit code {code}, expected {case['code']}")
    try:
        _cli_report(case, code, parse_report(text))
    except (KeyError, IndexError, ValueError) as err:
        raise Reject(f"malformed report ({type(err).__name__}: {err})") from None


def _cli_report(case: dict, code: int, rep: dict) -> None:
    eps = case["eps"]
    kind = case["kind"]
    if kind == "shm":
        _need(rep.get("verify", [[None]])[0][0] == "passed", "audit block missing or failed")
        _shm_report(case["stack"], case["b"], eps, rep, code == 0)
    elif kind == "sdp":
        emb = bordered(case["stack"], case["b"])
        _shm_report(emb, np.zeros(len(case["b"])), eps, rep, code == 0)
        if code == 0:
            x = np.array([[float(t) for t in toks] for toks in rep["solution-row"]])
            sdp_solution(case["stack"], case["b"], eps, x, _f(rep, "alpha"))
    elif kind == "chm":
        pts, p0 = case["points"], case["p0"]
        if code == 0:
            chm_feasible(pts, p0, eps, _vec(rep, "coeffs"), _vec(rep, "point"))
        else:
            chm_witness(pts, p0, _vec(rep, "hyperplane-normal"), _f(rep, "hyperplane-offset"))
    elif kind == "svm":
        left, right = case["left"], case["right"]
        if code == 0:
            scale = max(mass(left), mass(right))
            _need(_f(rep, "gap") <= eps * scale * (1.0 + REL), "sides not within tolerance")
        else:
            separated(left, right, _vec(rep, "hyperplane-normal"), _f(rep, "hyperplane-offset"))
    else:
        y = np.array([[float(t) for t in toks] for toks in rep["row"]])
        maxcut(case["closed"], eps, case["weights"], _f(rep, "lower"), _f(rep, "upper"), y,
               int(rep["widened"][0][0]))
