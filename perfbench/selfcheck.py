"""Self-check of the checkers: valid certificates pass, tampered ones fail.

The library-level cases build their certificates by hand from the
generators, so they do not depend on the solver.  The CLI cases run one real
problem file of each kind and verdict, then tamper with the exit code or the
report text.
"""

from __future__ import annotations

import numpy as np

import check
import gen
import workloads


def _expect(failures: list, name: str, fn, *args, reject: bool) -> None:
    try:
        fn(*args)
    except check.Reject as err:
        if not reject:
            failures.append(f"{name}: valid certificate rejected ({err})")
        return
    if reject:
        failures.append(f"{name}: tampered certificate accepted")


def _library_cases(failures: list) -> None:
    rng = np.random.default_rng(7)
    eps = 1e-3
    stack = gen.family(rng, 6, 4)

    # feasible: exact factors of a planted point
    x = gen.interior_point(rng, 6)
    vals, vecs = np.linalg.eigh(x)
    keep = vals > 1e-12
    w, v = vals[keep] / vals[keep].sum(), vecs[:, keep].T
    b = gen.contract(stack, x)
    r = gen.radius(stack, b)
    _expect(failures, "shm feasible", check.shm_feasible, stack, b, eps, w, v, reject=False)
    shifted = b + 10.0 * eps * r * gen.unit(rng, 4)
    _expect(failures, "shm shifted target", check.shm_feasible, stack, shifted, eps, w, v,
            reject=True)
    _expect(failures, "shm weights off simplex", check.shm_feasible, stack, b, eps, 1.1 * w, v,
            reject=True)

    # witness: the support hyperplane halfway between the set and the target
    d = gen.unit(rng, 4)
    h = gen.support(stack, d)
    c = gen.contract(stack, np.eye(6) / 6)
    target = c + (h - float(d @ c) + 1.0) * d
    normal, offset = -d, -(h + 0.5)
    _expect(failures, "shm witness", check.shm_witness, stack, target, normal, offset,
            reject=False)
    _expect(failures, "shm flipped normal", check.shm_witness, stack, target, -normal, -offset,
            reject=True)
    _expect(failures, "shm target moved inside", check.shm_witness, stack, c, normal, offset,
            reject=True)
    _expect(failures, "shm hyperplane through the set", check.shm_witness, stack, target,
            normal, offset + 0.75, reject=True)

    # point hull: the same support construction over finitely many points
    pts = rng.standard_normal((12, 3))
    d3 = gen.unit(rng, 3)
    top = float((pts @ d3).max())
    p0 = pts.mean(axis=0) + (top - float(d3 @ pts.mean(axis=0)) + 1.0) * d3
    _expect(failures, "chm witness", check.chm_witness, pts, p0, -d3, -(top + 0.5),
            reject=False)
    _expect(failures, "chm hyperplane through the points", check.chm_witness, pts, p0, -d3,
            -(top + 0.5) + 0.75, reject=True)
    coeffs = rng.dirichlet(np.ones(12))
    _expect(failures, "chm feasible", check.chm_feasible, pts, coeffs @ pts, eps, coeffs,
            coeffs @ pts, reject=False)
    _expect(failures, "chm coefficients off the point", check.chm_feasible, pts, coeffs @ pts,
            eps, np.roll(coeffs, 1), coeffs @ pts, reject=True)

    # two sets: the right family translated past the left one's support
    left, right = gen.family(rng, 4, 3), gen.family(rng, 4, 3)
    d = gen.unit(rng, 3)
    top = gen.support(left, d)
    low = float(np.linalg.eigvalsh(np.tensordot(d, right, axes=1))[0])
    right = right + ((top - low + 1.0) * d)[:, None, None] * np.eye(4)
    _expect(failures, "separated", check.separated, left, right, d, top + 0.5, reject=False)
    _expect(failures, "separating offset inside the left set", check.separated, left, right, d,
            top - 0.25, reject=True)
    _expect(failures, "separating offset inside the right set", check.separated, left, right,
            d, top + 1.25, reject=True)

    # cut relaxation on K3: Y = 3/2 I - 1/2 J is optimal with value -3
    n, edges, closed = gen.graph("K3")
    wts = np.zeros((n, n))
    for i, j in edges:
        wts[i, j] = wts[j, i] = 1.0
    y = 1.5 * np.eye(3) - 0.5 * np.ones((3, 3))
    ok = (closed, 1e-2, wts, -3.005, -2.996, y, 0)
    _expect(failures, "maxcut", check.maxcut, *ok, reject=False)
    # unit diagonal and value -3, but the leading 2x2 minor is negative
    bad = np.array([[1.0, -1.2, 0.1], [-1.2, 1.0, -0.4], [0.1, -0.4, 1.0]])
    _expect(failures, "maxcut Y not PSD", check.maxcut, closed, 1e-2, wts, -3.005, -2.996, bad,
            0, reject=True)
    _expect(failures, "maxcut Y off diagonal", check.maxcut, closed, 1e-2, wts, -3.005, -2.996,
            1.05 * y, 0, reject=True)
    _expect(failures, "maxcut wrong closed form", check.maxcut, closed + 0.2, 1e-2, wts, -3.005,
            -2.996, y, 0, reject=True)


def _negate(text: str, *keys: str) -> str:
    out = []
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key in keys:
            line = key + " " + " ".join(repr(-float(t)) for t in rest.split())
        out.append(line)
    return "\n".join(out) + "\n"


def _bump_first(text: str, key: str) -> str:
    head, sep, tail = text.partition(key + " ")
    first, _, rest = tail.partition(" ")
    return head + sep + repr(float(first) + 1.0) + " " + rest


def _cli_cases(failures: list, workdir: str) -> None:
    ops, files = workloads.cli_samples(workdir)
    workloads.write_files(files)
    for op in ops:
        case = op.case
        kind, code = case["kind"], case["code"]
        got_code, text = op.call()
        name = f"cli {kind} exit {code}"
        _expect(failures, name, check.cli_case, case, got_code, text, reject=False)
        _expect(failures, name + " wrong exit code", check.cli_case, case, 1 - got_code, text,
                reject=True)
        if "hyperplane-normal" in text:
            _expect(failures, name + " flipped normal", check.cli_case, case, got_code,
                    _negate(text, "hyperplane-normal", "hyperplane-offset"), reject=True)
        if "solution-row" in text:
            _expect(failures, name + " moved solution", check.cli_case, case, got_code,
                    _bump_first(text, "solution-row"), reject=True)
        if kind == "shm" and code == 0:
            _expect(failures, name + " moved term", check.cli_case, case, got_code,
                    _bump_first(text, "term"), reject=True)


def run(workdir: str) -> list[str]:
    """Every way the checkers misjudged a case; empty when all held."""
    failures: list[str] = []
    _library_cases(failures)
    _cli_cases(failures, workdir)
    return failures
