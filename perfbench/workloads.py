"""The four workloads: seeded inputs, the top-level call, its check, and
the loop that runs a round of them.

Traced entry points (``reductions.solve_maxcut_relaxation``, ``cli.run``)
are looked up in their modules at call time, so a traced round goes through
the tracer's wrappers.  Each operation's expected verdict comes from how its
input was built, never from an earlier run's output.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import check
import gen
from spectrahull import cli, reductions, shm
from spectrahull.symcore import ShmInstance


class NoCertificate(Exception):
    """The call ended without a decided certificate (budget or error exit)."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    case: dict | None = None  # CLI ops: what the checker knows about the input


@dataclass
class Workload:
    ops: list
    warmup: list
    files: dict = field(default_factory=dict)  # problem files the ops read, by path
    warm_files: dict = field(default_factory=dict)  # and those the warm-up reads


def write_files(files: dict) -> None:
    for path, text in files.items():
        with open(path, "w") as fh:
            fh.write(text)


class Tally:
    """Outcomes of the calls made in one or more rounds."""

    def __init__(self):
        self.times: list[float] = []  # calls that returned a checked certificate
        self.busy = 0.0  # seconds inside every attempted call
        self.attempted = 0
        self.failed = 0
        self.rejected: list[str] = []
        self.report_bytes = 0


def run_round(ops, tally: Tally) -> None:
    """Call every op once, in order, and check each result."""
    for op in ops:
        tally.attempted += 1
        t = perf_counter()
        try:
            res = op.call()
        except Exception as err:  # a crash is a failed operation, not a dead run
            tally.busy += perf_counter() - t
            tally.failed += 1
            print(f"# failed {op.label}: {type(err).__name__}: {err}", file=sys.stderr)
            continue
        dt = perf_counter() - t
        tally.busy += dt
        if op.case is not None:
            tally.report_bytes += len(res[1])
        try:
            op.check(res)
        except NoCertificate as err:
            tally.failed += 1
            print(f"# no certificate: {err}", file=sys.stderr)
            continue
        except check.Reject as err:
            tally.rejected.append(f"{op.label}: {err}")
            continue
        tally.times.append(dt)


def _shuffled(rng, feasible: list, witness: list) -> list:
    ops = feasible + witness
    return [ops[i] for i in rng.permutation(len(ops))]


# --- shm-power and shm-cached: direct library calls ------------------------

def _shm_op(label, stack, b, eps, inside, solve):
    inst = ShmInstance(tuple(stack), b)

    def verdict(cert):
        if cert.kind == "inconclusive":
            raise NoCertificate(label)
        if cert.kind != ("feasible" if inside else "witness"):
            raise check.Reject(f"{cert.kind} for a target built the other way")
        if inside:
            check.shm_feasible(stack, b, eps, cert.point.weights, cert.point.vectors)
        else:
            check.shm_witness(stack, b, cert.hyperplane.normal, cert.hyperplane.offset)

    return Op(label, lambda: solve(inst, eps), verdict)


def _forced(label: str, margin: float, eps: float, scale: float) -> None:
    """An outside case's verdict is forced only when its margin clears eps * scale."""
    if margin and margin <= eps * scale:
        raise RuntimeError(f"{label}: margin {margin:.3g} inside tolerance {eps * scale:.3g}")


def _shm_workload(rng, n, m, eps, n_feasible, n_witness, depth, solve) -> Workload:
    def cases(count, inside, tag):
        out = []
        for i in range(count):
            stack, b, margin = gen.shm_case(rng, n, m, inside, depth)
            _forced(f"{tag}{i}", margin, eps, gen.radius(stack, b))
            out.append(_shm_op(f"{tag}{i}", stack, b, eps, inside, solve))
        return out

    ops = _shuffled(rng, cases(n_feasible, True, "in"), cases(n_witness, False, "out"))
    small = np.random.default_rng(12345)
    warm = [_shm_op("warm-in", *gen.shm_case(small, 4, 3, True)[:2], eps, True, solve),
            _shm_op("warm-out", *gen.shm_case(small, 4, 3, False, (0.05, 0.06))[:2], eps,
                    False, solve)]
    return Workload(ops, warm)


def shm_power(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    return _shm_workload(rng, 32, 10, 1e-5, 300, 30, (0.005, 0.05), shm.solve_shm)


def shm_cached(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    return _shm_workload(rng, 8, 6, 5e-3, 420, 600, (0.02, 0.08), shm.solve_shm_cached)


# --- maxcut-bisect --------------------------------------------------------

GRAPHS = ("K3", "K4", "C4", "C6", "K2,3")
MAXCUT_EPS = 1e-2


def _maxcut_op(name: str) -> Op:
    n, edges, closed = gen.graph(name)
    mc = reductions.MaxCutInstance.from_edges(n, [(i, j, 1.0) for i, j in edges])

    def verdict(res):
        if res.status != "converged":
            raise NoCertificate(name)
        check.maxcut(closed, MAXCUT_EPS, mc.weights, res.lower, res.upper, res.matrix,
                     res.widened)

    return Op(name, lambda: reductions.solve_maxcut_relaxation(mc, MAXCUT_EPS), verdict)


def maxcut_bisect(seed: int, workdir: str) -> Workload:
    # Labels stay fixed: relabelling vertices reorders the power probe's
    # random sign vectors and moves one graph's time by up to 10x.  The seed
    # only orders the calls.
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(GRAPHS))
    return Workload([_maxcut_op(GRAPHS[i]) for i in order], [_maxcut_op("K2,1")])


# --- cli-mixed ------------------------------------------------------------

CLI_EPS = 1e-2  # the CLI default
VERIFY_SAMPLES = 200


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _rows(mat) -> list[str]:
    return [" ".join(_fmt(x) for x in row) for row in mat]


def _family_text(stack) -> list[str]:
    return [f"n {stack.shape[1]}", f"m {stack.shape[0]}"]


def _blocks(stack) -> list[str]:
    out = []
    for k, a in enumerate(stack, start=1):
        out.append(f"A {k}")
        out.extend(_rows(a))
    return out


def _cli_case(rng, kind: str, yes: bool) -> tuple[dict, str, list[str]]:
    """(case for the checker, problem text, argv tail) for one problem file."""
    if kind in ("shm", "sdp"):
        if kind == "shm":
            stack, b, margin = gen.shm_case(rng, 4, 3, yes, (0.1, 0.3))
            scale = gen.radius(stack, b)
        else:
            stack, b, margin = gen.sdp_case(rng, 3, 2, yes)
            scale = gen.mass(check.bordered(stack, b))
        text = [kind, *_family_text(stack), "b " + " ".join(_fmt(x) for x in b), *_blocks(stack)]
        case = {"stack": stack, "b": b}
        argv = ["solve", "--verify", str(VERIFY_SAMPLES)] if kind == "shm" else ["solve"]
    elif kind == "chm":
        pts, p0, margin = gen.chm_case(rng, 3, 12, yes)
        scale = float(np.linalg.norm(pts - p0, axis=1).max())
        text = ["chm", "m 3", f"N {len(pts)}", "p0 " + " ".join(_fmt(x) for x in p0),
                *_rows(pts)]
        case = {"points": pts, "p0": p0}
        argv = ["solve"]
    elif kind == "svm":
        left, right, margin = gen.svm_case(rng, 3, 3, not yes)
        scale = max(gen.mass(left), gen.mass(right))
        text = ["svm", "left", *_family_text(left), *_blocks(left),
                "right", *_family_text(right), *_blocks(right)]
        case = {"left": left, "right": right}
        argv = ["solve"]
    else:
        w = float(rng.uniform(0.5, 2.0))
        text = ["maxcut", "n 2", f"edge 1 2 {_fmt(w)}"]
        case = {"closed": -2.0 * w, "weights": np.array([[0.0, w], [w, 0.0]])}
        argv = ["maxcut"]
        margin = scale = 0.0
    _forced(kind, margin, CLI_EPS, scale)
    case.update(kind=kind, code=0 if yes else 1, eps=CLI_EPS)
    return case, "\n".join(text) + "\n", argv


# files per round for each (kind, expected exit 0); the 0/1 splits are uneven
CLI_MIX = (
    ("shm", True, 360), ("shm", False, 160),
    ("chm", True, 280), ("chm", False, 120),
    ("sdp", True, 240), ("sdp", False, 100),
    ("svm", True, 220), ("svm", False, 100),
    ("maxcut", True, 420),
)


def _cli_op(label, case, path, argv_tail) -> Op:
    argv = [argv_tail[0], "--input", path, *argv_tail[1:]]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        return code, out.getvalue()

    def verdict(res):
        code, text = res
        if code not in (0, 1):
            raise NoCertificate(f"{label}: exit {code}")
        check.cli_case(case, code, text)

    return Op(label, call, verdict, case)


def cli_samples(workdir: str) -> tuple[list, dict]:
    """One fixed problem file per (kind, exit code) pair of the mix: the ops
    and the files they read, by path."""
    ops, files = [], {}
    for i, (kind, yes, _) in enumerate(CLI_MIX):
        label = f"sample-{kind}-{int(yes)}"
        case, text, argv = _cli_case(np.random.default_rng(i), kind, yes)
        path = os.path.join(workdir, label)
        files[path] = text
        ops.append(_cli_op(label, case, path, argv))
    return ops, files


def cli_mixed(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    specs = [(kind, yes) for kind, yes, count in CLI_MIX for _ in range(count)]
    ops, files = [], {}
    for i in rng.permutation(len(specs)):
        kind, yes = specs[i]
        case, text, argv = _cli_case(rng, kind, yes)
        path = os.path.join(workdir, f"p{len(ops):05d}.{kind}")
        files[path] = text
        ops.append(_cli_op(os.path.basename(path), case, path, argv))
    warmup, warm_files = cli_samples(workdir)
    return Workload(ops, warmup, files, warm_files)


BUILDERS = {
    "shm-power": shm_power,
    "shm-cached": shm_cached,
    "maxcut-bisect": maxcut_bisect,
    "cli-mixed": cli_mixed,
}
