"""Span tracing from outside the package.

Each traced name is replaced, for the duration of a traced round, by a
wrapper installed in the module where its caller looks it up (for example
``spectrahull.shm.min_eig_power``, which the pivot oracle resolves from the
``shm`` module's globals).  The package source is never edited.  Spans
(name, start, end, parent) go into flat in-memory arrays and are written out
once at the end; counters read from return values are kept alongside.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _jacobi(c, args, out):
    c["eigen.jacobi_ops_computed"] += args[0].n ** 3


def _power(c, args, out):
    c["eigen.power_matvecs"] += out.iterations
    c["eigen.power_early"] += out.exited_early


def _driver(c, args, out):
    c["shm.pivot_steps"] += out.iterations


def _oracle(c, args, out):
    c["shm.oracle_cache"] += out.method == "cache"
    c["shm.oracle_jacobi"] += out.method == "jacobi"


def _scan(c, args, out):
    c["chm.scan_hits"] += out is not None


def _bisection(c, args, out):
    c["reductions.widened"] += out.widened


def _separation(c, args, out):
    c["svmsep.pivot_steps"] += out.iterations


# (module, attribute, span name, counter hook).  The layer is the span
# name's prefix.
TARGETS = (
    ("spectrahull.eigen", "jacobi_eigen", "eigen.jacobi", _jacobi),
    ("spectrahull.shm", "min_eig_power", "eigen.power", _power),
    ("spectrahull.shm", "_run", "shm.driver", _driver),
    ("spectrahull.shm", "pivot_oracle", "shm.oracle", _oracle),
    ("spectrahull.shm", "_prune_arrays", "shm.prune", None),
    ("spectrahull.cli", "verify_certificate", "shm.verify", None),
    ("spectrahull.shm", "find_pivot", "chm.scan", _scan),
    ("spectrahull.cli", "solve_chm", "chm.solve", None),
    ("spectrahull.shm", "rank_one_image", "symcore.kernel", None),
    ("spectrahull.svmsep", "rank_one_image", "symcore.kernel", None),
    ("spectrahull.shm", "image", "symcore.kernel", None),
    ("spectrahull.shm", "_term_images", "symcore.kernel", None),
    ("spectrahull.reductions", "maxcut_feasibility_probe", "reductions.probe", None),
    ("spectrahull.reductions", "solve_maxcut_relaxation", "reductions.bisection", _bisection),
    ("spectrahull.cli", "solve_maxcut_relaxation", "reductions.bisection", _bisection),
    ("spectrahull.cli", "reduce_sdp_to_shm", "reductions.sdp_reduce", None),
    ("spectrahull.cli", "solve_separation", "svmsep.solve", _separation),
    ("spectrahull.cli", "run", "cli.run", None),
    ("spectrahull.cli", "parse_problem", "cli.parse", None),
)

LAYERS = ("eigen", "shm", "chm", "symcore", "reductions", "svmsep", "cli")


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        stack, counts = self._stack, self.counts
        ids, parents, starts, ends = self.nid, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    def __enter__(self):
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def arrays(self):
        return (
            np.frombuffer(self.nid, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds.

        Self time is a span's duration minus its direct children's; with one
        thread, children nest inside their parent without overlap.
        """
        nid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=own, minlength=k)
        out = {
            name: {"calls": float(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }
        out["<roots>"] = {"s": float(dur[~has_parent].sum())}
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed over each layer's spans."""
        s = self.summary()
        return {
            layer: sum(v["self_s"] for k, v in s.items() if k.split(".")[0] == layer)
            for layer in LAYERS
        }

    def dump(self, path) -> None:
        nid, parent, start, end = self.arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez(path, names=np.array(self.names), name=nid, parent=parent,
                 start=start - t0, end=end - t0)
