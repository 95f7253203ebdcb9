#!/usr/bin/env python3
"""Run the cut-value relaxation on a complete or random graph.

Prints the bisection trace (probe level, verdict, iterations, eigen calls),
the final relaxation value with its bracket, and the cut upper bound the
value implies.  Unit-weight complete graphs anchor at exactly -n, attained
with every off-diagonal at -1/(n-1), so K2 and K3 are quick sanity checks
at -2 and -3.
"""

import argparse
from dataclasses import dataclass

import numpy as np

from spectrahull import MaxCutInstance, solve_maxcut_relaxation


@dataclass
class DemoConfig:
    n: int = 3
    density: float = 1.0
    epsilon: float = 1e-3
    seed: int = 0
    max_iters: int = 50_000


def build_graph(cfg: DemoConfig) -> MaxCutInstance:
    rng = np.random.default_rng(cfg.seed)
    edges = []
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            if cfg.density >= 1.0 or rng.uniform() < cfg.density:
                w = 1.0 if cfg.density >= 1.0 else float(rng.uniform(0.1, 1.0))
                edges.append((i, j, w))
    return MaxCutInstance.from_edges(cfg.n, edges)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="vertex count")
    ap.add_argument(
        "--density", type=float, default=1.0,
        help="edge probability; 1.0 gives the unit-weight complete graph",
    )
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0, help="draws the random graph")
    ap.add_argument("--max-iters", type=int, default=50_000)
    a = ap.parse_args(argv)
    cfg = DemoConfig(a.n, a.density, a.epsilon, a.seed, a.max_iters)

    mc = build_graph(cfg)
    print(f"graph: n={mc.n}, total weight {mc.weights.sum() / 2.0:g}")
    res = solve_maxcut_relaxation(mc, epsilon=cfg.epsilon, max_iters=cfg.max_iters)

    print(f"{'probe w':>14} {'verdict':>12} {'iters':>8} {'eig calls':>10}")
    for rec in res.trace:
        print(f"{rec.w:14.6f} {rec.kind:>12} {rec.iterations:8d} {rec.oracle_calls:10d}")
    print(f"status {res.status} (width retries: {res.widened})")
    print(f"relaxation value {res.value:.6f} in [{res.lower:.6f}, {res.upper:.6f}]")
    print(f"implied cut upper bound {mc.cut_upper_bound(res.value):.6f}")
    worst_diag = float(np.max(np.abs(np.diag(res.matrix) - 1.0))) if mc.n else 0.0
    print(f"worst unit-diagonal deviation {worst_diag:.2e}")
    return 0 if res.converged else 2


if __name__ == "__main__":
    raise SystemExit(main())
