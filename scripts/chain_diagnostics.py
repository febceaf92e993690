#!/usr/bin/env python3
"""Monte Carlo diagnostics for the Markov-chain reading of the upwind scheme.

Samples trajectory batches, compares the empirical law with the exactly
propagated law in total variation, and reports the per-state martingale
increment residuals in units of their standard errors.
"""

import argparse
import sys

import numpy as np

from mtlab.harness import StudyConfig, step_count
from mtlab.measures import project_initial
from mtlab.schemes import SchemeSpec
from mtlab.stochastic import (
    empirical_law,
    increment_residual,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", default="example1")
    ap.add_argument("--N", type=int, default=50)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = StudyConfig(example=args.example, T=args.T, seed=args.seed)
    grid = cfg.grid_for(args.N)
    mu0 = project_initial(cfg.initial(), grid)
    steps = step_count(cfg.T, grid.dt)
    kernels = make_kernels(mu0, SchemeSpec(cfg.scheme), cfg.field(), steps)
    batch = sample_paths(mu0, kernels, args.paths, args.seed)
    stats = increment_residual(batch, cfg.field(), grid, min_visits=1000)

    print(f"{'step':>4} {'tv(emp,law)':>12} {'worst resid/SE':>15} "
          f"{'max|h|/2dx':>11}")
    mu = mu0
    for n, st in enumerate(stats):
        tv = total_variation(empirical_law(batch, n), mu)
        worst = 0.0
        for _, mean, stderr in st.per_state.values():
            if stderr > 0.0:
                worst = max(worst, float(np.max(np.abs(mean))) / stderr)
        print(f"{n:>4} {tv:>12.3e} {worst:>15.2f} "
              f"{st.max_abs_h / (2 * grid.dx[0]):>11.3f}")
        mu = propagate_law(mu, [kernels[n]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
