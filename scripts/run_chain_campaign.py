#!/usr/bin/env python3
"""Seeded campaign over random A1 pairs for the principal-cubes chain.

Builds the level-set strata of random nonnegative test functions against
random A1 weights, runs the principal-cube selection, and verifies every
inequality of the chain (b2, b3, b6, b9, b10, the h bound, and the
level-set estimate) with its explicit constant.  Prints the distribution
of the assembled constant against the [v]^4 [u]^2 reference.
"""

import argparse
import sys

import numpy as np

import weightlab as wl
from weightlab.errors import ConfigError


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--cap", type=float, default=8.0, help="A1 constant cap")
    ap.add_argument("--a", type=float, default=4.0)
    ap.add_argument("--delta-frac", type=float, default=0.5)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        print(f"error: --pairs must be at least 1, got {args.pairs}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run(args) -> int:
    rng = np.random.default_rng(args.seed)
    envs = []
    fails = 0
    for i in range(args.pairs):
        J = int(rng.integers(0, 3))
        L = int(rng.integers(6, 9))
        grid = wl.build_grid(J, L)
        u = wl.random_a1_weight(grid, rng, cap=args.cap)
        v = wl.random_a1_weight(grid, rng, cap=args.cap)
        g = wl.GridFunction(
            grid, rng.lognormal(size=grid.ncells) * (rng.random(grid.ncells) < 0.6)
        )
        rec = wl.build_record(g, v, a=args.a, delta_frac=args.delta_frac)
        wl.principal_cubes(rec, u)
        rep = wl.verify_chain(rec, u, v, g, seed=i)
        if not rep.all_ok:
            fails += 1
            print(f"pair {i}: FAIL  {rep.to_json_dict()['checks']}")
        envs.append(rep.envelope)
    envs = np.array(envs)
    print(f"pairs: {args.pairs}, failures: {fails}")
    print(f"assembled / ([v]^4 [u]^2): min {envs.min():.1f}  "
          f"median {np.median(envs):.1f}  max {envs.max():.1f}")
    return 0 if fails == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
