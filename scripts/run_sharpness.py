#!/usr/bin/env python3
"""Sharpness tables for the mixed weak-type ratios.

Prints the analytic tables for both lower-bound constructions, fits the
scaling exponents, and (optionally) re-measures the one-weight ratio on
refining grids to show convergence to the closed-form value.

Usage:
  python3 scripts/run_sharpness.py
  python3 scripts/run_sharpness.py --grid --levels 10,12,14
"""

import argparse
import sys

import weightlab.experiments as exp
from weightlab.cli import dispatch, floats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0.5,0.3333333333333333,0.25,0.2")
    ap.add_argument("--alphas", default="0.5,0.25,0.125,0.0625")
    ap.add_argument("--grid", action="store_true", help="run the grid refinement study")
    ap.add_argument("--levels", default="10,12,14", help="grid L values for --grid")
    ap.set_defaults(func=run)
    return dispatch(ap, argv)


def run(args) -> int:
    # every table is built before any is printed, so a usage error leaves stdout empty
    deltas = floats(args.deltas)
    alphas = floats(args.alphas)
    res = exp.sharpness_a1_sweep(deltas)
    res2 = exp.sharpness_product_sweep(alphas, deltas)
    grid_rows = [exp.sharpness_a1_grid(0.5, L=L) for L in floats(args.levels, int)] if args.grid else []

    print("# one-weight sharpness (analytic path)")
    print(f"{'delta':>8} {'numerator':>12} {'denominator':>12} {'ratio':>10}")
    for r in res.rows:
        print(f"{r['delta']:>8.4f} {r['numerator']:>12.4f} {r['denominator']:>12.4f} {r['ratio']:>10.4f}")
    if fit := res.fits.get("ratio_vs_inv_delta"):  # a sweep fits three or more points only
        print(f"log-log slope vs 1/delta: {fit.slope:.6f}  (R^2 = {fit.r2:.6f})")

    print("\n# two-weight product sharpness (analytic path)")
    print(f"{'alpha':>8} {'delta':>8} {'ratio':>10} {'1/(a d)':>10}")
    for r in res2.rows:
        print(f"{r['alpha']:>8.4f} {r['delta']:>8.4f} {r['ratio']:>10.4f} {r['product_proxy']:>10.4f}")
    for name in ("alpha", "delta"):
        if fit := res2.fits.get(f"ratio_vs_inv_{name}"):
            print(f"slope vs 1/{name}: {fit.slope:.6f}")

    if args.grid:
        print("\n# grid refinement at delta = 1/2 (analytic ratio = 2)")
        for row in grid_rows:
            print(f"L={row['L']:>3}  grid ratio = {row['ratio']:.8f}  rel gap = {row['rel_gap']:+.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
