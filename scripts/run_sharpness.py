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
from weightlab.errors import ConfigError


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--deltas", default="0.5,0.3333333333333333,0.25,0.2")
    ap.add_argument("--alphas", default="0.5,0.25,0.125,0.0625")
    ap.add_argument("--grid", action="store_true", help="run the grid refinement study")
    ap.add_argument("--levels", default="10,12,14", help="grid L values for --grid")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run(args) -> int:
    deltas = [float(x) for x in args.deltas.split(",")]
    alphas = [float(x) for x in args.alphas.split(",")]

    res = exp.sharpness_a1_sweep(deltas)
    print("# one-weight sharpness (analytic path)")
    print(f"{'delta':>8} {'numerator':>12} {'denominator':>12} {'ratio':>10}")
    for r in res.rows:
        print(f"{r['delta']:>8.4f} {r['numerator']:>12.4f} {r['denominator']:>12.4f} {r['ratio']:>10.4f}")
    fit = res.fits["ratio_vs_inv_delta"]
    print(f"log-log slope vs 1/delta: {fit.slope:.6f}  (R^2 = {fit.r2:.6f})")

    res2 = exp.sharpness_product_sweep(alphas, deltas)
    print("\n# two-weight product sharpness (analytic path)")
    print(f"{'alpha':>8} {'delta':>8} {'ratio':>10} {'1/(a d)':>10}")
    for r in res2.rows:
        print(f"{r['alpha']:>8.4f} {r['delta']:>8.4f} {r['ratio']:>10.4f} {r['product_proxy']:>10.4f}")
    print(f"slope vs 1/alpha: {res2.fits['ratio_vs_inv_alpha'].slope:.6f}")
    print(f"slope vs 1/delta: {res2.fits['ratio_vs_inv_delta'].slope:.6f}")

    if args.grid:
        print("\n# grid refinement at delta = 1/2 (analytic ratio = 2)")
        for L in (int(x) for x in args.levels.split(",")):
            row = exp.sharpness_a1_grid(0.5, L=L)
            print(f"L={L:>3}  grid ratio = {row['ratio']:.8f}  rel gap = {row['rel_gap']:+.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
