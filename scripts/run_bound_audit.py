#!/usr/bin/env python3
"""Upper-bound audit for the A_p-case weak-type estimate.

For the step/random-walk weight family and the standard test corpus,
measures the mixed weak-type ratio (u = 1, dyadic operator) against the
bound expressions [v]_{AinfFW} max{p, log(e+[v]_{A_p})} and
[v]_{A_p} max{p, log(e+[v]_{A_p})}, reports the family-wide envelope and
its stability under refinement, and checks the decomposition-exponent
algebra plus the mixed-constant lemma and the empirical operator-norm
bound along the way.
"""

import argparse
import sys

import weightlab as wl
import weightlab.experiments as exp
from weightlab.cli import dispatch, floats
from weightlab.errors import ConfigError


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--J", type=int, default=1)
    ap.add_argument("--L", type=int, default=8)
    ap.add_argument("--ps", default="1,2")
    ap.add_argument("--seed", type=int, default=0)
    ap.set_defaults(func=run)
    return dispatch(ap, argv)


def run(args) -> int:
    ps = floats(args.ps)
    if not ps:
        raise ConfigError("--ps needs at least one p")

    ok = True
    for L in (args.L, args.L + 1):
        grid = wl.build_grid(args.J, L)
        fam = exp.step_family(grid, seed=7)
        print(f"# grid J={args.J} L={L}  ({grid.ncells} cells)")
        for p in ps:
            rep = exp.bound_audit_ap(fam, p, seed=args.seed)
            ok &= rep.all_ok
            print(f"p={p}: envelope vs AinfFW bound = {rep.envelope_ainf:.4f}, "
                  f"vs Ap bound = {rep.envelope_ap:.4f}")
            for row in rep.rows:
                print(f"  {row['weight']:>14}: [v]_Ap={row['ap']:.3f} "
                      f"[v]_FW={row['ainf_fw']:.3f} max ratio={row['max_ratio']:.4f} "
                      f"({row['worst_function']})")
    grid = wl.build_grid(args.J, args.L)
    fam = exp.step_family(grid, seed=7)
    lemma = exp.mixed_lemma_check(fam, [p for p in ps if p > 1] or [1.5, 2.0])
    ok &= lemma.all_ok
    print(f"mixed-constant lemma: {'pass' if lemma.all_ok else 'FAIL'}")
    for name, v in fam[:2]:
        for p in (2.0,):
            b = exp.buckley_empirical(v, p, seed=args.seed)
            print(f"operator-norm check {name} p={p}: implied c = {b.implied_c:.4f}, "
                  f"dual identity rel err = {b.dual_identity_max_rel:.2e}")
            ok &= b.dual_identity_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
