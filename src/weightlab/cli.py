"""Command-line surface: weight specs in, JSON/CSV reports out.

Weight spec grammar (exact):
    const:c=<v> | power:delta=<v> | step:alpha=<v> | csv:<path>
    | prod:(<spec>,<spec>)

Exit codes: 0 success, 1 a verification block failed, 2 usage error.
All JSON reports carry a top-level {"schema": 1}; every non-finite float,
at any depth, is encoded as the string "inf", "-inf" or "nan".  All
randomness hangs off --seed (a non-negative integer, default 0), so
identical invocations are byte-identical.  main() may be called repeatedly
in one process: it builds its argument parser once and reuses it, since
parsing does not change it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import czd as czd_mod
from . import experiments as exp
from . import sawyer as pc
from .constants import (
    ConstantKind,
    doubling_check,
    encode_nonfinite,
    global_constant,
    reverse_holder_check,
)
from .errors import ConfigError, CsvFormatError
from .grid import build_grid
from .maximal import dyadic_maximal, uncentered_maximal, weighted_dyadic_maximal
from .norms import mixed_ratio
from .weights import (
    format_rows,
    load_function_csv,
    parse_weight_spec,
    realize,
    save_function_csv,
)

SCHEMA = 1


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA} | payload
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float: quote it
        text = json.dumps(encode_nonfinite(payload), sort_keys=True, allow_nan=False)
    print(text)


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad numeric list {text!r}") from None


def _realize_spec(text: str, grid):
    return realize(parse_weight_spec(text), grid)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_constants(args) -> int:
    grid = build_grid(args.J, args.L)
    kind_args = {}
    if args.kind in ("Ap", "Mixed"):
        if args.p is None:
            raise ConfigError(f"--p required for kind {args.kind}")
        kind_args["p"] = args.p
    if args.kind == "Mixed":
        if args.alpha is None or args.beta is None:
            raise ConfigError("--alpha and --beta required for kind Mixed")
        kind_args["alpha"] = args.alpha
        kind_args["beta"] = args.beta
    kind = ConstantKind(args.kind, **kind_args)
    w = _realize_spec(args.weight, grid)
    report = global_constant(w, kind)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print("level,value,argmax_index")
        for k, v, m in report.per_level:
            print(f"{k},{v!r},{m}")
    return 0


def _cmd_maximal(args) -> int:
    f = load_function_csv(args.f, args.J)
    if args.variant == "dyadic":
        out = dyadic_maximal(f, signed=args.signed)
    elif args.variant == "uncentered":
        out = uncentered_maximal(f)
    elif args.variant == "weighted":
        if args.v is None:
            raise ConfigError("--v required for the weighted variant")
        v = _realize_spec(args.v, f.grid)
        out = weighted_dyadic_maximal(f, v)
    else:
        raise ConfigError(f"unknown variant {args.variant!r}")
    sys.stdout.writelines(format_rows(out.values))
    return 0


def _cmd_czd(args) -> int:
    f = load_function_csv(args.f, args.J)
    v = _realize_spec(args.v, f.grid)
    dec = czd_mod.cz_decompose(f, v, args.height)
    verify = czd_mod.verify_cz(dec, v, args.r)
    dom = czd_mod.pointwise_domination_check(dec, v)
    if args.out_g:
        save_function_csv(dec.good, args.out_g)
    if args.out_b:
        save_function_csv(dec.bad_total, args.out_b)
    payload = dec.to_json_dict() | {
        "verify": verify.to_json_dict(),
        "domination": dom.to_json_dict(),
    }
    _emit_json(payload)
    return 0 if (verify.all_ok and dom.all_ok) else 1


def _cmd_weaknorm(args) -> int:
    f = load_function_csv(args.f, args.J)
    u = _realize_spec(args.u, f.grid)
    v = _realize_spec(args.v, f.grid)
    rep = mixed_ratio(f, u, v, variant=args.variant)
    _emit_json(rep.to_json_dict())
    return 0


def _cmd_sharpness_a1(args) -> int:
    res = exp.sharpness_a1_sweep(_floats(args.deltas), include_grid=args.grid, L=args.L)
    if args.format == "json":
        _emit_json(res.to_json_dict())
    else:
        print("delta,path,numerator,denominator,ratio")
        for r in res.rows:
            print(f"{r['delta']},{r['path']},{r['numerator']!r},{r['denominator']!r},{r['ratio']!r}")
    return 0


def _cmd_sharpness_product(args) -> int:
    res = exp.sharpness_product_sweep(_floats(args.alphas), _floats(args.deltas))
    ok = all(r["lower_ok"] for r in res.rows)
    if args.format == "json":
        _emit_json(res.to_json_dict())
    else:
        print("alpha,delta,numerator,denominator,ratio")
        for r in res.rows:
            print(f"{r['alpha']},{r['delta']},{r['numerator']!r},{r['denominator']!r},{r['ratio']!r}")
    return 0 if ok else 1


def _cmd_bound_audit(args) -> int:
    grid = build_grid(args.J, args.L)
    if args.v:
        weights = [(args.v, _realize_spec(args.v, grid))]
    else:
        weights = exp.step_family(grid, seed=args.seed)
    corpus = None
    if args.corpus:
        import os

        corpus = []
        for name in sorted(os.listdir(args.corpus)):
            if name.endswith(".csv"):
                f = load_function_csv(os.path.join(args.corpus, name), grid.J)
                if f.grid != grid:
                    n = len(f.values)
                    raise CsvFormatError(n + 1, f"expected {grid.ncells} rows, got {n}")
                corpus.append((name, f))
    report = exp.bound_audit_ap(weights, args.p, corpus=corpus, seed=args.seed)
    _emit_json(report.to_json_dict())
    return 0 if report.all_ok else 1


def _cmd_sawyer_verify(args) -> int:
    g = load_function_csv(args.g, args.J)
    u = _realize_spec(args.u, g.grid)
    v = _realize_spec(args.v, g.grid)
    record = pc.build_record(g, v, a=args.a, delta_frac=args.delta_frac)
    pc.principal_cubes(record, u)
    report = pc.verify_chain(record, u, v, g, seed=args.seed)
    _emit_json(record.to_json_dict() | {"chain": report.to_json_dict()})
    return 0 if report.all_ok else 1


def _cmd_lemma_check(args) -> int:
    grid = build_grid(args.J, args.L)
    w = _realize_spec(args.v, grid)
    report = exp.mixed_lemma_check([(args.v, w)], _floats(args.p_grid))
    _emit_json(report.to_json_dict())
    return 0 if report.all_ok else 1


def _cmd_rh_check(args) -> int:
    grid = build_grid(args.J, args.L)
    w = _realize_spec(args.weight, grid)
    report = reverse_holder_check(w, seed=args.seed)
    _emit_json(report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_doubling(args) -> int:
    grid = build_grid(args.J, args.L)
    w = _realize_spec(args.weight, grid)
    report = doubling_check(w, args.p)
    _emit_json(report.to_json_dict())
    return 0 if report.parent_ok else 1


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weightlab",
        description="weight constants, maximal operators, CZ decompositions, "
        "and mixed weak-type experiments on dyadic grids",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="global weight constant over the dyadic grid")
    c.add_argument("--weight", required=True)
    c.add_argument("--kind", required=True, choices=["A1", "Ap", "AinfExp", "AinfFW", "Mixed"])
    c.add_argument("--p", type=float)
    c.add_argument("--alpha", type=float)
    c.add_argument("--beta", type=float)
    c.add_argument("--J", type=int, required=True)
    c.add_argument("--L", type=int, required=True)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.set_defaults(func=_cmd_constants)

    m = sub.add_parser("maximal", help="apply a maximal operator to a CSV function")
    m.add_argument("--f", required=True)
    m.add_argument("--variant", required=True, choices=["dyadic", "uncentered", "weighted"])
    m.add_argument("--v", help="weight spec for the weighted variant")
    m.add_argument("--J", type=int, default=0)
    m.add_argument("--signed", action="store_true", help="tilde variant (|averages|)")
    m.set_defaults(func=_cmd_maximal)

    z = sub.add_parser("czd", help="Calderon-Zygmund decomposition with verification")
    z.add_argument("--f", required=True)
    z.add_argument("--v", required=True)
    z.add_argument("--height", type=float, required=True)
    z.add_argument("--r", type=float, default=2.0)
    z.add_argument("--J", type=int, default=0)
    z.add_argument("--out-g")
    z.add_argument("--out-b")
    z.set_defaults(func=_cmd_czd)

    w = sub.add_parser("weaknorm", help="mixed weak-type ratio report")
    w.add_argument("--f", required=True)
    w.add_argument("--u", required=True)
    w.add_argument("--v", required=True)
    w.add_argument("--variant", choices=["Md", "M"], default="Md")
    w.add_argument("--J", type=int, default=0)
    w.set_defaults(func=_cmd_weaknorm)

    s1 = sub.add_parser("sharpness-a1", help="linear-sharpness table")
    s1.add_argument("--deltas", required=True)
    s1.add_argument("--grid", action="store_true", help="add grid-path rows (delta >= 1/2)")
    s1.add_argument("--L", type=int, default=12)
    s1.add_argument("--format", choices=["json", "csv"], default="json")
    s1.set_defaults(func=_cmd_sharpness_a1)

    s2 = sub.add_parser("sharpness-product", help="product lower-bound table")
    s2.add_argument("--alphas", required=True)
    s2.add_argument("--deltas", required=True)
    s2.add_argument("--format", choices=["json", "csv"], default="json")
    s2.set_defaults(func=_cmd_sharpness_product)

    b = sub.add_parser("bound-audit", help="weak-type bound envelope audit")
    b.add_argument("--v", help="single weight spec (default: step/walk family)")
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--J", type=int, default=1)
    b.add_argument("--L", type=int, default=8)
    b.add_argument("--corpus", help="directory of function CSVs")
    b.set_defaults(func=_cmd_bound_audit)

    sv = sub.add_parser("sawyer-verify", help="principal-cubes chain verification")
    sv.add_argument("--u", required=True)
    sv.add_argument("--v", required=True)
    sv.add_argument("--g", required=True)
    sv.add_argument("--a", type=float, default=4.0)
    sv.add_argument("--delta-frac", type=float, default=0.5, dest="delta_frac")
    sv.add_argument("--J", type=int, default=0)
    sv.set_defaults(func=_cmd_sawyer_verify)

    lc = sub.add_parser("lemma-check", help="mixed-constant chain and monotonicity")
    lc.add_argument("--v", required=True)
    lc.add_argument("--p-grid", required=True, dest="p_grid")
    lc.add_argument("--J", type=int, default=1)
    lc.add_argument("--L", type=int, default=8)
    lc.set_defaults(func=_cmd_lemma_check)

    rh = sub.add_parser("rh-check", help="reverse-Holder exponent check")
    rh.add_argument("--weight", required=True)
    rh.add_argument("--J", type=int, default=1)
    rh.add_argument("--L", type=int, default=8)
    rh.set_defaults(func=_cmd_rh_check)

    db = sub.add_parser("doubling", help="doubling-constant check")
    db.add_argument("--weight", required=True)
    db.add_argument("--p", type=float, default=1.0)
    db.add_argument("--J", type=int, default=1)
    db.add_argument("--L", type=int, default=8)
    db.set_defaults(func=_cmd_doubling)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.seed < 0:  # numpy's generators take non-negative seeds only
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, CsvFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
