"""Output checks for the benchmark campaigns.

Every check is computed apart from the code it checks: reference values
come from the piece structure of the inputs, from separate sweeps over the
cell values, or from properties the method must have.  Each checker
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-12


def _rel_err(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)


# ---------------------------------------------------------------------------
# refine


def step_maximal_reference(bounds: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Uncentered maximal of a nonnegative step function from its pieces.

    Piece k is the cell range [bounds[k], bounds[k+1]) with value
    heights[k].  For a cell c the average over [a, b), a <= c < b, is
    monotone in a across the inside of a piece (and likewise in b), so a
    best interval starts on a piece boundary at or left of c, or at c, and
    ends on a boundary right of c, or at c + 1.  Interval integrals are
    summed from whole-piece overlaps, so no prefix-sum cancellation enters.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    heights = np.asarray(heights, dtype=float)
    n = int(bounds[-1])
    cells = np.arange(n, dtype=np.int64)
    starts, ends = bounds[:-1], bounds[1:]
    a_opts = [cells] + [np.where(bk <= cells, bk, -1) for bk in bounds]
    b_opts = [cells + 1] + [np.where(bk > cells, bk, -1) for bk in bounds]
    best = np.zeros(n)
    for a in a_opts:
        for b in b_opts:
            ok = (a >= 0) & (b >= 0)
            if not ok.any():
                continue
            total = np.zeros(n)
            for s, e, h in zip(starts, ends, heights):
                overlap = np.minimum(b, e) - np.maximum(a, s)
                total += h * np.clip(overlap, 0, None)
            avg = np.where(ok, total / np.where(ok, b - a, 1), 0.0)
            np.maximum(best, avg, out=best)
    return best


def weak_ratio_reference(h: np.ndarray, f: np.ndarray) -> float:
    """||h||_{L^{1,inf}} / ||f||_{L^1} for unit weights, from the values.

    The supremum of t |{h > t}| over t is max over values s of s |{h >= s}|;
    the cell width cancels in the ratio.
    """
    s = np.sort(np.asarray(h, dtype=float))[::-1]
    counts = np.arange(1, len(s) + 1, dtype=float)
    return float(np.max(s * counts)) / float(np.sum(np.abs(f)))


def dyadic_maximal_reference(values: np.ndarray) -> np.ndarray:
    """M_d |f| from pairwise dyadic sums, coarsest level last."""
    x = np.abs(np.asarray(values, dtype=float))
    out = x.copy()
    sums = x
    size = 1
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
        size *= 2
        np.maximum(out, np.repeat(sums / size, size), out=out)
    return out


def check_step_row(f, bounds, heights, mf, ratio) -> list[str]:
    problems = []
    want = step_maximal_reference(bounds, heights)
    err = _rel_err(mf, want)
    if not np.all(err <= REL):
        i = int(np.argmax(err))
        problems.append(f"M f differs from the piece reference at cell {i}: rel {err[i]:.3g}")
    want_ratio = weak_ratio_reference(want, f)
    if not abs(ratio - want_ratio) <= REL * want_ratio:
        problems.append(f"mixed ratio {ratio!r} differs from the reference {want_ratio!r}")
    return problems


def check_lognormal_row(f, mf, ratio) -> list[str]:
    """|f| <= M f, M_d f <= M f and M f <= max |f|, cell by cell.

    Interval averages taken from running prefix sums carry an absolute
    error of about one unit in the last place of the total; the slack
    allows four such units beside the relative tolerance.
    """
    problems = []
    mf = np.asarray(mf, dtype=float)
    absf = np.abs(f)
    slack = 4 * np.finfo(float).eps * float(absf.sum())
    md = dyadic_maximal_reference(f)
    top = float(absf.max())
    if not np.all(md <= mf * (1 + REL) + slack):
        problems.append("M f falls below the dyadic maximal")
    if not np.all(absf <= mf * (1 + REL) + slack):
        problems.append("M f falls below |f|")
    if not np.all(mf <= top * (1 + REL) + slack):
        problems.append("M f exceeds max |f|")
    want_ratio = weak_ratio_reference(mf, f)
    if not abs(ratio - want_ratio) <= REL * want_ratio:
        problems.append(f"mixed ratio {ratio!r} differs from the weak norm of M f {want_ratio!r}")
    return problems


def check_sharpness_row(row: dict, previous: dict | None) -> list[str]:
    """The ratio stays below 2, rises with L, and 2 - ratio halves per level."""
    problems = []
    gap = 2.0 - row["ratio"]
    if not 0.0 < gap < 0.01:
        problems.append(f"2 - ratio = {gap!r} at L = {row['L']} is not in (0, 0.01)")
    if previous is not None and previous["L"] == row["L"] - 1:
        if not row["ratio"] > previous["ratio"]:
            problems.append(f"ratio does not increase from L = {previous['L']} to {row['L']}")
        shrink = gap / (2.0 - previous["ratio"])
        if not 0.4 <= shrink <= 0.6:
            problems.append(f"2 - ratio shrinks by {shrink:.3f} per level, not about 1/2")
    return problems


# ---------------------------------------------------------------------------
# audit


def cube_constants(cells: np.ndarray, p: float) -> dict:
    """Per-cube A1, A_p and mixed (1/p, 1/p') constants of a piecewise weight,
    swept level by level from the cell values; suprema over all cubes."""
    w = np.asarray(cells, dtype=float)
    pc = p / (p - 1.0)
    a1 = ap = mixed = 0.0
    m = len(w)
    size = 1
    while size <= m:
        blocks = w.reshape(-1, size)
        avg = blocks.mean(axis=1)
        inf = blocks.min(axis=1)
        dual = (blocks ** (1.0 - pc)).mean(axis=1)
        logavg = np.log(blocks).mean(axis=1)
        ap_q = avg * dual ** (p - 1.0)
        exp_q = avg * np.exp(-logavg)
        a1 = max(a1, float((avg / inf).max()))
        ap = max(ap, float(ap_q.max()))
        mixed = max(mixed, float((ap_q ** (1.0 / p) * exp_q ** (1.0 / pc)).max()))
        size *= 2
    return {"a1": a1, "ap": ap, "mixed": mixed}


def fujii_wilson_local(cells: np.ndarray) -> float:
    """(1/w(Q)) sum over Q of M(chi_Q w), by an O(n^2) sweep over left ends."""
    w = np.asarray(cells, dtype=float)
    n = len(w)
    P = np.concatenate([[0.0], np.cumsum(w)])
    best = w.copy()
    for a in range(n):
        avg = (P[a + 1 :] - P[a]) / np.arange(1, n - a + 1)
        # best average over [a, b) with b > c, for each cell c >= a
        suffix = np.maximum.accumulate(avg[::-1])[::-1]
        np.maximum(best[a:], suffix, out=best[a:])
    return float(best.sum() / w.sum())


def check_audit(cells, p, reports: dict, rtol: float = 1e-10) -> list[str]:
    """reports: audit_p1, audit_p2 (BoundAuditReport), lemma, rh, buckley."""
    problems = []
    ref = cube_constants(cells, p)

    def close(label, got, want):
        if not abs(got - want) <= rtol * abs(want):
            problems.append(f"{label} = {got!r}, reference {want!r}")

    row1 = reports["audit_p1"].rows[0]
    row2 = reports["audit_p2"].rows[0]
    close("A1 (bound audit p = 1)", row1["ap"], ref["a1"])
    close("A_p (bound audit)", row2["ap"], ref["ap"])
    close("A1 (reverse Hoelder)", reports["rh"].a1, ref["a1"])
    close("A_p (Buckley)", reports["buckley"].ap, ref["ap"])
    lemma = reports["lemma"].rows[0]
    close("A_p (mixed lemma)", lemma["ap"], ref["ap"])
    close("mixed constant", lemma["mixed"], ref["mixed"])
    if not (lemma["mixed"] <= lemma["ap"] * (1 + REL) and lemma["ap"] <= lemma["mixed"] ** p * (1 + REL)):
        problems.append("mixed <= [v]_{A_p} <= mixed^p fails")
    for report in (reports["audit_p1"], reports["audit_p2"]):
        if not report.all_ok:
            problems.append(f"r-parameter algebra fails at p = {report.p}")
        if not (report.rows[0]["max_ratio"] > 0 and math.isfinite(report.rows[0]["max_ratio"])):
            problems.append(f"bound audit ratio {report.rows[0]['max_ratio']!r} at p = {report.p}")
    fw = row2["ainf_fw"]
    if row1["ainf_fw"] != fw:
        problems.append("Fujii-Wilson constant differs between the two audits")
    n = len(cells)
    top = [fujii_wilson_local(cells)]
    top += [fujii_wilson_local(cells[: n // 2]), fujii_wilson_local(cells[n // 2 :])]
    if not fw >= max(top) * (1 - REL):
        problems.append(f"Fujii-Wilson constant {fw!r} below its top-level cubes {max(top)!r}")
    if not fw >= 1.0 - REL:
        problems.append(f"Fujii-Wilson constant {fw!r} below 1")
    rh = reports["rh"]
    if not rh.ok:
        problems.append(f"reverse Hoelder: {rh.levelset_violations} violations, rh_ok {rh.rh_ok}")
    bk = reports["buckley"]
    if not bk.max_ratio >= 1.0 - REL:
        problems.append(f"Buckley ratio {bk.max_ratio!r} below 1")
    if not bk.dual_identity_ok:
        problems.append("Buckley dual-exponent identity fails")
    return problems


# ---------------------------------------------------------------------------
# decompose


def _pyramid(x: np.ndarray) -> list[np.ndarray]:
    levels = [np.asarray(x, dtype=float)]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        levels.append(cur[0::2] + cur[1::2])
    return levels


def check_czd(f, v_cells, L: int, t: float, report: dict, g, b) -> list[str]:
    """The decomposition at height t from its JSON report and its g, b files.

    f and v_cells are the benchmark's own inputs on a grid with 2^-L wide
    cells; a cube (level, index) sits at depth d = L - level of the pyramid.
    The stopping time must select exactly the cubes whose v-average of |f|
    exceeds t while every ancestor's average is at most t.
    """
    problems = []
    f = np.asarray(f, dtype=float)
    n = len(f)
    vmass = np.asarray(v_cells, dtype=float) * 2.0**-L
    num = _pyramid(np.abs(f) * vmass)
    den = _pyramid(vmass)
    top = len(num) - 1
    if not np.all(np.abs(g + b - f) <= REL * np.maximum(np.abs(f), np.abs(g))):
        problems.append("g + b differs from f")
    want = set()
    ancestors_low = np.ones(1, dtype=bool)
    for d in range(top, -1, -1):
        avg = num[d] / den[d]
        for index in np.nonzero(ancestors_low & (avg > t))[0]:
            want.add((L - d, int(index)))
        ancestors_low = np.repeat(ancestors_low & (avg <= t), 2)
    got = [(c["level"], c["index"]) for c in report["cubes"]]
    if set(got) != want or len(got) != len(want):
        extra = sorted(set(got) - want)[:3]
        missing = sorted(want - set(got))[:3]
        problems.append(f"selected cubes differ: extra {extra}, missing {missing}")
    covered = np.zeros(n, dtype=np.int64)
    for (level, index), c in zip(got, report["cubes"]):
        d = L - level
        lo, hi = index << d, (index + 1) << d
        covered[lo:hi] += 1
        avg = num[d][index] / den[d][index]
        if not abs(c["avg"] - avg) <= REL * avg:
            problems.append(f"cube ({level}, {index}) reports average {c['avg']!r}, reference {avg!r}")
        integral = float(np.sum(b[lo:hi] * vmass[lo:hi]))
        scale = float(np.sum(np.abs(f[lo:hi]) * vmass[lo:hi]))
        if not abs(integral) <= REL * scale:
            problems.append(f"integral of b v over cube ({level}, {index}) is {integral!r}")
    if np.any(covered > 1):
        problems.append("selected cubes overlap")
    off = covered == 0
    if np.any(np.abs(f[off]) > t):
        problems.append("|f| > t off the selected cubes")
    if not np.all(g[off] == f[off]):
        problems.append("g differs from f off the selected cubes")
    return problems


def strata_reference(g, v_cells, a: float, k: int, L: int) -> list[tuple[int, int]]:
    """Maximal dyadic cubes of {M_d v > a^k} and {M_d g > a^k}, as
    (level, index) sorted by their first cell."""
    mask = (dyadic_maximal_reference(v_cells) > a**k) & (dyadic_maximal_reference(g) > a**k)
    full = [mask]
    while len(full[-1]) > 1:
        cur = full[-1]
        full.append(cur[0::2] & cur[1::2])
    out = []
    for d in range(len(full)):
        parent_full = np.repeat(full[d + 1], 2) if d + 1 < len(full) else np.zeros(1, bool)
        out += [(L - d, int(i)) for i in np.nonzero(full[d] & ~parent_full)[0]]
    return sorted(out, key=lambda c: c[1] << (L - c[0]))


def check_sawyer(g, v_cells, L: int, report: dict) -> list[str]:
    problems = []
    if report.get("chain", {}).get("pass") is not True:
        problems.append("principal-cubes chain did not pass")
    a = report["a"]
    strata = report["strata"]
    if not strata:
        problems.append("no strata")
    for s in strata:
        got = [(c["level"], c["index"]) for c in s["cubes"]]
        want = strata_reference(g, v_cells, a, s["k"], L)
        if got != want:
            problems.append(f"stratum k = {s['k']} has cubes {got[:4]}..., reference {want[:4]}...")
    return problems
