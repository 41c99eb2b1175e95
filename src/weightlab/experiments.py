"""Paper-facing campaigns: sharpness sweeps, upper-bound audits, the mixed
constant lemma check, and the empirical maximal-operator norm check.

The sharpness sweeps carry two paths.  The analytic path evaluates the
closed forms of the one-sided power-weight construction

    f = (1/delta) chi_(0,1),   v(x) = x^(delta-1),   u = alpha on (0,1),

whose level set (0, delta^{-2/delta}) gives v-mass delta^{-3} against the
integral int f v = delta^{-2} (and uv-mass (delta^{-2}-1)/delta against
alpha delta^{-2} in the two-weight variant).  The grid path re-measures
the same ratio with the grid operators; it is restricted to delta >= 1/2,
where the cell representative mass/width stays honest, and reports both.

Upper-bound audits never assert the theorems' unspecified dimensional
constants; they track the measured-ratio/bound envelope across a weight
family and check the explicit parameter algebra of the decomposition
exponent r = 1 + max{p, log(e + [v]_{A_p})}.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .constants import (
    ConstantKind,
    _a1_level,
    _level_values,
    ainf_exp_constant,
    ainf_fw_constant,
    ap_constant,
    global_constant,
    pow_or_inf,
)
from .errors import ConfigError
from .grid import Grid, build_grid
from .maximal import uncentered_envelope, uncentered_restricted
from .norms import lp_norm, mixed_ratio
from .weights import (
    Constant,
    GridFunction,
    GridWeight,
    Piecewise,
    Power,
    Step,
    WeightSpec,
    _from_local_form,
    a1_tables,
    dual_weight,
    realize,
    require_piecewise_values,
    with_cached,
)


# ---------------------------------------------------------------------------
# log-log fits

@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def scaling_fit(points: list[tuple[float, float]]) -> FitResult:
    """Least squares on (log x, log y); needs >= 3 positive points."""
    if len(points) < 3:
        raise ConfigError(f"scaling_fit needs >= 3 points, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ConfigError("scaling_fit needs positive coordinates")
    lx, ly = np.log(xs), np.log(ys)
    vx = lx - lx.mean()
    sxx = float(np.sum(vx * vx))
    if sxx == 0.0:
        raise ConfigError("scaling_fit: degenerate x spread")
    slope = float(np.sum(vx * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    syy = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if syy == 0.0 else 1.0 - float(np.sum(resid**2)) / syy
    return FitResult(slope, intercept, r2)


# ---------------------------------------------------------------------------
# weight and test-function families

def _walk(grid: Grid, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Cell values of a geometric random walk with N(0, sigma^2) steps; a
    walk too wild for the double range has inf, NaN or zero cells, with no
    warning."""
    walk = np.cumsum(rng.standard_normal(grid.ncells) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(walk - walk.mean())


def random_piecewise_weight(grid: Grid, rng: np.random.Generator, sigma: float = 0.5) -> GridWeight:
    """Geometric random walk; positive, wild for large sigma."""
    return realize(Piecewise(tuple(_walk(grid, rng, sigma).tolist())), grid)


def _walk_a1(grid: Grid, vals: np.ndarray) -> float:
    """``a1_constant`` of the realized walk (no level holds a NaN), or the
    ConfigError of its realization, from its mass and essinf pyramids alone."""
    require_piecewise_values(vals)
    mass, essinf = a1_tables(grid, vals, np.zeros(grid.ncells))
    return max(float(_a1_level(grid, mass, essinf, k).max()) for k in grid.levels())


def random_a1_weight(grid: Grid, rng: np.random.Generator, cap: float = 10.0, sigma: float = 0.5,
                     max_tries: int = 80) -> GridWeight:
    """Rejection sampling of random walks until the grid A1 constant fits
    under the cap; the walk scale shrinks after each rejection.  A draw
    that is no weight, a walk that over- or underflows, is rejected as a cap
    miss.  Only the kept draw is realized.  A cap below 1 (no A1 constant
    is) or NaN is refused."""
    if not cap >= 1:
        raise ConfigError(f"A1 cap must be at least 1, got {cap}")
    s = sigma
    for _ in range(max_tries):
        vals = _walk(grid, rng, s)
        try:
            kept = _walk_a1(grid, vals) <= cap
        except ConfigError:  # the refusal realize would raise
            kept = False
        if kept:
            return _from_local_form(grid, vals, np.zeros(grid.ncells))
        s *= 0.8
    raise ConfigError(f"no A1 weight under cap {cap} after {max_tries} tries")


def test_function_corpus(
    grid: Grid, seed: int = 0, n_random: int = 32
) -> list[tuple[str, GridFunction]]:
    """Indicators of dyadic cubes, single-cell spikes, the one-sided power
    construction's f family, and seeded random nonnegative functions.

    The indicator levels step by max(1, (J + L) // 4) from -J, so they
    reach the cells (k = L) when J + L is a multiple of the step, as at
    J = 1 with L <= 7, 9 or 11.  The cell indicators at m = 0 and n/2 are
    then ``spike_0`` and ``spike_{n/2}`` again, under their own names."""
    rng = np.random.default_rng(seed)
    n = grid.ncells
    out: list[tuple[str, GridFunction]] = []
    for k in range(-grid.J, grid.L + 1, max(1, (grid.J + grid.L) // 4)):
        for m in {0, grid.ncubes(k) // 2}:
            vals = np.zeros(n)
            vals[m << (grid.L - k) : (m + 1) << (grid.L - k)] = 1.0
            out.append((f"indicator_k{k}_m{m}", GridFunction(grid, vals)))
    for cell in {0, n // 2, n - 1}:
        vals = np.zeros(n)
        vals[cell] = 1.0
        out.append((f"spike_{cell}", GridFunction(grid, vals)))
    unit = min(n, 1 << grid.L)
    for delta in (0.5, 0.75):
        vals = np.zeros(n)
        vals[:unit] = 1.0 / delta
        out.append((f"one_sided_f_delta{delta}", GridFunction(grid, vals)))
    for i in range(n_random):
        vals = rng.lognormal(mean=0.0, sigma=1.0, size=n) * (rng.random(n) < 0.7)
        out.append((f"random_{i}", GridFunction(grid, vals)))
    return out


# ---------------------------------------------------------------------------
# sharpness sweeps

@dataclass
class SweepResult:
    rows: list[dict]
    fits: dict[str, FitResult] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _a1_analytic_row(delta: float) -> dict:
    if not 0 < delta < 1:
        raise ConfigError(f"delta must sit in (0,1), got {delta}")
    numerator = delta**-3  # v-mass of the level set (0, delta^{-2/delta})
    denominator = delta**-2  # int f v over (0, 1)
    ratio = numerator / denominator
    bound = 1.0 / delta  # the A1-constant proxy the theorem scales with
    return {
        "delta": delta,
        "a1_proxy": 1.0 / delta,
        "numerator": numerator,
        "denominator": denominator,
        "ratio": ratio,
        "bound": bound,
        "slack": bound / ratio,
        "path": "analytic",
    }


def sharpness_a1_grid(delta: float, L: int = 12) -> dict:
    """Grid re-measurement of the linear-sharpness ratio at one delta.

    Needs delta >= 1/2 (cell-representative honesty); J is the least that
    fits the level set (0, delta^{-2/delta}) in the domain.
    """
    if not 0.5 <= delta < 1:
        raise ConfigError(f"grid path needs delta >= 1/2, got {delta}")
    J = max(0, math.ceil(math.log2(delta ** (-2.0 / delta))))
    grid = build_grid(J, L)
    v = realize(Power(delta), grid)
    one = realize(Constant(1.0), grid)
    unit = min(grid.ncells, 1 << grid.L)
    f = np.zeros(grid.ncells)
    f[:unit] = 1.0 / delta
    rep = mixed_ratio(GridFunction(grid, f), one, v, variant="M")
    analytic = _a1_analytic_row(delta)
    return {
        "delta": delta,
        "J": J,
        "L": L,
        "numerator": rep.numerator,
        "denominator": rep.denominator,
        "ratio": rep.ratio,
        "analytic_ratio": analytic["ratio"],
        "rel_gap": rep.ratio / analytic["ratio"] - 1.0,
        "path": "grid",
    }


def sharpness_a1_sweep(
    deltas: list[float],
    include_grid: bool = False,
    L: int = 12,
) -> SweepResult:
    """Sharpness table for the one-weight linear bound."""
    if not deltas:
        raise ConfigError("one-weight sweep needs at least one delta")
    rows = [_a1_analytic_row(d) for d in deltas]
    fit = scaling_fit([(1.0 / r["delta"], r["ratio"]) for r in rows]) if len(rows) >= 3 else None
    result = SweepResult(rows)
    if fit is not None:
        result.fits["ratio_vs_inv_delta"] = fit
    if include_grid:
        result.rows.extend(sharpness_a1_grid(d, L=L) for d in deltas if d >= 0.5)
    return result


def _product_analytic_row(alpha: float, delta: float) -> dict:
    if not 0 < delta < 1:
        raise ConfigError(f"delta must sit in (0,1), got {delta}")
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must sit in (0,1), got {alpha}")
    numerator = (delta**-2 - 1.0) / delta  # uv-mass of (1, delta^{-2/delta})
    denominator = alpha / delta**2  # int f u v over (0, 1)
    ratio = numerator / denominator
    return {
        "alpha": alpha,
        "delta": delta,
        "numerator": numerator,
        "denominator": denominator,
        "ratio": ratio,
        "product_proxy": 1.0 / (alpha * delta),
        "slack": ratio * (alpha * delta),
        "path": "analytic",
    }


def sharpness_product_sweep(alphas: list[float], deltas: list[float]) -> SweepResult:
    """Sharpness table for the product lower bound.

    Asserts ratio >= (1/2) / (alpha delta) for delta <= 1/2 (exact algebra:
    ratio * alpha * delta = 1 - delta^2 >= 1/2 there).
    """
    if not (alphas and deltas):
        raise ConfigError("product sweep needs at least one alpha and one delta")
    rows = []
    for alpha in alphas:
        for delta in deltas:
            row = _product_analytic_row(alpha, delta)
            row["lower_ok"] = row["ratio"] >= 0.5 / (alpha * delta) or delta > 0.5
            rows.append(row)
    result = SweepResult(rows)
    mid_delta = deltas[0]
    in_alpha = [
        (1.0 / r["alpha"], r["ratio"]) for r in rows if r["delta"] == mid_delta
    ]
    if len(in_alpha) >= 3:
        result.fits["ratio_vs_inv_alpha"] = scaling_fit(in_alpha)
    mid_alpha = alphas[0]
    in_delta = [
        (1.0 / r["delta"], r["ratio"]) for r in rows if r["alpha"] == mid_alpha
    ]
    if len(in_delta) >= 3:
        result.fits["ratio_vs_inv_delta"] = scaling_fit(in_delta)
    return result


# ---------------------------------------------------------------------------
# decomposition-exponent algebra (the r parameter)

def r_parameters(ap_value: float, p: float) -> dict:
    """r = 1 + max{p, log(e + [v]_{A_p})} and its conjugate, plus the two
    explicit bounds the decomposition proof rests on."""
    m = max(p, math.log(math.e + ap_value))
    r = 1.0 + m
    r_conj = 1.0 + 1.0 / m
    r_pow = r**r_conj
    ap_pow = ap_value ** (2.0 * r_conj - 2.0)
    return {
        "ap": ap_value,
        "p": p,
        "max_term": m,
        "r": r,
        "r_conj": r_conj,
        "r_pow": r_pow,
        "r_pow_ok": r_pow <= 4.0 * m,
        "ap_pow": ap_pow,
        "ap_pow_ok": ap_pow <= math.e**4,
    }


# ---------------------------------------------------------------------------
# bound audit (the A_p-case weak-type theorem and its corollary)

@dataclass
class BoundAuditReport:
    p: float
    rows: list[dict]
    envelope_ainf: float  # max ratio / ([v]_{AinfFW} max{p, log(e+[v]_{A_p})})
    envelope_ap: float  # max ratio / ([v]_{A_p}   max{p, log(e+[v]_{A_p})})
    r_algebra: list[dict]

    @property
    def all_ok(self) -> bool:
        return all(row["r_pow_ok"] and row["ap_pow_ok"] for row in self.r_algebra)

    def to_json_dict(self) -> dict:
        return asdict(self) | {"pass": self.all_ok}


def bound_audit_ap(
    weights: list[tuple[str, GridWeight]],
    p: float,
    corpus: list[tuple[str, GridFunction]] | None = None,
    seed: int = 0,
) -> BoundAuditReport:
    """Measured mixed ratios (u = 1, dyadic operator) against the two
    bound expressions, plus the r-parameter algebra per weight.  Zero
    functions are skipped; a corpus with no other is a ConfigError.

    [v]_FW does not depend on p: its levels are built once per weight
    object and kept on it (``GridWeight.fw_levels``), so auditing the same
    weights at several p sweeps each once.  A copy of a weight starts
    without them."""
    if not 1 <= p < math.inf:
        raise ConfigError(f"bound audit needs a finite p >= 1, got {p}")
    if corpus is not None and not any(np.any(f.values) for _, f in corpus):
        # every ratio would be skipped, and the audit would pass on nothing
        raise ConfigError(f"bound audit needs a corpus with a nonzero function, got {len(corpus)} "
                          "functions, none nonzero")
    rows = []
    algebra = []
    env_ainf = 0.0
    env_ap = 0.0
    for name, v in weights:
        grid = v.grid
        if corpus is None:
            fns = test_function_corpus(grid, seed=seed)
        else:
            fns = corpus
        one = realize(Constant(1.0), grid)
        apv = ap_constant(v, p)
        ainf_fw = ainf_fw_constant(v)
        mterm = max(p, math.log(math.e + apv))
        bound_ainf = ainf_fw * mterm
        bound_ap = apv * mterm
        algebra.append(r_parameters(apv, p) | {"weight": name})
        best = 0.0
        best_f = ""
        for fname, f in fns:
            if not np.any(f.values):
                continue
            rep = mixed_ratio(f, one, v, variant="Md")
            if rep.ratio > best:
                best = rep.ratio
                best_f = fname
        rows.append(
            {
                "weight": name,
                "ap": apv,
                "ainf_fw": ainf_fw,
                "max_term": mterm,
                "max_ratio": best,
                "worst_function": best_f,
                "ratio_over_ainf_bound": best / bound_ainf,
                "ratio_over_ap_bound": best / bound_ap,
            }
        )
        env_ainf = max(env_ainf, best / bound_ainf)
        env_ap = max(env_ap, best / bound_ap)
    return BoundAuditReport(p, rows, env_ainf, env_ap, algebra)


def step_family(grid: Grid, alphas=(0.5, 0.25, 0.125), n_random: int = 2, seed: int = 7):
    """The step/piecewise weight family used by the audits."""
    rng = np.random.default_rng(seed)
    fam: list[tuple[str, GridWeight]] = [
        (f"step_alpha{a}", realize(Step(a), grid)) for a in alphas
    ]
    for i in range(n_random):
        fam.append((f"walk_{i}", random_a1_weight(grid, rng, cap=16.0)))
    return fam


# ---------------------------------------------------------------------------
# mixed-constant lemma check

@dataclass
class MixedLemmaReport:
    rows: list[dict]

    @property
    def all_ok(self) -> bool:
        return all(r["chain_ok"] and r["monotone_ok"] for r in self.rows)

    def to_json_dict(self) -> dict:
        return asdict(self) | {"pass": self.all_ok}


def mixed_lemma_check(
    weights: list[tuple[str, GridWeight]],
    ps: list[float],
    alphas=(0.25, 0.5, 0.75, 1.0),
    rtol: float = 1e-12,
) -> MixedLemmaReport:
    """Two-sided chain  mixed <= [v]_{A_p} <= mixed^p  with the exponent
    split (1/p, 1/p'), and monotonicity of the mixed constant in the split.
    A weight with an infinite [v]_{A_p} is refused: every side of the chain
    would be +inf, which passes every comparison."""
    rows = []
    for name, w in weights:
        for p in ps:
            if not 1 < p < math.inf:
                raise ConfigError(f"mixed lemma needs a finite p > 1, got {p}")
            w = with_cached(w, dual=(p,))
            pc = p / (p - 1.0)
            apv = global_constant(w, ConstantKind("Ap", p=p)).value
            if not math.isfinite(apv):
                raise ConfigError(f"mixed lemma check needs a finite [v]_{{A_p}} at p = {p}, got {apv}")
            mixed = global_constant(
                w, ConstantKind("Mixed", p=p, alpha=1.0 / p, beta=1.0 / pc)
            ).value
            mixed_pow = pow_or_inf(mixed, p)
            chain_ok = mixed <= apv * (1 + rtol) and apv <= mixed_pow * (1 + rtol)
            vals = [
                global_constant(
                    w, ConstantKind("Mixed", p=p, alpha=a_, beta=1.0 - a_)
                ).value
                for a_ in alphas
            ]
            monotone_ok = all(
                vals[i] <= vals[i + 1] * (1 + rtol) for i in range(len(vals) - 1)
            )
            rows.append(
                {
                    "weight": name,
                    "p": p,
                    "ap": apv,
                    "mixed": mixed,
                    "mixed_pow_p": mixed_pow,
                    "chain_ok": chain_ok,
                    "split_values": vals,
                    "monotone_ok": monotone_ok,
                }
            )
    return MixedLemmaReport(rows)


# ---------------------------------------------------------------------------
# empirical operator-norm check (improved Buckley bound)

@dataclass
class BuckleyReport:
    p: float
    ap: float
    dual_ainf_fw: float
    bound_term: float  # p' [v]_{A_p}^{1/p} [v^{1-p'}]_{AinfFW}^{1/p}
    max_ratio: float  # max over corpus of ||Mf||_{L^p(v)} / ||f||_{L^p(v)}
    implied_c: float  # max_ratio / bound_term
    dual_identity_max_rel: float  # worst per-cube violation of the identity
    dual_identity_ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def dual_exponent_identity_max_rel(v: GridWeight, r: float) -> float:
    """Worst relative error of A_{r'}(sigma; Q) = A_r(v; Q)^{r'-1} per cube."""
    rc = r / (r - 1.0)
    v = with_cached(v, dual=(r,))
    sig = dual_weight(v, r)
    sig = with_cached(sig, dual=(rc,))
    worst = 0.0
    for k in v.grid.levels():
        ar = _level_values(v, ConstantKind("Ap", p=r), k)
        arc = _level_values(sig, ConstantKind("Ap", p=rc), k)
        rel = np.abs(arc - ar ** (rc - 1.0)) / np.maximum(ar ** (rc - 1.0), 1e-300)
        worst = max(worst, float(rel.max()))
    return worst


def _distinct(corpus: list[tuple[str, GridFunction]]) -> list[GridFunction]:
    """The first function of each distinct row of values, in corpus order:
    M f and both norms depend only on the values (keyed by their exact
    bytes, which are dropped on return)."""
    first: dict[bytes, GridFunction] = {}
    for _, f in corpus:
        first.setdefault(f.values.tobytes(), f)
    return list(first.values())


def buckley_empirical(
    v: GridWeight,
    p: float,
    corpus: list[tuple[str, GridFunction]] | None = None,
    seed: int = 0,
) -> BuckleyReport:
    if not 1 < p < math.inf:
        raise ConfigError(f"buckley check needs a finite p > 1, got {p}")
    grid = v.grid
    if corpus is None:
        corpus = test_function_corpus(grid, seed=seed)
    for name, f in corpus:
        if not np.isfinite(f.values).all():
            raise ConfigError(f"buckley check needs finite corpus functions: {name} has a non-finite cell")
    pc = p / (p - 1.0)
    apv = ap_constant(v, p)
    sigma = dual_weight(v, p)
    dual_fw = ainf_fw_constant(sigma)
    bound = pc * apv ** (1.0 / p) * dual_fw ** (1.0 / p)
    ident = dual_exponent_identity_max_rel(v, max(p, 1.5))  # before the rows are stacked: a lower peak
    live = [(f, d) for f in _distinct(corpus) if (d := lp_norm(f, v, p)) != 0.0]

    def ratios(rows, idx):
        return [lp_norm(GridFunction(grid, row), v, p) / live[i][1] for row, i in zip(rows, idx)]

    # Every row gets a cellwise lower bound of M f and a cap, with upper =
    # max(lower, cap), exact where the cap is at most every lower cell; a
    # row whose upper ratio is below the best lower ratio of all rows is
    # never swept, and the others are swept together.
    values = np.array([f.values for f, _ in live]).reshape(len(live), grid.ncells)
    lower, cap = uncentered_envelope(values)
    exact = cap <= lower.min(axis=1)
    lows = ratios(lower, range(len(live)))
    floor = max(lows, default=0.0)
    best = max((lo for lo, e in zip(lows, exact) if e), default=0.0)
    bounded = np.flatnonzero(~exact).tolist()
    highs = ratios((np.maximum(lower[i], cap[i]) for i in bounded), bounded)
    # lp_norm is monotone in each cell up to the last ulps of its power,
    # which the slack of 2^-40 covers
    survivors = [i for i, hi in zip(bounded, highs) if not hi < floor * (1 - 2.0**-40)]
    if survivors:
        best = max(best, *ratios(uncentered_restricted(values[survivors]), survivors))
    return BuckleyReport(
        p=p,
        ap=apv,
        dual_ainf_fw=dual_fw,
        bound_term=bound,
        max_ratio=best,
        implied_c=best / bound,
        dual_identity_max_rel=ident,
        dual_identity_ok=ident <= 1e-10,
    )
