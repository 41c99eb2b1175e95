"""Level-set cube hierarchy and the principal-cubes inequality chain.

Strata: for a > 2 (n = 1) and integer k, Omega_k is the cell set where
both M_d v > a^k and M_d g > a^k; its maximal disjoint dyadic cubes form
stratum k.  A stratum pair (k, j) carries the Gamma flag when its cube
meets {v <= a^{k+1}} on positive measure; flagged cubes behave like cubes
of a CZ decomposition of v at height a^k (the two-sided sandwich checked
as block "b2").

Principal cubes: generation 0 holds the Gamma-maximal cubes; generation
n+1 selects flagged pairs strictly inside a generation-n cube whose
u-average jumps by the factor a^{(k-t) delta} (with the side condition
that no intermediate flagged pair already jumped).  The union P controls
the full Gamma sum (block "b6") with the explicit constant

    C_eps = a^{2 eps - delta} / (a^{eps - delta} - 1) * 2 [v]_{A1}^{2 eps},

and the per-point block sums over the u-growth chain k_m are bounded by

    C_9 = 2^{1+nu} [u]_{A1}^{2 nu} a^{delta nu} / (a^{delta nu} - 1),

with eps = 1/(1 + 2^{n+1}[v]_{A1}), nu = 1/(1 + 2^{n+1}[u]_{A1}) and any
0 < delta < eps.  verify_chain evaluates both sides of every inequality
numerically; all constants are explicit, so a failure is a bug, not a
tolerance issue.

The stratum floor defaults to the stabilization level: below the minimum
of M_d g (and of the v value bands) the strata repeat the root cube, so
nothing is lost by cutting there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DIM, a1_constant
from .errors import ConfigError
from .grid import Cube, Grid, cells_of, contains, pyramid
from .maximal import dyadic_maximal
from .weights import GridFunction, GridWeight, product_cell_masses


# ---------------------------------------------------------------------------
# region extraction

def region_maximal_cubes(grid: Grid, mask: np.ndarray) -> list[Cube]:
    """Maximal disjoint dyadic cubes whose union is the given cell set."""
    if mask.shape != (grid.ncells,):
        raise ConfigError("mask length does not match grid")
    counts = pyramid(np.asarray(mask, dtype=np.int64))
    out: list[Cube] = []
    stack = [grid.root]
    while stack:
        q = stack.pop()
        d = grid.L - q.level
        c = int(counts[d][q.index])
        if c == 0:
            continue
        if c == (1 << d):
            out.append(q)
            continue
        stack.append(Cube(q.level + 1, 2 * q.index + 1))
        stack.append(Cube(q.level + 1, 2 * q.index))  # popped first: left to right
    return out


def region_maximal_cubes_brute(grid: Grid, mask: np.ndarray) -> list[Cube]:
    """Oracle: test every cube for full coverage with a non-covered parent."""
    def full(q: Cube) -> bool:
        r = cells_of(grid, q)
        return bool(mask[r.start : r.stop].all())

    out = []
    for k in grid.levels():
        for m in range(grid.ncubes(k)):
            q = Cube(k, m)
            if not full(q):
                continue
            if k == -grid.J or not full(Cube(k - 1, m >> 1)):
                out.append(q)
    out.sort(key=lambda q: cells_of(grid, q).start)
    return out


# ---------------------------------------------------------------------------
# record

@dataclass
class Stratum:
    k: int
    cubes: list[Cube]
    gamma: list[bool]


@dataclass
class PrincipalCubeRecord:
    grid: Grid
    a: float
    delta: float
    eps: float
    v_a1: float
    floor_k: int
    top_k: int
    strata: list[Stratum]
    mdv: np.ndarray
    mdg: np.ndarray
    nu: float | None = None
    u_a1: float | None = None
    generations: list[list[tuple[int, int]]] = field(default_factory=list)
    principal: list[tuple[int, int]] = field(default_factory=list)
    smallest_principal: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    def stratum(self, k: int) -> Stratum:
        return self.strata[k - self.floor_k]

    def cube(self, pair: tuple[int, int]) -> Cube:
        return self.stratum(pair[0]).cubes[pair[1]]

    def gamma_pairs(self) -> list[tuple[int, int]]:
        return [
            (s.k, j)
            for s in self.strata
            for j, flag in enumerate(s.gamma)
            if flag
        ]

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "delta": self.delta,
            "eps": self.eps,
            "nu": self.nu,
            "v_a1": self.v_a1,
            "u_a1": self.u_a1,
            "floor_k": self.floor_k,
            "top_k": self.top_k,
            "strata": [
                {
                    "k": s.k,
                    "cubes": [
                        {"level": q.level, "index": q.index, "gamma": g}
                        for q, g in zip(s.cubes, s.gamma)
                    ],
                }
                for s in self.strata
            ],
            "generations": [[list(p) for p in gen] for gen in self.generations],
        }


def _band_floor(a: float, x: float) -> int:
    """Largest integer k with a^k < x."""
    k = math.floor(math.log(x) / math.log(a))
    while a**k >= x:
        k -= 1
    while a ** (k + 1) < x:
        k += 1
    return k


def level_cubes(
    g: GridFunction,
    v: GridWeight,
    a: float,
    k: int,
    mdg: np.ndarray | None = None,
    mdv: np.ndarray | None = None,
) -> list[Cube]:
    """Maximal dyadic cubes of Omega_k = {M_d v > a^k} cap {M_d g > a^k}."""
    if not a > 2.0**DIM:
        raise ConfigError(f"need a > 2^n = {2.0**DIM}, got {a}")
    if mdg is None:
        mdg = dyadic_maximal(g).values
    if mdv is None:
        mdv = dyadic_maximal(GridFunction(v.grid, v.cell_values)).values
    mask = (mdv > a**k) & (mdg > a**k)
    return region_maximal_cubes(g.grid, mask)


@dataclass
class GammaResult:
    flags: list[bool]
    sandwich_ok: bool
    worst_lower: float  # min of essinf / (a^k / [v])  over flagged cubes
    worst_upper: float  # max of avg / ([v] a^{k+1})   over flagged cubes


def gamma_filter(
    cubes: list[Cube],
    v: GridWeight,
    a: float,
    k: int,
    v_a1: float | None = None,
    rtol: float = 1e-12,
) -> GammaResult:
    """Gamma membership (cube meets {v <= a^{k+1}}) plus the b2 sandwich
    a^k/[v] <= essinf_I v <= avg_I v <= [v] a^{k+1} for flagged cubes."""
    if v_a1 is None:
        v_a1 = a1_constant(v)
    vrep = v.cell_values
    flags: list[bool] = []
    worst_lower = math.inf
    worst_upper = 0.0
    ok = True
    for q in cubes:
        r = cells_of(v.grid, q)
        flag = bool(np.any(vrep[r.start : r.stop] <= a ** (k + 1)))
        flags.append(flag)
        if not flag:
            continue
        lo = a**k / v_a1
        hi = v_a1 * a ** (k + 1)
        inf_q = v.essinf.of(v.grid, q)
        avg_q = v.mass_of(q) / q.length
        worst_lower = min(worst_lower, inf_q / lo)
        worst_upper = max(worst_upper, avg_q / hi)
        if inf_q < lo * (1 - rtol) or avg_q > hi * (1 + rtol):
            ok = False
    return GammaResult(flags, ok, worst_lower, worst_upper)


def build_record(
    g: GridFunction,
    v: GridWeight,
    a: float = 4.0,
    delta: float | None = None,
    delta_frac: float = 0.5,
) -> PrincipalCubeRecord:
    """Assemble the strata and Gamma flags for a test function g >= 0.

    delta defaults to delta_frac * eps with eps = 1/(1 + 2^{n+1}[v]_{A1}).
    """
    if not a > 2.0**DIM:
        raise ConfigError(f"need a > 2^n = {2.0**DIM}, got {a}")
    if np.any(g.values < 0):
        raise ConfigError("build_record needs g >= 0")
    grid = g.grid
    v_a1 = a1_constant(v)
    eps = 1.0 / (1.0 + 2.0 ** (DIM + 1) * v_a1)
    if delta is None:
        if not 0 < delta_frac < 1:
            raise ConfigError("delta_frac must sit in (0, 1)")
        delta = delta_frac * eps
    if not 0 < delta < eps:
        raise ConfigError(f"need 0 < delta < eps = {eps}, got {delta}")
    mdg = dyadic_maximal(g).values
    mdv = dyadic_maximal(GridFunction(grid, v.cell_values)).values
    both = np.minimum(mdv, mdg)
    strata: list[Stratum] = []
    if float(both.max()) <= 0:
        return PrincipalCubeRecord(
            grid, a, delta, eps, v_a1, 0, -1, strata, mdv, mdg
        )
    vrep = v.cell_values
    floor_k = min(
        _band_floor(a, float(both.min())),
        _band_floor(a, float(vrep.min())) - 1,
    )
    top_k = _band_floor(a, float(both.max()))
    for k in range(floor_k, top_k + 1):
        mask = (mdv > a**k) & (mdg > a**k)
        cubes = region_maximal_cubes(grid, mask)
        res = gamma_filter(cubes, v, a, k, v_a1=v_a1)
        strata.append(Stratum(k, cubes, res.flags))
    return PrincipalCubeRecord(
        grid, a, delta, eps, v_a1, floor_k, top_k, strata, mdv, mdg
    )


# ---------------------------------------------------------------------------
# principal selection

def _strictly_inside(inner: Cube, outer: Cube) -> bool:
    return outer.level < inner.level and contains(outer, inner)


def principal_cubes(record: PrincipalCubeRecord, u: GridWeight) -> list[list[tuple[int, int]]]:
    """Run the generation induction; fills generations, P, and the smallest
    containing principal cube of every Gamma pair.

    The intermediate-cube side condition quantifies over Gamma pairs with
    I_j^k strictly inside I_i^l and I_i^l inside (possibly equal to) the
    generation cube, the literal reading; see ``chain_intermediate``.
    """
    grid = record.grid
    u_a1 = a1_constant(u)
    record.u_a1 = u_a1
    record.nu = 1.0 / (1.0 + 2.0 ** (DIM + 1) * u_a1)
    pairs = record.gamma_pairs()
    cube_of = {p: record.cube(p) for p in pairs}
    uavg = {p: u.mass_of(cube_of[p]) / cube_of[p].length for p in pairs}
    # ancestors[p]: Gamma pairs whose cube strictly contains p's cube
    ancestors: dict[tuple[int, int], list[tuple[int, int]]] = {p: [] for p in pairs}
    for p in pairs:
        for q in pairs:
            if _strictly_inside(cube_of[p], cube_of[q]):
                ancestors[p].append(q)
    a, delta = record.a, record.delta

    g0 = [p for p in pairs if not ancestors[p]]
    generations = [sorted(g0)]
    chosen = set(g0)
    while True:
        prev = generations[-1]
        prev_set = set(prev)
        nxt = []
        for cand in pairs:
            if cand in chosen:
                continue
            hit = False
            for anc in ancestors[cand]:
                if anc not in prev_set:
                    continue
                t = anc[0]
                # growth condition on the u-average
                if not uavg[cand] > a ** ((cand[0] - t) * delta) * uavg[anc]:
                    continue
                # side condition: no intermediate Gamma pair already jumped
                ok = True
                anc_cube = cube_of[anc]
                for mid in ancestors[cand]:
                    mc = cube_of[mid]
                    if not (contains(anc_cube, mc)):
                        continue
                    if uavg[mid] > a ** ((mid[0] - t) * delta) * uavg[anc]:
                        ok = False
                        break
                if ok:
                    hit = True
                    break
            if hit:
                nxt.append(cand)
        if not nxt:
            break
        nxt.sort()
        generations.append(nxt)
        chosen.update(nxt)
    record.generations = generations
    record.principal = sorted(chosen)
    # smallest principal cube containing each Gamma pair
    record.smallest_principal = {}
    for p in pairs:
        cands = [q for q in record.principal if contains(cube_of[q], cube_of[p])]
        if not cands:
            continue
        k = p[0]
        cands.sort(
            key=lambda q: (
                -cube_of[q].level,
                0 if q[0] <= k else 1,
                abs(k - q[0]),
                q[0],
                q[1],
            )
        )
        record.smallest_principal[p] = cands[0]
    return generations


def principal_cubes_brute(
    record: PrincipalCubeRecord, u: GridWeight
) -> list[list[tuple[int, int]]]:
    """Oracle: the generation induction transcribed directly, no indexing."""
    pairs = record.gamma_pairs()
    cube_of = {p: record.cube(p) for p in pairs}
    uavg = {p: u.mass_of(cube_of[p]) / cube_of[p].length for p in pairs}
    a, delta = record.a, record.delta

    def maximal(p):
        return not any(
            _strictly_inside(cube_of[p], cube_of[q]) for q in pairs if q != p
        )

    generations = [sorted(p for p in pairs if maximal(p))]
    chosen = set(generations[0])
    while True:
        nxt = []
        for cand in pairs:
            if cand in chosen:
                continue
            for anc in generations[-1]:
                if not _strictly_inside(cube_of[cand], cube_of[anc]):
                    continue
                if not uavg[cand] > a ** ((cand[0] - anc[0]) * delta) * uavg[anc]:
                    continue
                if all(
                    uavg[mid] <= a ** ((mid[0] - anc[0]) * delta) * uavg[anc]
                    for mid in pairs
                    if _strictly_inside(cube_of[cand], cube_of[mid])
                    and contains(cube_of[anc], cube_of[mid])
                ):
                    nxt.append(cand)
                    break
        if not nxt:
            break
        generations.append(sorted(nxt))
        chosen.update(nxt)
    return generations


# ---------------------------------------------------------------------------
# chain verification

@dataclass
class BlockResult:
    ok: bool
    count: int
    violations: int
    worst: float  # worst normalized margin (<= 1 means pass)
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "count": self.count,
            "violations": self.violations,
            "worst": self.worst,
            "note": self.note,
        }


@dataclass
class ChainReport:
    a: float
    delta: float
    eps: float
    nu: float
    u_a1: float
    v_a1: float
    c_eps: float
    c9: float
    gamma_sum: float
    principal_sum: float
    b2: BlockResult
    b3: BlockResult
    b6: BlockResult
    b9: BlockResult
    b10: BlockResult
    h_bound: BlockResult
    levelset: BlockResult
    max_chain_index: int
    assembled_constant: float
    reference_v4u2: float
    envelope: float

    @property
    def all_ok(self) -> bool:
        return all(
            b.ok
            for b in (self.b2, self.b3, self.b6, self.b9, self.b10, self.h_bound, self.levelset)
        )

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "delta": self.delta,
            "eps": self.eps,
            "nu": self.nu,
            "u_a1": self.u_a1,
            "v_a1": self.v_a1,
            "c_eps": self.c_eps,
            "c9": self.c9,
            "gamma_sum": self.gamma_sum,
            "principal_sum": self.principal_sum,
            "checks": {
                "b2": self.b2.to_json_dict(),
                "b3": self.b3.to_json_dict(),
                "b6": self.b6.to_json_dict(),
                "b9": self.b9.to_json_dict(),
                "b10": self.b10.to_json_dict(),
                "h_bound": self.h_bound.to_json_dict(),
                "levelset": self.levelset.to_json_dict(),
            },
            "max_chain_index": self.max_chain_index,
            "assembled_constant": self.assembled_constant,
            "reference_v4u2": self.reference_v4u2,
            "envelope": self.envelope,
            "pass": self.all_ok,
        }


def verify_chain(
    record: PrincipalCubeRecord,
    u: GridWeight,
    v: GridWeight,
    g: GridFunction,
    n_subsets: int = 16,
    seed: int = 0,
    rtol: float = 1e-9,
) -> ChainReport:
    """Numerically evaluate both sides of the chain inequalities."""
    if record.nu is None:
        principal_cubes(record, u)
    grid = record.grid
    a, delta, eps, nu = record.a, record.delta, record.eps, record.nu
    v_a1, u_a1 = record.v_a1, record.u_a1
    c_eps = a ** (2 * eps - delta) / (a ** (eps - delta) - 1.0) * 2.0 * v_a1 ** (2 * eps)
    c9 = 2.0 ** (1.0 + nu) * u_a1 ** (2 * nu) * a ** (delta * nu) / (a ** (delta * nu) - 1.0)
    pairs = record.gamma_pairs()
    cube_of = {p: record.cube(p) for p in pairs}
    tol = 1.0 + rtol

    # b2 re-evaluation over all strata
    b2_ok = True
    b2_worst = 0.0
    b2_count = 0
    b2_viol = 0
    for s in record.strata:
        res = gamma_filter(s.cubes, v, a, s.k, v_a1=v_a1)
        flagged = sum(res.flags)
        b2_count += flagged
        if flagged and not res.sandwich_ok:
            b2_ok = False
            b2_viol += 1
        if flagged:
            b2_worst = max(b2_worst, res.worst_upper, 1.0 / res.worst_lower if res.worst_lower > 0 else math.inf)
    b2 = BlockResult(b2_ok, b2_count, b2_viol, b2_worst, "CZ sandwich on Gamma cubes")

    # b3: v(E)/v(I) <= 2 (|E|/|I|)^eps on targeted and sampled E
    rng = np.random.default_rng(seed)
    vcells = v.cell_masses
    mdv = record.mdv
    b3_worst = 0.0
    b3_count = 0
    b3_viol = 0
    for p in pairs:
        q = cube_of[p]
        r = cells_of(grid, q)
        sl = slice(r.start, r.stop)
        m = r.stop - r.start
        vq = v.mass_of(q)
        subsets = []
        for k in range(p[0], record.top_k + 1):
            subsets.append(mdv[sl] > a**k)  # the sets the sum estimate uses
        eye = np.eye(m, dtype=bool) if m <= 64 else None
        if eye is not None:
            subsets.extend(eye)
        for _ in range(n_subsets if m > 1 else 0):
            subsets.append(rng.random(m) < 0.5)
        for mask in subsets:
            sz = int(np.count_nonzero(mask))
            if sz == 0:
                continue
            ratio = (float(vcells[sl][mask].sum()) / vq) / (2.0 * (sz / m) ** eps)
            b3_count += 1
            if ratio > tol:
                b3_viol += 1
            b3_worst = max(b3_worst, ratio)
    b3 = BlockResult(b3_viol == 0, b3_count, b3_viol, b3_worst, "reverse-Holder consequence for v")

    # b6: Gamma sum <= C_eps * principal sum
    def score(p) -> float:
        q = cube_of[p]
        return v.mass_of(q) * u.mass_of(q) / q.length

    gamma_sum = sum(score(p) for p in pairs)
    principal_sum = sum(score(p) for p in record.principal)
    b6_worst = gamma_sum / (c_eps * principal_sum) if principal_sum > 0 else (0.0 if gamma_sum == 0 else math.inf)
    b6 = BlockResult(b6_worst <= tol, len(pairs), int(b6_worst > tol), b6_worst,
                     "sum over Gamma vs C_eps * sum over principal cubes")

    # Steps 2-4: J-strata, per-cell chains, b9 / b10 / h bound
    mdg = record.mdg
    n = grid.ncells
    urep = u.cell_values
    ks = range(record.floor_k, record.top_k + 1)
    jmap: dict[int, np.ndarray] = {}
    jcubes: dict[int, list[Cube]] = {}
    for k in ks:
        mask = mdg > a**k
        cubes = region_maximal_cubes(grid, mask)
        cellmap = np.full(n, -1, dtype=np.int64)
        for i, q in enumerate(cubes):
            r = cells_of(grid, q)
            cellmap[r.start : r.stop] = i
        jmap[k] = cellmap
        jcubes[k] = cubes
    # group principal pairs by (stratum, containing J cube)
    groups: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for p in record.principal:
        k = p[0]
        q = cube_of[p]
        jid = int(jmap[k][cells_of(grid, q).start])
        if jid < 0:
            continue
        umass = u.mass_of(q)
        groups.setdefault((k, jid), []).append((umass, umass / q.length))
    juavg: dict[tuple[int, int], float] = {}
    jumass: dict[tuple[int, int], float] = {}
    for k in ks:
        for i, q in enumerate(jcubes[k]):
            um = u.mass_of(q)
            jumass[(k, i)] = um
            juavg[(k, i)] = um / q.length

    b9_worst = 0.0
    b9_count = 0
    b9_viol = 0
    b10_worst = 0.0  # max of rhs/lhs; pass needs < 1
    b10_count = 0
    b10_viol = 0
    h_worst = 0.0
    h_count = 0
    h_viol = 0
    max_chain_index = 0
    for x in range(n):
        gx = []
        for k in ks:
            jid = int(jmap[k][x])
            if jid >= 0 and (k, jid) in groups:
                gx.append((k, jid))
        if not gx:
            continue
        # u-growth chain (first stratum whose J-average doubles)
        chain = [0]
        for i in range(1, len(gx)):
            if juavg[gx[i]] > 2.0 * juavg[gx[chain[-1]]]:
                chain.append(i)
        mmax = len(chain) - 1
        max_chain_index = max(max_chain_index, mmax)
        bounds = chain + [len(gx)]
        hx = 0.0
        for mi in range(len(chain)):
            k_m = gx[chain[mi]][0]
            block = 0.0
            for pos in range(bounds[mi], bounds[mi + 1]):
                key = gx[pos]
                l = key[0]
                uj = jumass[key]
                for umass, uav in groups[key]:
                    block += umass / uj
                    # b10: principal average vs chain-discounted J average
                    rhs = a ** ((l - k_m) * delta) / (2.0 * u_a1) * juavg[key]
                    b10_count += 1
                    ratio = rhs / uav if uav > 0 else math.inf
                    b10_worst = max(b10_worst, ratio)
                    if not uav > rhs * (1 - rtol):
                        b10_viol += 1
                hx += sum(um for um, _ in groups[key]) / jcubes[l][key[1]].length
            b9_count += 1
            b9_worst = max(b9_worst, block / c9)
            if block > c9 * tol:
                b9_viol += 1
        h_count += 1
        hbound = 2.0 * c9 * (2.0 - 0.5**mmax) * u_a1 * urep[x]
        hr = hx / hbound if hbound > 0 else math.inf
        h_worst = max(h_worst, hr)
        if hr > tol:
            h_viol += 1
    b9 = BlockResult(b9_viol == 0, b9_count, b9_viol, b9_worst, "per-chain block sums vs C_9")
    b10 = BlockResult(b10_viol == 0, b10_count, b10_viol, b10_worst,
                      "principal u-average growth along chains")
    h_bound = BlockResult(h_viol == 0, h_count, h_viol, h_worst,
                          "h(x) <= 2 C_9 (2 - 2^-m) [u]_{A1} u(x)")

    # level-set estimate: uv({M_d g > v}) <= a [v]_{A1} * Gamma sum
    uvcells = product_cell_masses(u, v)
    vrep = v.cell_values
    lhs = float(uvcells[mdg > vrep].sum())
    rhs = a * v_a1 * gamma_sum
    ls_worst = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    levelset = BlockResult(ls_worst <= tol, 1, int(ls_worst > tol), ls_worst,
                           "uv mass of {M_d g > v} vs a [v]_{A1} * Gamma sum")

    assembled = c_eps * a * v_a1 * 2.0 * c9 * (2.0 - 0.5**max_chain_index) * u_a1
    reference = v_a1**4 * u_a1**2
    return ChainReport(
        a=a,
        delta=delta,
        eps=eps,
        nu=nu,
        u_a1=u_a1,
        v_a1=v_a1,
        c_eps=c_eps,
        c9=c9,
        gamma_sum=gamma_sum,
        principal_sum=principal_sum,
        b2=b2,
        b3=b3,
        b6=b6,
        b9=b9,
        b10=b10,
        h_bound=h_bound,
        levelset=levelset,
        max_chain_index=max_chain_index,
        assembled_constant=assembled,
        reference_v4u2=reference,
        envelope=assembled / reference,
    )
