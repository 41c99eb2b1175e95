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

Cube sets.  Every stratum and every set of J cubes is region_maximal_cubes,
grid.first_cubes on the logical-and pyramid of its cell mask, kept as the
cube set (d, idx) it returns; gamma_cubes gives the (k, d, idx) of the
Gamma pairs, and no Cube object is built between the pass and its readers.

Cost.  gamma_filter, principal_cubes and blocks b3 and b6 gather per cube
size (grid.level_rows, grid.cube_entries).  principal_cubes walks each
pair's ancestors as heap nodes: (d, idx) is node (N >> d) + idx, its
ancestors the node shifted right, pairs x levels integer dict lookups.
verify_chain finds the J cube holding a cell by np.searchsorted over the
start cells idx << d, and walks the u-growth chain once per run of cells
between consecutive boundaries of the J cubes that hold principal cubes
(the cells of a run share one chain; b9 and b10 counts are scaled by the
run length).  b3 counts with the passes of the reverse-Holder check: the
single cells of each cube size at once (constants.cell_counts), the
targeted sets of all pairs, grouped by cube size, as one comparison of
M_d v with the heights per chunk (superlevel_counts), and the random
unions, drawn per pair in pair order (union_counts); its count,
violations and worst do not depend on the order of the unions.  b6 sums
its scores with Python sum in pair order.
build_record refuses a non-finite M_d g or M_d v, a non-finite [v]_{A1}
and an a that is not a finite number above 2^n; principal_cubes refuses a
non-finite [u]_{A1}.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .constants import DIM, a1_constant, cell_counts, superlevel_counts, union_counts
from .errors import ConfigError
from .grid import Cube, Grid, as_cubes, cells_of, cube_entries, first_cubes, level_rows, pyramid, rows
from .maximal import dyadic_maximal
from .weights import GridFunction, GridWeight, product_cell_masses


# ---------------------------------------------------------------------------
# region extraction

def region_maximal_cubes(grid: Grid, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal disjoint dyadic cubes whose union is the given cell set, as
    the cube set (d, idx), left to right."""
    if mask.shape != (grid.ncells,):
        raise ConfigError("mask length does not match grid")
    return first_cubes(pyramid(np.asarray(mask, dtype=bool), np.logical_and))


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
    d: np.ndarray  # the maximal cubes of Omega_k as a cube set (d, idx)
    idx: np.ndarray
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

    def stratum(self, k: int) -> Stratum:
        return self.strata[k - self.floor_k]

    def gamma_pairs(self) -> list[tuple[int, int]]:
        return [
            (s.k, j)
            for s in self.strata
            for j, flag in enumerate(s.gamma)
            if flag
        ]

    def gamma_cubes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per Gamma pair, in the order of gamma_pairs: its stratum k and its
        cube (d, idx)."""
        empty = np.empty(0, dtype=np.int64)
        flags = [np.asarray(s.gamma, dtype=bool) for s in self.strata]
        k = [np.full(np.count_nonzero(f), s.k, dtype=np.int64) for s, f in zip(self.strata, flags)]
        d = [s.d[f] for s, f in zip(self.strata, flags)]
        idx = [s.idx[f] for s, f in zip(self.strata, flags)]
        return tuple(np.concatenate([empty, *x]) for x in (k, d, idx))

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
                        {"level": k, "index": i, "gamma": g}
                        for k, i, g in zip((self.grid.L - s.d).tolist(), s.idx.tolist(), s.gamma)
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


def _check_a(a: float) -> None:
    if not 2.0**DIM < a < math.inf:
        raise ConfigError(f"need a finite a > 2^n = {2.0**DIM}, got {a}")


def level_cubes(g: GridFunction, v: GridWeight, a: float, k: int) -> list[Cube]:
    """Maximal dyadic cubes of Omega_k = {M_d v > a^k} cap {M_d g > a^k}."""
    _check_a(a)
    mdg = dyadic_maximal(g).values
    mdv = dyadic_maximal(GridFunction(v.grid, v.cell_values)).values
    return as_cubes(g.grid, *_omega_cubes(g.grid, a, k, mdg, mdv))


def _omega_cubes(grid: Grid, a: float, k: int, mdg: np.ndarray, mdv: np.ndarray):
    """The maximal cubes of Omega_k as a cube set (d, idx)."""
    return region_maximal_cubes(grid, (mdv > a**k) & (mdg > a**k))


@dataclass
class GammaResult:
    flags: list[bool]
    sandwich_ok: bool
    worst_lower: float  # min of essinf / (a^k / [v])  over flagged cubes
    worst_upper: float  # max of avg / ([v] a^{k+1})   over flagged cubes


def gamma_filter(
    d: np.ndarray,
    idx: np.ndarray,
    v: GridWeight,
    a: float,
    k: int,
    v_a1: float,
    rtol: float = 1e-12,
) -> GammaResult:
    """Gamma membership (cube meets {v <= a^{k+1}}) plus the b2 sandwich
    a^k/[v] <= essinf_I v <= avg_I v <= [v] a^{k+1} for flagged cubes of
    the cube set (d, idx), v_a1 being [v]_{A1}."""
    lo = a**k / v_a1
    hi = v_a1 * a ** (k + 1)
    meets = v.cell_values <= a ** (k + 1)
    flags = np.empty(len(d), dtype=bool)
    for s, pos, i in level_rows(v.grid, d, idx):
        flags[pos] = rows(meets, s)[i].any(axis=1)
    essinf = cube_entries(v.grid, v.essinf, d, idx)
    avg = cube_entries(v.grid, v.mass, d, idx) / np.ldexp(1.0, d - v.grid.L)
    inf_q, avg_q = essinf[flags], avg[flags]
    ok = not np.any((inf_q < lo * (1 - rtol)) | (avg_q > hi * (1 + rtol)))
    return GammaResult(flags.tolist(), ok, float(np.fmin.reduce(inf_q / lo, initial=math.inf)),
                       float(np.fmax.reduce(avg_q / hi, initial=0.0)))


def build_record(
    g: GridFunction,
    v: GridWeight,
    a: float = 4.0,
    delta_frac: float = 0.5,
) -> PrincipalCubeRecord:
    """Assemble the strata and Gamma flags for a test function g >= 0.

    delta = delta_frac * eps with eps = 1/(1 + 2^{n+1}[v]_{A1}), which needs
    a finite [v]_{A1}.
    """
    _check_a(a)
    if np.any(g.values < 0):
        raise ConfigError("build_record needs g >= 0")
    grid = g.grid
    v_a1 = a1_constant(v)
    if not math.isfinite(v_a1):
        raise ConfigError(f"build_record needs a finite [v]_{{A1}}, got {v_a1}")
    eps = 1.0 / (1.0 + 2.0 ** (DIM + 1) * v_a1)
    if not 0 < delta_frac < 1:
        raise ConfigError("delta_frac must sit in (0, 1)")
    delta = delta_frac * eps
    if not 0 < delta < eps:
        raise ConfigError(f"need 0 < delta < eps = {eps}, got {delta}")
    mdg = dyadic_maximal(g).values
    mdv = dyadic_maximal(GridFunction(grid, v.cell_values)).values
    for name, md in (("g", mdg), ("v", mdv)):
        if not np.all(np.isfinite(md)):
            cell = int(np.argmin(np.isfinite(md)))
            raise ConfigError(f"M_d {name} is not finite at cell {cell}: its cube sums overflow")
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
        d, idx = _omega_cubes(grid, a, k, mdg, mdv)
        strata.append(Stratum(k, d, idx, gamma_filter(d, idx, v, a, k, v_a1=v_a1).flags))
    return PrincipalCubeRecord(
        grid, a, delta, eps, v_a1, floor_k, top_k, strata, mdv, mdg
    )


# ---------------------------------------------------------------------------
# principal selection

def principal_cubes(record: PrincipalCubeRecord, u: GridWeight) -> list[list[tuple[int, int]]]:
    """Run the generation induction; fills generations and P.

    The intermediate-cube side condition quantifies over Gamma pairs with
    I_j^k strictly inside I_i^l and I_i^l inside (possibly equal to) the
    generation cube, the literal reading that ``principal_cubes_brute``
    transcribes.  The Gamma pairs above a pair are found by walking its
    dyadic ancestors: the cube (d, idx) is node (N >> d) + idx of the tree
    numbered as a heap (root 1, children 2h and 2h + 1), so its ancestors
    are the nodes h >> s, pairs x levels lookups in all.
    """
    u_a1 = a1_constant(u)
    if not math.isfinite(u_a1):
        raise ConfigError(f"principal cubes need a finite [u]_{{A1}}, got {u_a1}")
    record.u_a1 = u_a1
    record.nu = 1.0 / (1.0 + 2.0 ** (DIM + 1) * u_a1)
    grid = record.grid
    pairs = record.gamma_pairs()
    ks, d, idx = record.gamma_cubes()
    ks, size = ks.tolist(), d.tolist()
    uavg = (cube_entries(grid, u.mass, d, idx) / np.ldexp(1.0, d - grid.L)).tolist()
    nodes = ((grid.ncells >> d) + idx).tolist()
    pairs_at: dict[int, list[int]] = {}
    for p, h in enumerate(nodes):
        pairs_at.setdefault(h, []).append(p)
    # ancestors[p]: the Gamma pairs whose cube strictly contains p's cube,
    # all on one chain of the tree, so mid lies inside anc iff it is no larger
    ancestors = [[q for s in range(1, h.bit_length()) for q in pairs_at.get(h >> s, ())] for h in nodes]
    a, delta = record.a, record.delta

    # pairs are numbered in (k, j) order, so every generation comes sorted
    generations = [[p for p in range(len(pairs)) if not ancestors[p]]]
    chosen = set(generations[0])
    while True:
        prev = set(generations[-1])
        nxt = []
        for cand in range(len(pairs)):
            if cand in chosen:
                continue
            for anc in ancestors[cand]:
                if anc not in prev:
                    continue
                t = ks[anc]
                # growth condition on the u-average
                if not uavg[cand] > a ** ((ks[cand] - t) * delta) * uavg[anc]:
                    continue
                # side condition: no intermediate Gamma pair already jumped
                if not any(uavg[mid] > a ** ((ks[mid] - t) * delta) * uavg[anc]
                           for mid in ancestors[cand] if size[mid] <= size[anc]):
                    nxt.append(cand)
                    break
        if not nxt:
            break
        generations.append(nxt)
        chosen.update(nxt)
    record.generations = [[pairs[p] for p in gen] for gen in generations]
    record.principal = [pairs[p] for p in sorted(chosen)]
    return record.generations


def principal_cubes_brute(
    record: PrincipalCubeRecord, u: GridWeight
) -> list[list[tuple[int, int]]]:
    """Oracle: the generation induction transcribed directly, no indexing.
    A pair's cube is its (d, idx); the cube (d, i) lies inside (d', i')
    iff d <= d' and i >> (d' - d) == i'."""
    pairs = record.gamma_pairs()
    cubes = {s.k: list(zip(s.d.tolist(), s.idx.tolist())) for s in record.strata}
    cube_of = {p: cubes[p[0]][p[1]] for p in pairs}
    L = record.grid.L
    uavg = {p: float(u.mass[d][i]) / 2.0 ** (d - L) for p, (d, i) in cube_of.items()}
    a, delta = record.a, record.delta

    def inside(inner, outer):
        (d, i), (d_out, i_out) = cube_of[inner], cube_of[outer]
        return d <= d_out and i >> (d_out - d) == i_out

    def strictly_inside(inner, outer):
        return cube_of[inner][0] < cube_of[outer][0] and inside(inner, outer)

    def maximal(p):
        return not any(strictly_inside(p, q) for q in pairs if q != p)

    generations = [sorted(p for p in pairs if maximal(p))]
    chosen = set(generations[0])
    while True:
        nxt = []
        for cand in pairs:
            if cand in chosen:
                continue
            for anc in generations[-1]:
                if not strictly_inside(cand, anc):
                    continue
                if not uavg[cand] > a ** ((cand[0] - anc[0]) * delta) * uavg[anc]:
                    continue
                if all(
                    uavg[mid] <= a ** ((mid[0] - anc[0]) * delta) * uavg[anc]
                    for mid in pairs
                    if strictly_inside(cand, mid) and inside(mid, anc)
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
        return asdict(self)


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

    CHECKS = ("b2", "b3", "b6", "b9", "b10", "h_bound", "levelset")

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, name).ok for name in self.CHECKS)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["checks"] = {name: d.pop(name) for name in self.CHECKS}
        return d | {"pass": self.all_ok}


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
    pk, pd, pidx = record.gamma_cubes()
    tol = 1.0 + rtol

    # b2 re-evaluation over all strata
    b2_worst = 0.0
    b2_count = b2_viol = 0
    for s in record.strata:
        res = gamma_filter(s.d, s.idx, v, a, s.k, v_a1=v_a1)
        flagged = sum(res.flags)
        if flagged:
            b2_count += flagged
            b2_viol += not res.sandwich_ok
            b2_worst = max(b2_worst, res.worst_upper, 1.0 / res.worst_lower if res.worst_lower > 0 else math.inf)
    b2 = BlockResult(b2_viol == 0, b2_count, b2_viol, b2_worst, "CZ sandwich on Gamma cubes")

    # b3: v(E)/v(I) <= 2 (|E|/|I|)^eps on the Gamma cubes, for the sets the
    # sum estimate uses ({M_d v > a^j} for each j from the pair's stratum
    # up), every single cell of a cube of <= 64 cells, and n_subsets seeded
    # random unions per pair, drawn in pair order; the passes of the
    # reverse-Holder check count the ratios above tol.  The count,
    # violations and worst do not depend on the order of the unions.
    heights = np.array([a**k for k in range(record.floor_k, record.top_k + 1)])
    b3_count = b3_viol = 0
    b3_worst = 0.0
    for s, _, i in level_rows(grid, pd[pd <= 6], pidx[pd <= 6]):
        n, viol, b3_worst = cell_counts(rows(v.cell_masses, s)[i], v.mass[s][i], eps, tol, b3_worst)
        b3_count, b3_viol = b3_count + n, b3_viol + viol
    pair, j = np.nonzero(np.arange(len(heights)) >= (pk - record.floor_k)[:, None])
    by_size = np.argsort(pd[pair], kind="stable")  # no draws, so no stream order to keep
    pair, j = pair[by_size], j[by_size]
    n, viol, b3_worst = superlevel_counts(v, pd[pair], pidx[pair], record.mdv, heights[j], eps, tol, b3_worst)
    b3_count, b3_viol = b3_count + n, b3_viol + viol
    n, viol, b3_worst = union_counts(v, pd, pidx, n_subsets, np.random.default_rng(seed), eps, tol, b3_worst)
    b3 = BlockResult(b3_viol + viol == 0, b3_count + n, b3_viol + viol, b3_worst,
                     "reverse-Holder consequence for v")

    # b6: Gamma sum <= C_eps * principal sum, summed in pair order
    length = np.ldexp(1.0, pd - grid.L)
    umass = cube_entries(grid, u.mass, pd, pidx)
    score = cube_entries(grid, v.mass, pd, pidx) * umass / length
    principal = set(record.principal)
    prin = np.array([n for n, p in enumerate(pairs) if p in principal], dtype=np.int64)
    gamma_sum = sum(score.tolist())
    principal_sum = sum(score[prin].tolist())
    b6_worst = gamma_sum / (c_eps * principal_sum) if principal_sum > 0 else (0.0 if gamma_sum == 0 else math.inf)
    b6 = BlockResult(b6_worst <= tol, len(pairs), int(b6_worst > tol), b6_worst,
                     "sum over Gamma vs C_eps * sum over principal cubes")

    # Steps 2-4: J-strata, chains, b9 / b10 / h bound.  A cell's chain
    # depends only on the J cubes with principal cubes that hold it, so all
    # cells between two consecutive boundaries of such cubes share one chain,
    # walked once for the run.
    mdg = record.mdg
    ks = range(record.floor_k, record.top_k + 1)
    jcubes = {k: region_maximal_cubes(grid, mdg > a**k) for k in ks}

    def jcube_at(k: int, xs: np.ndarray) -> np.ndarray:
        """Per cell of xs, the position in jcubes[k] of the J cube that holds
        it; -1 off {M_d g > a^k}."""
        d, idx = jcubes[k]
        i = np.searchsorted(idx << d, xs, "right") - 1
        # i = -1 reads the appended 0, which no cell is below
        return np.where(xs < np.append((idx + 1) << d, 0)[i], i, -1)

    # group principal pairs by (stratum, containing J cube)
    owner = np.full(len(prin), -1)
    for k in ks:
        at = pk[prin] == k
        owner[at] = jcube_at(k, pidx[prin][at] << pd[prin][at])
    groups: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for k, i, um, uav in zip(pk[prin].tolist(), owner.tolist(), umass[prin].tolist(), (umass / length)[prin].tolist()):
        if i >= 0:
            groups.setdefault((k, i), []).append((um, uav))
    # per J cube of a group: its u-mass, length and cell span
    jumass, jlength, cuts = {}, {}, set()
    for k, i in groups:
        d, idx = int(jcubes[k][0][i]), int(jcubes[k][1][i])
        jumass[k, i] = float(u.mass[d][idx])
        jlength[k, i] = 2.0 ** (d - grid.L)
        cuts.update((idx << d, (idx + 1) << d))
    juavg = {key: um / jlength[key] for key, um in jumass.items()}
    cuts = sorted(cuts)
    # owners[c][k - floor_k]: the J cube of stratum k that holds cell cuts[c]
    owners = np.array([jcube_at(k, np.array(cuts, dtype=np.int64)) for k in ks]).T.tolist()

    b9_worst = 0.0
    b9_count = 0
    b9_viol = 0
    b10_worst = 0.0  # max of rhs/lhs; pass needs < 1
    b10_count = 0
    b10_viol = 0
    chain_index = np.full(grid.ncells, -1)  # m of the cell's chain; -1 if it has none
    hx = np.zeros(grid.ncells)
    for x, end, own in zip(cuts, cuts[1:], owners):
        gx = [key for key in zip(ks, own) if key in groups]
        if not gx:
            continue
        run = end - x
        # u-growth chain (first stratum whose J-average doubles)
        chain = [0]
        for i in range(1, len(gx)):
            if juavg[gx[i]] > 2.0 * juavg[gx[chain[-1]]]:
                chain.append(i)
        bounds = chain + [len(gx)]
        h_run = 0.0
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
                    b10_count += run
                    ratio = rhs / uav if uav > 0 else math.inf
                    b10_worst = max(b10_worst, ratio)
                    if not uav > rhs * (1 - rtol):
                        b10_viol += run
                h_run += sum(um for um, _ in groups[key]) / jlength[key]
            b9_count += run
            b9_worst = max(b9_worst, block / c9)
            if block > c9 * tol:
                b9_viol += run
        chain_index[x:end] = len(chain) - 1
        hx[x:end] = h_run
    b9 = BlockResult(b9_viol == 0, b9_count, b9_viol, b9_worst, "per-chain block sums vs C_9")
    b10 = BlockResult(b10_viol == 0, b10_count, b10_viol, b10_worst,
                      "principal u-average growth along chains")
    # the h bound of every held cell at once, with the per-cell products
    held = chain_index >= 0
    hbound = 2.0 * c9 * (2.0 - 0.5 ** chain_index[held]) * u_a1 * u.cell_values[held]
    hr = np.divide(hx[held], hbound, out=np.full(len(hbound), math.inf), where=hbound > 0)
    h_viol = int(np.count_nonzero(hr > tol))
    h_bound = BlockResult(h_viol == 0, len(hr), h_viol, float(np.fmax.reduce(hr, initial=0.0)),
                          "h(x) <= 2 C_9 (2 - 2^-m) [u]_{A1} u(x)")
    max_chain_index = int(np.max(chain_index, initial=0))

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
