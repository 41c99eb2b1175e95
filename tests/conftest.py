import numpy as np
import pytest

import weightlab as wl
from weightlab import weights
from weightlab.grid import pyramid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_function(grid, rng, sparsity=0.6, signed=False):
    vals = rng.lognormal(size=grid.ncells) * (rng.random(grid.ncells) < sparsity)
    if signed:
        vals = vals * rng.choice([-1.0, 1.0], size=grid.ncells)
    return wl.GridFunction(grid, vals)


def overflowing_weight(spec, grid):
    """``wl.realize(spec, grid)`` with its cube masses summed by the plain
    ``pyramid``, so a sum that overflows is kept as +inf where realize
    refuses it: an input for the oracle tests of the readers' inf and NaN
    handling."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(weights, "sum_pyramid", lambda values, what: pyramid(values))
        return wl.realize(spec, grid)


def uncentered_loop(P, left=None):
    """Reference of the uncentered kernel ``maximal._uncentered_naive``: max
    interval average per cell of every prefix row of P by an O(n^2) loop over
    right ends b, every row at once; acc[a] is the best (P[b'] - P[a]) /
    (b' - a) over b' >= b.  With ``left``, the maxima of every row's left
    half h = n // 2 on its own, the loop stops after b = h + 1 and a left-half
    cell c takes the max of acc[a] over a <= c and of left[c]."""
    n = P.shape[-1] - 1
    h = 0 if left is None else n // 2
    res = np.empty_like(P[..., 1:])
    acc = np.full_like(res, -np.inf)
    dist = np.arange(n, 0, -1.0)  # dist[n - b:] = b - a for a = 0..b-1
    for b in range(n, h, -1):
        t, a = res[..., :b], acc[..., :b]
        np.subtract(P[..., b, None], P[..., :b], out=t)
        np.divide(t, dist[n - b :], out=t)
        np.maximum(a, t, out=a)
        np.maximum.reduce(a, axis=-1, out=res[..., b - 1])
    if h:
        out = res[..., :h]
        np.maximum.accumulate(acc[..., :h], axis=-1, out=out)
        np.maximum(out, left, out=out)
    return res
