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
