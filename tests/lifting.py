"""Lift 1D node data to 2D and 3D grids on which it is y- and z-independent.

The reduces-to-1D tests step the lifted data and compare every row with
the 1D step.
"""

import numpy as np

from hermwave.grid import Axis, Grid


def lift(vals, counts):
    """Node data equal to 1D node data (n, k) along x on every line of the
    other axes' `counts` nodes, with no derivatives along those axes."""
    d = 1 + len(counts)
    out = np.zeros(vals.shape[:1] + counts + vals.shape[1:] * d)
    out[(Ellipsis, slice(None)) + (0,) * (d - 1)] = vals.reshape(
        vals.shape[:1] + (1,) * (d - 1) + vals.shape[1:])
    return out


def lifted_grids(x_axis):
    """{2: 2D grid, 3: 3D grid} sharing the 1D grid's x axis.

    The other axes are periodic with a periodic x axis and have neumann0
    walls otherwise, which reflect the lifted data into itself. hy and hz
    exceed hx, so every grid takes the 1D time step.
    """
    kinds = ("periodic",) * 2 if x_axis.periodic else ("neumann0",) * 2
    y, z = Axis(0.0, 1.3, 3, *kinds), Axis(0.0, 0.9, 2, *kinds)
    return {2: Grid((x_axis, y)), 3: Grid((x_axis, y, z))}
