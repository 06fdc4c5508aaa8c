"""Grid construction checks and the cached per-axis spacings."""

import pytest

from hermwave.grid import Grid1D, Grid2D


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 0, True),     # no cells
    (1.0, 0.0, 3, True),     # reversed domain
    (0.5, 0.5, 3, False),    # empty domain
])
def test_grid_1d_rejects_bad_inputs(args):
    with pytest.raises(ValueError):
        Grid1D(*args)


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 0.0, 1.0, 0, 3, True),     # no x cells
    (0.0, 1.0, 0.0, 1.0, 3, 0, False),    # no y cells
    (1.0, 0.0, 0.0, 1.0, 3, 3, True),     # reversed x domain
    (0.0, 1.0, 2.0, 2.0, 3, 3, False),    # empty y domain
])
def test_grid_2d_rejects_bad_inputs(args):
    with pytest.raises(ValueError):
        Grid2D(*args)


def test_spacings_are_built_once():
    g1 = Grid1D(-1.0, 0.5, 6, periodic=False)
    g2 = Grid2D(0.0, 1.0, -1.0, 2.0, 4, 5, periodic=True)
    assert g1.spacings == (g1.h,)
    assert g2.spacings == (g2.hx, g2.hy) == (g2.axis(0).h, g2.axis(1).h)
    assert g1.spacings is g1.spacings
    assert g2.spacings is g2.spacings
