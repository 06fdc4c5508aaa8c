"""Two-time-level conservative update of u-only data.

A solution of u_tt = c^2 Delta u has the time series u(t+tau) = sum_s
tau**s/s! d_t^s u, whose even derivatives d_t^(2p) u = c^(2p) Delta^p u
involve u alone and whose odd ones involve v = u_t. Adding the series at
tau = +-dt/2 cancels the odd part:

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (c dt/2)**(2p) / (2p)! Delta^p u(x, t).

The right-hand side is twice the series of u at t+dt/2 evolved from v = 0,
so the dissipative module's Taylor recursion (`expand_taylor`) builds it:
seeded with the Hermite interpolant centered at the target node and v = 0,
every odd stage is exactly zero, and the node data at t+dt/2 are twice the
series at theta = 1/2 minus the data at t-dt/2 on the same grid. The
interpolant has degree 2m+1 along each of d axes, so Delta^p of it vanishes
past p = dm; 2dm stages capture every term, and resolved polynomial data is
evolved exactly. Interpolation and update are linear in the gathered
current level, so a step gathers it through a plan cached on its grid,
multiplies it by one cached matrix (`fold`) and subtracts the previous
level.

The first half step is bootstrapped with the same recursion applied to
full-order interpolants of the initial displacement and velocity; one such
step is accurate to the interpolation error and comfortably exceeds the
O(h^(2m+1)) the two-level scheme needs. It is linear in the gathered pair
too, so `fold` turns it into one matrix per (m, lam, c, aspect), built at
unit spacing: with dt = lam h/c the map from (u, h u_t) is the same at
every h (the D^-1 A D argument of `grid.Stack`). A bootstrap is then one
take of u | h u_t packed per node and one product, for one level or for
every level of a stack at once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .boundary import level_gather, take
from .dissipative import SchemeConfig, eval_series, expand_taylor, fold, packed
from .grid import Field, Stack, TwoLevelState, flip, link
from .interp import apply_interp


def conservative_update(interp, prev, m: int, dt, hs, speed) -> np.ndarray:
    """Node data at t+dt/2 from the target-centered interpolant and t-dt/2.

    Args:
        interp: (..., 2m+2 per axis) coefficients of the interpolant
            centered at the target node (batched), one axis per spacing.
        prev: (..., m+1 per axis) node data at t-dt/2.
        dt: time step; the update advances dt/2.
        hs: cell spacing per axis.
        speed: wave speed c.
    """
    ndim = len(hs)
    c0 = np.asarray(interp, dtype=float)
    ctab, _ = expand_taylor(c0, np.zeros_like(c0), dt, hs, speed, 2 * ndim * m)
    new = eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim]
    return 2.0 * new - np.asarray(prev, dtype=float)


def _update(data, m, dt, hs, speed):
    """The update of gathered current data with prev = 0, the map `fold` builds."""
    return (conservative_update(apply_interp(data, len(hs)), 0.0, m, dt, hs, speed),)


def _plan(grid, parity, cfg: SchemeConfig) -> tuple:
    """Build the update plan of grid's `parity` level, or of a `Stack`:
    gather, matrix, dt/2 (one per level on a stack), target parity and the
    new current and previous shapes. The matrix depends on lam alone, so a
    stack's, built at the unit spacing of its aspect, serves every level."""
    m, hs = cfg.m, grid.spacings
    ndim = len(hs)
    dt = cfg.dt(min(hs))
    cu = (m + 1,) * ndim
    gather = level_gather(grid, parity, (cu,))
    (a,) = fold(_update, ((2,) * ndim + cu,), m, dt, hs, cfg.speed)
    return gather, a, 0.5 * cfg.dt(grid.h), flip(parity), (grid.shapes[flip(parity)] + cu,
                                                           grid.shapes[parity] + cu)


def full_step_conservative(state: TwoLevelState, cfg: SchemeConfig) -> TwoLevelState:
    """One update: gather the current level, multiply, subtract the previous.

    Returns the new state (advanced dt/2, parity flipped); the old current
    level's rows become the new previous level, uncopied. The state's plans
    are linked as in `dissipative.half_step`.
    """
    lnk = state.link
    if lnk is None or lnk[0] is not cfg:
        lnk = link(state, cfg, "conservative", _plan)
    gather, a, half_dt, parity, shapes = lnk[1]
    new = take(state.rows, gather).dot(a)  # not `@`: see dissipative.half_step
    new -= state.prev_rows
    out = TwoLevelState.__new__(TwoLevelState)
    out.grid, out.parity, out.shapes = state.grid, parity, shapes
    out.time, out.prev_time = state.time + half_dt, state.time
    out.rows, out.prev_rows = new, state.rows
    out.link = (cfg, lnk[2], lnk[1])
    return out


def _bootstrap(du, dv, m, dt, hs, speed):
    """u at dt/2 from gathered u and u_t data, the map `_bootstrap_matrix` folds."""
    ndim = len(hs)
    # with full-order v seeds every stage past d(2m+2) is exactly zero
    ctab, _ = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs, speed,
                            ndim * (2 * m + 2))
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],)


@lru_cache(maxsize=64)
def _bootstrap_matrix(m: int, dt: float, hs: tuple, speed: float) -> np.ndarray:
    """The `packed` `fold` blocks of the bootstrap, u | u_t per node, built
    once per (m, dt, hs, c)."""
    sides, cu = (2,) * len(hs), (m + 1,) * len(hs)
    return packed(fold(_bootstrap, (sides + cu, sides + cu), m, dt, hs, speed), sides)


def bootstrap_first_half(g0, g1, cfg: SchemeConfig) -> TwoLevelState:
    """Produce the two starting levels from initial data at t = 0.

    One take of g0 | g1 packed per node, through the level's or the stack's
    gather, and one product with the bootstrap matrix at unit spacing.

    Args:
        g0: Field with order-m data of the initial displacement, on a
            `Grid` or a `Stack`.
        g1: Field with order-m data of the initial velocity (same grid and
            parity as g0; the extra order sharpens the single Taylor step),
            on a stack carried as h*u_t, as a stack's v is.

    Returns:
        TwoLevelState with `current` at t = dt/2 on the opposite parity
        and `previous` = g0.
    """
    grid, parity = g0.grid, g0.parity
    cu = (cfg.m + 1,) * grid.ndim
    nodes = math.prod(grid.shapes[parity])
    u, u_t = g0.values.reshape(nodes, -1), g1.values.reshape(nodes, -1)
    if isinstance(grid, Stack):
        hs = grid.spacings
    else:
        hs, u_t = tuple(s / grid.h for s in grid.spacings), u_t * grid.h
    a = _bootstrap_matrix(cfg.m, cfg.dt(1.0), hs, cfg.speed)
    new = take(np.concatenate((u, u_t), axis=1), level_gather(grid, parity, (cu, cu))).dot(a)
    current = Field(grid, flip(parity), g0.time + 0.5 * cfg.dt(grid.h),
                    new.reshape(grid.shapes[flip(parity)] + cu))
    return TwoLevelState(current=current, previous=g0)
