"""Two-time-level conservative update of u-only data, and its bootstrap.

The first half step is bootstrapped by the dissipative module's Taylor
recursion (`expand_taylor`), seeded with the full-order Hermite
interpolants of the initial displacement and velocity that are centered at
the target node, and summed at dt/2. One such step is accurate to the
interpolation error and comfortably exceeds the O(h^(2m+1)) the two-level
scheme needs. It is linear in the gathered pair, so `fold` turns it into
one matrix B per (m, dt, hs, c); with dt = lam h/c the map from (u, h u_t)
is the same at every h (the D^-1 A D argument of `grid.Stack`), so a stack's
is built at unit spacing. A bootstrap is then one take of u | h u_t packed
per node and one product, for one level or for every level of a stack at
once.

The update is the same map. A solution of u_tt = c^2 Delta u has the time
series u(t+tau) = sum_s tau**s/s! d_t^s u, whose even derivatives
d_t^(2p) u = c^(2p) Delta^p u involve u alone and whose odd ones involve
v = u_t. Adding the series at tau = +-dt/2 cancels the odd part:

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (c dt/2)**(2p) / (2p)! Delta^p u(x, t).

The right-hand side is twice the series of u at t+dt/2 evolved from
u_t = 0: twice B's u rows, B_u, applied to the gathered current level. The
interpolant has degree 2m+1 along each of d axes, so Delta^p of it vanishes
past p = dm, every stage of B past 2dm is exactly zero on u_t = 0 data and
resolved polynomial data is evolved exactly. A step is one take of the
current level through a plan cached on its grid, one product with 2 B_u
(`_update_matrix`, the u block of B's `fold`) and the subtraction of the
previous level:

    new = 2 B_u (gathered u) - prev.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .boundary import level_gather, take
from .dissipative import SchemeConfig, eval_series, expand_taylor, fold, packed
from .grid import Field, Stack, TwoLevelState, flip, link
from .interp import apply_interp


def _plan(grid, parity, cfg: SchemeConfig) -> tuple:
    """Build the update plan of grid's `parity` level, or of a `Stack`:
    gather, `_update_matrix`, dt/2 (one per level on a stack), target parity
    and the new current and previous shapes. The matrix depends on lam
    alone, so a stack's, built at the unit spacing of its aspect, serves
    every level."""
    m, hs = cfg.m, grid.spacings
    cu = (m + 1,) * len(hs)
    a = _update_matrix(m, cfg.dt(min(hs)), hs, cfg.speed)
    return (level_gather(grid, parity, (cu,)), a, 0.5 * cfg.dt(grid.h), flip(parity),
            (grid.shapes[flip(parity)] + cu, grid.shapes[parity] + cu))


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


@lru_cache(maxsize=64)
def _update_matrix(m: int, dt: float, hs: tuple, speed: float) -> np.ndarray:
    """2 B_u, twice the u block of the bootstrap's `fold`: the update's map
    from the gathered current level, built once per (m, dt, hs, c)."""
    sides, cu = (2,) * len(hs), (m + 1,) * len(hs)
    a = 2.0 * fold(_bootstrap, (sides + cu, sides + cu), m, dt, hs, speed)[0]
    a.setflags(write=False)
    return a


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
