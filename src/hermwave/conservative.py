"""Two-time-level conservative update of u-only data, its bootstrap, and the
one half step of both schemes.

The first half step is bootstrapped by the dissipative module's Taylor
recursion (`expand_taylor`), seeded with the full-order Hermite
interpolants of the initial displacement and velocity that are centered at
the target node, and summed at dt/2. One such step is accurate to the
interpolation error and comfortably exceeds the O(h^(2m+1)) the two-level
scheme needs. It is linear in the gathered pair, so `fold` turns it into
one matrix B, which from (u, h u_t) is the same at every h (see
`grid.State`): one per (m, lam, aspect), built at unit spacing. A
bootstrap is then one take of u | h u_t packed per node and one product,
for every level of a stack at once.

The update is the same map. A solution of u_tt = Delta u has the time
series u(t+tau) = sum_s tau**s/s! d_t^s u, whose even derivatives
d_t^(2p) u = Delta^p u involve u alone and whose odd ones involve
v = u_t. Adding the series at tau = +-dt/2 cancels the odd part:

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (dt/2)**(2p) / (2p)! Delta^p u(x, t).

The right-hand side is twice the series of u at t+dt/2 evolved from
u_t = 0: twice B's u rows, B_u, applied to the gathered current level. The
interpolant has degree 2m+1 along each of d axes, so Delta^p of it vanishes
past p = dm, every stage of B past 2dm is exactly zero on u_t = 0 data and
resolved polynomial data is evolved exactly. An update is one take of the
current level, one product with 2 B_u (`_update_matrix`, the u-source
rows of B) and the subtraction of the previous level:

    new = 2 B_u (gathered u) - prev.

So a half step of either scheme is a take and one matrix, and this module,
which imports both matrix builders, holds the one plan builder (`_plan`)
and the one `step` of a `grid.State`: the dissipative state's u | h*v rows
go through `dissipative._packed_matrix`, the two-level state's u rows
through 2 B_u before its previous level is subtracted. A plan is built
once per (stack's levels, parity, config, scheme), like its gather and
matrix. The step links a state to its plans (`link`): the state then
carries the config it was stepped with, the plan of its own parity and the
plan of the opposite one, and each state the step returns carries the same
two plans swapped, so a march looks its plans up once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .boundary import gather_plan, take
from .dissipative import SchemeConfig, _packed_matrix, eval_series, expand_taylor, fold, packed
from .grid import State, flip
from .interp import apply_interp


def _bootstrap(du, dv, m, dt, hs):
    """u at dt/2 from gathered u and u_t data, the map `_bootstrap_matrix` folds."""
    ndim = len(hs)
    # with full-order v seeds every stage past d(2m+2) is exactly zero
    ctab, _ = expand_taylor(apply_interp(du, ndim), apply_interp(dv, ndim), dt, hs,
                            ndim * (2 * m + 2))
    return (eval_series(ctab, 0.5)[(Ellipsis,) + (slice(m + 1),) * ndim],)


@lru_cache(maxsize=64)
def _bootstrap_matrix(m: int, dt: float, hs: tuple) -> np.ndarray:
    """The `packed` `fold` blocks of the bootstrap, u | u_t per node, built
    once per (m, dt, hs)."""
    sides, cu = (2,) * len(hs), (m + 1,) * len(hs)
    return packed(fold(_bootstrap, (sides + cu, sides + cu), m, dt, hs), sides)


@lru_cache(maxsize=64)
def _update_matrix(m: int, dt: float, hs: tuple) -> np.ndarray:
    """2 B_u, twice the u-source rows of the bootstrap matrix: the update's
    map from the gathered current level, built once per (m, dt, hs)."""
    b = _bootstrap_matrix(m, dt, hs)  # per side: the rows of u, then of u_t
    a = 2.0 * b.reshape(2 ** len(hs), 2, -1, b.shape[1])[:, 0].reshape(-1, b.shape[1])
    a.setflags(write=False)
    return a


def bootstrap_first_half(state: State, cfg: SchemeConfig) -> State:
    """Produce the two starting levels from initial data at t = 0.

    One take of the state's rows through its stack's gather and one
    product with the bootstrap matrix of its aspect.

    Args:
        state: the initial data as a `State`, its rows u | h*u_t per node,
            both of order m (the extra order of u_t sharpens the single
            Taylor step); other orders raise `check_blocks`'s error.

    Returns:
        The two-level `State` with u at t = dt/2 on the opposite parity and
        the state's u rows, uncopied, as its previous level.
    """
    stack, parity = state.grid, state.parity
    cu = (cfg.m + 1,) * stack.ndim
    check_blocks(state, (cu, cu), cfg.m)
    a = _bootstrap_matrix(cfg.m, cfg.dt(1.0), stack.aspect)
    new = take(state.rows, gather_plan(stack, parity, state.blocks)).dot(a)
    return State(stack, flip(parity), state.time + 0.5 * cfg.dt(stack.levels[0].h), new,
                 (cu,), state.rows[:, : math.prod(cu)])


@lru_cache(maxsize=256)  # a benchmark refine pass needs 100 plans
def _plan(stack, parity, cfg: SchemeConfig, scheme: str) -> tuple:
    """The half-step plan of a `Stack`'s `parity` nodes for "dissipative"
    or "conservative" states, built once per (stack's levels, parity, cfg,
    scheme).

    It holds the gather of the packed rows, the matrix (`_packed_matrix`
    or `_update_matrix`) of the stack's aspect, shared by every stack of
    that aspect (see `grid.State`), its first level's dt/2 (the states'
    time step), the target parity and the blocks the rows pack.
    """
    m, hs, dt = cfg.m, stack.aspect, cfg.dt(1.0)
    ndim = len(hs)
    cu = (m + 1,) * ndim
    if scheme == "conservative":
        blocks, a = (cu,), _update_matrix(m, dt, hs)
    else:
        blocks, a = (cu, (m,) * ndim), _packed_matrix(m, dt, hs, cfg.stages(ndim))
    return (gather_plan(stack, parity, blocks), a, 0.5 * cfg.dt(stack.levels[0].h),
            flip(parity), blocks)


def link(state: State, cfg: SchemeConfig) -> tuple:
    """The `link` of a state stepped under cfg: (cfg, plan, next plan).

    The plans are the `_plan`s of the state's parity and the opposite one,
    for "conservative" on a state with a previous level and "dissipative"
    otherwise. A plan's last entry is the blocks of the states it steps;
    they must be the state's own (`check_blocks`).
    """
    scheme = "dissipative" if state.prev_rows is None else "conservative"
    plan = _plan(state.grid, state.parity, cfg, scheme)
    check_blocks(state, plan[-1], cfg.m)
    return cfg, plan, _plan(state.grid, flip(state.parity), cfg, scheme)


def check_blocks(state: State, blocks: tuple, m: int) -> None:
    """Raise a ValueError naming the state's orders and m unless the state
    packs `blocks`, the ones a config of order m steps."""
    if state.blocks != blocks:
        orders = tuple(k - 1 for k in state.blocks[0])
        raise ValueError(f"state carries orders {orders}, config wants m = {m}")


def step(state: State, cfg: SchemeConfig) -> State:
    """Advance a state of either scheme by dt/2 onto the opposite parity.

    One take of its rows and one product; a two-level state then subtracts
    its previous level, and its old rows become the new previous level,
    uncopied. A state linked under this very config object steps with the
    plan it carries; any other is linked first, which checks its orders.
    """
    lnk = state.link
    if lnk is None or lnk[0] is not cfg:
        lnk = link(state, cfg)
    gather, a, half_dt, parity, blocks = lnk[1]
    out = State.__new__(State)
    out.grid, out.parity, out.time, out.blocks = state.grid, parity, state.time + half_dt, blocks
    # ndarray.dot calls BLAS directly, with the same bits; `@` sets up the
    # matmul ufunc on every call, which nearly doubles a 1D level's product:
    # (41, 14) by (14, 7) takes 1.4-2.8 us with `@` and 0.9-1.5 us with dot
    # (timeit, 2-vCPU Xeon VM, one BLAS thread)
    out.rows, out.prev_rows = take(state.rows, gather).dot(a), state.prev_rows
    if out.prev_rows is not None:
        out.rows -= out.prev_rows
        out.prev_rows = state.rows
    out.link = (cfg, lnk[2], lnk[1])
    return out
