"""Two-time-level conservative update of u-only data, its start, and the
one half step of both schemes.

Every conservative run starts as one two-level state: u at t = 0 on the
primal rows and its previous level, u at t = -dt/2, on the dual rows.
From initial displacement and velocity both of order m that level is
found by the dissipative half step's own map (`dissipative._packed_matrix`)
run backwards in time: the full-order Hermite interpolants of u and -u_t
centered at the target node, whose seed is then the plain flow's, are
evolved by the exact wave flow for dt/2. One such step is accurate to the
interpolation error and comfortably exceeds the O(h^(2m+1)) the
two-level scheme needs. B is that matrix's u columns,
which from (u, h u_t) are the same at every h (see `grid.State`): one per
(m, lam, aspect), built at unit spacing. The previous level is then one
take of u | -h u_t packed per node and one product (`previous_level`),
for every level of a stack at once.

The update is the same map. A solution of u_tt = Delta u has the time
series u(t+tau) = sum_s tau**s/s! d_t^s u, whose even derivatives
d_t^(2p) u = Delta^p u involve u alone and whose odd ones involve
v = u_t. Adding the series at tau = +-dt/2 cancels the odd part:

    u(x, t+dt/2) + u(x, t-dt/2) = 2 sum_p (dt/2)**(2p) / (2p)! Delta^p u(x, t).

The right-hand side is twice the series of u at t+dt/2 evolved from
u_t = 0: twice B's u rows, B_u, applied to the gathered current level. The
interpolant has degree 2m+1 along each of d axes, so Delta^p of it vanishes
past p = dm: on u_t = 0 data the flow's series ends at its stage 2dm, and
resolved polynomial data is evolved exactly. An update is one take of the
current level, one product with 2 B_u (`_update_matrix`, the u-source
rows of B) and the subtraction of the previous level:

    new = 2 B_u (gathered u) - prev.

So the first update from the start gives 2 B_u u - B (u | -h u_t) =
B (u | h u_t), one Taylor half step forwards, to rounding.

A half step of either scheme is a take and one matrix, and this module,
which imports both matrix builders, holds the one plan builder (`_plan`)
and the one `step` of a `grid.State`: the dissipative state's u | h*v rows
go through `dissipative._packed_matrix`, the two-level state's u rows
through 2 B_u before its previous level is subtracted. A `Plan` is built
once per (stack's levels, parity, config, scheme), like its gather and
matrix, and holds what a half step reads. `link` ties the plans of a
stack's two parities to each other (`Plan.next`) and hands a state the
plan of its parity; the state carries it as `link`, with the config object
it was linked under as `link_cfg`. Each state the step returns carries the
next plan and the same config, so a march looks its plans up once.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .boundary import gather_plan, take
from .dissipative import SchemeConfig, _packed_matrix
from .grid import PRIMAL, State, flip


def _bootstrap_matrix(m: int, dt: float, hs: tuple) -> np.ndarray:
    """B: the u columns of the half step's matrix from u | u_t per node,
    both of order m; read-only."""
    cu = (m + 1,) * len(hs)
    return _packed_matrix((cu, cu), dt, hs)[:, : math.prod(cu)]


@lru_cache(maxsize=64)
def _update_matrix(m: int, dt: float, hs: tuple) -> np.ndarray:
    """2 B_u, twice the u-source rows of the bootstrap matrix: the update's
    map from the gathered current level, built once per (m, dt, hs)."""
    b = _bootstrap_matrix(m, dt, hs)  # per side: the rows of u, then of u_t
    a = 2.0 * b.reshape(2 ** len(hs), 2, -1, b.shape[1])[:, 0].reshape(-1, b.shape[1])
    a.setflags(write=False)
    return a


def previous_level(stack, u: np.ndarray, h_ut: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """u at t = -dt/2 on a `Stack`'s dual rows, from its primal rows of u
    and h*u_t at t = 0, both of order m: one take of u | -h*u_t and one
    product with B, a Taylor half step backwards in time."""
    cu = (cfg.m + 1,) * stack.ndim
    back = np.concatenate((u, -h_ut), axis=1)
    return take(back, gather_plan(stack, PRIMAL, (cu, cu))).dot(
        _bootstrap_matrix(cfg.m, cfg.dt(1.0), stack.aspect))


class Plan:
    """The half step from one parity of a `Stack`'s nodes: what `step` reads.

    `gather` is the `GatherPlan` of the packed rows, `index` and `negate`
    its flat index and reflected slots, `shape` the gathered rows' shape,
    (targets, 2**d * columns); `matrix` the half step's map, `half_dt` the
    first level's dt/2 (the states' time step), `parity` the targets'
    parity, `blocks` the coefficient shapes the rows pack, and `next` the
    plan of the opposite parity (None until `link` sets it).
    """

    __slots__ = ("gather", "index", "negate", "shape", "matrix", "half_dt", "parity",
                 "blocks", "next")

    def __init__(self, gather, matrix: np.ndarray, half_dt: float, parity: str, blocks: tuple):
        self.gather, self.index, self.negate = gather, gather.index, gather.negate
        self.shape = (gather.targets, gather.index.shape[1] * sum(math.prod(b) for b in blocks))
        self.matrix, self.half_dt, self.parity, self.blocks = matrix, half_dt, parity, blocks
        self.next = None


@lru_cache(maxsize=256)  # a benchmark refine pass needs 100 plans
def _plan(stack, parity, cfg: SchemeConfig, scheme: str) -> Plan:
    """The `Plan` of a `Stack`'s `parity` nodes for "dissipative" or
    "conservative" states, built once per (stack's levels, parity, cfg,
    scheme). Its matrix (`_packed_matrix` or `_update_matrix`) is the one
    of the stack's aspect, shared by every stack of that aspect (see
    `grid.State`).
    """
    m, hs, dt = cfg.m, stack.aspect, cfg.dt(1.0)
    ndim = len(hs)
    cu = (m + 1,) * ndim
    if scheme == "conservative":
        blocks, a = (cu,), _update_matrix(m, dt, hs)
    else:
        blocks = (cu, (m,) * ndim)
        a = _packed_matrix(blocks, dt, hs)
    return Plan(gather_plan(stack, parity, blocks), a, 0.5 * cfg.dt(stack.levels[0].h),
                flip(parity), blocks)


def link(state: State, cfg: SchemeConfig) -> Plan:
    """The plan a state steps with under cfg, linked to the opposite one.

    The plans are the `_plan`s of the state's parity and the opposite one,
    for "conservative" on a state with a previous level and "dissipative"
    otherwise; each becomes the other's `next`. A plan's blocks must be
    the state's own (`check_blocks`).
    """
    scheme = "dissipative" if state.prev_rows is None else "conservative"
    plan = _plan(state.grid, state.parity, cfg, scheme)
    check_blocks(state, plan.blocks, cfg.m)
    plan.next = _plan(state.grid, flip(state.parity), cfg, scheme)
    plan.next.next = plan
    return plan


def check_blocks(state: State, blocks: tuple, m: int) -> None:
    """Raise a ValueError naming the state's orders and m unless the state
    packs `blocks`, the ones a config of order m steps."""
    if state.blocks != blocks:
        orders = tuple(k - 1 for k in state.blocks[0])
        raise ValueError(f"state carries orders {orders}, config wants m = {m}")


def step(state: State, cfg: SchemeConfig) -> State:
    """Advance a state of either scheme by dt/2 onto the opposite parity.

    One take of its rows, one sign flip of the reflected slots at walls and
    one product; a two-level state then subtracts its previous level, and
    its old rows become the new previous level, uncopied. A state linked
    under this very config object steps with the plan it carries; any
    other is linked first, which checks its orders. The new state carries
    the next plan, linked under cfg.
    """
    plan = state.link
    if state.link_cfg is not cfg:
        plan = link(state, cfg)
    gathered = state.rows.take(plan.index, 0)  # `boundary.take`, inlined
    if plan.negate is not None:
        gathered.reshape(-1)[plan.negate] *= -1.0
    # ndarray.dot calls BLAS directly, with the same bits; `@` sets up the
    # matmul ufunc on every call, which nearly doubles a 1D level's product:
    # (41, 14) by (14, 7) takes 1.4-2.8 us with `@` and 0.9-1.5 us with dot
    # (timeit, 2-vCPU Xeon VM, one BLAS thread)
    rows = gathered.reshape(plan.shape).dot(plan.matrix)
    prev = state.prev_rows
    if prev is not None:
        rows -= prev
        prev = state.rows
    # one store per slot: a tuple assignment of four or more builds a tuple
    out = State.__new__(State)
    out.grid = state.grid
    out.parity = plan.parity
    out.time = state.time + plan.half_dt
    out.blocks = plan.blocks
    out.rows = rows
    out.prev_rows = prev
    out.link = plan.next
    out.link_cfg = cfg
    return out
