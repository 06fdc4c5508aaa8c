"""`grid.State`s built from Fields, and the Field views of their rows.

The library keeps a state of either scheme as node rows on a `Stack` and
reads only its u (`State.u`). The tests build and read states through
Fields, whose v is in its own units, while a state's rows carry it as h*v,
h the smallest spacing of each row's level (`grid.State`). A Field on a
level's `Grid` goes onto that level's one-level stack (`one`), and a state
on a one-level stack reads back as Fields on its level, in the level's
node shape; a Field on a larger stack stays on it:
- `uv_state(u, v)`: a dissipative state, u | h*v packed per node, and the
  bootstrap's input, u | h*u_t;
- `two_level(current, previous)`: a conservative state, its previous level
  on the other parity;
- `u_state(field)`: u alone, the state the errors read of a conservative level;
- `bootstrap_first_half(state, cfg)`: the two-level state one Taylor half
  step after the bootstrap's input, as the library once started a run;
- `u_of`, `v_of`, `previous_of` and `fields_of` read a state's rows back as
  Fields;
- `orders` gives a Field's order per axis.
"""

from __future__ import annotations

import math

import numpy as np

from hermwave.boundary import gather_plan, take
from hermwave.conservative import _bootstrap_matrix, check_blocks
from hermwave.grid import Field, Stack, State, flip, rows


def one(grid) -> Stack:
    """The one-level `Stack` of a `Grid`; equal grids give equal stacks,
    which share their plans."""
    return Stack([grid])


def orders(field: Field) -> tuple:
    return tuple(k - 1 for k in field.values.shape[-field.grid.ndim :])


def _stack(field: Field) -> Stack:
    return field.grid if isinstance(field.grid, Stack) else one(field.grid)


def _rows(field: Field) -> np.ndarray:
    return rows(field.values, len(field.grid.shapes[field.parity]))


def _block(field: Field) -> tuple:
    return field.values.shape[-field.grid.ndim :]


def _h(stack: Stack, parity: str) -> np.ndarray:
    """The h of each node row of `parity` as a column: its level's."""
    return stack.h[stack.level_of[parity]][:, None]


def _field(stack: Stack, parity: str, time, values: np.ndarray, block: tuple) -> Field:
    """Rows of one field as a Field: on the level of a one-level stack, in
    its node shape, else on the stack."""
    grid = stack.levels[0] if len(stack.levels) == 1 else stack
    return Field(grid, parity, time, values.reshape(grid.shapes[parity] + block))


def uv_state(u: Field, v: Field) -> State:
    """The dissipative state of u and v (u's grid, parity and time)."""
    stack = _stack(u)
    return State(stack, u.parity, u.time,
                 np.concatenate((_rows(u), _rows(v) * _h(stack, u.parity)), axis=1),
                 (_block(u), _block(v)))


def two_level(current: Field, previous: Field) -> State:
    """The conservative state of two levels; the previous level's rows are
    its values' own, uncopied, and its time is not kept."""
    return State(_stack(current), current.parity, current.time, _rows(current),
                 (_block(current),), _rows(previous))


def u_state(field: Field) -> State:
    """The state of u alone, with no previous level."""
    return State(_stack(field), field.parity, field.time, _rows(field), (_block(field),))


def bootstrap_first_half(state: State, cfg) -> State:
    """The two starting levels from the bootstrap's input u | h*u_t at t = 0,
    both of order m (other orders raise `check_blocks`'s error): one take
    and one product with B, giving u at t = dt/2 on the opposite parity, with
    the state's u rows, uncopied, as its previous level. The library starts
    at t = 0 instead, with u at -dt/2 from B on u | -h*u_t, so that its
    first step gives this state to rounding."""
    stack, parity = state.grid, state.parity
    cu = (cfg.m + 1,) * stack.ndim
    check_blocks(state, (cu, cu), cfg.m)
    a = _bootstrap_matrix(cfg.m, cfg.dt(1.0), stack.aspect)
    new = take(state.rows, gather_plan(stack, parity, state.blocks)).dot(a)
    return State(stack, flip(parity), state.time + 0.5 * cfg.dt(stack.levels[0].h), new,
                 (cu,), state.rows[:, : math.prod(cu)])


def u_of(state: State) -> Field:
    """u, the current level of a two-level state, as `_field` reads it."""
    u = state.blocks[0]
    return _field(state.grid, state.parity, state.time, state.rows[:, : math.prod(u)], u)


def v_of(state: State) -> Field:
    """v of a dissipative state, in its own units."""
    u, v = state.blocks
    values = state.rows[:, math.prod(u) :] / _h(state.grid, state.parity)
    return _field(state.grid, state.parity, state.time, values, v)


def previous_of(state: State, cfg=None) -> Field:
    """The previous level of a conservative state, at the time half a step
    of cfg before the state's (None without cfg)."""
    parity = flip(state.parity)
    time = None if cfg is None else state.time - 0.5 * cfg.dt(state.grid.levels[0].h)
    return _field(state.grid, parity, time, state.prev_rows, state.blocks[0])


def fields_of(state: State) -> tuple:
    """(u, v) of a dissipative state, (current, previous) of a conservative one."""
    return (u_of(state), v_of(state) if state.prev_rows is None else previous_of(state))
