"""`grid.State`s built from Fields, and the Field views of their rows.

The library keeps a state of either scheme as node rows and reads only its
u (`State.u`). The tests build and read states through Fields, whose v is
in its own units, while a state's rows carry it as h*v, h the smallest
spacing of each row's level (`grid.State`):
- `uv_state(u, v)`: a dissipative state, u | h*v packed per node, and the
  bootstrap's input, u | h*u_t;
- `two_level(current, previous)`: a conservative state, its previous level
  on the other parity;
- `u_state(field)`: u alone, the state the errors read of a conservative level;
- `v_of`, `previous_of` and `fields_of` read a state's rows back as Fields;
- `orders` gives a Field's order per axis.
"""

from __future__ import annotations

import math

import numpy as np

from hermwave.grid import Field, Stack, State, flip, rows


def orders(field: Field) -> tuple:
    return tuple(k - 1 for k in field.values.shape[-field.grid.ndim :])


def _rows(field: Field) -> np.ndarray:
    return rows(field.values, len(field.grid.shapes[field.parity]))


def _block(field: Field) -> tuple:
    return field.values.shape[-field.grid.ndim :]


def row_h(grid, parity: str) -> np.ndarray:
    """The h of each node row of `parity` as a column: the grid's, or on a
    `Stack` the h of the row's level."""
    h = grid.h[grid.level_of[parity]] if isinstance(grid, Stack) else grid.h
    return np.reshape(h, (-1, 1))


def uv_state(u: Field, v: Field) -> State:
    """The dissipative state of u and v (u's grid, parity and time)."""
    h = row_h(u.grid, u.parity)
    return State(u.grid, u.parity, u.time, np.concatenate((_rows(u), _rows(v) * h), axis=1),
                 (_block(u), _block(v)))


def two_level(current: Field, previous: Field) -> State:
    """The conservative state of two levels; the previous level's rows are
    its values' own, uncopied, and its time is not kept."""
    return State(current.grid, current.parity, current.time, _rows(current), (_block(current),),
                 _rows(previous))


def u_state(field: Field) -> State:
    """The state of u alone, with no previous level."""
    return State(field.grid, field.parity, field.time, _rows(field), (_block(field),))


def v_of(state: State) -> Field:
    """v of a dissipative state, in its own units."""
    u, v = state.blocks
    values = state.rows[:, math.prod(u) :] / row_h(state.grid, state.parity)
    return Field(state.grid, state.parity, state.time,
                 values.reshape(state.grid.shapes[state.parity] + v))


def previous_of(state: State, cfg=None) -> Field:
    """The previous level of a conservative state, at the time half a step
    of cfg before the state's (None without cfg)."""
    parity = flip(state.parity)
    time = None if cfg is None else state.time - 0.5 * cfg.dt(state.grid.h)
    return Field(state.grid, parity, time,
                 state.prev_rows.reshape(state.grid.shapes[parity] + state.blocks[0]))


def fields_of(state: State) -> tuple:
    """(u, v) of a dissipative state, (current, previous) of a conservative one."""
    return (state.u, v_of(state) if state.prev_rows is None else previous_of(state))
