"""Half-step evolution of (u, v) data by cell-local Taylor recursion.

Writing u and its velocity v = u_t on a cell as space-time series

    u = sum_{l,s} c_{l,s} xi**l theta**s,   xi = (x - x_c)/h, theta = (t - t_n)/dt,

the first-order system u_t = v, v_t = c^2 u_xx turns into the recursion

    c_{l,s} = (dt/s) d_{l,s-1},
    d_{l,s} = c^2 (l+2)(l+1) (dt/h^2) / s * c_{l+2,s-1},

seeded at s = 0 by the Hermite interpolants of degree 2m+1 (u) and 2m-1
(v). The series terminate: every coefficient beyond
kappa_v(l) = 2m-1-2*floor(l/2) (v) and kappa_u = kappa_v+1 (u) vanishes,
so running 2m stages evolves polynomial data exactly for c*dt <= h. One
half step evaluates the truncated series at theta = 1/2 on the staggered
node at the cell center and hands the data to the opposite grid.

In 2D the same recursion runs on tensor coefficients with the two
second-derivative terms summed. Seeding every series from I_{m,m} u alone
is unstable at the full CFL number; the first stage of the v-recursion
instead differentiates the mixed-order interpolants I_{m,m-1} u (for
x-derivatives) and I_{m-1,m} u (for y), after which the plain recursion
takes over. The price is that 2D evolution is no longer exact on
polynomial data.

Interpolation, recursion and evaluation are all linear in the gathered
flanking data, so for fixed (m, dt, h, c, stages) a half step is one
matrix. `fold` builds it once by pushing the identity through the
pipeline (`taylor_half_step_1d/2d`); the steppers only gather, multiply
and reshape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import BoundarySpec, BoundarySpec2D, corner_sources, pair_sources
from .grid import Field1D, Field2D, FieldPair, flip
from .interp import apply_interp, apply_interp_2d


@dataclass(frozen=True)
class SchemeConfig:
    """Shared stepping parameters.

    Attributes:
        m: method order; nodal data carries derivatives 0..m of u.
        speed: wave speed c > 0.
        lam: CFL number c*dt/h (smallest h in 2D), in (0, 1].
        stage_cap: optional cap on the number of Taylor stages; default is
            the full truncation depth (2m in 1D, 4m+4 in 2D).
    """

    m: int
    speed: float = 1.0
    lam: float = 0.8
    stage_cap: int | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"method order must be >= 1, got {self.m}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"CFL number must be in (0, 1], got {self.lam}")
        if self.speed <= 0.0:
            raise ValueError("wave speed must be positive")
        if self.stage_cap is not None and self.stage_cap < 1:
            raise ValueError("stage cap must be at least 1")

    def dt(self, h: float) -> float:
        return self.lam * h / self.speed

    def stages_1d(self) -> int:
        return 2 * self.m if self.stage_cap is None else self.stage_cap

    def stages_2d(self) -> int:
        return 4 * self.m + 4 if self.stage_cap is None else self.stage_cap


def expand_taylor(cu, cv, dt, h, speed, smax):
    """Run the 1D recursion on batched cell coefficients.

    Args:
        cu: (..., Lu) scaled u coefficients at s=0.
        cv: (..., Lv) scaled v coefficients at s=0, Lv <= Lu.

    Returns:
        (CU, CV) with trailing stage axis of length smax+1.
    """
    cu = np.asarray(cu, dtype=float)
    cv = np.asarray(cv, dtype=float)
    lu, lv = cu.shape[-1], cv.shape[-1]
    cu_tab = np.zeros(cu.shape + (smax + 1,))
    cv_tab = np.zeros(cv.shape + (smax + 1,))
    cu_tab[..., 0] = cu
    cv_tab[..., 0] = cv
    r = speed * speed * dt / (h * h)
    nsrc = min(lv, lu - 2)  # d_{l,s} reads c_{l+2,s-1}
    mul = np.arange(2, nsrc + 2) * np.arange(1, nsrc + 1)  # (l+2)(l+1)
    for s in range(1, smax + 1):
        cu_tab[..., :lv, s] = (dt / s) * cv_tab[..., :, s - 1]
        cv_tab[..., :nsrc, s] = (r / s) * mul * cu_tab[..., 2 : nsrc + 2, s - 1]
    return cu_tab, cv_tab


def eval_series(table: np.ndarray, theta: float) -> np.ndarray:
    """Sum the time series at theta = tau/dt by Horner's rule."""
    out = table[..., -1].copy()
    for s in range(table.shape[-1] - 2, -1, -1):
        out = out * theta + table[..., s]
    return out


def flat_rows(ndim: int, *blocks) -> np.ndarray:
    """One row per target: its blocks flattened and concatenated.

    The first `ndim` axes of every block index the targets (1 in 1D, 2 in 2D).
    """
    return np.concatenate([b.reshape(b.shape[:ndim] + (-1,)) for b in blocks], axis=-1)


@lru_cache(maxsize=64)
def fold(fn, shapes, *args) -> np.ndarray:
    """Matrix of the linear per-target map blocks -> fn(*blocks, *args), cached.

    fn takes one batched block (k, *shape) per entry of `shapes`, then
    `args`, and returns a tuple of batched blocks. The read-only result A
    satisfies flat_rows(1, *fn(*blocks, *args)) == flat_rows(1, *blocks) @ A;
    it is found by applying fn to the identity.
    """
    sizes = [int(np.prod(s)) for s in shapes]
    eye = np.eye(sum(sizes))
    cols = np.split(eye, np.cumsum(sizes)[:-1], axis=1)
    a = flat_rows(1, *fn(*(c.reshape((-1,) + s) for c, s in zip(cols, shapes)), *args))
    a.setflags(write=False)
    return a


def taylor_half_step_1d(du, dv, dt, h, speed, stages):
    """Interpolate, expand in time and evaluate at dt/2, per target node.

    du (..., 2, mu_u+1) and dv (..., 2, mu_v+1) are flanking u and v data;
    returns the target (u, v) data of the same orders.
    """
    ctab, dtab = expand_taylor(apply_interp(du), apply_interp(dv), dt, h, speed, stages)
    return (eval_series(ctab, 0.5)[..., : du.shape[-1]],
            eval_series(dtab, 0.5)[..., : dv.shape[-1]])


def half_step_1d(state: FieldPair, cfg: SchemeConfig, bc: BoundarySpec) -> FieldPair:
    """Advance (u, v) by dt/2 onto the opposite grid."""
    m = cfg.m
    grid = state.u.grid
    if state.u.order != m:
        raise ValueError(f"state carries order {state.u.order}, config wants {m}")
    dt = cfg.dt(grid.h)
    du, _ = pair_sources(state.u, bc)
    dv, _ = pair_sources(state.v, bc, dirichlet_values=(0.0, 0.0))
    a = fold(taylor_half_step_1d, (du.shape[1:], dv.shape[1:]), dt, grid.h, cfg.speed,
             cfg.stages_1d())
    new = flat_rows(1, du, dv) @ a
    t_new = state.time + 0.5 * dt
    parity = flip(state.parity)
    return FieldPair(
        Field1D(grid, parity, t_new, new[:, : m + 1]),
        Field1D(grid, parity, t_new, new[:, m + 1 :]),
    )


def expand_taylor_2d(c0, d0, dt, hx, hy, speed, smax, d1=None):
    """Tensor-coefficient recursion; all tables padded to c0's footprint.

    Args:
        c0: (..., K, K) u coefficients at s=0.
        d0: (..., Lv, Lv) v coefficients at s=0, Lv <= K.
        d1: optional (..., K-2, K-2) stabilized first v stage; if absent
            the plain recursion supplies stage 1 as well.

    Returns:
        (C, D) of shape (..., K, K, smax+1).
    """
    k = c0.shape[-1]
    lv = d0.shape[-1]
    ctab = np.zeros(c0.shape[:-2] + (k, k, smax + 1))
    dtab = np.zeros_like(ctab)
    ctab[..., 0] = c0
    dtab[..., :lv, :lv, 0] = d0
    rx = speed * speed * dt / (hx * hx)
    ry = speed * speed * dt / (hy * hy)
    mul = np.arange(2, k) * np.arange(1, k - 1)  # (j+2)(j+1), j = 0..K-3
    for s in range(1, smax + 1):
        ctab[..., s] = (dt / s) * dtab[..., s - 1]
        if s == 1 and d1 is not None:
            dtab[..., : k - 2, : k - 2, 1] = d1
            continue
        dtab[..., : k - 2, :, s] = (rx / s) * mul[:, None] * ctab[..., 2:, :, s - 1]
        dtab[..., :, : k - 2, s] += (ry / s) * mul[None, :] * ctab[..., :, 2:, s - 1]
    return ctab, dtab


def taylor_half_step_2d(du, dv, dt, hx, hy, speed, stages):
    """2D counterpart of taylor_half_step_1d on corner data.

    du is (..., 2, 2, m+1, m+1) and dv (..., 2, 2, m, m). Four interpolants
    per cell: I_{m,m-1} u and I_{m-1,m} u feed the stabilized first stage,
    I_{m,m} u seeds the u series, I_{m-1,m-1} v seeds the v series.
    """
    m = dv.shape[-1]
    cmm = apply_interp_2d(du)                  # (..., 2m+2, 2m+2)
    c_x = apply_interp_2d(du[..., :, :m])      # I_{m,m-1}: (..., 2m+2, 2m)
    c_y = apply_interp_2d(du[..., :m, :])      # I_{m-1,m}: (..., 2m, 2m+2)
    d0 = apply_interp_2d(dv)                   # (..., 2m, 2m)
    rx = speed**2 * dt / (hx * hx)
    ry = speed**2 * dt / (hy * hy)
    mul = np.arange(2, 2 * m + 2) * np.arange(1, 2 * m + 1)
    d1 = rx * mul[:, None] * c_x[..., 2:, :] + ry * mul[None, :] * c_y[..., :, 2:]
    ctab, dtab = expand_taylor_2d(cmm, d0, dt, hx, hy, speed, stages, d1=d1)
    return (eval_series(ctab, 0.5)[..., : m + 1, : m + 1],
            eval_series(dtab, 0.5)[..., :m, :m])


def half_step_2d(state: FieldPair, cfg: SchemeConfig, bc: BoundarySpec2D) -> FieldPair:
    """Advance 2D (u, v) by dt/2 onto the opposite grid."""
    m = cfg.m
    grid = state.u.grid
    if state.u.orders != (m, m):
        raise ValueError(f"state carries orders {state.u.orders}, config wants ({m}, {m})")
    hx, hy = grid.hx, grid.hy
    dt = cfg.dt(min(hx, hy))
    du, _, _ = corner_sources(state.u, bc)
    dv, _, _ = corner_sources(state.v, bc, dirichlet_values=(0.0, 0.0))
    a = fold(taylor_half_step_2d, (du.shape[2:], dv.shape[2:]), dt, hx, hy, cfg.speed,
             cfg.stages_2d())
    new = flat_rows(2, du, dv) @ a
    lead = new.shape[:2]
    k = (m + 1) ** 2
    t_new = state.time + 0.5 * dt
    parity = flip(state.parity)
    return FieldPair(
        Field2D(grid, parity, t_new, new[..., :k].reshape(lead + (m + 1, m + 1))),
        Field2D(grid, parity, t_new, new[..., k:].reshape(lead + (m, m))),
    )
