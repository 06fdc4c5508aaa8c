"""The energies in closed form on a level, and their piecewise oracle.

`conservative_energy` reads E(t_n) from two `Field`s through the cached form
the driver samples (`hermwave.diagnostics.energy_window`, `energy_of_rows`).

The dissipative analogue c^2 |I_m u|_{m+1}^2 + |I_{m-1} v|_m^2, what
the (u, v) scheme dissipates at every interpolation, needs no shifts:
each cell's term reads only that cell's u coefficients of degree m+1 to
2m+1 and v coefficients of degree m to 2m-1. So it is c^2 sum_i |L_u a_i|^2
+ sum_i |L_v b_i|^2 (`dissipative_energy`), with the two `seminorm_factor`s
built from the same Gauss-point derivative rows as `energy_factor`, on the
whole cell.

Piecewise assembly of the conserved energy, the oracle for its cached form:
the conserved variables P_± = p^n - S_± p^{n-1/2} are built as explicit
piecewise polynomials: the previous level's interpolant is translated by
±dt/2 (`shift`), subtracted from the current one on the union of both
breakpoint sets (`pp_subtract`), and each union piece is integrated by a
Gauss rule exact for its degree (`seminorm_sq`). This is independent of
`hermwave.diagnostics.energy_factor`, which folds the same quantity into
one matrix, so the two check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hermwave.diagnostics import _derivative_rows, energy_of_rows, energy_window
from hermwave.grid import Axis, Field, State, flip
from hermwave.interp import interp_matrix
from level_oracle import pair_sources
from piecewise import CellPolynomial, PiecewisePolynomial, field_interpolant, seminorm_sq
from states import orders, two_level, u_of, v_of


@lru_cache(maxsize=64)
def seminorm_factor(mu: int, order: int, h: float) -> np.ndarray:
    """Read-only L with |p|_order^2 = |L a|^2 on one cell of width h.

    a holds the scaled coefficients of degree order to 2mu+1 of the cell
    interpolant of order-mu node data; the factor h^(1/2-order) turns the
    integral over xi in [-1/2, 1/2] into the physical one.
    """
    out = _derivative_rows(-0.5, 0.5, order, 2 * mu + 2 - order) * h ** (0.5 - order)
    out.setflags(write=False)
    return out


def _line(field) -> Axis:
    """The one axis of a 1D field or pair; the energies are defined in 1D only."""
    ndim = len(field.grid.axes)
    if ndim != 1:
        raise ValueError(f"defined for 1D fields only, got a {ndim}D field")
    return field.grid.axes[0]


def conservative_energy(current: Field, previous: Field, dt: float) -> float:
    """E(t_n) from a two-level nodal state on a periodic 1D grid."""
    axis = _line(current)
    if previous.parity != flip(current.parity):
        raise ValueError("the two levels must sit on opposite parities")
    (m,) = orders(current)
    return energy_of_rows(two_level(current, previous), energy_window(axis, m, dt))


def _interp_seminorm(field: Field, order: int, h: float) -> float:
    """|I field|_order^2 summed over the cells of the 1D field's gather."""
    (mu,) = orders(field)
    data = pair_sources(field)[0]
    top = data.reshape(len(data), -1) @ interp_matrix(mu)[order:].T
    y = top @ seminorm_factor(mu, order, h).T
    return float(np.vdot(y, y))


def dissipative_energy(state: State, speed: float) -> float:
    """c^2 |I_m u|_{m+1}^2 + |I_{m-1} v|_m^2 over the cells of the 1D gathers.

    A dual level's ghost-backed edge cells reach h/2 past each wall and are
    not clipped.
    """
    h = _line(u_of(state)).h
    (m,) = orders(u_of(state))
    return (speed * speed * _interp_seminorm(u_of(state), m + 1, h)
            + _interp_seminorm(v_of(state), m, h))


def shift(f: PiecewisePolynomial, delta: float) -> PiecewisePolynomial:
    """Translate a periodic field: eval(shift(f, d), x) == eval(f, x + d).

    Breakpoints and piece centers move by -delta and are wrapped back into
    the fundamental domain; coefficients are untouched (a translated
    polynomial keeps its scaled coefficients). At most one piece straddles
    the domain edge and is split in two.
    """
    if not f.periodic:
        raise ValueError("shift is only defined for periodic piecewise polynomials")
    lo, hi = f.domain
    span = hi - lo
    if abs(delta) >= np.min(np.diff(f.breakpoints)):
        raise ValueError("shift distance must be smaller than the smallest cell")
    tol = 1e-12 * span
    segs = []
    for i, p in enumerate(f.pieces):
        a = f.breakpoints[i] - delta
        b = f.breakpoints[i + 1] - delta
        c = p.center - delta
        k = math.floor((a - lo) / span + tol)
        a, b, c = a - k * span, b - k * span, c - k * span
        if b <= hi + tol:
            segs.append((a, min(b, hi), CellPolynomial(c, p.width, p.coeffs)))
        else:
            segs.append((a, hi, CellPolynomial(c, p.width, p.coeffs)))
            segs.append((lo, b - span, CellPolynomial(c - span, p.width, p.coeffs)))
    segs = [s for s in segs if s[1] - s[0] > tol]
    segs.sort(key=lambda s: s[0])
    bp = [lo] + [s[1] for s in segs]
    bp[-1] = hi
    return PiecewisePolynomial(np.array(bp), [s[2] for s in segs], periodic=True)


@dataclass(frozen=True)
class ConservedPair:
    p_plus: PiecewisePolynomial
    p_minus: PiecewisePolynomial


def pp_subtract(a: PiecewisePolynomial, b: PiecewisePolynomial) -> PiecewisePolynomial:
    """a - b on the union breakpoint set; both periodic with equal period.

    b is looked up through its own periodic window, so the two fields may
    live on windows offset by half a cell.
    """
    lo, hi = a.domain
    span = hi - lo
    blo = b.domain[0]
    tol = 1e-12 * span
    edges = list(a.breakpoints)
    for e in b.breakpoints[:-1]:
        w = lo + (e - lo) % span
        edges.append(w)
    edges = sorted(edges)
    merged = [lo]
    for e in edges:
        if e - merged[-1] > tol:
            merged.append(e)
    if hi - merged[-1] <= tol:
        merged[-1] = hi
    else:
        merged.append(hi)
    pieces = []
    for i in range(len(merged) - 1):
        xm = 0.5 * (merged[i] + merged[i + 1])
        ia = int(np.searchsorted(a.breakpoints, xm, side="right") - 1)
        pa = a.pieces[min(ia, len(a.pieces) - 1)]
        xw = blo + (xm - blo) % (b.domain[1] - blo)
        ib = int(np.searchsorted(b.breakpoints, xw, side="right") - 1)
        pb = b.pieces[min(ib, len(b.pieces) - 1)]
        pb = CellPolynomial(pb.center + (xm - xw), pb.width, pb.coeffs)
        ca = pa.recentered(xm, pa.width)
        cb = pb.recentered(xm, pa.width)
        n = max(len(ca.coeffs), len(cb.coeffs))
        cc = np.zeros(n)
        cc[: len(ca.coeffs)] = ca.coeffs
        cc[: len(cb.coeffs)] -= cb.coeffs
        pieces.append(CellPolynomial(xm, pa.width, cc))
    return PiecewisePolynomial(np.asarray(merged), pieces, periodic=True)


def conserved_pair(current: PiecewisePolynomial, previous: PiecewisePolynomial,
                   delta: float) -> ConservedPair:
    """P_± = current - S_± previous with shift distance delta = dt/2."""
    if not (current.periodic and previous.periodic):
        raise ValueError("conserved variables need a periodic domain")
    return ConservedPair(
        p_plus=pp_subtract(current, shift(previous, delta)),
        p_minus=pp_subtract(current, shift(previous, -delta)),
    )


def seminorm_energy(pair: ConservedPair, order: int) -> float:
    """E = |P_+|_order^2 + |P_-|_order^2 (order = m+1 for the scheme)."""
    return seminorm_sq(pair.p_plus, order) + seminorm_sq(pair.p_minus, order)


def oracle_energy(current, previous, dt: float) -> float:
    """E(t_n) from a two-level nodal state, assembled piece by piece."""
    pair = conserved_pair(field_interpolant(current), field_interpolant(previous), 0.5 * dt)
    return seminorm_energy(pair, orders(current)[0] + 1)
