"""Error norms, convergence rates, and conserved-variable energies.

The conservative scheme preserves the seminorm energy

    E(t_n) = |P_+|_{m+1}^2 + |P_-|_{m+1}^2,
    P_± = p^n - S_± p^{n-1/2},   S_± w(x) = w(x ± c dt/2),

where p^n, p^{n-1/2} are the global piecewise interpolants of the two
levels and |f|_r^2 integrates the squared r-th derivative. On a cell of
p^n, in its scaled variable xi in [-1/2, 1/2], S_± p^{n-1/2} is the
previous level's left cell evaluated at xi + 1/2 ± r for xi below ∓r and
its right cell at xi - 1/2 ± r above, with r = c dt/(2h) <= 1/2. The
(m+1)-th derivative keeps only the coefficients of degree m+1 to 2m+1,
so both members are linear in a fixed window y_i of 3(m+1) values per
cell: those coefficients of the cell and of the two previous-level cells
the shifts reach. Hence E = sum_i y_i^T G y_i with one Gram matrix G per
(m, r, h). `energy_factor` builds it as G = L^T L from binomial shifts
and, on each of the four sub-pieces, the derivative at Gauss points
exact for its square, so no quadrature error enters the drift
measurement.

Two choices keep the rounding relative to E for smooth data, where the
top coefficients and P_± are small against the nodal data: the window
holds interpolated coefficients rather than nodal values (a matrix
folded through the interpolation cancels the large low-order data only
to its own rounding), and E sums the squares of L y_i rather than
evaluating y_i^T G y_i. The rounding still grows with m: at n = 30 and
100 steps of smooth data, the stock conserve1d drift reads 5e-9 at m = 4,
1.3e-3 at m = 6 and 0.6 at m = 8 while the stepped level's L2 error stays
at or below 1e-13, and E of exact two-level data varies by as much, so past
m = 4 the drift measures this form's noise, not the scheme.

The dissipative analogue c^2 |I_m u|_{m+1}^2 + |I_{m-1} v|_m^2, what
the (u, v) scheme dissipates at every interpolation, needs no shifts:
each cell's term reads only that cell's u coefficients of degree m+1 to
2m+1 and v coefficients of degree m to 2m-1. So it is c^2 sum_i |L_u a_i|^2
+ sum_i |L_v b_i|^2, with the two `seminorm_factor`s built from the same
Gauss-point derivative rows as `energy_factor`, on the whole cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import gather_index, pair_sources
from .grid import Axis, Field, FieldPair, flip
from .interp import apply_interp, interp_matrix


@lru_cache(maxsize=64)
def gauss_rule(npts: int):
    """Gauss-Legendre nodes/weights on [-1, 1]; cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def default_npts(m: int) -> int:
    # exact for the degree-2(2m+1) integrands of the property tests
    return 2 * m + 2


# ---------------------------------------------------------------------------
# L2 errors


def _axis_rule(axis: Axis, centers: np.ndarray, npts: int):
    """Gauss rule on each cell of one axis, cells centred on the gather's targets.

    On wall grids the cells are clipped to the domain (a dual field's
    ghost-backed edge cells stick out by h/2) and empty ones are dropped;
    periodic cells cover one period as they are, on a window shifted by up
    to h/2.

    Returns:
        keep: index of the kept cells.
        quad: (x, xi, wg, half) with x the (cells, npts) Gauss points, xi
            their scaled variable, wg the rule's weights and half the
            (cells,) half-lengths of the integration intervals.
    """
    h = axis.h
    a, b = centers - 0.5 * h, centers + 0.5 * h
    keep = slice(None)
    if not axis.periodic:
        a, b = np.maximum(a, axis.x_left), np.minimum(b, axis.x_right)
        keep = b > a
        centers, a, b = centers[keep], a[keep], b[keep]
    xg, wg = gauss_rule(npts)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * xg
    xi = (x - centers[:, None]) / h
    return keep, (x, xi, wg, half)


def _cell_quadrature(field: Field, npts: int):
    """Interpolant coefficients (cells per axis..., 2mu_q+2 per axis...) of a
    field, and one `_axis_rule` quadrature per axis."""
    data, *centers = pair_sources(field)
    quads = []
    for q, (axis, c) in enumerate(zip(field.grid.axes, centers)):
        keep, quad = _axis_rule(axis, c, npts)
        data = data[(slice(None),) * q + (keep,)]
        quads.append(quad)
    return apply_interp(data, len(quads)), quads


def _cell_l2(coeffs, quads, exact) -> float:
    """sqrt(integral (p - exact)^2) over the cells of per-axis quadratures.

    Horner's rule turns one axis's coefficients into its Gauss points at a
    time, so the values, and the points exact gets, are laid out (cells per
    axis..., points per axis...)."""
    d = len(quads)
    vals, xs = coeffs, []
    for q, (x, xi, _, _) in enumerate(quads):
        shape = [1] * (2 * d)
        shape[q], shape[d + q] = x.shape
        xs.append(x.reshape(shape))
        xi = xi.reshape(shape)
        at = (slice(None),) * (d + q)
        k = vals.shape[d + q]
        p = vals[at + (slice(k - 1, k),)] * xi
        for j in range(k - 2, 0, -1):
            p += vals[at + (slice(j, j + 1),)]
            p *= xi
        vals = p + vals[at + (slice(0, 1),)]
    total = vals - exact(*xs)
    total = total * total
    for _, _, wg, _ in reversed(quads):
        total = total @ wg
    for _, _, _, half in reversed(quads):
        total = total @ half
    return math.sqrt(total)


def l2_error_field(field: Field, exact, npts: int | None = None) -> float:
    """L2 error of the global tensor interpolant against exact(x, y, ...).

    Each axis's cells are clipped to the domain on wall grids.
    """
    return _cell_l2(*_cell_quadrature(field, npts or default_npts(max(field.orders))), exact)


def l2_errors_pair(pair: FieldPair, exact_u, exact_dux, exact_v, npts: int | None = None):
    """(u, u_x, v) errors of a 1D dissipative state in one sweep."""
    h = _line(pair.u).h
    npts = npts or default_npts(pair.u.orders[0])
    cu, quads = _cell_quadrature(pair.u, npts)
    # d/dx takes a_j xi^j to j a_j xi^(j-1) / h
    dcu = cu[:, 1:] * np.arange(1, cu.shape[1]) / h
    return (
        _cell_l2(cu, quads, exact_u),
        _cell_l2(dcu, quads, exact_dux),
        _cell_l2(*_cell_quadrature(pair.v, npts), exact_v),
    )


# ---------------------------------------------------------------------------
# seminorm energies


def _derivative_rows(lo: float, hi: float, order: int, k: int) -> np.ndarray:
    """(k, k) rows whose squares sum to the integral over [lo, hi] of |p^(order)|^2.

    p is given by its scaled coefficients of degree order to order+k-1;
    its order-th derivative has degree k-1, so the k Gauss points the rows
    evaluate it at integrate the square exactly.
    """
    xg, wg = gauss_rule(k)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
    # d^order/dxi^order takes xi^(i+order) to (i+order)!/i! xi^i
    fall = [math.factorial(i + order) / math.factorial(i) for i in range(k)]
    return np.sqrt(0.5 * (hi - lo) * wg)[:, None] * (np.vander(x, k, increasing=True) * fall)


@lru_cache(maxsize=64)
def energy_factor(m: int, r: float, h: float) -> np.ndarray:
    """Read-only L with E = sum_i |L y_i|^2, built once per (m, r, h).

    y_i holds, in blocks of m+1, the scaled coefficients of degree m+1 to
    2m+1 (the only ones the (m+1)-th derivative keeps) of current cell i,
    then of the previous level's cells centred on its left and right
    nodes. Row block p of L is the (m+1)-th derivative of P_± on
    sub-piece p at its m+1 Gauss points, weighted so that the squares sum
    to the exact integral; G = L^T L is the energy's Gram matrix.
    r = c dt/(2h) must lie in [0, 1/2].
    """
    mu = m + 1
    rows = []
    for sign in (1.0, -1.0):
        cut = -sign * r  # where xi ± r crosses the previous level's node i
        for lo, hi, block, s in ((-0.5, cut, 1, 0.5 + sign * r),
                                 (cut, 0.5, 2, -0.5 + sign * r)):
            if hi <= lo:  # lam = 1: the shifted node sits on a cell edge
                continue
            # the previous cell read at xi + s, sum_l b_l (xi + s)^l, top degrees only
            shift = np.array([[math.comb(l + mu, i + mu) * s ** (l - i) if l >= i else 0.0
                               for l in range(mu)] for i in range(mu)])
            d = _derivative_rows(lo, hi, mu, mu)
            piece = np.zeros((mu, 3 * mu))
            piece[:, :mu] = d
            piece[:, block * mu : (block + 1) * mu] = -d @ shift
            rows.append(piece)
    out = np.concatenate(rows) * h ** (0.5 - mu)
    out.setflags(write=False)
    return out


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


def _line(field: Field) -> Axis:
    """The one axis of a 1D field; the energies and u_x are defined in 1D only."""
    ndim = len(field.grid.axes)
    if ndim != 1:
        raise ValueError(f"defined for 1D fields only, got a {ndim}D field")
    return field.grid.axes[0]


def energy_window(axis: Axis, m: int, speed: float, dt: float) -> np.ndarray:
    """`energy_factor` of order-m levels on a periodic axis, r = c dt/(2h)."""
    if not axis.periodic:
        raise ValueError("conserved variables need a periodic domain")
    r = abs(0.5 * speed * dt / axis.h)
    if r > 0.5 * (1.0 + 1e-12):
        raise ValueError(f"the energy window needs c*dt <= h, got c*dt/h = {2 * r:g}")
    return energy_factor(m, min(r, 0.5), axis.h)  # lam = 1 can round to just above 1/2


def energy_of_rows(cur_rows: np.ndarray, prev_rows: np.ndarray, parity: str,
                   factor: np.ndarray) -> float:
    """E(t_n) from the node rows of a periodic 1D two-level state.

    cur_rows (n, m+1) hold the current level on `parity` nodes, prev_rows
    the previous level on the others; factor is the levels' `energy_window`.
    """
    n, m = len(cur_rows), cur_rows.shape[1] - 1
    top = interp_matrix(m)[m + 1 :].T  # nodal pair -> coefficients of degree > m
    own = gather_index((n,), parity, True)
    cur = cur_rows[own].reshape(n, -1) @ top
    prev = prev_rows[gather_index((n,), flip(parity), True)].reshape(n, -1) @ top
    flanks = prev[own].reshape(n, -1)  # the previous cells centred on the current nodes
    y = np.concatenate([cur, flanks], axis=1) @ factor.T
    return float(np.vdot(y, y))


def conservative_energy(current: Field, previous: Field, speed: float, dt: float) -> float:
    """E(t_n) from a two-level nodal state on a periodic 1D grid."""
    axis = _line(current)
    if previous.parity != flip(current.parity):
        raise ValueError("the two levels must sit on opposite parities")
    (m,) = current.orders
    # a 1D level's values are its node rows
    return energy_of_rows(current.values, previous.values, current.parity,
                          energy_window(axis, m, speed, dt))


def _interp_seminorm(field: Field, order: int, h: float) -> float:
    """|I field|_order^2 summed over the cells of the 1D field's gather."""
    (mu,) = field.orders
    data = pair_sources(field)[0]
    top = data.reshape(len(data), -1) @ interp_matrix(mu)[order:].T
    y = top @ seminorm_factor(mu, order, h).T
    return float(np.vdot(y, y))


def dissipative_energy(state: FieldPair, speed: float) -> float:
    """c^2 |I_m u|_{m+1}^2 + |I_{m-1} v|_m^2 over the cells of the 1D gathers.

    A dual level's ghost-backed edge cells reach h/2 past each wall and are
    not clipped.
    """
    h = _line(state.u).h
    (m,) = state.u.orders
    return (speed * speed * _interp_seminorm(state.u, m + 1, h)
            + _interp_seminorm(state.v, m, h))


# ---------------------------------------------------------------------------
# convergence-rate fitting


@dataclass(frozen=True)
class ErrorReport:
    """Refinement-study results; errors indexed coarsest first."""

    ns: np.ndarray
    hs: np.ndarray
    dts: np.ndarray
    err_u: np.ndarray
    err_dux: np.ndarray | None = None
    err_v: np.ndarray | None = None

    def __post_init__(self):
        if np.any(np.diff(self.hs) >= 0):
            raise ValueError("refinement levels must have strictly decreasing h")
        for e in (self.err_u, self.err_dux, self.err_v):
            if e is not None and not np.all(e > 0):
                raise ValueError("error norms must be positive")

    def pair_rates(self) -> np.ndarray:
        e, h = self.err_u, self.hs
        return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])

    def rate(self) -> float:
        return fit_rate(self.hs, self.err_u)


def fit_rate(hs, errors) -> float:
    """Least-squares slope of log error vs log h over the finest half.

    The coarsest levels of a refinement study sit outside the asymptotic
    range; ceil(levels/2) finest levels enter the fit.
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(hs) < 3:
        raise ValueError(f"rate fit needs at least 3 levels, got {len(hs)}")
    k = (len(hs) + 1) // 2
    return float(np.polyfit(np.log(hs[-k:]), np.log(errors[-k:]), 1)[0])
