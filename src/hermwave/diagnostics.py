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

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import gather_index, level_gather, pair_sources, take
from .grid import DUAL, Axis, Field, FieldPair, flip
from .interp import interp_matrix


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
#
# A level's errors integrate over the cells of its gather, one centred on
# each target node, and evaluate each cell's interpolant at its Gauss points
# with one product of its gathered row and a matrix that folds the
# interpolation into the evaluation. A dual level's edge cells at walls are
# ghost-backed and reach h/2 past the wall; they are clipped to the half
# inside. So a cell has one of three kinds along each axis, its interval in
# xi: the whole cell, the low edge's and the high edge's.

KINDS = ((-0.5, 0.5), (0.0, 0.5), (-0.5, 0.0))
_AT = (slice(1, -1), slice(0, 1), slice(-1, None))  # each kind's cells on a clipped axis


def _points(npts: int, kind: int) -> np.ndarray:
    lo, hi = KINDS[kind]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * gauss_rule(npts)[0]


@lru_cache(maxsize=None)
def eval_matrix(mu: int, npts: int, kind: int, der: int = 0) -> np.ndarray:
    """Read-only (2mu+2, npts) map from stacked (left, right) order-mu node
    data to the interpolant's der-th xi-derivative (der <= 1) at the Gauss
    points of a cell kind."""
    v = np.vander(_points(npts, kind), 2 * mu + 2, increasing=True)
    if der:  # d/dxi takes xi^j to j xi^(j-1)
        v = np.concatenate((np.zeros((npts, 1)), v[:, :-1] * np.arange(1, 2 * mu + 2)), axis=1)
    out = np.ascontiguousarray((v @ interp_matrix(mu)).T)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def field_matrix(coeffs: tuple, npts: int, kinds: tuple) -> np.ndarray:
    """Read-only tensor product of `eval_matrix` over the axes, axis q of
    kind kinds[q]: (2**d prod(coeffs), npts**d), its rows laid out as `take`
    gathers a field of coefficient shape `coeffs` (sides per axis, then
    coefficients per axis) and its Gauss points in C order."""
    out = np.ones((1, 1, 1))  # (sides, coefficients, points) of the axes so far
    for k, kind in zip(coeffs, kinds):
        e = eval_matrix(k - 1, npts, kind).reshape(2, k, npts)
        out = np.einsum("abc,def->adbecf", out, e).reshape(2 * len(out), -1, out.shape[2] * npts)
    out = out.reshape(-1, out.shape[2])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def pair_matrix(mu: int, npts: int, kind: int, h: float) -> np.ndarray:
    """Read-only (2(2mu+1), 3 npts) map from a gathered 1D row of u | v
    packed per node, u of order mu, to [u | u_x | v] at the Gauss points of
    a cell kind; d/dx = (1/h) d/dxi."""
    out = np.zeros((2, 2 * mu + 1, 3, npts))
    out[:, : mu + 1, 0] = eval_matrix(mu, npts, kind).reshape(2, mu + 1, npts)
    out[:, : mu + 1, 1] = eval_matrix(mu, npts, kind, 1).reshape(2, mu + 1, npts) / h
    out[:, mu + 1 :, 2] = eval_matrix(mu - 1, npts, kind).reshape(2, mu, npts)
    out = out.reshape(4 * mu + 2, 3 * npts)
    out.setflags(write=False)
    return out


def _values(gathered: np.ndarray, targets: tuple, clipped: bool, matrix) -> np.ndarray:
    """(targets..., columns) values of gathered rows through matrix(kinds).

    Every cell is evaluated as a whole cell; on a clipped level each mix of
    kinds with an edge in it is then evaluated again, one product each.
    """
    def dot(rows, a):
        # numpy sends one row through gemv, whose sums depend on a's shape;
        # gemm's do not, so a u error has the same bits from either matrix
        return np.concatenate((rows, rows)).dot(a)[:1] if len(rows) == 1 else rows.dot(a)

    d = len(targets)
    out = dot(gathered, matrix((0,) * d)).reshape(targets + (-1,))
    if clipped:
        gathered = gathered.reshape(targets + (-1,))
        for kinds in itertools.product(range(3), repeat=d):
            if any(kinds):
                at = tuple(_AT[kind] for kind in kinds)
                block = gathered[at]
                out[at] = dot(block.reshape(-1, block.shape[-1]),
                              matrix(kinds)).reshape(out[at].shape)
    return out


@lru_cache(maxsize=256)
def _axis_cells(count: int, npts: int, clipped: bool) -> tuple:
    """Read-only Gauss points in xi (count, npts) and half-lengths in units
    of h (count,) of an axis's cells, the edge cells clipped if `clipped`."""
    xi, half = np.tile(_points(npts, 0), (count, 1)), np.full(count, 0.5)
    if clipped:
        xi[0], xi[-1], half[[0, -1]] = _points(npts, 1), _points(npts, 2), 0.25
    xi.setflags(write=False)
    half.setflags(write=False)
    return xi, half


def _error_norms(grid, parity: str, npts: int, gathered: np.ndarray, matrix, exacts):
    """sqrt of the Gauss sum of (values - exact)^2 for each exact, over the
    cells of a `parity` level, the values of exacts[i] being the i-th block
    of npts**d columns of `_values`."""
    d, targets = len(grid.axes), grid.shapes[flip(parity)]
    clipped = parity == DUAL and not grid.periodic
    xs, halves = [], []
    for q, axis in enumerate(grid.axes):
        centers = axis.nodes(flip(parity))
        xi, half = _axis_cells(len(centers), npts, clipped)
        shape = [1] * (2 * d)
        shape[q], shape[d + q] = xi.shape
        xs.append((centers[:, None] + axis.h * xi).reshape(shape))
        halves.append(axis.h * half)
    vals = _values(gathered, targets, clipped, matrix).reshape(-1, len(exacts), npts**d)
    wg = gauss_rule(npts)[1]
    out = []
    for i, exact in enumerate(exacts):
        total = vals[:, i].reshape(targets + (npts,) * d) - exact(*xs)
        total *= total
        for _ in range(d):
            total = total.dot(wg)
        for half in reversed(halves):
            total = total.dot(half)
        out.append(math.sqrt(total))
    return out


def l2_error_field(field: Field, exact, npts: int | None = None) -> float:
    """L2 error of the global tensor interpolant against exact(x, y, ...).

    One take through the level's `level_gather`, one `field_matrix`
    product per mix of cell kinds and one Gauss sum; on wall grids the
    cells are clipped to the domain.
    """
    grid, d = field.grid, field.values.ndim // 2
    coeffs = field.values.shape[d:]
    npts = npts or default_npts(max(field.orders))
    gather = level_gather(grid, field.parity, (coeffs,))
    gathered = take(field.values.reshape(gather.nodes, -1), gather)
    return _error_norms(grid, field.parity, npts, gathered,
                        lambda kinds: field_matrix(coeffs, npts, kinds), (exact,))[0]


def l2_errors_pair(pair: FieldPair, exact_u, exact_dux, exact_v, npts: int | None = None):
    """(u, u_x, v) errors of a 1D dissipative state: one take of its packed
    rows, through the stepper's gather, and one `pair_matrix` product per
    cell kind."""
    h, mu = _line(pair).h, pair.split - 1
    npts = npts or default_npts(mu)
    gathered = take(pair.rows, level_gather(pair.grid, pair.parity, ((mu + 1,), (mu,))))
    return tuple(_error_norms(pair.grid, pair.parity, npts, gathered,
                              lambda kinds: pair_matrix(mu, npts, kinds[0], h),
                              (exact_u, exact_dux, exact_v)))


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


def _line(field) -> Axis:
    """The one axis of a 1D field or pair; the energies and u_x are defined in 1D only."""
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
