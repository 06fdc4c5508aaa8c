"""Error norms, convergence rates, and the conservative scheme's energy.

The conservative scheme preserves the seminorm energy

    E(t_n) = |P_+|_{m+1}^2 + |P_-|_{m+1}^2,
    P_± = p^n - S_± p^{n-1/2},   S_± w(x) = w(x ± dt/2),

where p^n, p^{n-1/2} are the global piecewise interpolants of the two
levels and |f|_r^2 integrates the squared r-th derivative. On a cell of
p^n, in its scaled variable xi in [-1/2, 1/2], S_± p^{n-1/2} is the
previous level's left cell evaluated at xi + 1/2 ± r for xi below ∓r and
its right cell at xi - 1/2 ± r above, with r = dt/(2h) <= 1/2. The
(m+1)-th derivative keeps only the coefficients of degree m+1 to 2m+1,
so both members are linear in a fixed window y_i of 3(m+1) values per
cell: those coefficients of the cell and of the two previous-level cells
the shifts reach. Hence E = sum_i y_i^T G y_i with one Gram matrix G per
(m, r, h). `energy_factor` builds it as G = L^T L from binomial shifts
and, on each of the four sub-pieces, the derivative at Gauss points
exact for its square, so no quadrature error enters the drift
measurement. `energy_of_rows` reads E from the node rows of a two-level
state on one periodic 1D level, through its stack's gathers, and its
`energy_window`.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import gather_plan, take, wall_rows
from .dissipative import fold
from .grid import DUAL, Axis, flip
from .interp import apply_interp, interp_matrix


def _legendre(n: int, x: np.ndarray) -> tuple:
    """(P_n(x), P_n'(x)) by the three-term recurrence, for x inside (-1, 1)."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / (1 - x * x)


@lru_cache(maxsize=64)
def gauss_rule(npts: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1]; cached and read-only.

    Newton's method on the Legendre recurrence, from -cos(pi (i - 1/4) /
    (npts + 1/2)), takes at most five steps for npts <= 60; the weights are
    2 / ((1 - x^2) P_n'(x)^2), and both are symmetrized and the weights
    scaled to sum 2 as in numpy's `leggauss`, which they match to 1.1e-16
    (nodes) and 1.7e-15 (weights) for npts <= 26.
    """
    x = -np.cos(np.pi * (np.arange(1, npts + 1) - 0.25) / (npts + 0.5))
    while True:
        p, dp = _legendre(npts, x)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() <= 1e-15:
            break
    _, dp = _legendre(npts, x)
    w = 2 / ((1 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    w *= 2 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def default_npts(m: int) -> int:
    # exact for the degree-2(2m+1) integrands of the property tests
    return 2 * m + 2


# ---------------------------------------------------------------------------
# L2 errors
#
# One function measures every state, all the levels of its `Stack` at once
# and one error per level. They integrate over the cells of its gather, one
# centred on each target node, and evaluate each cell's interpolant at its
# Gauss points with one product of its gathered row and a matrix built at
# unit spacing: u_x is then divided by h per row, and so is v, carried as
# h*v. A dual level's edge cells at walls are ghost-backed and reach h/2
# past the wall; they are clipped to the half inside. So a cell has one of
# three kinds along each axis, its interval in xi: the whole cell, the low
# edge's and the high edge's. The matrix of a mix of kinds is the step's
# `fold` of `apply_interp` followed by one Vandermonde matrix per axis at
# that axis's points (`error_matrix`). Like a step, a measurement is a
# gather and fixed matrices, so its whole geometry is one plan per (stack's
# levels, parity, blocks, Gauss points, pair), built once (`_error_plan`);
# a call is one take, the products, one evaluation of the exact solution at
# every row's Gauss points and one Gauss sum per level.

KINDS = ((-0.5, 0.5), (0.0, 0.5), (-0.5, 0.0))


def _points(npts: int, kind: int) -> np.ndarray:
    lo, hi = KINDS[kind]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * gauss_rule(npts)[0]


def _at_points(c: np.ndarray, npts: int, kinds: tuple, der: int = 0) -> np.ndarray:
    """Batched cell coefficients (k, K_q per axis) at the Gauss points of a
    cell of `kinds`, (k, npts per axis), with the der-th xi-derivative
    (der <= 1) along axis 0."""
    for q, kind in enumerate(kinds):
        k = c.shape[1]  # axis 1 is always the next unevaluated one
        v = np.vander(_points(npts, kind), k, increasing=True)
        if der and q == 0:  # d/dxi takes xi^j to j xi^(j-1)
            v = np.concatenate((np.zeros((npts, 1)), v[:, :-1] * np.arange(1, k)), axis=1)
        c = np.moveaxis(c, 1, -1) @ v.T
    return c


@lru_cache(maxsize=256)
def error_matrix(blocks: tuple, npts: int, kinds: tuple, pair: bool) -> np.ndarray:
    """Read-only map from a gathered row that packs the fields of coefficient
    shapes `blocks` per node (u, or u | v) to their values at the Gauss
    points of a cell of `kinds`: u, then, if `pair`, u's xi-derivative along
    axis 0 and v. Each value is one block of npts**d columns, points in C
    order, and the rows of the fields it does not read are zero. It is the
    `fold` of the fields' interpolants evaluated there, built once per key
    and shared by every stack, like a step's matrix."""
    d = len(kinds)

    def values(u, *v):
        cu = apply_interp(u, d)
        out = [_at_points(cu, npts, kinds)]
        if pair:
            out += [_at_points(cu, npts, kinds, 1),
                    _at_points(apply_interp(v[0], d), npts, kinds)]
        return out

    return fold(values, blocks, (2,) * d)


@lru_cache(maxsize=256)  # as many as the step's plans, one per end parity of a study
def _error_plan(stack, parity: str, blocks: tuple, npts: int, pair: bool) -> tuple:
    """The error plan of a `Stack`'s `parity` rows that pack `blocks`, built
    once per (stack's levels, parity, blocks, npts, pair) from the stack's
    geometry; read-only.

    It holds, per target row, level after level:
    - the gather (`gather_plan`) and the whole-cell `error_matrix`;
    - (rows, `error_matrix`) of each mix of cell kinds with an edge in it:
      a dual gather's target on a wall (`boundary.wall_rows`) has the low
      (kind 1) or high (kind 2) edge's cell along that wall's axis;
    - each axis's Gauss points in x, axis q shaped (rows, 1 per axis before
      q, npts, 1 per axis after q);
    - the cells' measures, and each level's first row;
    - if `pair`, the divisors of u_x and h*v, the level's axis-0 spacing
      and h, shaped (rows, 2, 1 per axis);
    - the Gauss weights of the tensor rule on [-1, 1]^d, points in C order.
    """
    d, targets = stack.ndim, flip(parity)
    level, offsets = stack.level_of[targets], stack.offsets[targets]
    count = len(level)
    spacings = np.array([g.spacings for g in stack.levels])[level]  # per row, its level's
    kinds = np.zeros((count, d), dtype=int)
    if parity == DUAL:  # the primal targets on a wall have a clipped cell
        for q, side, _, rows in wall_rows(stack):
            kinds[rows, q] = 1 + side
    nodes, points = stack.nodes(targets), np.array([_points(npts, k) for k in range(3)])
    halves = np.array([0.5 * (hi - lo) for lo, hi in KINDS])
    xs, weight = [], np.ones(count)
    for q in range(d):
        x = nodes[q][:, None] + spacings[:, q : q + 1] * points[kinds[:, q]]
        xs.append(x.reshape((count,) + (1,) * q + (npts,) + (1,) * (d - 1 - q)))
        weight = weight * (spacings[:, q] * halves[kinds[:, q]])
    edges = []
    for mix in itertools.product(range(3), repeat=d):
        rows = np.flatnonzero((kinds == mix).all(axis=1))
        if any(mix) and len(rows):
            edges.append((rows, error_matrix(blocks, npts, mix, pair)))
    h = None
    if pair:
        h = np.stack((spacings[:, 0], stack.h[level]), axis=1).reshape((count, 2) + (1,) * d)
    wg, first = np.ones(()), offsets[:-1]
    for _ in range(d):
        wg = np.multiply.outer(wg, gauss_rule(npts)[1])
    wg = wg.ravel()
    for a in (*xs, weight, first, h, wg, *(rows for rows, _ in edges)):
        if a is not None:
            a.setflags(write=False)
    return (gather_plan(stack, parity, blocks), error_matrix(blocks, npts, (0,) * d, pair),
            tuple(edges), tuple(xs), weight, first, h, wg)


def _dot(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    # numpy sends one row through gemv, whose sums depend on a's shape, and
    # more rows through gemm. Through gemm the 1D u error of a dissipative
    # state at m = 2, 3 (the CLI's pairs) reads the same bits from the pair's
    # matrix as from u's alone, at 1-3000 rows; in 2D they differ by rounding
    return np.concatenate((rows, rows)).dot(a)[:1] if len(rows) == 1 else rows.dot(a)


def _l2_errors(state, exact, npts, pair: bool) -> np.ndarray:
    """(values, levels) L2 errors of a `State`.

    The values are u, then, if `pair`, u_x (along axis 0) and v, and
    exact(*xs) gives them at the Gauss points xs of every target row, one
    array for u alone or a tuple. One lookup of the state's `_error_plan`,
    one take, one product per mix of cell kinds (the whole cells, then each
    mix with an edge again), and one Gauss sum per level.
    """
    blocks, d = state.blocks, state.grid.ndim
    if pair and len(blocks) != 2:
        raise ValueError("u_x and v errors need a dissipative state")
    npts = npts or default_npts(max(blocks[0]) - 1)
    gather, whole, edges, xs, weight, first, h, wg = _error_plan(
        state.grid, state.parity, blocks, npts, pair)
    gathered = take(state.rows, gather)
    vals = _dot(gathered, whole)
    for at, a in edges:
        vals[at] = _dot(gathered[at], a)
    vals = vals.reshape((len(vals), -1) + (npts,) * d)
    if pair:  # per row, u_x over its level's axis-0 spacing, h*v over its h
        vals[:, 1:] /= h
    want = exact(*xs) if pair else (exact(*xs),)
    out = []
    for j, w in enumerate(want):
        total = vals[:, j] - w
        total *= total
        out.append(np.add.reduceat(total.reshape(len(total), -1).dot(wg) * weight, first))
    return np.sqrt(out)


def l2_error_field(state, exact, npts: int | None = None) -> np.ndarray:
    """L2 errors of the global tensor interpolant of u against exact(*xs),
    one per level of the state's `Stack`.

    state is a `State`, whose u is measured through the gather of its own
    rows: a dissipative state's packed u | h*v, which its step built. Each
    xs[q] holds the Gauss points of every target row, one level after the
    other (see `_error_plan`), so exact can take each row's own time. On wall
    levels the cells are clipped to the domain.
    """
    return _l2_errors(state, exact, npts, False)[0]


def l2_errors_pair(state, exact, npts: int | None = None) -> tuple:
    """(u, u_x, v) errors of a dissipative state, u_x along axis 0, against
    exact(*xs) -> (u, u_x, v), each one per level as `l2_error_field`'s."""
    return tuple(_l2_errors(state, exact, npts, True))


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


# not a fold: the drift is rounding-limited, and evaluating the previous cells
# at shifted points instead of the binomial shift only moves the stock
# conserve1d energy deltas, by 4.0e-16 E0 at m = 4 and 4.3e-12 E0 at m = 8
@lru_cache(maxsize=64)
def energy_factor(m: int, r: float, h: float) -> np.ndarray:
    """Read-only L with E = sum_i |L y_i|^2, built once per (m, r, h).

    y_i holds, in blocks of m+1, the scaled coefficients of degree m+1 to
    2m+1 (the only ones the (m+1)-th derivative keeps) of current cell i,
    then of the previous level's cells centred on its left and right
    nodes. Row block p of L is the (m+1)-th derivative of P_± on
    sub-piece p at its m+1 Gauss points, weighted so that the squares sum
    to the exact integral; G = L^T L is the energy's Gram matrix.
    r = dt/(2h) must lie in [0, 1/2].
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


def energy_window(axis: Axis, m: int, dt: float) -> np.ndarray:
    """`energy_factor` of order-m levels on a periodic axis, r = dt/(2h)."""
    if not axis.periodic:
        raise ValueError("conserved variables need a periodic domain")
    r = abs(0.5 * dt / axis.h)
    if r > 0.5 * (1.0 + 1e-12):
        raise ValueError(f"the energy window needs dt <= h, got dt/h = {2 * r:g}")
    return energy_factor(m, min(r, 0.5), axis.h)  # lam = 1 can round to just above 1/2


@lru_cache(maxsize=64)
def _energy_plan(stack, parity: str, blocks: tuple) -> tuple:
    """(own, other, top) of a two-level state's energy: the gathers of a
    `Stack`'s `parity` and opposite rows for `blocks`, and the read-only
    map from a nodal pair to its coefficients of degree above m."""
    m = blocks[0][0] - 1
    return (gather_plan(stack, parity, blocks), gather_plan(stack, flip(parity), blocks),
            interp_matrix(m)[m + 1 :].T)


def energy_of_rows(state, factor: np.ndarray) -> float:
    """E(t_n) of a two-level `State` on a `Stack` of one periodic 1D level.

    Its rows and its previous level's are read through the stack's gathers
    of the state's blocks (`_energy_plan`); factor is the levels'
    `energy_window`.
    """
    own, other, top = _energy_plan(state.grid, state.parity, state.blocks)
    cur = take(state.rows, own).dot(top)
    prev = take(state.prev_rows, other).dot(top)
    flanks = take(prev, own)  # the previous cells centred on the current nodes
    y = np.concatenate([cur, flanks], axis=1).dot(factor.T)
    return float(np.vdot(y, y))


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
