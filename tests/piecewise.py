"""Piecewise polynomials built cell by cell, the oracles for the cached forms.

A cell polynomial of width h centered at x_c is stored through the
coefficients a_l of

    p(x) = sum_l a_l ((x - x_c) / h)**l,

the scaled basis of `hermwave.interp`. `field_interpolant` assembles a
level's global Hermite interpolant from these pieces and `seminorm_sq`
integrates a squared derivative piece by piece with a Gauss rule exact for
its degree. This is independent of the cached matrices
(`energy_oracle.seminorm_factor`, `hermwave.diagnostics.energy_factor`),
which fold the same integrals into one matrix per cell, so the two check
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hermwave.diagnostics import gauss_rule
from hermwave.grid import Field, State
from hermwave.interp import apply_interp

from level_oracle import pair_sources
from states import orders, u_of, v_of


@dataclass(frozen=True)
class CellPolynomial:
    """One polynomial piece in the scaled monomial basis.

    Attributes:
        center: physical coordinate of the cell midpoint.
        width: cell width h > 0 used for the basis scaling.
        coeffs: dense coefficient array a_l, lowest degree first.
    """

    center: float
    width: float
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.width <= 0.0:
            raise ValueError(f"cell width must be positive, got {self.width}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Evaluate by Horner's rule in the scaled variable xi = (x-center)/h.

        Callers may evaluate outside the cell (ghost logic does); no check.
        """
        xi = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros_like(xi) + self.coeffs[-1]
        for a in self.coeffs[-2::-1]:
            out = out * xi + a
        return out

    def derivative(self, order: int = 1) -> "CellPolynomial":
        """Differentiate `order` times; degree drops accordingly.

        Orders beyond the degree yield the zero polynomial (length 1).
        """
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order == 0:
            return self
        a = self.coeffs
        if order > self.degree:
            return CellPolynomial(self.center, self.width, np.zeros(1))
        n = len(a) - order
        j = np.arange(n)
        # d^r/dx^r xi^(j+r) = (j+r)!/j! xi^j / h^r
        fall = np.array([math.factorial(jj + order) // math.factorial(jj) for jj in j], dtype=float)
        return CellPolynomial(self.center, self.width, a[order:] * fall / self.width**order)

    def scaled_derivs(self, x: float, nmax: int) -> np.ndarray:
        """Node data read-off: b_l = (h**l/l!) p^(l)(x) for l = 0..nmax.

        b_l = sum_{j>=l} C(j,l) a_j xi0**(j-l) with xi0 = (x-center)/h.
        """
        xi0 = (x - self.center) / self.width
        a = self.coeffs
        out = np.zeros(nmax + 1)
        for l in range(min(nmax, self.degree) + 1):
            s = 0.0
            for j in range(self.degree, l - 1, -1):
                s = s * xi0 + math.comb(j, l) * a[j]
            out[l] = s
        return out

    def recentered(self, center: float, width: float | None = None) -> "CellPolynomial":
        """Re-express in the basis of a different center (and optionally width).

        Exact affine composition p(xi0 + r*eta) carried out by Horner with
        polynomial accumulation; the represented function is unchanged.
        """
        w = self.width if width is None else width
        xi0 = (center - self.center) / self.width
        r = w / self.width
        a = self.coeffs
        out = np.zeros(len(a))
        out[0] = a[-1]
        deg = 0
        for c in a[-2::-1]:
            # out <- out * (xi0 + r*eta) + c
            new = np.zeros(len(a))
            new[: deg + 1] += out[: deg + 1] * xi0
            new[1 : deg + 2] += out[: deg + 1] * r
            new[0] += c
            out = new
            deg += 1
        return CellPolynomial(center, w, out)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise cell polynomials on strictly increasing breakpoints.

    Piece i is valid on [breakpoints[i], breakpoints[i+1]]; the pieces
    jointly cover the domain with no gaps. A piece's basis center does not
    have to lie inside its interval (shifted fields wrap that way).
    """

    breakpoints: np.ndarray
    pieces: tuple
    periodic: bool = False

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) != len(bp) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def piece_index(self, x):
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        if self.periodic:
            x = lo + np.mod(x - lo, hi - lo)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1), x

    def __call__(self, x):
        idx, xw = self.piece_index(x)
        idx = np.atleast_1d(idx)
        xw = np.atleast_1d(xw)
        out = np.empty_like(xw)
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = self.pieces[i](xw[sel])
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out[0])
        return out

    def derivative(self, order: int = 1) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [p.derivative(order) for p in self.pieces], self.periodic
        )


def interpolate_1d(left, right, center: float, width: float) -> CellPolynomial:
    """Cell interpolant from two flanking nodes, centered at their midpoint."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        raise ValueError(f"node orders differ: {left.shape[-1]-1} vs {right.shape[-1]-1}")
    coeffs = apply_interp(np.stack([left, right], axis=-2))
    return CellPolynomial(center, width, coeffs)


def field_interpolant(field: Field) -> PiecewisePolynomial:
    """Piecewise Hermite interpolant on the 1D field's cells.

    Cells sit between consecutive nodes of the field's own parity; with
    walls, a dual field contributes ghost-backed half cells at the edges
    (their pieces extend past the domain; integration clips).
    """
    data, centers = pair_sources(field)
    coeffs = apply_interp(data)
    (axis,) = field.grid.axes
    h = axis.h
    pieces = [CellPolynomial(c, h, coeffs[i]) for i, c in enumerate(centers)]
    bp = np.concatenate([centers - 0.5 * h, centers[-1:] + 0.5 * h])
    return PiecewisePolynomial(bp, pieces, periodic=field.grid.periodic)


def seminorm_sq(pp: PiecewisePolynomial, order: int) -> float:
    """|pp|_order^2 = integral of the squared order-th derivative, exact."""
    total = 0.0
    for i, p in enumerate(pp.pieces):
        q = p.derivative(order)
        deg = len(q.coeffs) - 1
        xg, wg = gauss_rule(deg + 1)
        a, b = pp.breakpoints[i], pp.breakpoints[i + 1]
        x = 0.5 * (a + b) + 0.5 * (b - a) * xg
        vals = q(x)
        total += 0.5 * (b - a) * np.dot(wg, vals * vals)
    return total


def oracle_dissipative_energy(state: State, speed: float) -> float:
    """c^2 |I_m u|_{m+1}^2 + |I_{m-1} v|_m^2, integrated piece by piece."""
    (m,) = orders(u_of(state))
    ppu = field_interpolant(u_of(state))
    ppv = field_interpolant(v_of(state))
    return speed * speed * seminorm_sq(ppu, m + 1) + seminorm_sq(ppv, m)
