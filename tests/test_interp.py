"""Two-point Hermite interpolation: exactness, projection, tensor form."""

import math

import numpy as np
import pytest

from hermwave.interp import (
    MAX_ORDER,
    apply_interp,
    apply_interp_2d,
    interp_matrix,
    interpolate_1d,
    interpolate_2d,
)
from hermwave.poly import CellPolynomial


def test_order_zero_matrix():
    # value-only data: midpoint average and difference
    M = interp_matrix(0)
    np.testing.assert_allclose(M, [[0.5, 0.5], [-1.0, 1.0]], atol=0)


def test_cubic_from_first_order_data():
    # data of xi**3 sampled at xi = -1/2, +1/2
    data = np.array([[-0.125, 0.75], [0.125, 0.75]])
    coeffs = apply_interp(data)
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("mu", [0, 1, 2, 3, 4, 6])
def test_exactness_on_full_degree(mu):
    """Degree 2mu+1 polynomials are reproduced from their own node data."""
    rng = np.random.default_rng(100 + mu)
    c, h = 0.3, 0.8
    a = rng.standard_normal(2 * mu + 2)
    p = CellPolynomial(c, h, a)
    left = p.scaled_derivs(c - h / 2, mu)
    right = p.scaled_derivs(c + h / 2, mu)
    q = interpolate_1d(left, right, c, h)
    np.testing.assert_allclose(q.coeffs, a, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mu", [1, 2, 3])
def test_matrix_against_linear_solve(mu):
    # independent oracle: solve the Hermite conditions directly
    n = 2 * mu + 2
    cond = np.zeros((n, n))
    row = 0
    for xi0 in (-0.5, 0.5):
        for l in range(mu + 1):
            for j in range(l, n):
                cond[row, j] = math.comb(j, l) * xi0 ** (j - l)
            row += 1
    rng = np.random.default_rng(200 + mu)
    b = rng.standard_normal(n)
    want = np.linalg.solve(cond, b)
    got = interp_matrix(mu) @ b
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_antisymmetric_data_kills_even_coeffs():
    rng = np.random.default_rng(4)
    for mu in (1, 2, 3):
        left = rng.standard_normal(mu + 1)
        sign = np.array([(-1.0) ** (l + 1) for l in range(mu + 1)])
        data = np.stack([left, sign * left])
        coeffs = apply_interp(data)
        assert np.all(np.abs(coeffs[::2]) <= 1e-14 * np.abs(left).max())


def test_interpolation_is_a_projection():
    mu = 2
    c, h = 0.0, 0.5
    xs = np.array([c - h / 2, c + h / 2])
    data = np.stack(
        [[math.sin(x + l * math.pi / 2) * h**l / math.factorial(l) for l in range(mu + 1)] for x in xs]
    )
    p1 = interpolate_1d(data[0], data[1], c, h)
    p2 = interpolate_1d(p1.scaled_derivs(xs[0], mu), p1.scaled_derivs(xs[1], mu), c, h)
    np.testing.assert_allclose(p2.coeffs, p1.coeffs, rtol=1e-13, atol=1e-14)


def test_apply_interp_batched_matches_loop():
    rng = np.random.default_rng(8)
    mu = 2
    data = rng.standard_normal((5, 3, 2, mu + 1))
    out = apply_interp(data)
    assert out.shape == (5, 3, 2 * mu + 2)
    for i in range(5):
        for j in range(3):
            np.testing.assert_allclose(out[i, j], apply_interp(data[i, j]))


def test_midpoint_error_slope_sine():
    # pointwise interpolation error at the midpoint decays like h**(2mu+2)
    mu = 2
    errs = []
    hs = [0.5, 0.25, 0.125]
    for h in hs:
        c = 0.3
        xs = np.array([c - h / 2, c + h / 2])
        data = np.stack(
            [[math.sin(x + l * math.pi / 2) * h**l / math.factorial(l) for l in range(mu + 1)] for x in xs]
        )
        p = interpolate_1d(data[0], data[1], c, h)
        errs.append(abs(p(c) - math.sin(c)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2 * mu + 2, abs=0.3)


def test_seminorm_pythagoras():
    """Interpolation projects orthogonally in the (mu+1)-derivative seminorm."""
    rng = np.random.default_rng(12)
    for mu in (1, 2, 3):
        c, h = 0.1, 0.7
        a = rng.standard_normal(2 * mu + 4)  # above interpolant degree
        p = CellPolynomial(c, h, a)
        q = interpolate_1d(p.scaled_derivs(c - h / 2, mu), p.scaled_derivs(c + h / 2, mu),
                           c, h)
        xq, wq = np.polynomial.legendre.leggauss(mu + 4)
        xs = c + 0.5 * h * xq
        dp = p.derivative(mu + 1)(xs)
        dq = q.derivative(mu + 1)(xs)
        full = 0.5 * h * np.sum(wq * dp**2)
        kept = 0.5 * h * np.sum(wq * dq**2)
        lost = 0.5 * h * np.sum(wq * (dp - dq) ** 2)
        assert full == pytest.approx(kept + lost, rel=1e-10)


def test_order_cap():
    with pytest.raises(ValueError):
        interp_matrix(MAX_ORDER + 1)
    interp_matrix(MAX_ORDER)  # boundary allowed


def test_shape_validation():
    with pytest.raises(ValueError):
        interpolate_1d(np.zeros(3), np.zeros(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        apply_interp(np.zeros((3, 4)))


def test_2d_product_function_exact():
    # f = x*y has exact tensor data at any order
    mux = muy = 1
    hx, hy = 0.5, 0.25
    cx, cy = 0.2, -0.1
    corners = np.zeros((2, 2, mux + 1, muy + 1))
    for i, x in enumerate((cx - hx / 2, cx + hx / 2)):
        for j, y in enumerate((cy - hy / 2, cy + hy / 2)):
            # scaled mixed derivs of x*y: value, hx*y, hy*x, hx*hy
            corners[i, j, 0, 0] = x * y
            corners[i, j, 1, 0] = hx * y
            corners[i, j, 0, 1] = hy * x
            corners[i, j, 1, 1] = hx * hy
    q = interpolate_2d(corners, (mux, muy), (cx, cy), (hx, hy))
    pts = np.linspace(-0.2, 0.5, 5)
    for x in pts:
        for y in pts:
            assert q(x, y) == pytest.approx(x * y, abs=1e-13)


@pytest.mark.parametrize("orders", [(1, 1), (2, 1), (2, 3)])
def test_2d_tensor_exactness_random(orders):
    mux, muy = orders
    rng = np.random.default_rng(300 + 10 * mux + muy)
    hx, hy = 0.6, 0.9
    cx, cy = 0.0, 0.4
    a = rng.standard_normal((2 * mux + 2, 2 * muy + 2))

    def scaled_corner(x, y):
        xi0 = (x - cx) / hx
        eta0 = (y - cy) / hy
        out = np.zeros((mux + 1, muy + 1))
        for k in range(mux + 1):
            for l in range(muy + 1):
                s = 0.0
                for p in range(k, 2 * mux + 2):
                    for q in range(l, 2 * muy + 2):
                        s += (
                            math.comb(p, k)
                            * math.comb(q, l)
                            * a[p, q]
                            * xi0 ** (p - k)
                            * eta0 ** (q - l)
                        )
                out[k, l] = s
        return out

    corners = np.zeros((2, 2, mux + 1, muy + 1))
    for i, x in enumerate((cx - hx / 2, cx + hx / 2)):
        for j, y in enumerate((cy - hy / 2, cy + hy / 2)):
            corners[i, j] = scaled_corner(x, y)
    q = interpolate_2d(corners, (mux, muy), (cx, cy), (hx, hy))
    np.testing.assert_allclose(q.coeffs, a, rtol=1e-11, atol=1e-11)


def test_2d_axis_order_is_immaterial():
    """x-first and y-first one-dimensional passes agree with the tensor apply."""
    rng = np.random.default_rng(21)
    mux, muy = 2, 1
    data = rng.standard_normal((2, 2, mux + 1, muy + 1))  # (sx, sy, k, l)
    # interpolate in x for each (sy, l), then in y
    t = apply_interp(np.transpose(data, (1, 3, 0, 2)))  # (sy, l, 2mux+2)
    x_then_y = apply_interp(np.moveaxis(t, 2, 0))  # (2mux+2, 2muy+2)
    # opposite order
    s = apply_interp(np.transpose(data, (0, 2, 1, 3)))  # (sx, k, 2muy+2)
    y_then_x = apply_interp(np.moveaxis(s, 2, 0)).T
    got = apply_interp_2d(data)
    np.testing.assert_allclose(x_then_y, got, atol=1e-13)
    np.testing.assert_allclose(y_then_x, got, atol=1e-13)


def test_2d_corner_shape_validation():
    with pytest.raises(ValueError):
        interpolate_2d(np.zeros((2, 2, 3)), (1, 1), (0.0, 0.0), (1.0, 1.0))
