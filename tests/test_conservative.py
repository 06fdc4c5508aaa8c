"""Two-level single-field scheme: update algebra, bootstrap, reversibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial as P
from numpy.polynomial import polynomial as npoly

from hermwave.boundary import gather_plan, take, zero_wall_slots
from hermwave.conservative import _plan, step
from hermwave.dissipative import SchemeConfig, _packed_matrix
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid, flip
from hermwave.interp import apply_interp

from level_oracle import conservative_update, pair_sources
from lifting import lift, lifted_grids
from states import bootstrap_first_half, one, previous_of, two_level, u_of, uv_state


def test_zero_update_is_zero():
    out = conservative_update(np.zeros((4, 6)), np.zeros((4, 3)), 2, 0.7, (1.0,))
    assert np.all(out == 0.0)


def test_linear_profile_is_steady():
    # 2*(projection of a linear interpolant) - same data = same data
    rng = np.random.default_rng(30)
    a = np.zeros((3, 6))
    a[:, 0] = rng.standard_normal(3)
    a[:, 1] = rng.standard_normal(3)
    prev = a[:, :3].copy()
    out = conservative_update(a, prev, 2, 1.0, (1.0,))
    np.testing.assert_allclose(out, prev, atol=1e-15)


def test_first_order_quadratic_update():
    # m=1, lam=1: xi**2 interpolant over zero previous data
    out = conservative_update(np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(2), 1, 1.0, (1.0,))
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("m,lam", [(1, 0.8), (2, 1.0), (3, 0.5), (4, 0.9)])
def test_update_matches_even_shift_average(m, lam):
    """Closed form: new data are 2 * [S+ + S-]/2 of the interpolant minus prev.

    The even shift average in the scaled variable moves by rho = lam/2;
    its Taylor coefficients at the target are exactly the update's output.
    """
    rng = np.random.default_rng(70 + m)
    a = rng.standard_normal((5, 2 * m + 2))
    prev = rng.standard_normal((5, m + 1))
    rho = 0.5 * lam
    out = conservative_update(a, prev, m, 2.0 * rho, (1.0,))
    for i in range(5):
        p = P(a[i])
        avg = 0.5 * (p(P([rho, 1.0])) + p(P([-rho, 1.0])))
        coef = np.zeros(m + 1)
        coef[: min(m + 1, len(avg.coef))] = avg.coef[: m + 1]
        np.testing.assert_allclose(out[i], 2.0 * coef - prev[i], rtol=1e-12, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    hx=st.floats(0.05, 0.5),
    aspect=st.floats(0.3, 3.0).filter(lambda r: abs(r - 1.0) > 1e-3),
    aspect_z=st.floats(0.3, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_2d_update_matches_laplacian_series(m, lam, hx, aspect, aspect_z, seed):
    """The 2D and 3D update against 2 sum_p (dt/2)^(2p)/(2p)! Delta^p q, minus prev.

    q is the interpolant in the scaled variables (x/hx, y/hy, z/hz), so
    Delta is the second polyder along each axis over h_q^2; its mixed terms
    come from the repeated application of that sum. 3D runs at m <= 2.
    """
    rng = np.random.default_rng(seed)
    kk = 2 * m + 2
    for ndim in (2, 3):
        if ndim == 3 and m > 2:
            continue
        hs = (hx, aspect * hx, aspect_z * hx)[:ndim]
        dt = lam * min(hs)
        q = rng.standard_normal((kk,) * ndim)
        prev = rng.standard_normal((m + 1,) * ndim)

        def laplacian(c):
            out = np.zeros_like(c)
            for axis, h in enumerate(hs):
                keep = (slice(None),) * axis + (slice(kk - 2),)
                out[keep] += npoly.polyder(c, 2, axis=axis) / h**2
            return out

        want, term = np.zeros_like(q), q
        for p in range(ndim * m + 2):
            want += 2.0 * (0.5 * dt) ** (2 * p) / math.factorial(2 * p) * term
            term = laplacian(term)
        assert not term.any()
        want = want[(slice(m + 1),) * ndim] - prev
        got = conservative_update(q[None], prev[None], m, dt, hs)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), ndim


def _line(x_left, x_right, n, left="periodic", right="periodic"):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, left, right)
    return Grid((axis,)), axis


def _sine_field(grid, m, parity, t=0.0, omega=1.0):
    (axis,) = grid.axes
    xs = axis.nodes(parity)
    vals = np.stack(
        [
            math.cos(omega * t) * np.sin(xs + l * math.pi / 2) * axis.h**l / math.factorial(l)
            for l in range(m + 1)
        ],
        axis=-1,
    )
    return Field(grid, parity, t, vals)


def _random_state(grid, m, rng):
    nu = grid.shapes[PRIMAL]
    nd = grid.shapes[DUAL]
    cur = Field(grid, PRIMAL, 0.0, rng.standard_normal(nu + (m + 1,)))
    prev = Field(grid, DUAL, -0.1, rng.standard_normal(nd + (m + 1,)))
    return two_level(cur, prev)


def test_full_step_bookkeeping():
    rng = np.random.default_rng(31)
    grid, axis = _line(0.0, 1.0, 6)
    cfg = SchemeConfig(m=2, lam=0.8)
    state = _random_state(grid, 2, rng)
    out = step(state, cfg)
    # the old current level becomes the previous one uncopied
    assert np.shares_memory(previous_of(out).values, u_of(state).values)
    assert previous_of(out, cfg).time == u_of(state).time
    assert previous_of(out).parity == u_of(state).parity
    assert u_of(out).parity == DUAL
    assert u_of(out).time == pytest.approx(u_of(state).time + 0.5 * cfg.dt(axis.h))


@pytest.mark.parametrize("orders, m", [((2, 2), 3), ((1, 3), 2)])
def test_bootstrap_order_mismatch(orders, m):
    """A bootstrap's input whose u and u_t orders are not both cfg.m fails
    with the step's order error, naming u's orders and m, before it gathers
    or multiplies anything."""
    grid, _ = _line(0.0, 1.0, 6)
    rng = np.random.default_rng(m)
    state = uv_state(*(Field(grid, PRIMAL, 0.0, rng.standard_normal((6, k + 1))) for k in orders))
    before = [f.cache_info() for f in (gather_plan, _packed_matrix)]
    with pytest.raises(ValueError, match=rf"state carries orders \({orders[0]},\), "
                                         rf"config wants m = {m}"):
        bootstrap_first_half(state, SchemeConfig(m=m))
    assert [f.cache_info() for f in (gather_plan, _packed_matrix)] == before


@pytest.mark.parametrize("ndim", [1, 2])
def test_full_step_order_mismatch(ndim):
    """Data of order 2 stepped under m = 3 fails naming both, also once linked under m = 2."""
    grid = Grid((Axis(0.0, 1.0, 4),) * ndim)
    rng = np.random.default_rng(ndim)
    state = two_level(
        Field(grid, PRIMAL, 0.0, rng.standard_normal(grid.shapes[PRIMAL] + (3,) * ndim)),
        Field(grid, DUAL, -0.1, rng.standard_normal(grid.shapes[DUAL] + (3,) * ndim)))
    want = rf"state carries orders \({', '.join(['2'] * ndim)},?\), config wants m = 3"
    for s in (state, step(state, SchemeConfig(m=2))):
        with pytest.raises(ValueError, match=want):
            step(s, SchemeConfig(m=3))


def test_full_step_closed_form_every_target():
    rng = np.random.default_rng(32)
    grid, _ = _line(-1.0, 1.0, 7)
    m, lam = 2, 0.9
    cfg = SchemeConfig(m=m, lam=lam)
    state = _random_state(grid, m, rng)
    out = step(state, cfg)
    data, _ = pair_sources(u_of(state))
    coeffs = apply_interp(data)
    rho = 0.5 * lam
    for i in range(coeffs.shape[0]):
        p = P(coeffs[i])
        avg = 0.5 * (p(P([rho, 1.0])) + p(P([-rho, 1.0])))
        want = 2.0 * avg.coef[: m + 1] - previous_of(state).values[i]
        np.testing.assert_allclose(u_of(out).values[i], want, rtol=1e-12, atol=1e-13)


def test_update_is_time_reversible():
    """Running the two-level recursion backwards restores the start."""
    rng = np.random.default_rng(33)
    grid, _ = _line(0.0, 2 * math.pi, 10)
    m = 2
    cfg = SchemeConfig(m=m, lam=1.0)
    state = _random_state(grid, m, rng)
    c0, p0 = u_of(state).values.copy(), previous_of(state).values.copy()
    n = 50
    for _ in range(n):
        state = step(state, cfg)
    back = two_level(previous_of(state, cfg), u_of(state))
    for _ in range(n):
        back = step(back, cfg)
    scale = np.abs(c0).max()
    # back.u retraces previous(t=-dt/2), previous_of(back) retraces current
    np.testing.assert_allclose(u_of(back).values, p0, atol=1e-10 * scale)
    np.testing.assert_allclose(previous_of(back).values, c0, atol=1e-10 * scale)


def test_bootstrap_zero_data():
    grid, axis = _line(0.0, 1.0, 5)
    cfg = SchemeConfig(m=2, lam=0.8)
    z = Field(grid, PRIMAL, 0.0, np.zeros((5, 3)))
    start = uv_state(z, z)
    state = bootstrap_first_half(start, cfg)
    assert np.all(u_of(state).values == 0.0)
    assert np.shares_memory(state.prev_rows, start.rows)
    np.testing.assert_array_equal(previous_of(state).values, z.values)
    assert previous_of(state, cfg).time == z.time and previous_of(state).parity == z.parity
    assert u_of(state).parity == DUAL
    assert u_of(state).time == pytest.approx(0.5 * cfg.dt(axis.h))


def test_bootstrap_linear_stationary():
    # u0 = 2x + 1 with zero velocity does not move
    grid, axis = _line(0.0, 1.0, 4, "neumann0", "neumann0")
    cfg = SchemeConfig(m=1, lam=1.0)
    xs = axis.nodes(PRIMAL)
    g0 = Field(grid, PRIMAL, 0.0, np.stack([2 * xs + 1, np.full_like(xs, 2 * axis.h)], axis=-1))
    g1 = Field(grid, PRIMAL, 0.0, np.zeros((len(xs), 2)))
    state = bootstrap_first_half(uv_state(g0, g1), cfg)
    xd = axis.nodes(DUAL)
    want = np.stack([2 * xd + 1, np.full_like(xd, 2 * axis.h)], axis=-1)
    np.testing.assert_allclose(u_of(state).values, want, atol=1e-13)


def test_bootstrap_constant_velocity():
    # u0 = 0, v0 = V: exactly u = V t at the half level
    grid, axis = _line(0.0, 1.0, 5)
    cfg = SchemeConfig(m=2, lam=0.9)
    V = 3.0
    z = np.zeros((5, 3))
    g0 = Field(grid, PRIMAL, 0.0, z)
    g1vals = np.zeros((5, 3))
    g1vals[:, 0] = V
    g1 = Field(grid, PRIMAL, 0.0, g1vals)
    state = bootstrap_first_half(uv_state(g0, g1), cfg)
    dt = cfg.dt(axis.h)
    want = np.zeros((5, 3))
    want[:, 0] = V * dt / 2
    np.testing.assert_allclose(u_of(state).values, want, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2])
def test_bootstrap_standing_wave_accuracy(m):
    # u0 = sin x, v0 = 0: u(x, t) = cos(t) sin(x); one Taylor half step
    errs = []
    ns = [20, 40]
    for n in ns:
        grid, _ = _line(0.0, 2 * math.pi, n)
        cfg = SchemeConfig(m=m, lam=0.8)
        g0 = _sine_field(grid, m, PRIMAL)
        g1 = Field(grid, PRIMAL, 0.0, np.zeros((n, m + 1)))
        state = bootstrap_first_half(uv_state(g0, g1), cfg)
        t = u_of(state).time
        want = _sine_field(grid, m, DUAL, t=t).values[:, 0]
        errs.append(np.abs(u_of(state).values[:, 0] - want).max())
    slope = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert slope >= 2 * m + 1 - 0.4


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    periodic=st.booleans(),
    parity=st.sampled_from((PRIMAL, DUAL)),
    kinds=st.tuples(*(st.sampled_from(("dirichlet0", "neumann0")),) * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_2d_bootstrap_reduces_to_1d_on_y_independent_data(m, lam, periodic, parity, kinds, seed):
    """The 2D or 3D bootstrap of y- and z-independent data is the 1D bootstrap on every row.

    y and z walls are neumann0, which keeps the data y- and z-independent;
    hy, hz > hx, so every dimension takes the same time step. 3D runs at
    m <= 2. The bootstrap is one folded matrix, whose y-side blocks carry
    the rounding of the fold: over 3000 random draws, half of them at
    m = 4, lam = 1, the worst relative difference was 9.9e-14 in 2D and
    1.4e-15 in 3D. The unfolded pipeline read up to 2.8e-12 in 2D (its y
    interpolation of y-constant data left residues of a few 1e-13, which
    4m+4 stages amplified), so the bound is 1e-11.
    """
    rng = np.random.default_rng(seed)
    grid1, x_axis = _line(-1.0, 0.7, 5, *(() if periodic else kinds))
    cfg = SchemeConfig(m=m, lam=lam)
    n = grid1.shapes[parity]
    g0, g1 = (Field(grid1, parity, 0.0, rng.standard_normal(n + (m + 1,))) for _ in range(2))
    want = u_of(bootstrap_first_half(uv_state(g0, g1), cfg))
    for ndim, grid in lifted_grids(x_axis).items():
        if ndim == 3 and m > 2:
            continue
        counts = grid.shapes[parity][1:]
        got = u_of(bootstrap_first_half(uv_state(*(Field(grid, parity, 0.0,
                                                        lift(g.values, counts))
                                                  for g in (g0, g1))), cfg))
        assert got.parity == want.parity
        assert got.time == want.time
        bound = 1e-11 * np.abs(want.values).max()
        lifted = lift(want.values, grid.shapes[want.parity][1:])
        assert np.abs(got.values - lifted).max() <= bound, ndim


def test_2d_reduces_to_1d_on_y_independent_data():
    """A 2D or 3D update of y- and z-independent data is the 1D update on every row.

    Periodic, then x walls (dirichlet0 and neumann0) with neumann0 y and z walls.
    """
    rng = np.random.default_rng(34)
    n, m = 5, 2
    cfg = SchemeConfig(m=m, lam=0.75)
    for kinds in (("periodic", "periodic"), ("dirichlet0", "neumann0")):
        grid1, x_axis = _line(0.0, 1.0, n, *kinds)
        cur1 = rng.standard_normal(grid1.shapes[PRIMAL] + (m + 1,))
        prev1 = rng.standard_normal(grid1.shapes[DUAL] + (m + 1,))
        o1 = step(two_level(
            Field(grid1, PRIMAL, 0.0, cur1), Field(grid1, DUAL, -0.1, prev1)), cfg)
        scale = np.abs(cur1).max()
        for ndim, grid in lifted_grids(x_axis).items():
            s = two_level(
                Field(grid, PRIMAL, 0.0, lift(cur1, grid.shapes[PRIMAL][1:])),
                Field(grid, DUAL, -0.1, lift(prev1, grid.shapes[DUAL][1:])))
            o = step(s, cfg)
            np.testing.assert_allclose(
                u_of(o).values, lift(u_of(o1).values, grid.shapes[DUAL][1:]),
                atol=1e-13 * scale, err_msg=f"{ndim}D, {kinds}")


def test_2d_update_zero():
    out = conservative_update(np.zeros((3, 3, 4, 4)), np.zeros((3, 3, 2, 2)), 1, 0.6, (1.0, 1.0))
    assert np.all(out == 0.0)


def _companion_symbols(d, n, m, lam, theta):
    """The full-step symbols G(theta) = C1 C2 of a periodic d-axis level.

    A level plan's matrix holds one K x K block A_s per corner s in
    {0, 1}^d, in the gather's order. A primal-to-dual update maps the mode
    e^{i theta.j} (c, p) of the current and previous rows to
    (c B1 - p, c) with B1 = sum_s e^{i theta.s} A_s, so its symbol is the
    companion C1 = [[B1, I], [-I, 0]]; a dual-to-primal one has
    B2 = sum_s e^{i theta.(s-1)} A'_s. Both blocks are checked against the
    plan's own gather on one grid mode first.
    """
    corners = np.indices((2,) * d).reshape(d, -1).T
    cfg = SchemeConfig(m=m, lam=lam)
    grid = Grid((Axis(0.0, 1.0, n),) * d)
    probe = 2 * np.pi * np.array((3, 1, 2)[:d]) / n
    mode = np.exp(1j * (np.indices((n,) * d).reshape(d, -1).T @ probe))[:, None]
    out = np.eye(2 * (m + 1) ** d)
    for parity, shift in ((PRIMAL, 0), (DUAL, 1)):
        plan = _plan(one(grid), parity, cfg, "conservative")
        gather, a = plan.gather, plan.matrix
        k = len(a) // len(corners)

        def block(th):
            phase = np.exp(1j * (th @ (corners - shift).T))
            return np.einsum("...c,ckl->...kl", phase, a.reshape(len(corners), k, k))

        r = np.random.default_rng(m).standard_normal(k)
        got = take(mode * r, gather) @ a
        want = mode * (r @ block(probe))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (d, m, lam)
        out = out @ companion(block(theta))
    return out


def companion(block):
    """[[B, I], [-I, 0]] of each K x K update symbol B in `block` (..., K, K):
    the half-step symbol of a two-level state's (current, previous) rows,
    which it maps to (current B - previous, current)."""
    k = block.shape[-1]
    out = np.zeros(block.shape[:-2] + (2 * k, 2 * k), complex)
    out[..., :k, :k] = block
    out[..., :k, k:] = np.eye(k)
    out[..., k:, :k] = -np.eye(k)
    return out


# two small theta of a periodic 1D level, and lam, at which the design
# orders are read from the full-step symbols
ORDER_THETA, ORDER_LAM = np.array([0.15, 0.3]), 0.5


def eigen_orders(symbols, lam=ORDER_LAM, theta=ORDER_THETA) -> tuple:
    """(phase, whole) design orders of full-step symbols G(theta), one per
    entry of theta: of the eigenvalue g nearest the exact e^{i lam theta}, the
    log-log slope, between the two theta, of |arg g - lam theta| (phase) and
    of |g - e^{i lam theta}| (whole), each minus 1 (a full step errs by
    theta**(order+1))."""
    errors = []
    for g, t in zip(symbols, theta):
        eig, exact = np.linalg.eigvals(g), np.exp(1j * lam * t)
        near = eig[np.argmin(np.abs(eig - exact))]
        errors.append((abs(np.angle(near) - lam * t), abs(near - exact)))
    errors = np.array(errors)
    return tuple(np.log(errors[1] / errors[0]) / np.log(theta[1] / theta[0]) - 1.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conservative_design_order_from_the_symbol(m):
    """The conservative full step has design order 2m, read from its symbol.

    On a periodic 1D level at lam = 0.5, the physical eigenvalue of the
    full-step symbol built from the plans' own matrices
    (`_companion_symbols`) has modulus 1, so its whole error is its phase
    error. At theta = 0.15 and 0.3 both read order 1.99, 3.99 and 6.00 for
    m = 1, 2, 3.
    """
    phase, whole = eigen_orders(_companion_symbols(1, 16, m, ORDER_LAM, ORDER_THETA[:, None]))
    assert abs(phase - 2 * m) <= 0.1 and abs(whole - 2 * m) <= 0.1, (phase, whole)


def _theta_grid(d, points):
    t = np.linspace(0.0, np.pi, points)
    return np.stack(np.meshgrid(*(t,) * d, indexing="ij"), axis=-1).reshape(-1, d)


# The 2D m = 2 update at lam = 1 has a Jordan block at theta = (0, pi) and
# (pi, 0): see test_periodic_2d_symbol_grows_linearly_at_lam_1. The 3D one
# has it at (pi, 0, 0) and its permutations.
JORDAN = (2, 2, 1.0)


@pytest.mark.parametrize("d, n, ms, points", [(1, 16, range(1, 5), 65), (2, 8, range(1, 4), 9),
                                              (3, 4, range(1, 3), 5)])
def test_periodic_symbol_has_unit_modulus(d, n, ms, points):
    """Every Fourier mode of a periodic conservative full step keeps its size.

    The scheme is time reversible, so |g| = 1 for every eigenvalue g of G,
    off theta = 0 (which carries the Jordan block of the mode u = a + bt).
    Reflecting an axis maps the step to itself up to coefficient signs, so
    theta in [0, pi]^d covers every mode. The worst ||g| - 1| reads 2.5e-14
    in 1D (m = 4, lam = 1; m = 1..4, 16 cells, 65 theta) and 2.8e-13 in 2D
    (m = 3, lam = 1 at theta = (pi/8, 0), next to theta = 0; m = 1..3,
    8 x 8 cells, 9 x 9 theta), out of the one exception JORDAN, and 1.2e-14
    in 3D (m = 2, lam = 0.5 and 0.8; m = 1, 2, 4 x 4 x 4 cells, the 35
    sorted theta of 5 per axis), out of the Jordan points (pi, 0, 0) and
    their permutations at m = 2, lam = 1, which read 1.4e-9.
    """
    theta = _theta_grid(d, points)
    if d == 3:  # the cube's axes are interchangeable: sorted theta cover every mode
        theta = theta[np.all(np.diff(theta, axis=-1) >= 0.0, axis=-1)]
    off = np.any(theta != 0.0, axis=-1)
    worst = 0.0
    for m in ms:
        for lam in (0.5, 0.8, 1.0):
            keep = off
            if d > 1 and (m, lam) == JORDAN[1:]:
                jordan = (0.0,) * (d - 1) + (np.pi,)
                keep = off & ~np.all(np.sort(theta, axis=-1) == jordan, axis=-1)
            g = np.linalg.eigvals(_companion_symbols(d, n, m, lam, theta[keep]))
            worst = max(worst, np.abs(np.abs(g) - 1.0).max())
    assert worst <= 1e-12


def test_periodic_2d_symbol_grows_linearly_at_lam_1():
    """The 2D m = 2 update at lam = 1 grows linearly in the mode theta = (0, pi).

    G(0, pi) has a double eigenvalue of modulus 1 with one eigenvector, so
    ||G^k|| grows like k: it reads 25.6 at k = 1000, 75.9 at 4000, 147.7 at
    8000 and 1165 at 64000, while ||G(pi, pi)^k|| reads 27 to 46 at the
    same k.
    (pi, 0) is the same mode with the axes swapped.
    """
    d, m, lam = JORDAN
    g, g_pi = _companion_symbols(d, 8, m, lam, np.array([(0.0, np.pi), (np.pi, np.pi)]))

    def norm(a, k):
        return np.linalg.norm(np.linalg.matrix_power(a, k), 2)

    assert 20.0 < norm(g, 1000) < 30.0
    assert 1.8 < norm(g, 8000) / norm(g, 4000) < 2.2
    assert 7.0 < norm(g, 64000) / norm(g, 8000) < 9.0
    assert max(norm(g_pi, k) for k in (1000, 8000, 64000)) < 60.0


def _walled_full_step(n, m, lam):
    """The full-step matrix of a 1D conservative level on n cells between dirichlet0 walls.

    It acts on the primal current rows, then the dual previous rows, all
    flattened. Each half step from parity p maps (current, previous) to
    (G_p current - previous, current), with G_p the level's cached plan
    (gather, then product) applied to the identity. Checked against two
    step calls on random data.
    """
    grid, _ = _line(0.0, 1.0, n, "dirichlet0", "dirichlet0")
    cfg = SchemeConfig(m=m, lam=lam)
    k = m + 1
    state = _random_state(grid, m, np.random.default_rng(n + m))
    stepped = step(step(state, cfg), cfg)
    full = np.eye(len(state.rows) * k + len(state.prev_rows) * k)
    for parity in (PRIMAL, DUAL):
        plan = _plan(one(grid), parity, cfg, "conservative")
        gather, a = plan.gather, plan.matrix
        ns, nt = grid.shapes[parity][0] * k, grid.shapes[flip(parity)][0] * k
        g = np.stack([take(e.reshape(-1, k), gather).dot(a).ravel() for e in np.eye(ns)], axis=1)
        full = np.block([[g, -np.eye(nt)], [np.eye(ns), np.zeros((ns, nt))]]) @ full
    got = full @ np.concatenate((state.rows.ravel(), state.prev_rows.ravel()))
    want = np.concatenate((stepped.rows.ravel(), stepped.prev_rows.ravel()))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return full


def _power_norms(a, columns=1.0):
    """||A^k P|| at k = 500, 1000, ..., 8000, P scaling A's columns by `columns`."""
    power, out = np.linalg.matrix_power(a, 500), []
    for _ in range(5):
        out.append(np.linalg.norm(power * columns, 2))
        power = power @ power
    return np.array(out)


def test_dirichlet0_walls_grow_linearly():
    """On dirichlet0 walls the conservative full step grows linearly at m = 2, lam = 0.8.

    The whole-level matrix A (n = 20) has eigenvalue -1 with too few
    eigenvectors: ||A^k|| reads 421, 841, 1682, 3363 and 6727 at k = 500,
    1000, 2000, 4000 and 8000, doubling with k; the growing output lies on
    the previous level. At m = 3, lam = 0.5 it stays bounded: 1634, 233,
    371, 342 and 340 at the same k.
    """
    grows = _power_norms(_walled_full_step(20, 2, 0.8))
    assert 400.0 < grows[0] < 450.0
    assert np.all(np.abs(grows[1:] / grows[:-1] - 2.0) < 0.01)
    bounded = _power_norms(_walled_full_step(20, 3, 0.5))
    assert bounded.max() < 2000.0
    assert abs(bounded[-1] / bounded[-2] - 1.0) < 0.02


@pytest.mark.parametrize("m, lam, bound", [(2, 0.8, 10.0), (3, 0.8, 85.0), (4, 0.8, 330.0),
                                           (2, 0.5, 80.0)])
def test_dirichlet0_walls_stay_bounded_from_symmetric_start_data(m, lam, bound):
    """The linear growth lives in the primal wall nodes' reflected slots.

    The update new = G cur - prev never resets the slots c_0, c_2, ... of a
    dirichlet0 wall node, so data there flip sign every full step and feed
    the interior at eigenvalue -1. Start data with those slots zeroed
    (`zero_wall_slots`, the projection P) keep ||A^k P|| bounded where
    ||A^k|| doubles with k: at n = 20, 4.6-6.5 (m = 2), 41-55 (m = 3) and
    144-217 (m = 4) at lam = 0.8, and 12-52 at m = 2, lam = 0.5.
    """
    n = 20
    keep = np.ones((n + 1, m + 1))
    zero_wall_slots(keep, one(_line(0.0, 1.0, n, "dirichlet0", "dirichlet0")[0]))
    norms = _power_norms(_walled_full_step(n, m, lam),
                         np.concatenate((keep.ravel(), np.ones(n * (m + 1)))))
    assert norms.max() < bound and norms[-1] < 2.0 * norms[0]
