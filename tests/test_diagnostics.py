"""Norms, conserved variables, energies, and rate fitting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermwave.boundary import gather_plan
from hermwave.conservative import step
from hermwave.diagnostics import (
    ErrorReport,
    _error_plan,
    default_npts,
    energy_of_rows,
    energy_window,
    fit_rate,
    gauss_rule,
    l2_error_field,
    l2_errors_pair,
)
from hermwave.dissipative import SchemeConfig
from hermwave.grid import DUAL, PRIMAL, Axis, Field, Grid
from hermwave.interp import MAX_ORDER, apply_interp, interp_matrix

from energy_oracle import (
    conservative_energy,
    conserved_pair,
    dissipative_energy,
    oracle_energy,
    pp_subtract,
    seminorm_energy,
    shift,
)
from level_oracle import pair_sources
from piecewise import (
    CellPolynomial,
    PiecewisePolynomial,
    field_interpolant,
    oracle_dissipative_energy,
    seminorm_sq,
)
from states import previous_of, two_level, u_of, u_state, uv_state, v_of


def _line(x_left, x_right, n, left="periodic", right="periodic"):
    """A 1D grid and its one axis."""
    axis = Axis(x_left, x_right, n, left, right)
    return Grid((axis,)), axis


def _sine_data(xs, h, count, fn=np.sin):
    out = np.zeros((len(xs), count))
    for l in range(count):
        out[:, l] = fn(xs + l * math.pi / 2) * h**l / math.factorial(l)
    return out


def l2_error(pp: PiecewisePolynomial, exact, npts: int,
             clip: tuple[float, float] | None = None) -> float:
    """Oracle: sqrt(integral (pp - exact)^2), one piece at a time.

    Args:
        clip: optional (lo, hi) restricting the integral (ghost-backed
            edge pieces of wall problems stick out of the domain).
    """
    xg, wg = gauss_rule(npts)
    total = 0.0
    for i, p in enumerate(pp.pieces):
        a, b = pp.breakpoints[i], pp.breakpoints[i + 1]
        if clip is not None:
            a, b = max(a, clip[0]), min(b, clip[1])
            if b <= a:
                continue
        x = 0.5 * (a + b) + 0.5 * (b - a) * xg
        d = p(x) - exact(x)
        total += 0.5 * (b - a) * np.dot(wg, d * d)
    return math.sqrt(total)


def test_gauss_rule_integrates_polynomials():
    x, w = gauss_rule(3)
    assert np.dot(w, x**4) == pytest.approx(2.0 / 5.0, rel=1e-14)
    assert default_npts(3) == 8


@pytest.mark.parametrize("npts", range(1, 2 * MAX_ORDER + 3))
def test_gauss_rule_from_the_recurrence(npts):
    """Newton's nodes and weights: leggauss's, symmetric, exact to degree 2n-1."""
    x, w = gauss_rule(npts)
    x0, w0 = np.polynomial.legendre.leggauss(npts)
    np.testing.assert_allclose(x, x0, rtol=0, atol=2.5e-16)
    np.testing.assert_allclose(w, w0, rtol=0, atol=2e-15)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-15
    for k in range(2 * npts):
        assert abs(np.dot(w, x**k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 1e-14
    assert not x.flags.writeable and not w.flags.writeable


def test_l2_error_exact_polynomial_is_zero():
    p = CellPolynomial(0.5, 1.0, [1.0, 2.0, -0.5])
    pp = PiecewisePolynomial([0.0, 1.0], [p])
    err = l2_error(pp, p, npts=4)
    assert err <= 1e-14


def test_l2_error_constant_reference():
    # zero field against exact = 1 over a length-L domain: sqrt(L)
    z = PiecewisePolynomial([0.0, 2.0], [CellPolynomial(1.0, 2.0, [0.0])])
    err = l2_error(z, lambda x: np.ones_like(x), npts=2)
    assert err == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_l2_error_clip_restricts_domain():
    one = PiecewisePolynomial([-1.0, 3.0], [CellPolynomial(1.0, 4.0, [1.0])])
    err = l2_error(one, lambda x: np.zeros_like(x), npts=2, clip=(0.0, 1.0))
    assert err == pytest.approx(1.0, rel=1e-14)


def test_l2_error_field_against_riemann_sum():
    n = 10
    grid, axis = _line(0.0, 2 * math.pi, n)
    m = 1
    xs = axis.nodes(PRIMAL)
    f = Field(grid, PRIMAL, 0.0, _sine_data(xs, axis.h, m + 1))
    # npts beyond the polynomial-exact default: the integrand mixes in sin
    (got,) = l2_error_field(u_state(f), np.sin, npts=12)
    pp = field_interpolant(f)
    xq = np.linspace(0.0, 2 * math.pi, 400_000, endpoint=False) + 1.1e-7
    d = pp(xq) - np.sin(xq)
    ref = math.sqrt(np.mean(d * d) * 2 * math.pi)
    assert got == pytest.approx(ref, rel=1e-8)


def test_pair_errors_match_single_field_calls():
    n, m = 8, 2
    grid, axis = _line(0.0, 2 * math.pi, n)
    xs = axis.nodes(PRIMAL)
    u = Field(grid, PRIMAL, 0.0, _sine_data(xs, axis.h, m + 1))
    v = Field(grid, PRIMAL, 0.0, _sine_data(xs, axis.h, m, fn=np.cos))
    pair = uv_state(u, v)
    (eu,), (edux,), (ev,) = l2_errors_pair(pair, lambda x: (np.sin(x), np.cos(x), np.cos(x)))
    assert eu == pytest.approx(l2_error_field(u_state(u), np.sin)[0], rel=1e-13)
    assert ev == pytest.approx(
        l2_error_field(u_state(v), np.cos, npts=default_npts(m))[0], rel=1e-13
    )
    ppdu = field_interpolant(u).derivative(1)
    assert edux == pytest.approx(
        l2_error(ppdu, np.cos, default_npts(m)), rel=1e-13
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 12),
    parity=st.sampled_from((PRIMAL, DUAL)),
    kinds=st.sampled_from((None, ("dirichlet0", "dirichlet0"), ("dirichlet0", "neumann0"),
                           ("neumann0", "dirichlet0"), ("neumann0", "neumann0"))),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
# one-cell levels and a dual level's edge cells are single gathered rows,
# whose product rounds with the matrix's shape unless it goes through gemm
@example(m=1, n=1, parity=PRIMAL, kinds=None, extra=2, seed=0)
@example(m=2, n=1, parity=PRIMAL, kinds=("dirichlet0", "neumann0"), extra=1, seed=0)
@example(m=3, n=1, parity=DUAL, kinds=("dirichlet0", "neumann0"), extra=1, seed=1)
@example(m=4, n=1, parity=DUAL, kinds=("dirichlet0", "neumann0"), extra=1, seed=0)
# the pairs the CLI measures: gaussian1d's finest stock level (m = 2) and the
# finest of a 10-level m = 3 study, at the default Gauss points
@example(m=2, n=27, parity=DUAL, kinds=("dirichlet0", "dirichlet0"), extra=0, seed=0)
@example(m=3, n=52, parity=PRIMAL, kinds=("neumann0", "neumann0"), extra=0, seed=0)
def test_l2_errors_pair_matches_oracle(m, n, parity, kinds, extra, seed):
    """The batched 1D errors against the per-piece quadrature of the interpolant."""
    rng = np.random.default_rng(seed)
    grid, axis = _line(-0.7, 1.3, n, *(kinds or ()))
    nodes = grid.shapes[parity]
    u = Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,)))
    v = Field(grid, parity, 0.0, rng.standard_normal(nodes + (m,)))
    npts = default_npts(m) + extra
    clip = None if axis.periodic else (axis.x_left, axis.x_right)
    ppu = field_interpolant(u)
    got = np.concatenate(l2_errors_pair(uv_state(u, v),
                                        lambda x: (np.sin(x), np.cos(x), np.exp(x)), npts))
    want = (
        l2_error(ppu, np.sin, npts, clip),
        l2_error(ppu.derivative(1), np.cos, npts, clip),
        l2_error(field_interpolant(v), np.exp, npts, clip),
    )
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w
    assert l2_error_field(u_state(u), np.sin, npts)[0] == got[0]


def _two_level_fields(n, m, rng, span=3.0):
    grid, _ = _line(0.0, span, n)
    cur = Field(grid, PRIMAL, 0.0, rng.standard_normal((n, m + 1)))
    prev = Field(grid, DUAL, -0.1, rng.standard_normal((n, m + 1)))
    return grid, cur, prev


def test_conserved_pair_coincident_levels_vanish():
    rng = np.random.default_rng(41)
    grid, cur, _ = _two_level_fields(6, 1, rng)
    pc = field_interpolant(cur)
    pair = conserved_pair(pc, pc, 0.0)
    xq = np.linspace(0.0, 3.0, 97, endpoint=False) + 1e-4
    assert np.abs(pair.p_plus(xq)).max() <= 1e-13
    assert np.abs(pair.p_minus(xq)).max() <= 1e-13


def test_conserved_pair_zero_current():
    rng = np.random.default_rng(42)
    grid, cur, prev = _two_level_fields(6, 1, rng)
    zero = Field(grid, PRIMAL, 0.0, np.zeros_like(cur.values))
    pz = field_interpolant(zero)
    pv = field_interpolant(prev)
    delta = 0.11
    pair = conserved_pair(pz, pv, delta)
    xq = np.linspace(0.0, 3.0, 53, endpoint=False) + 2.7e-4
    np.testing.assert_allclose(pair.p_plus(xq), -pv(xq + delta), atol=1e-12)
    np.testing.assert_allclose(pair.p_minus(xq), -pv(xq - delta), atol=1e-12)


def test_conserved_pair_union_slicing():
    """delta = h/4 cuts every cell at the shifted edges of the other level."""
    rng = np.random.default_rng(43)
    n = 6
    grid, cur, prev = _two_level_fields(n, 1, rng)
    (h,) = grid.spacings
    pair = conserved_pair(
        field_interpolant(cur), field_interpolant(prev), h / 4
    )
    for member, frac in ((pair.p_plus, 0.25), (pair.p_minus, 0.75)):
        sizes = np.diff(member.breakpoints)
        # cell edges at k*h plus shifted previous edges at (k + frac)*h
        want = set()
        for k in range(n):
            want.add(round(k * h, 12))
            want.add(round((k + frac) * h, 12))
        got = {round(b, 12) for b in member.breakpoints[:-1]}
        assert want <= got
        assert np.all(sizes > 0)


def test_conserved_pair_needs_periodic():
    p = PiecewisePolynomial([0.0, 1.0], [CellPolynomial(0.5, 1.0, [1.0])])
    with pytest.raises(ValueError):
        conserved_pair(p, p, 0.1)


def test_pp_subtract_pointwise():
    rng = np.random.default_rng(44)
    grid, cur, prev = _two_level_fields(5, 2, rng)
    a = field_interpolant(cur)
    b = field_interpolant(prev)  # window offset by h/2
    d = pp_subtract(a, b)
    xq = np.linspace(0.0, 3.0, 101, endpoint=False) + 3.1e-4
    np.testing.assert_allclose(d(xq), a(xq) - b(xq), atol=1e-12)


def test_seminorm_zero():
    z = PiecewisePolynomial([0.0, 1.0], [CellPolynomial(0.5, 1.0, [0.0, 0.0])])
    assert seminorm_sq(z, 2) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_seminorm_constant_derivative(m):
    # only the degree-(m+1) coefficient: derivative m+1 is the constant
    # K = a * (m+1)! / h**(m+1); the integral over length s is K**2 * s
    a, h, s = 0.7, 0.5, 1.3
    coeffs = np.zeros(m + 2)
    coeffs[m + 1] = a
    p = CellPolynomial(0.2, h, coeffs)
    pp = PiecewisePolynomial([0.2, 0.2 + s], [p])
    K = a * math.factorial(m + 1) / h ** (m + 1)
    assert seminorm_sq(pp, m + 1) == pytest.approx(K * K * s, rel=1e-13)


def test_seminorm_shift_invariance():
    rng = np.random.default_rng(45)
    n = 4
    grid, axis = _line(0.0, 2.0, n)
    f = Field(grid, PRIMAL, 0.0, rng.standard_normal((n, 3)))
    pp = field_interpolant(f)
    base = seminorm_sq(pp, 3)
    h = axis.h
    for j in (1, 2, 3):
        assert seminorm_sq(shift(pp, j * h / 4), 3) == pytest.approx(base, rel=1e-12)


def test_dissipative_energy_zero():
    grid, _ = _line(0.0, 1.0, 4)
    pair = uv_state(
        Field(grid, PRIMAL, 0.0, np.zeros((4, 3))),
        Field(grid, PRIMAL, 0.0, np.zeros((4, 2))),
    )
    assert dissipative_energy(pair, 2.0) == 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_dissipative_energy_constant_curvature(m):
    # u = x**(m+1) on walls: the interpolant reproduces it cell by cell,
    # so |I u|_{m+1}^2 = ((m+1)!)**2 * L exactly; v = 0 adds nothing
    n, L = 5, 1.0
    grid, axis = _line(0.0, L, n, "dirichlet0", "dirichlet0")
    xs = axis.nodes(PRIMAL)
    h = axis.h
    uvals = np.zeros((len(xs), m + 1))
    for l in range(m + 1):
        fall = math.factorial(m + 1) / math.factorial(m + 1 - l)
        uvals[:, l] = fall * xs ** (m + 1 - l) * h**l / math.factorial(l)
    pair = uv_state(
        Field(grid, PRIMAL, 0.0, uvals),
        Field(grid, PRIMAL, 0.0, np.zeros((len(xs), m))),
    )
    speed = 1.5
    K = math.factorial(m + 1)
    want = speed * speed * K * K * L
    assert dissipative_energy(pair, speed) == pytest.approx(want, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 30),
    parity=st.sampled_from((PRIMAL, DUAL)),
    kinds=st.sampled_from((None, ("dirichlet0", "dirichlet0"), ("dirichlet0", "neumann0"),
                           ("neumann0", "dirichlet0"), ("neumann0", "neumann0"))),
    speed=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dissipative_energy_matches_oracle(m, n, parity, kinds, speed, seed):
    """The cached per-cell forms against the piecewise assembly."""
    rng = np.random.default_rng(seed)
    grid, _ = _line(-0.7, 1.3, n, *(kinds or ()))
    nodes = grid.shapes[parity]
    pair = uv_state(Field(grid, parity, 0.0, rng.standard_normal(nodes + (m + 1,))),
                     Field(grid, parity, 0.0, rng.standard_normal(nodes + (m,))))
    got = dissipative_energy(pair, speed)
    want = oracle_dissipative_energy(pair, speed)
    assert abs(got - want) <= 1e-12 * want


def test_wall_diagnostics_reflect_velocity_about_zero():
    """A constant u and v = 0 between neumann0 walls is steady; the diagnostics agree.

    The stepper and the diagnostics gather v through the same wall
    reflection, so both read the velocity as zero up to the walls.
    """
    m, value = 2, 0.7
    grid, axis = _line(0.0, 1.0, 6, "neumann0", "neumann0")
    nodes = axis.n_nodes(DUAL)
    u = np.zeros((nodes, m + 1))
    u[:, 0] = value
    pair = uv_state(Field(grid, DUAL, 0.0, u), Field(grid, DUAL, 0.0, np.zeros((nodes, m))))
    stepped = step(pair, SchemeConfig(m=m, lam=0.8))
    assert np.abs(v_of(stepped).values).max() <= 1e-13
    # rounding in u's top interpolant coefficients leaves about 1e-24
    assert dissipative_energy(pair, 1.0) <= 1e-20
    zero = np.zeros_like
    assert l2_errors_pair(pair, lambda x: (value + zero(x), zero(x), zero(x)))[2][0] <= 1e-13


def test_conservative_energy_invariant_under_step():
    n, m = 10, 2
    grid, axis = _line(0.0, 2 * math.pi, n)
    cfg = SchemeConfig(m=m, lam=0.8)
    dt = cfg.dt(axis.h)
    xs = axis.nodes(PRIMAL)
    xd = axis.nodes(DUAL)
    cur = Field(grid, PRIMAL, 0.0, _sine_data(xs, axis.h, m + 1))
    pvals = np.zeros((n, m + 1))
    for l in range(m + 1):
        pvals[:, l] = np.sin(xd + dt / 2 + l * math.pi / 2) * axis.h**l / math.factorial(l)
    prev = Field(grid, DUAL, -dt / 2, pvals)
    state = two_level(cur, prev)
    e0 = conservative_energy(u_of(state), previous_of(state), dt)
    for _ in range(5):
        state = step(state, cfg)
    e5 = conservative_energy(u_of(state), previous_of(state), dt)
    assert e5 == pytest.approx(e0, rel=1e-12)
    assert e0 > 0.0


def test_energy_samples_look_up_one_cached_plan():
    """After a stack's first energy sample, more samples of that stack, on
    either parity, look up no gather and no interpolation matrix: each
    reads its gathers and its top-coefficient map from one cached plan, and
    gives the first sample's E."""
    n, m = 30, 2
    grid, axis = _line(-math.pi, math.pi, n)
    cfg = SchemeConfig(m=m, lam=0.5)
    rng = np.random.default_rng(36)
    state = two_level(Field(grid, PRIMAL, 0.0, rng.standard_normal((n, m + 1))),
                      Field(grid, DUAL, -0.1, rng.standard_normal((n, m + 1))))
    factor = energy_window(axis, m, cfg.dt(axis.h))
    states = [state, step(state, cfg)]
    first = [energy_of_rows(s, factor) for s in states]

    def lookups():
        return [c.hits + c.misses for c in (gather_plan.cache_info(), interp_matrix.cache_info())]

    before = lookups()
    for _ in range(5):
        assert [energy_of_rows(s, factor) for s in states] == first
    assert lookups() == before


def test_conservative_energy_matches_manual_assembly():
    rng = np.random.default_rng(46)
    grid, cur, prev = _two_level_fields(8, 1, rng, span=2.0)
    dt = 0.065
    e = conservative_energy(cur, prev, dt)
    pair = conserved_pair(field_interpolant(cur), field_interpolant(prev), 0.5 * dt)
    assert e == pytest.approx(seminorm_energy(pair, 2), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    lam=st.floats(0.0, 1.0, exclude_min=True),
    n=st.integers(4, 40),
    parity=st.sampled_from((PRIMAL, DUAL)),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, lam=1.0, n=7, parity=DUAL, seed=0)
def test_conservative_energy_matches_oracle(m, lam, n, parity, seed):
    """The cached quadratic form against the piecewise assembly."""
    rng = np.random.default_rng(seed)
    grid, axis = _line(-1.0, 1.5, n)
    dt = lam * axis.h
    other = DUAL if parity == PRIMAL else PRIMAL
    cur = Field(grid, parity, 0.0, rng.standard_normal((n, m + 1)))
    prev = Field(grid, other, -0.5 * dt, rng.standard_normal((n, m + 1)))
    got = conservative_energy(cur, prev, dt)
    want = oracle_energy(cur, prev, dt)
    assert abs(got - want) <= 1e-12 * want


def test_conservative_energy_needs_periodic():
    grid, _ = _line(0.0, 1.0, 6, "dirichlet0", "dirichlet0")
    cur = Field(grid, PRIMAL, 0.0, np.ones((7, 3)))
    prev = Field(grid, DUAL, 0.0, np.ones((6, 3)))
    with pytest.raises(ValueError):
        conservative_energy(cur, prev, 0.1)


@pytest.mark.parametrize("ndim", [2, 3])
def test_energies_need_a_1d_field(ndim):
    """Both energies are 1D forms; a 2D or 3D state fails at once, naming its dimension."""
    grid = Grid((Axis(0.0, 1.0, 4),) * ndim)
    nodes = grid.shapes[PRIMAL]
    u = Field(grid, PRIMAL, 0.0, np.zeros(nodes + (3,) * ndim))
    v = Field(grid, PRIMAL, 0.0, np.zeros(nodes + (2,) * ndim))
    prev = Field(grid, DUAL, -0.1, np.zeros(nodes + (3,) * ndim))
    with pytest.raises(ValueError, match=f"{ndim}D field"):
        dissipative_energy(uv_state(u, v), 1.0)
    with pytest.raises(ValueError, match=f"{ndim}D field"):
        conservative_energy(u, prev, 0.1)


def test_fit_rate_exact_power_law():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    errs = 2.7 * hs**3
    assert fit_rate(hs, errs) == pytest.approx(3.0, abs=1e-12)


def test_fit_rate_constant_errors():
    hs = np.array([0.4, 0.2, 0.1])
    errs = np.full(3, 0.123)
    assert fit_rate(hs, errs) == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_needs_three_levels():
    with pytest.raises(ValueError):
        fit_rate([0.2, 0.1], [1.0, 0.5])


def test_error_report_rates():
    hs = np.array([0.4, 0.2, 0.1])
    errs = 5.0 * hs**2
    rep = ErrorReport(
        ns=np.array([5, 10, 20]), hs=hs, dts=0.8 * hs, err_u=errs
    )
    np.testing.assert_allclose(rep.pair_rates(), [2.0, 2.0], rtol=1e-12)
    assert rep.rate() == pytest.approx(2.0, abs=1e-12)


def test_error_report_validation():
    with pytest.raises(ValueError):
        ErrorReport(
            ns=np.array([5, 10]),
            hs=np.array([0.1, 0.2]),  # not decreasing
            dts=np.array([0.1, 0.2]),
            err_u=np.array([1.0, 2.0]),
        )
    with pytest.raises(ValueError):
        ErrorReport(
            ns=np.array([5, 10]),
            hs=np.array([0.2, 0.1]),
            dts=np.array([0.2, 0.1]),
            err_u=np.array([1.0, 0.0]),  # nonpositive error
        )


@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
def test_l2_error_2d_clips_wall_cells(parity):
    """A constant 1 on the unit square has L2 norm 1 on either parity.

    The neumann0 walls reproduce the constant in the ghost-backed edge
    cells of a dual level, which reach h/2 past each wall; counted
    unclipped they would read 1.25 on a 4x4 level.
    """
    grid = Grid((Axis(0.0, 1.0, 4, "neumann0", "neumann0"),) * 2)
    m = 2
    vals = np.zeros(grid.shapes[parity] + (m + 1, m + 1))
    vals[..., 0, 0] = 1.0
    field = Field(grid, parity, 0.0, vals)
    zero = lambda x, y: 0.0 * x * y
    assert abs(l2_error_field(u_state(field), zero)[0] - 1.0) <= 1e-14
    assert l2_error_field(u_state(field), lambda x, y: 1.0 + zero(x, y))[0] < 1e-14


def _tensor_oracle(field, exact, npts, der=0):
    """sqrt(integral (p - exact)^2) cell by cell, without the evaluation matrices.

    Each cell's tensor interpolant comes from `apply_interp` on its flanking
    data and is evaluated with numpy's polyval2d/polyval3d on the tensor
    Gauss rule of the cell clipped to the domain; with der=1, p is its
    derivative along axis 0.
    """
    data, *centers = pair_sources(field)
    d = len(centers)
    coeffs = apply_interp(data, d)
    polyval = {2: np.polynomial.polynomial.polyval2d, 3: np.polynomial.polynomial.polyval3d}[d]
    xg, wg = gauss_rule(npts)
    total = 0.0
    for cell in np.ndindex(*coeffs.shape[:d]):
        xs, ws = [], []
        for axis, c in zip(field.grid.axes, (cs[i] for cs, i in zip(centers, cell))):
            a, b = c - 0.5 * axis.h, c + 0.5 * axis.h
            if not axis.periodic:
                a, b = max(a, axis.x_left), min(b, axis.x_right)
            xs.append(0.5 * (a + b) + 0.5 * (b - a) * xg)
            ws.append(0.5 * (b - a) * wg)
        pts = np.meshgrid(*xs, indexing="ij")
        xis = [(x - cs[i]) / axis.h for x, cs, i, axis in zip(pts, centers, cell, field.grid.axes)]
        cell_coeffs = coeffs[cell]
        if der:  # d/dx = (1/h) d/dxi along axis 0
            cell_coeffs = np.polynomial.polynomial.polyder(cell_coeffs, der,
                                                           1.0 / field.grid.axes[0].h)
        diff = polyval(*xis, cell_coeffs) - exact(*pts)
        weight = np.einsum(",".join("abc"[:d]) + "->" + "abc"[:d], *ws)
        total += np.sum(weight * diff * diff)
    return math.sqrt(total)


@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
@pytest.mark.parametrize("kinds", [("periodic", "periodic"), ("dirichlet0", "neumann0")])
def test_pair_errors_in_2d_match_the_tensor_oracle(kinds, parity):
    """On a 2D level `l2_errors_pair` gives the u, u_x (along axis 0) and v
    errors of the per-cell oracle, to 1e-12, clipped cells included."""
    grid = Grid((Axis(0.0, 1.0, 4, *kinds), Axis(-0.5, 0.5, 3, *kinds[::-1])))
    m, rng = 2, np.random.default_rng(len(parity) + len(kinds[0]))
    u, v = (Field(grid, parity, 0.0, rng.standard_normal(grid.shapes[parity] + (k, k)))
            for k in (m + 1, m))

    def exact(x, y):
        arg = 1.5 * x + 2.5 * y
        return np.sin(arg), 1.5 * np.cos(arg), np.cos(arg)

    npts = default_npts(m)
    want = [_tensor_oracle(f, lambda x, y, j=j: exact(x, y)[j], npts, der)
            for f, j, der in ((u, 0, 0), (u, 1, 1), (v, 2, 0))]
    for (got,), w in zip(l2_errors_pair(uv_state(u, v), exact), want):
        assert abs(got - w) <= 1e-12 * w


_WALLS = list(itertools.product(("dirichlet0", "neumann0"), repeat=2))


def _clip_cases():
    """(axes, m) for 2D and 3D: periodic, every mix of wall kinds in 2D and
    each wall pair on every axis of a 3D box; n = 1 on one axis leaves a
    dual level's wall axis with its two edge cells only."""
    cases = []
    for m in (1, 2, 3):
        cases.append(((Axis(0.0, 1.0, 3), Axis(-0.5, 0.5, 2)), m))
        cases += [((Axis(0.0, 1.0, 3, *x), Axis(-0.5, 0.5, 2, *y)), m)
                  for x, y in itertools.product(_WALLS, repeat=2)]
    for m in (1, 2):
        cases.append(((Axis(0.0, 1.0, 2), Axis(0.0, 0.5, 1), Axis(-1.0, 0.0, 3)), m))
        cases += [((Axis(0.0, 1.0, 2, *_WALLS[k]), Axis(0.0, 0.5, 1, *_WALLS[(k + 1) % 4]),
                    Axis(-1.0, 0.0, 3, *_WALLS[(k + 2) % 4])), m) for k in range(4)]
    return cases


@pytest.mark.parametrize("parity", [PRIMAL, DUAL])
@pytest.mark.parametrize("axes, m", _clip_cases())
def test_l2_error_field_matches_tensor_oracle(axes, m, parity):
    """2D and 3D errors of random data against the per-cell oracle, to 1e-12.

    On walls a dual level's edge cells are clipped to half cells along
    each walled axis, and its corner cells along two or three.
    """
    grid = Grid(axes)
    d = len(axes)
    rng = np.random.default_rng([d, m, len(grid.shapes[parity]), sum(grid.shapes[parity])])
    field = Field(grid, parity, 0.0, rng.standard_normal(grid.shapes[parity] + (m + 1,) * d))

    def exact(*xs):
        return np.sin(sum((q + 1.5) * x for q, x in enumerate(xs)))

    npts = default_npts(m)
    want = _tensor_oracle(field, exact, npts)
    (got,) = l2_error_field(u_state(field), exact)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("axes", [
    (Axis(-1.0, 1.0, 9, "dirichlet0", "neumann0"),),
    (Axis(0.0, 1.0, 7),),
    (Axis(0.0, 1.0, 5), Axis(0.0, 1.0, 4)),
    (Axis(0.0, 1.0, 5, "neumann0", "dirichlet0"), Axis(0.0, 1.0, 4, "dirichlet0", "dirichlet0")),
], ids=["1d-walls", "1d-periodic", "2d-periodic", "2d-walls"])
def test_stepped_level_errors_reuse_its_gather(axes):
    """A stepped level's errors take the step's gather.

    After a march, `l2_errors_pair` (1D dissipative) and `l2_error_field`
    of a conservative state's current level build no gather, on either
    parity: their error plan holds the one of the state's next step.
    """
    grid, m, rng = Grid(axes), 2, np.random.default_rng(len(axes))
    d, cfg = len(axes), SchemeConfig(m=m)

    def field(parity, order, time=0.0):
        return Field(grid, parity, time, rng.standard_normal(grid.shapes[parity] + (order + 1,) * d))

    def exact(*xs):
        return np.cos(sum(xs))

    states = [(two_level(field(PRIMAL, m), field(DUAL, m, -0.1)),
               lambda s: l2_error_field(s, exact))]
    if d == 1:
        states.append((uv_state(field(PRIMAL, m), field(PRIMAL, m - 1)),
                       lambda s: l2_errors_pair(s, lambda x: (np.sin(x), np.cos(x),
                                                              np.cos(x)))))
    for state, errors in states:
        for steps in (3, 1):  # end on the dual level, then on the primal one
            for _ in range(steps):
                state = step(state, cfg)
            before = gather_plan.cache_info().misses
            assert np.all(np.array(errors(state)) > 0)
            assert gather_plan.cache_info().misses == before
            pair = len(state.blocks) == 2
            plan = _error_plan(state.grid, state.parity, state.blocks, default_npts(m), pair)
            assert plan[0] is state.link.gather

