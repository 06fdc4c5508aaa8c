"""Config plumbing, closed-form data, experiment runs, CSV, CLI."""

import math

import numpy as np
import pytest
import sympy as sp

from hermwave import cli
from hermwave.diagnostics import ErrorReport
from hermwave.driver import (
    ConfigError,
    NumericalError,
    RunConfig,
    _require_finite,
    default_config,
    energy_csv,
    gaussian_box_u,
    gaussian_box_v,
    gaussian_derivs,
    make_config,
    parse_config,
    planewave_data,
    rates_csv,
    run_conservation_1d,
    run_experiment,
    run_gaussian_1d,
    sine_derivs,
)


# ---------------------------------------------------------------------------
# configuration


def test_default_level_sizes():
    cfg = default_config("gaussian1d")
    assert cfg.level_sizes() == [10, 12, 15, 18, 22, 27]


def test_level_sizes_growth_is_robust_to_float_noise():
    # ceil(round(. , 9)) keeps 1.2 * 15 = 18, not 19
    cfg = RunConfig(experiment="gaussian1d", levels=4, n0=15)
    assert cfg.level_sizes() == [15, 18, 22, 27]


def test_parse_config_roundtrip():
    text = """
    # refinement study
    m = 3
    lambda = 1.0
    levels=2
    seed = 11
    out = rates.csv
    """
    out = parse_config(text)
    assert out == {"m": 3, "lam": 1.0, "levels": 2, "seed": 11, "out": "rates.csv"}


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match=r"line 2: expected key=value"):
        parse_config("m = 2\nbogus\n")


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match=r"line 1: unknown key 'order'"):
        parse_config("order = 2")


def test_parse_config_empty_value():
    with pytest.raises(ConfigError, match=r"line 1: empty value for 'm'"):
        parse_config("m =")


def test_parse_config_bad_type():
    with pytest.raises(ConfigError, match=r"line 1: cannot parse 'two' as int"):
        parse_config("m = two")


def test_lambda_out_of_range_names_the_field():
    with pytest.raises(ConfigError, match="lambda"):
        make_config("gaussian1d", {"lam": 1.5}, None)


def test_flags_override_file_which_overrides_defaults():
    cfg = make_config("gaussian1d", {"m": 2, "levels": 4}, {"m": 3, "seed": None})
    assert cfg.m == 3  # flag wins
    assert cfg.levels == 4  # file entry survives
    assert cfg.lam == 0.8  # default
    assert cfg.seed is None  # None flags are no-ops


def test_file_experiment_entry_is_ignored_for_overrides():
    cfg = make_config("conserve1d", {"experiment": "planewave2d", "m": 3}, None)
    assert cfg.experiment == "conserve1d"
    assert cfg.m == 3


def test_cross_field_rules():
    with pytest.raises(ConfigError, match="conserve1d"):
        make_config("conserve1d", {"scheme": "dissipative"}, None)
    with pytest.raises(ConfigError, match="periodic"):
        make_config("planewave2d", {"boundary": "dirichlet0"}, None)
    with pytest.raises(ConfigError, match="n0"):
        make_config("gaussian1d", {"n0": 2}, None)


def test_half_step_count_rounds_to_target():
    for cfg, target, span in (
        (default_config("gaussian1d"), 12.25, 3.0),
        (default_config("planewave2d"), 4.18, 1.0),
    ):
        scfg = cfg.scheme_config()
        for n in cfg.level_sizes():
            dt = scfg.dt(span / n)
            nhalf = round(2 * target / dt)
            assert isinstance(nhalf, int)
            t_final = nhalf * 0.5 * dt
            assert abs(t_final - target) <= dt


# ---------------------------------------------------------------------------
# closed-form data


def test_gaussian_derivative_columns_against_sympy():
    x = sp.symbols("x")
    g = sp.exp(-20 * x**2)
    pts = np.array([-0.4, -0.1, 0.0, 0.3, 0.7])
    got = gaussian_derivs(pts, 5)
    for k in range(6):
        fn = sp.lambdify(x, sp.diff(g, x, k), "numpy")
        np.testing.assert_allclose(got[:, k], fn(pts), rtol=1e-11, atol=1e-11)


def test_gaussian_box_pair_against_sympy():
    x, t = sp.symbols("x t")
    u = (sp.exp(-20 * (x + t) ** 2) + sp.exp(-20 * (x - t) ** 2)) / 2
    pts = np.array([-0.3, 0.05, 0.42])
    t0 = 0.37
    bu = gaussian_box_u(pts, t0, 3)
    bv = gaussian_box_v(pts, t0, 2)
    for k in range(4):
        fn = sp.lambdify((x, t), sp.diff(u, x, k), "numpy")
        np.testing.assert_allclose(bu[:, k], fn(pts, t0), rtol=1e-10, atol=1e-12)
    for k in range(3):
        fn = sp.lambdify((x, t), sp.diff(u, t, 1, x, k), "numpy")
        np.testing.assert_allclose(bv[:, k], fn(pts, t0), rtol=1e-10, atol=1e-12)


def test_sine_columns():
    pts = np.array([0.2, 1.4])
    out = sine_derivs(pts, 4, t=0.6)
    for k in range(5):
        want = np.sin(pts + k * np.pi / 2) * math.cos(0.6)
        np.testing.assert_allclose(out[:, k], want, rtol=1e-13)


def test_planewave_blocks_against_sympy():
    x, y, t = sp.symbols("x y t")
    kappa = 2
    u = sp.sin(2 * sp.pi * kappa * (x + y + sp.sqrt(2) * t))
    hx, hy = 0.2, 0.25
    xs = np.array([0.1, 0.6])
    ys = np.array([0.3, 0.8])
    for tder in (0, 1):
        got = planewave_data(xs, ys, 0.15, 2, 1, kappa, hx, hy, tder=tder)
        for k in range(3):
            for l in range(2):
                expr = sp.diff(u, t, tder, x, k, y, l)
                fn = sp.lambdify((x, y, t), expr, "numpy")
                want = fn(xs[:, None], ys[None, :], 0.15)
                want = want * hx**k / math.factorial(k) * hy**l / math.factorial(l)
                np.testing.assert_allclose(got[..., k, l], want, rtol=1e-10, atol=1e-10)


def test_require_finite():
    _require_finite(np.zeros(3), np.ones((2, 2)))
    with pytest.raises(NumericalError):
        _require_finite(np.array([1.0, np.inf]))
    with pytest.raises(NumericalError):
        _require_finite(np.array([np.nan]))


# ---------------------------------------------------------------------------
# experiment runs


def _tiny_gaussian(scheme="dissipative", **kw):
    base = dict(levels=3, n0=4, m=1, scheme=scheme)
    base.update(kw)
    cfg = default_config("gaussian1d")
    from dataclasses import replace

    return replace(cfg, **base).validate()


def test_gaussian_run_report_shapes():
    rep = run_gaussian_1d(_tiny_gaussian())
    assert isinstance(rep, ErrorReport)
    assert list(rep.ns) == [4, 5, 6]
    assert rep.err_dux is not None and rep.err_v is not None
    assert np.all(rep.err_u > 0)


def test_gaussian_conservative_report_has_single_error_column():
    rep = run_gaussian_1d(_tiny_gaussian(scheme="conservative", boundary="periodic"))
    assert rep.err_dux is None and rep.err_v is None


def test_conservation_trace_starts_at_zero_delta():
    cfg = default_config("conserve1d")
    from dataclasses import replace

    cfg = replace(cfg, n0=8, steps=60, sample_every=20).validate()
    steps, times, deltas, e0 = run_conservation_1d(cfg)
    assert steps[0] == 0 and deltas[0] == 0.0
    assert e0 > 0
    assert steps[-1] == 60
    assert np.all(np.diff(times) > 0)
    # smooth data: drift is pure roundoff on this short horizon
    assert np.max(np.abs(deltas)) <= 1e-10 * e0


def test_run_experiment_dispatch():
    out = run_experiment(_tiny_gaussian())
    assert isinstance(out, ErrorReport)
    cfg = default_config("conserve1d")
    from dataclasses import replace

    out = run_experiment(replace(cfg, n0=8, steps=10, sample_every=5).validate())
    assert len(out) == 4


def test_runs_are_deterministic():
    cfg = default_config("conserve1d")
    from dataclasses import replace

    cfg = replace(cfg, n0=8, steps=40, sample_every=10, mode="random", seed=7).validate()
    a = energy_csv(*run_conservation_1d(cfg)[:3])
    b = energy_csv(*run_conservation_1d(cfg)[:3])
    assert a == b
    ra = rates_csv(run_gaussian_1d(_tiny_gaussian()))
    rb = rates_csv(run_gaussian_1d(_tiny_gaussian()))
    assert ra == rb


# ---------------------------------------------------------------------------
# CSV formats


def test_rates_csv_schema_pair():
    rep = run_gaussian_1d(_tiny_gaussian())
    text = rates_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "level,n,h,dt,error_u,error_dux,error_v,rate"
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == ""  # no rate at the coarsest level
    assert float(first[2]) == pytest.approx(0.75)
    second = lines[2].split(",")
    float(second[-1])  # rate parses
    assert len(lines) == 4


def test_rates_csv_schema_single():
    rep = run_gaussian_1d(_tiny_gaussian(scheme="conservative", boundary="periodic"))
    text = rates_csv(rep)
    assert text.startswith("level,n,h,dt,error_u,rate\n")


def test_energy_csv_schema():
    text = energy_csv([0, 5], [0.0, 0.5], [0.0, 1.5e-12])
    lines = text.strip().split("\n")
    assert lines[0] == "step,time,energy_delta"
    row = lines[2].split(",")
    assert row[0] == "5"
    assert float(row[2]) == pytest.approx(1.5e-12)


# ---------------------------------------------------------------------------
# command line


def test_cli_gaussian_summary(capsys):
    rc = cli.main(["gaussian1d", "--levels", "3", "--n0", "4", "--m", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gaussian1d scheme=dissipative m=1" in out
    assert "fitted rate:" in out
    assert out.count("n=") == 3


def test_cli_writes_rates_csv(tmp_path, capsys):
    dest = tmp_path / "rates.csv"
    rc = cli.main(
        ["gaussian1d", "--levels", "3", "--n0", "4", "--m", "1", "--out", str(dest)]
    )
    capsys.readouterr()
    assert rc == 0
    assert dest.read_text().startswith("level,n,h,dt,error_u")


def test_cli_conserve_summary_and_csv(tmp_path, capsys):
    dest = tmp_path / "energy.csv"
    rc = cli.main(
        ["conserve1d", "--n0", "8", "--steps", "40", "--m", "2", "--out", str(dest)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "energy: initial=" in out
    assert "max |drift|/initial=" in out
    assert dest.read_text().startswith("step,time,energy_delta")


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("m = 2\nlevels = 3\nn0 = 4\n")
    rc = cli.main(["gaussian1d", "--config", str(f), "--m", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m=1" in out


def test_cli_rejects_bad_lambda(capsys):
    rc = cli.main(["gaussian1d", "--lambda", "1.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err
    assert "lambda" in err


def test_cli_rejects_order_above_interpolation_limit(capsys):
    rc = cli.main(["gaussian1d", "--m", "13"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err
    assert "m must be" in err


def test_cli_missing_config_file(capsys):
    rc = cli.main(["gaussian1d", "--config", "/nonexistent/run.cfg"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config file not found" in err


def test_cli_custom_needs_experiment(capsys):
    rc = cli.main(["custom"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--experiment" in err


def test_cli_custom_with_experiment(capsys):
    rc = cli.main(
        ["custom", "--experiment", "conserve1d", "--n0", "8", "--steps", "10"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "conserve1d" in out


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise NumericalError("non-finite field data detected")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["gaussian1d", "--levels", "3", "--n0", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure:" in err
