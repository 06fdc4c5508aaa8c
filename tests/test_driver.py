"""Config plumbing, closed-form data, experiment runs, CSV, CLI."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from hermwave import cli, diagnostics, driver
from hermwave.boundary import gather_plan
from hermwave.conservative import _plan, step
from hermwave.diagnostics import ErrorReport, _error_plan
from hermwave.dissipative import SchemeConfig
from hermwave.grid import PRIMAL, Axis, Grid, Stack, State
from hermwave.driver import (
    FINITE_STRIDE,
    ConfigError,
    NumericalError,
    RunConfig,
    default_config,
    energy_csv,
    gaussian_box_u,
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

from states import bootstrap_first_half, one, u_of, u_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402  (the benchmark's node counter, used as is)


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


def test_parse_config_repeated_key():
    with pytest.raises(ConfigError, match=r"line 3: key 'm' is already set on line 1"):
        parse_config("m = 2\nlevels = 3\nm = 1\n")


def test_lambda_out_of_range_names_the_field():
    with pytest.raises(ConfigError, match="lambda"):
        make_config("gaussian1d", {"lam": 1.5}, None)


def test_flags_override_file_which_overrides_defaults():
    cfg = make_config("gaussian1d", {"m": 2, "levels": 4}, {"m": 3, "seed": None})
    assert cfg.m == 3  # flag wins
    assert cfg.levels == 4  # file entry survives
    assert cfg.lam == 0.8  # default
    assert cfg.seed is None  # None flags are no-ops


def test_file_experiment_entry_must_match_the_run():
    """A file's experiment entry that names another experiment is a config
    error naming both; one that names the run's own is accepted, and a
    flag (custom's --experiment) overrides it as every flag does."""
    with pytest.raises(ConfigError, match="experiment = planewave2d.*conserve1d"):
        make_config("conserve1d", {"experiment": "planewave2d", "m": 3}, None)
    cfg = make_config("conserve1d", {"experiment": "conserve1d", "m": 3}, None)
    assert (cfg.experiment, cfg.m) == ("conserve1d", 3)
    cfg = make_config("conserve1d", {"experiment": "planewave2d"}, {"experiment": "conserve1d"})
    assert cfg.experiment == "conserve1d"


def test_cross_field_rules():
    with pytest.raises(ConfigError, match="conserve1d"):
        make_config("conserve1d", {"scheme": "dissipative"}, None)
    with pytest.raises(ConfigError, match="periodic"):
        make_config("planewave2d", {"boundary": "dirichlet0"}, None)
    with pytest.raises(ConfigError, match="n0"):
        make_config("gaussian1d", {"n0": 2}, None)
    for file_overrides, flag_overrides in (({"init": "bootstrap"}, None),
                                           (None, {"init": "bootstrap"})):
        with pytest.raises(ConfigError, match="init"):
            make_config("conserve1d", file_overrides, flag_overrides)


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


def _gaussian_derivs_recurrence(x, kmax, a=-20.0):
    """The per-call recurrence gaussian_derivs ran before its polynomials were cached."""
    x = np.asarray(x, dtype=float)
    f = np.exp(a * x * x)
    out = np.empty(x.shape + (kmax + 1,))
    p = np.array([1.0])
    for k in range(kmax + 1):
        out[..., k] = np.polynomial.polynomial.polyval(x, p) * f
        dp = p[1:] * np.arange(1, len(p))
        shifted = np.concatenate([[0.0], 2.0 * a * p])
        shifted[: len(dp)] += dp
        p = shifted
    return out


def test_gaussian_derivs_match_the_recurrence_bit_for_bit():
    """The cached p_k give the recurrence's columns exactly, on every call."""
    x = np.random.default_rng(5).uniform(-1.5, 1.5, (7, 3))
    for a in (-20.0, -3.5):
        for kmax in range(9):
            for _ in range(2):
                np.testing.assert_array_equal(gaussian_derivs(x, kmax, a),
                                              _gaussian_derivs_recurrence(x, kmax, a))


def test_gaussian_box_pair_against_sympy():
    x, t = sp.symbols("x t")
    u = (sp.exp(-20 * (x + t) ** 2) + sp.exp(-20 * (x - t) ** 2)) / 2
    pts = np.array([-0.3, 0.05, 0.42])
    t0 = 0.37
    bu = gaussian_box_u(pts, t0, 3)
    for k in range(4):
        fn = sp.lambdify((x, t), sp.diff(u, x, k), "numpy")
        np.testing.assert_allclose(bu[:, k], fn(pts, t0), rtol=1e-10, atol=1e-12)


def test_sine_columns():
    pts = np.array([0.2, 1.4])
    out = sine_derivs(pts, 4, t=0.6)
    for k in range(5):
        want = np.sin(pts + k * np.pi / 2) * math.cos(0.6)
        np.testing.assert_allclose(out[:, k], want, rtol=1e-13)
    # one time per point, as a start's dual rows take -dt/2 of their own level
    rows = sine_derivs(pts, 4, t=np.array([0.6, -0.3]))
    np.testing.assert_array_equal(rows[0], out[0])
    np.testing.assert_array_equal(rows[1], sine_derivs(pts, 4, t=-0.3)[1])


def test_planewave_blocks_against_sympy():
    """planewave_data on rows: each row its own node, time and spacing h."""
    x, y, t = sp.symbols("x y t")
    kappa = 2
    u = sp.sin(2 * sp.pi * kappa * (x + y + sp.sqrt(2) * t))
    xs = np.array([0.1, 0.6, 0.1, 0.6])
    ys = np.array([0.3, 0.3, 0.8, 0.8])
    ts = np.array([0.15, 0.15, -0.05, 0.4])
    hs = np.array([0.2, 0.2, 0.25, 0.25])
    for tder in (0, 1):
        got = planewave_data(xs, ys, ts, 2, kappa, hs, tder=tder)
        for k in range(3):
            for l in range(3):
                expr = sp.diff(u, t, tder, x, k, y, l)
                fn = sp.lambdify((x, y, t), expr, "numpy")
                want = fn(xs, ys, ts)
                want = want * hs**k / math.factorial(k) * hs**l / math.factorial(l)
                np.testing.assert_allclose(got[..., k, l], want, rtol=1e-10, atol=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # a step of inf data
def test_require_finite(monkeypatch, capsys):
    """A run whose rows hold an inf or a NaN stops at its next check, for
    each: `_march` raises a NumericalError naming the half step, and the
    CLI exits 3 with that one line on stderr and no warning."""
    real = driver.half_step_1d
    for bad in (np.inf, np.nan):
        def poisoned(state, *args, bad=bad):
            out = real(state, *args)
            out.rows[-1, 0] = bad
            return out

        monkeypatch.setattr(driver, "half_step_1d", poisoned)
        state = driver._start(default_config("gaussian1d"), one(Grid((Axis(-1.5, 1.5, 6,
                              "dirichlet0", "dirichlet0"),))), driver._gaussian_data)
        with pytest.raises(NumericalError, match="at half step 3 "):
            driver._march(state, SchemeConfig(m=2), 0, 3)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["gaussian1d", "--levels", "1", "--n0", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite field data detected at half step")
        assert err.count("\n") == 1 and err.endswith("\n")


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


def test_cli_config_file_naming_another_experiment_exits_2(tmp_path, capsys):
    """Under a named subcommand a file's other experiment exits 2, naming
    both; under custom, --experiment overrides the file's entry."""
    f = tmp_path / "run.cfg"
    f.write_text("experiment = planewave2d\nn0 = 8\n")
    assert cli.main(["gaussian1d", "--config", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "planewave2d" in err and "gaussian1d" in err
    rc = cli.main(["custom", "--config", str(f), "--experiment", "conserve1d", "--steps", "10"])
    assert rc == 0 and capsys.readouterr().out.startswith("conserve1d")


def test_cli_numerical_failure_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise NumericalError("non-finite field data detected")

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["gaussian1d", "--levels", "3", "--n0", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure:" in err


def test_cli_memory_error_is_a_config_error(monkeypatch, capsys):
    """A grid too large to allocate exits 2 with the allocation named, not a traceback."""
    def oversized(cfg):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(100000000000,) and data type int64")

    monkeypatch.setattr(cli, "run_experiment", oversized)
    monkeypatch.setattr(driver, "MEMORY", 2**80)  # past validation's bound, into the run
    rc = cli.main(["conserve1d", "--steps", "2", "--n0", "100000000000"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: the run needs more memory than is available:")
    assert "745. GiB" in err and "Traceback" not in err


@pytest.mark.parametrize("experiment, overrides", [
    ("gaussian1d", {"levels": 5000}),  # sizes past a float: an OverflowError before
    ("gaussian1d", {"levels": 200}),  # allocated until the kernel killed it
    ("conserve1d", {"n0": 10**20}),  # numpy's "Maximum allowed size exceeded" before
], ids=["levels-5000", "levels-200", "n0-1e20"])
def test_study_larger_than_physical_memory_is_a_config_error(experiment, overrides):
    """A study whose node rows alone exceed physical memory is rejected by
    validation, before any size is grown past a float or any row allocated."""
    with pytest.raises(ConfigError, match="GiB of physical memory"):
        make_config(experiment, flag_overrides=overrides)


@pytest.mark.parametrize("name", ["long", "dangling", "loop"])
def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, name):
    """An --out file that cannot be written exits 2 with a config error that
    names it: a name longer than the file system allows and a symbolic link
    into a missing directory before the run, a link loop when the run writes."""
    out = tmp_path / ("a" * 300 + ".csv" if name == "long" else name + ".csv")
    if name != "long":
        out.symlink_to(tmp_path / "missing" / "x.csv" if name == "dangling" else out)
    rc = cli.main(["gaussian1d", "--levels", "1", "--n0", "4", "--m", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error:")
    assert repr(str(out)) in err and "Traceback" not in err


def test_cli_memory_error_mid_run_exits_2(monkeypatch, capsys):
    """An allocation that fails partway through a run, past its checks, also exits 2."""
    real = driver.half_step_1d
    calls = []

    def starved(*args):
        calls.append(1)
        if len(calls) == 50:
            raise MemoryError("Unable to allocate 1.00 MiB")
        return real(*args)

    monkeypatch.setattr(driver, "half_step_1d", starved)
    rc = cli.main(["conserve1d", "--steps", "200"])
    err = capsys.readouterr().err
    assert rc == 2 and len(calls) == 50
    assert err.startswith("config error: the run needs more memory than is available:")
    assert "1.00 MiB" in err and "Traceback" not in err


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    """One parser serves every call in a process; importing the CLI builds none."""
    assert cli._build_parser() is cli._build_parser()
    built = [0]
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    argv = ["conserve1d", "--n0", "6", "--steps", "4"]
    assert cli.main(argv) == 0
    assert built[0] == 5  # the program and its four subcommands
    built[0] = 0
    assert cli.main(argv) == 0
    assert built[0] == 0
    capsys.readouterr()
    probe = ("import hermwave, hermwave.cli; "
             "print(hermwave.cli._build_parser.cache_info().currsize)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "0"


_COLD_CALLS = [
    ["gaussian1d", "--levels", "1", "--n0", "6"],
    ["gaussian1d", "--levels", "1", "--n0", "6", "--boundary", "periodic"],
    ["gaussian1d", "--levels", "1", "--n0", "6", "--scheme", "conservative"],
    ["gaussian1d", "--levels", "1", "--n0", "6", "--scheme", "conservative",
     "--boundary", "periodic", "--init", "bootstrap"],
    ["planewave2d", "--levels", "1", "--n0", "4"],
    ["planewave2d", "--levels", "1", "--n0", "4", "--scheme", "conservative"],
    ["conserve1d", "--n0", "6", "--steps", "2"],
    ["conserve1d", "--n0", "6", "--steps", "2", "--mode", "random"],
]


def test_cold_start_imports_no_exact_or_polynomial_modules():
    """A fresh process that runs every experiment builds its matrices and Gauss
    rules without `fractions` or `numpy.polynomial`."""
    probe = ("import json, sys, contextlib, io\n"
             "from hermwave import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(a) for a in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in ('fractions', 'numpy.polynomial')\n"
             "                                 if m in sys.modules)]))\n")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(_COLD_CALLS)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    codes, loaded = json.loads(out)
    assert codes == [0] * len(_COLD_CALLS)
    assert loaded == []


def test_cli_shared_parser_keeps_no_state(tmp_path, capsys):
    """A call's flags and parse errors do not reach the next call's arguments."""
    def run(*extra):
        out = tmp_path / "rates.csv"
        rc = cli.main(["gaussian1d", "--levels", "2", "--n0", "6", "--out", str(out), *extra])
        assert rc == 0
        return capsys.readouterr().out, out.read_bytes()

    cli._build_parser.cache_clear()
    fresh = run()
    walled = run("--boundary", "neumann0")
    assert walled != fresh
    assert run() == fresh
    with pytest.raises(SystemExit) as exc:
        cli.main(["gaussian1d", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run() == fresh


@pytest.mark.parametrize("argv", [
    ["gaussian1d", "--levels", "1", "--n0", "20"],
    ["planewave2d", "--scheme", "conservative", "--levels", "1", "--n0", "20"],
    ["custom", "--experiment", "conserve1d", "--steps", "200", "--sample-every", "1000"],
    ["planewave2d", "--levels", "1", "--n0", "20"],
], ids=["gaussian1d-dissipative", "planewave2d-conservative", "conserve1d",
        "planewave2d-dissipative"])
def test_cli_stops_at_first_check_after_nan(monkeypatch, capsys, argv):
    """A NaN injected at half step 70 of about 200 ends the run at the next check."""
    real = driver.half_step_1d
    calls = []

    def poisoned(state, *args):
        out = real(state, *args)
        calls.append(1)
        if len(calls) == 70:
            out.u.values[0] = np.nan
        return out

    monkeypatch.setattr(driver, "half_step_1d", poisoned)
    rc = cli.main(argv)
    err = capsys.readouterr().err
    first_check = -(-70 // FINITE_STRIDE) * FINITE_STRIDE
    assert rc == 3
    assert len(calls) == first_check
    assert f"at half step {first_check} (t=" in err


@pytest.mark.parametrize("argv", [
    ["gaussian1d", "--init", "bootstrap", "--levels", "2"],
    ["custom", "--experiment", "planewave2d", "--init", "bootstrap"],
])
def test_cli_rejects_init_for_the_dissipative_scheme(argv, capsys):
    """Only the conservative scheme has a first level to bootstrap."""
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err
    assert "init" in err


def test_cli_flags_and_config_keys():
    """Each experiment's subcommand takes the flags of the keys it reads; custom takes all."""
    (sub,) = (a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    common = {"--scheme", "--m", "--lambda", "--n0", "--out", "--config"}
    assert flags == {
        "gaussian1d": common | {"--levels", "--init", "--boundary"},
        "conserve1d": common | {"--steps", "--sample-every", "--seed", "--mode"},
        "planewave2d": common | {"--levels", "--init"},
        "custom": common | {"--experiment", "--levels", "--init", "--boundary", "--steps",
                            "--sample-every", "--seed", "--mode"},
    }
    assert set(driver.KEYS) == {"experiment", "scheme", "m", "lambda", "levels", "n0", "steps",
                                "sample_every", "seed", "mode", "init", "boundary", "out"}


_SMALL = {"gaussian1d": ["--levels", "1", "--n0", "4"],
          "conserve1d": ["--n0", "8", "--steps", "10"],
          "planewave2d": ["--levels", "1", "--n0", "4"]}


@pytest.mark.parametrize("experiment, key, value, default", [
    ("gaussian1d", "steps", "5", 10000),
    ("gaussian1d", "sample_every", "7", 100),
    ("gaussian1d", "seed", "3", None),
    ("gaussian1d", "mode", "random", "smooth"),
    ("conserve1d", "levels", "3", 1),
    ("conserve1d", "init", "bootstrap", "exact"),
    ("conserve1d", "boundary", "dirichlet0", "periodic"),
    ("planewave2d", "steps", "5", 10000),
    ("planewave2d", "sample_every", "7", 100),
    ("planewave2d", "seed", "3", None),
    ("planewave2d", "mode", "random", "smooth"),
    ("planewave2d", "boundary", "neumann0", "periodic"),
])
def test_cli_rejects_keys_the_experiment_does_not_read(tmp_path, capsys, experiment, key,
                                                       value, default):
    """A key the experiment ignores may only keep the experiment's default."""
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main([experiment, flag, value] + _SMALL[experiment])
    assert exc.value.code == 2
    f = tmp_path / "run.cfg"
    f.write_text(f"{key} = {value}\n")
    for argv in (["custom", "--experiment", experiment, flag, value],
                 [experiment, "--config", str(f)]):
        capsys.readouterr()
        rc = cli.main(argv + _SMALL[experiment])
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("config error:") and key in err and repr(default) in err
    if default is not None:  # a seed has no default to repeat
        f.write_text(f"{key} = {default}\n")
        for argv in (["custom", "--experiment", experiment, flag, str(default)],
                     [experiment, "--config", str(f)]):
            assert cli.main(argv + _SMALL[experiment]) == 0, argv


def test_cli_rejects_stage_cap_flag(capsys):
    """Truncating the Taylor stages can make a run unstable; the CLI has no such knob."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["custom", "--experiment", "gaussian1d", "--stage-cap", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_cli_rejects_stage_cap_config_key(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("stage_cap = 1\n")
    rc = cli.main(["gaussian1d", "--config", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown key" in err


def test_cli_rejects_refine_flag(capsys):
    """Every study grows its ladder by the same factor; the CLI has no knob for it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["custom", "--experiment", "gaussian1d", "--refine", "1.5"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_cli_rejects_refine_config_key(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("refine = 1.5\n")
    rc = cli.main(["gaussian1d", "--config", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown key" in err


@pytest.mark.parametrize("argv", [
    ["conserve1d", "--steps", "10", "--seed", "3"],
    ["custom", "--experiment", "conserve1d", "--mode", "smooth", "--steps", "10", "--seed", "0"],
])
def test_cli_rejects_seed_without_random_mode(capsys, argv):
    """Smooth data draws nothing, so a seed there would be silently ignored."""
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "seed" in err


def test_cli_rejects_negative_seed_flag(capsys):
    rc = cli.main(["custom", "--experiment", "conserve1d", "--mode", "random", "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "seed" in err


def test_cli_rejects_negative_seed_config_key(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("mode = random\nseed = -2\n")
    rc = cli.main(["conserve1d", "--config", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "seed" in err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_rejects_unwritable_out_before_the_run(tmp_path, monkeypatch, capsys, where, via):
    """An --out path that cannot be written fails as a config error, before any step."""
    dest = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: pytest.fail("the run started"))
    argv = ["gaussian1d", "--levels", "1", "--n0", "4"]
    if via == "flag":
        argv += ["--out", str(dest)]
    else:
        f = tmp_path / "run.cfg"
        f.write_text(f"out = {dest}\n")
        argv += ["--config", str(f)]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error:" in err and "out" in err


def test_cli_rejects_config_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_bytes(b"\xff\xfe=1\n")
    rc = cli.main(["gaussian1d", "--config", str(f)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read config file" in err


def _dataclass_eq_calls(monkeypatch, argv) -> int:
    """Dataclass __eq__ calls of hermwave's classes during a warm repeat of argv."""
    import dataclasses
    import importlib
    import pkgutil

    import hermwave

    classes = {obj for info in pkgutil.iter_modules(hermwave.__path__)
               for obj in vars(importlib.import_module(f"hermwave.{info.name}")).values()
               if dataclasses.is_dataclass(obj) and isinstance(obj, type)
               and obj.__module__.startswith("hermwave")}
    calls = [0]
    for cls in classes:
        def counted(self, other, _eq=cls.__eq__):
            calls[0] += 1
            return _eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted)
    assert cli.main(argv) == 0
    calls[0] = 0
    assert cli.main(argv) == 0
    return calls[0]


@pytest.mark.parametrize("argv, knob, small, large", [
    (["gaussian1d", "--levels", "1"], "--n0", "6", "12"),
    (["custom", "--experiment", "conserve1d", "--sample-every", "1000"], "--steps", "50", "500"),
], ids=["gaussian1d", "conserve1d"])
def test_warm_run_dataclass_comparisons_do_not_grow_with_steps(monkeypatch, capsys, argv,
                                                               knob, small, large):
    """A march looks its plans up once, when a state is linked, so the
    dataclass comparisons of a warm run's cache hits do not grow with steps.

    Caches keyed on a grid or spec that outlives its run compare each new,
    equal one with the dataclass __eq__ on every hit; a lookup per half
    step would make one comparison per half step.
    """
    few = _dataclass_eq_calls(monkeypatch, argv + [knob, small])
    many = _dataclass_eq_calls(monkeypatch, argv + [knob, large])
    capsys.readouterr()
    assert many <= few


@pytest.mark.parametrize("argv, nhalf", [
    # gaussian1d runs to the half step nearest t = 12.25: h = 3/n, dt = lam*h
    (["gaussian1d", "--n0", "6"], round(24.5 / (0.8 * 3 / 6))),
    (["gaussian1d", "--n0", "6", "--scheme", "conservative"], round(24.5 / (0.8 * 3 / 6))),
    (["gaussian1d", "--n0", "6", "--scheme", "conservative", "--init", "bootstrap"],
     round(24.5 / (0.8 * 3 / 6))),
    (["conserve1d", "--steps", "50"], 50),
    # planewave2d runs to the half step nearest t = 4.18: h = 1/n
    (["planewave2d", "--n0", "4"], round(8.36 / (0.8 / 4))),
    (["planewave2d", "--n0", "4", "--scheme", "conservative"], round(8.36 / (0.8 / 4))),
    (["planewave2d", "--n0", "4", "--scheme", "conservative", "--init", "bootstrap"],
     round(8.36 / (0.8 / 4))),
], ids=["gaussian1d-dissipative", "gaussian1d-conservative", "gaussian1d-bootstrap",
        "conserve1d", "planewave2d-dissipative", "planewave2d-conservative",
        "planewave2d-bootstrap"])
def test_one_stepper_call_per_half_step(monkeypatch, capsys, argv, nhalf):
    """The driver calls the step, as `hermwave.driver.half_step_1d`, once per
    half step in either scheme, from either conservative start and in any
    number of axes, the first half step included.

    The benchmark counts node updates by wrapping that name (and
    `bootstrap_first_half`, which the driver no longer has), so a march
    that bypasses the step, or steps twice per call, would miscount.
    A study marches its levels as one stack, one call per half step of its
    longest level; this one-level study is a stack of one (see
    `test_stacked_study_counts_every_level_s_target_nodes`).
    """
    calls, real = [], driver.half_step_1d
    monkeypatch.setattr(driver, "half_step_1d", lambda *args: calls.append(1) or real(*args))
    rc = cli.main(["custom", "--experiment", argv[0], "--levels", "1"] + argv[1:])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == nhalf and not hasattr(driver, "bootstrap_first_half")


def _study_levels(cfg) -> list:
    """(grid, half steps) of each level of cfg's gaussian1d or planewave2d
    study, coarsest first: the box [-3/2, 3/2] with cfg's walls to t = 12.25,
    or the periodic unit square to t = 4.18, at dt = lam h."""
    scfg, out = cfg.scheme_config(), []
    for n in cfg.level_sizes():
        if cfg.experiment == "gaussian1d":
            grid, t_end = Grid((Axis(-1.5, 1.5, n, cfg.boundary, cfg.boundary),)), 12.25
        else:
            grid, t_end = Grid((Axis(0.0, 1.0, n),) * 2), 4.18
        out.append((grid, round(2 * t_end / scfg.dt(grid.h))))
    return out


_CONS = ["--scheme", "conservative"]
_STARTS = ([], _CONS, _CONS + ["--init", "bootstrap"])
_WALL_KINDS = ("dirichlet0", "neumann0")


@pytest.mark.parametrize("argv", [
    ["gaussian1d", "--m", "3", "--levels", "4", "--boundary", kind] + start
    for start in _STARTS for kind in _WALL_KINDS
] + [["planewave2d", "--levels", "2"] + start for start in _STARTS])
def test_stacked_study_counts_every_level_s_target_nodes(capsys, argv):
    """The benchmark's node counter sums each level's own half-step targets.

    It wraps the half-step functions as `perfbench/tracing.py` does and
    reads each returned state's `.u.values`. A stack's state answers with
    one node axis over all its levels, so the sum must be each level's
    targets summed over its own half steps, and the step is called once
    per half step of the longest level, from either conservative start;
    the bootstrap span wraps nothing.
    """
    cfg = cli._assemble(cli._build_parser().parse_args(argv))
    levels = _study_levels(cfg)
    want = 0
    for grid, nhalf in levels:  # half step j writes the dual nodes for even j, the primal for odd
        counts = {p: math.prod(grid.shapes[p]) for p in ("primal", "dual")}
        want += (nhalf + 1) // 2 * counts["dual"] + nhalf // 2 * counts["primal"]
    counter = tracing.Tracer()
    layers = {k: tracing.LAYERS[k] for k in tracing.HALF_STEP_SPANS}
    with tracing.installed(counter, layers):
        assert cli.main(argv) == 0
    capsys.readouterr()
    calls = [span[3] for span in counter.spans]
    assert calls.count("step") == max(nhalf for _, nhalf in levels)
    assert calls.count("conservative.bootstrap") == 0
    assert counter.nodes == want


def test_nan_in_one_stacked_level_names_that_level(monkeypatch, capsys):
    """A NaN put into one level of a 3-level stack exits 3 at the next
    check and names that level's n and its own time."""
    cfg = make_config("gaussian1d", flag_overrides={"levels": 3})
    # n = 10, 12, 15
    levels = {grid.axes[0].n: (grid, nhalf) for grid, nhalf in _study_levels(cfg)}
    checks = [k * FINITE_STRIDE for k in range(1, 4)] + [nhalf for _, nhalf in levels.values()]
    first_check = min(c for c in checks if c >= 70)
    real, calls = driver.half_step_1d, []

    def poisoned(state, *args):
        out = real(state, *args)
        calls.append(1)
        if len(calls) == 70:  # the stack holds n = 15, 12, 10, finest first
            start, stop = out.grid.offsets[out.parity][:2]
            out.rows[start + (stop - start) // 2] = np.nan
        return out

    monkeypatch.setattr(driver, "half_step_1d", poisoned)
    rc = cli.main(["gaussian1d", "--levels", "3"])
    err = capsys.readouterr().err
    t = first_check * 0.5 * cfg.scheme_config().dt(levels[15][0].h)
    assert rc == 3 and len(calls) == first_check
    assert f"at half step {first_check} (t={t:.6g}, n=15)" in err


def test_finite_check_builds_no_message_while_finite():
    """`_march` looks up the failing level, and builds its message, only
    when a check fails: a finite march never reads its stack's `level_of`,
    and a march that turns non-finite reads it once."""

    class Reads(dict):
        def __init__(self, table):
            super().__init__(table)
            self.reads = 0

        def __getitem__(self, key):
            self.reads += 1
            return super().__getitem__(key)

    cfg, scfg = default_config("gaussian1d"), SchemeConfig(m=2)
    grid = Grid((Axis(-1.5, 1.5, 8, "dirichlet0", "dirichlet0"),))
    state = driver._start(cfg, one(grid), driver._gaussian_data)
    state.grid.level_of = reads = Reads(state.grid.level_of)  # read by no plan
    state = driver._march(state, scfg, 0, 2 * FINITE_STRIDE + 5)
    assert reads.reads == 0 and np.isfinite(state.rows).all()
    state.rows[3] = np.nan
    with pytest.raises(NumericalError, match=r"at half step 136 \(t=.*, n=8\)"):
        driver._march(state, scfg, 2 * FINITE_STRIDE + 6, 2 * FINITE_STRIDE + 8)
    assert reads.reads == 1


def test_planewave_dissipative_error_reads_the_stepper_gather(monkeypatch):
    """A 2D dissipative level measures u through its packed u | v gather:
    the study's error plan holds the very gather of its step `_plan`. The
    error equals the u-only gather's to 1e-12 relative."""
    cfg = make_config("planewave2d", flag_overrides={"levels": 1, "n0": 6})
    starts, real = [], driver._start
    monkeypatch.setattr(driver, "_start", lambda *args: starts.append(args) or real(*args))
    plans, real_plan = [], diagnostics._error_plan
    monkeypatch.setattr(diagnostics, "_error_plan",
                        lambda *args: plans.append(args) or real_plan(*args))
    report = driver.run_planewave_2d(cfg)
    ((_, stack, data),) = starts
    (grid,), cu = stack.levels, (cfg.m + 1,) * 2  # the study's level
    ((at, parity, blocks, npts, pair),), scfg = plans, cfg.scheme_config()
    assert at is stack and blocks != (cu,) and not pair
    assert real_plan(*plans[0])[0] is _plan(stack, parity, scfg, "dissipative")[0]
    # the level marched alone with the driver's step, from the study's data
    # function, its u measured through both gathers
    state = real(cfg, stack, data)
    ((_, nhalf),) = _study_levels(cfg)
    for _ in range(nhalf):
        state = driver.half_step_1d(state, scfg)
    t_end = nhalf * 0.5 * scfg.dt(grid.h)
    w = 2.0 * np.pi * (cfg.m + 1)

    def exact(x, y):
        return np.sin(w * (x + y + math.sqrt(2.0) * t_end))

    (new,) = driver.l2_error_field(state, exact)
    (old,) = driver.l2_error_field(u_state(state.u), exact)
    assert [args[2] for args in plans[1:]] == [state.blocks, (cu,)]
    assert real_plan(*plans[1])[0] is state.link[1][0]
    assert abs(new - old) <= 1e-12 * old and abs(report.err_u[0] - old) <= 1e-12 * old


_WALLS_STUDY = ["gaussian1d", "--m", "3", "--levels", "10", "--boundary", "dirichlet0"]


@pytest.mark.parametrize("argv", [
    _WALLS_STUDY,
    _WALLS_STUDY + ["--scheme", "conservative", "--init", "bootstrap"],
    ["custom", "--experiment", "conserve1d", "--steps", "20"],
], ids=["gaussian1d-dissipative", "gaussian1d-bootstrap", "conserve1d"])
def test_a_warm_rerun_builds_no_plan(capsys, argv):
    """A CLI call run again in one process builds no gather, no step plan
    and no error plan: its new stacks equal the first run's, whose plans
    are cached."""
    assert cli.main(argv) == 0
    before = [f.cache_info().misses for f in (gather_plan, _plan, _error_plan)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [f.cache_info().misses for f in (gather_plan, _plan, _error_plan)] == before


@pytest.mark.parametrize("scheme", ["dissipative", "conservative"])
def test_study_makes_one_error_call_per_end_parity(monkeypatch, capsys, scheme):
    """A 10-level study measures the levels that end on one parity with one
    error call, on their stack's state: one call per end parity."""
    argv = ["gaussian1d", "--m", "3", "--levels", "10", "--scheme", scheme]
    cfg = cli._assemble(cli._build_parser().parse_args(argv))
    ends = {nhalf % 2 for _, nhalf in _study_levels(cfg)}
    calls = []
    for name in ("l2_error_field", "l2_errors_pair"):
        def spy(state, *args, _real=getattr(driver, name)):
            calls.append((state.parity, len(state.grid.levels)))
            return _real(state, *args)

        monkeypatch.setattr(driver, name, spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == len(ends) == 2
    assert len({parity for parity, _ in calls}) == 2 and sum(n for _, n in calls) == 10


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


@pytest.mark.parametrize("scheme, init", [("dissipative", "exact"), ("conservative", "exact"),
                                          ("conservative", "bootstrap")])
@pytest.mark.parametrize("experiment, name", [("gaussian1d", "_gaussian_data"),
                                              ("planewave2d", "planewave_data")])
def test_study_evaluates_each_start_field_once_on_the_stack_rows(monkeypatch, experiment, name,
                                                                 scheme, init):
    """A 10-level study calls its experiment's data function once per start
    field, on all of the stack's rows. The start state holds the levels' own
    start rows concatenated in stack order, bit for bit: a level and the
    stack carry v and u_t in the same units. So does a conservative one's
    exact previous level. A bootstrap's is one product with the matrix they
    share, whose sums can round with the row count (in 2D), so it matches to
    1e-13 of its largest value."""
    cfg = make_config(experiment, flag_overrides={"levels": 10, "scheme": scheme, "init": init})
    calls, starts, states = [], [], []
    real_data, real_start = getattr(driver, name), driver._start
    monkeypatch.setattr(driver, name, lambda *args: calls.append(args) or real_data(*args))
    monkeypatch.setattr(driver, "_start", lambda *args: starts.append(args) or real_start(*args))
    # the start is all this test reads: the first state marched
    monkeypatch.setattr(driver, "_march", lambda state, *args: states.append(state) or _stop())
    with pytest.raises(_Stop):
        driver.run_experiment(cfg)
    ((_, stack, data),) = starts
    assert len(stack.levels) == 10 and len(calls) == 2
    (study,) = states
    levels = [real_start(cfg, one(grid), data) for grid in stack.levels]  # each level's own
    assert study.grid is stack and study.blocks == levels[0].blocks and study.time == 0.0
    np.testing.assert_array_equal(study.rows, np.concatenate([s.rows for s in levels]),
                                  strict=True)
    assert (study.prev_rows is None) == (scheme == "dissipative")
    if study.prev_rows is not None:
        want = np.concatenate([s.prev_rows for s in levels])
        if init == "exact":
            np.testing.assert_array_equal(study.prev_rows, want, strict=True)
        else:
            assert np.abs(study.prev_rows - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("init", ["exact", "bootstrap"])
@pytest.mark.parametrize("kind", ["dirichlet0", "neumann0"])
def test_walled_conservative_start_zeroes_reflected_slots(monkeypatch, capsys, kind, init):
    """Every walled conservative start state holds exactly 0 in the slots
    its walls flip to -1 on the primal wall nodes (c_0, c_2, ... at
    dirichlet0, c_1, c_3, ... at neumann0), on every level of a study."""
    starts, real = [], driver._start
    monkeypatch.setattr(driver, "_start", lambda *args: starts.append(real(*args)) or starts[-1])
    assert cli.main(["gaussian1d", "--m", "3", "--levels", "3", "--boundary", kind,
                     "--scheme", "conservative", "--init", init]) == 0
    capsys.readouterr()
    (state,) = starts
    primal = state.u
    assert primal.parity == PRIMAL and state.prev_rows is not None
    flipped = slice(0, None, 2) if kind == "dirichlet0" else slice(1, None, 2)
    offsets = state.grid.offsets[PRIMAL]
    for first, stop in zip(offsets[:-1], offsets[1:]):
        walls = primal.values[[first, stop - 1]]
        assert np.all(walls[:, flipped] == 0.0) and np.any(walls != 0.0)


def test_2d_walled_conservative_start_zeroes_reflected_slots():
    """On a 2D walled level each wall zeroes its reflected orders along its
    normal axis, for every tangential order; no other slot changes."""
    grid = Grid((Axis(0.0, 1.0, 4, "dirichlet0", "neumann0"),
                 Axis(0.0, 1.0, 3, "neumann0", "dirichlet0")))
    m, rng = 2, np.random.default_rng(5)
    cfg = make_config("planewave2d", flag_overrides={"scheme": "conservative", "m": m})
    drawn = []  # in call order: the primal u first

    def data(xs, t, h, order, tder):
        drawn.append(rng.standard_normal((len(xs[0]),) + (order + 1,) * 2))
        return drawn[-1].copy()

    state = driver._start(cfg, one(grid), data)
    got, want = u_of(state).values, drawn[0].reshape(grid.shapes[PRIMAL] + (m + 1,) * 2)
    odd, even = slice(1, None, 2), slice(0, None, 2)  # neumann0 and dirichlet0 slots
    want[0, :, even, :] = want[-1, :, odd, :] = 0.0
    want[:, 0, :, odd] = want[:, -1, :, even] = 0.0
    np.testing.assert_array_equal(got, want)


START_CASES = [(kind, d) for d in (1, 2) for kind in ("periodic", "dirichlet0", "neumann0")]


@pytest.mark.parametrize("kind, d", START_CASES, ids=[f"{k}-{d}d" for k, d in START_CASES])
def test_bootstrap_start_steps_into_the_bootstrap(kind, d):
    """With init = bootstrap, `_start` returns a two-level `State` at t = 0,
    u on the primal rows with its previous level on the dual ones. One
    `step` of it gives the bootstrap oracle's first half step from u | h*u_t
    (`states.bootstrap_first_half`, u with its wall slots zeroed as the
    start zeroes them) to 1e-13 of its largest value, on a 2-level stack
    with walls of one kind or none on every axis."""
    m = 3 if d == 1 else 2
    cfg = make_config("gaussian1d" if d == 1 else "planewave2d", flag_overrides={
        "scheme": "conservative", "m": m, "init": "bootstrap"})
    scfg, cu = cfg.scheme_config(), (m + 1,) * d
    stack = Stack([Grid((Axis(0.0, 1.0, n, kind, kind), Axis(0.0, 1.5, n, kind, kind))[:d])
                   for n in (7, 5)])
    rng, drawn = np.random.default_rng(d), []  # in call order: u, then u_t

    def data(xs, t, h, order, tder):
        drawn.append(rng.standard_normal((len(xs[0]),) + (order + 1,) * d))
        return drawn[-1].copy()

    state = driver._start(cfg, stack, data)
    assert (state.parity, state.time, state.blocks) == (PRIMAL, 0.0, (cu,))
    assert state.prev_rows is not None and len(drawn) == 2
    h_ut = drawn[1].reshape(len(state.rows), -1) * stack.h[stack.level_of[PRIMAL]][:, None]
    want = bootstrap_first_half(State(stack, PRIMAL, 0.0, np.concatenate((state.rows, h_ut),
                                                                        axis=1), (cu, cu)), scfg)
    got = step(state, scfg)
    assert (got.parity, got.time, got.blocks) == (want.parity, want.time, want.blocks)
    assert np.abs(got.rows - want.rows).max() <= 1e-13 * np.abs(want.rows).max()
    np.testing.assert_array_equal(got.prev_rows, want.prev_rows)
