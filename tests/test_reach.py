"""Every library function is reached by some CLI run, or is named here with why.

A short CLI set runs in a fresh interpreter, so that no cache warmed by
another test hides a call, under `sys.setprofile`. It covers every
experiment, both schemes, both inits, every boundary kind, `--config`,
`--out`, one configuration error (exit 2) and one run whose first step is
poisoned with a NaN (exit 3). The functions and methods defined in
`src/hermwave/*.py` that the set never calls must be exactly `UNREACHED`:
a function that drops off the CLI paths shows up here, to be moved to the
tests that use it or deleted, and one that a run starts to call must leave
the list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> why no CLI run calls it
UNREACHED = {
    "grid.State.u": "public view of a state's u, the current level of a two-level "
                    "state; the benchmark's tracer counts node updates from it",
    "grid.Field.__post_init__": "checks the Field that `State.u` builds, the tracer's "
                                "view of a state",
}

_TRACE = r"""
import importlib, inspect, json, os, pkgutil, sys, contextlib, io

calls = set()


def profile(frame, event, arg):
    if event == "call":
        calls.add(frame.f_code)


sys.setprofile(profile)
import hermwave
from hermwave import cli, driver

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
    step, poisoned_steps = driver.half_step_1d, []

    def poisoned(state, cfg):  # one NaN into the rows of the first step
        out = step(state, cfg)
        if not poisoned_steps:
            out.rows[0] = float("nan")
            poisoned_steps.append(out)
        return out

    driver.half_step_1d = poisoned
    codes.append(cli.main(json.loads(sys.argv[2])))
sys.setprofile(None)

src = os.path.dirname(hermwave.__file__)


def defined(obj):
    # the code of a function, an lru_cache wrapper's function or a property's getter
    fn = getattr(obj, "fget", None) or getattr(obj, "__wrapped__", obj)
    code = getattr(fn, "__code__", None)
    if code is not None and os.path.dirname(code.co_filename) == src:
        return code


unreached = []
for info in pkgutil.iter_modules(hermwave.__path__):
    mod = importlib.import_module("hermwave." + info.name)
    for name, obj in vars(mod).items():
        members = [(name, obj)]
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            members += [(name + "." + key, val) for key, val in vars(obj).items()]
        for full, member in members:
            code = defined(member)
            if code is not None and code.co_filename.endswith(info.name + ".py") \
                    and code not in calls:
                unreached.append(info.name + "." + full)
print(json.dumps({"codes": codes, "unreached": sorted(set(unreached))}))
"""


# run last, with a NaN put into the rows of its first step: exit 3
_POISONED = ["gaussian1d", "--levels", "2", "--n0", "6"]


def _cli_set(tmp: Path) -> list:
    config = tmp / "run.cfg"
    config.write_text("experiment = gaussian1d\nm = 2\nlevels = 3\n")
    short = ["--levels", "3", "--n0", "6"]
    argv = [["gaussian1d", "--boundary", kind] + short for kind in
            ("dirichlet0", "neumann0", "periodic")]
    argv += [["gaussian1d", "--scheme", "conservative", "--init", init, "--boundary", kind]
             + short for init in ("exact", "bootstrap") for kind in ("dirichlet0", "neumann0")]
    argv += [["planewave2d", "--levels", "2", "--n0", "4", "--m", "1"] + extra for extra in
             ([], ["--scheme", "conservative"],
              ["--scheme", "conservative", "--init", "bootstrap"])]
    argv += [["conserve1d", "--steps", "20", "--sample-every", "5", "--out",
              str(tmp / "energy.csv")],
             ["conserve1d", "--steps", "20", "--mode", "random", "--seed", "3"],
             ["custom", "--config", str(config), "--out", str(tmp / "rates.csv")],
             ["gaussian1d", "--n0", "2"]]
    return argv


def test_cli_runs_reach_every_library_function_but_the_named_ones(tmp_path):
    argv = _cli_set(tmp_path)
    out = subprocess.run([sys.executable, "-c", _TRACE, json.dumps(argv), json.dumps(_POISONED)],
                         capture_output=True, text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    got = json.loads(out.stdout)
    assert got["codes"] == [0] * (len(argv) - 1) + [2, 3]
    assert got["unreached"] == sorted(UNREACHED)
