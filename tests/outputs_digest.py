"""One sha256 over the outputs of a fixed list of CLI calls.

Run from a checkout as

    PYTHONPATH=src python3 tests/outputs_digest.py

It runs, in this process, every invocation of the benchmark's workloads
(`perfbench/workloads.py`) at seeds 0 and 1, each distinct argument list
once, the stock `gaussian1d` and `planewave2d` runs in both schemes and
the stock `conserve1d` run. Each call writes its CSV through `--out`. The
digest covers, per call in order, the arguments, the exit code, stdout
and the CSV bytes, so two checkouts whose runs give the same bits print
the same line.

A second line hashes the node rows and times of short library-level
marches from random data, one per number of axes (1, 2), edge kind
(periodic, walls) and scheme. They reach what no CLI call does (2D
walls), and each steps on with an equal but distinct config and then
another lam, as a caller of the steppers may.

A third line hashes, bit for bit, every step, update and L2-error matrix
that the CLI calls build (`MATRICES`, the keys of `_packed_matrix`,
`_update_matrix` and `error_matrix` they reach), so a change to how the
matrices are built shows bit identity in one line.

A fourth line hashes the `index` and `negate` bytes of every gather plan
(`boundary.gather_plan`) that the CLI calls and the library marches
build, keyed by the levels' geometry, the parity and the blocks, so a
change to how the gathers are built shows bit identity in one line too.
Copy the script into the other checkout to compare.

A change that moves output bits on purpose is compared to a tolerance
instead, in two steps run from each checkout and then from either:

    PYTHONPATH=src python3 tests/outputs_digest.py --values A.json
    PYTHONPATH=src python3 tests/outputs_digest.py --compare A.json B.json [--rtol R]

`--values` writes, per CLI call, its exit code, every number of each CSV
column (an empty cell reads null) and every number on its stdout lines
(the "stdout" column), then, per library march, the node values of each
field and the time it reached under each config. `--compare` prints, per
call or march and column, the largest relative difference
|a - b| / max(|a|, |b|) between the two files, and the largest over all of
them last. With `--rtol R` it is a gate: it then names every call or march
and column whose difference exceeds R (calls or columns present in one file
only included) and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

from hermwave import DUAL, PRIMAL, Axis, Field, Grid, SchemeConfig, step  # noqa: E402
from hermwave import cli, conservative, diagnostics  # noqa: E402
from hermwave.conservative import _update_matrix  # noqa: E402
from hermwave.diagnostics import error_matrix  # noqa: E402
from hermwave.dissipative import _packed_matrix  # noqa: E402
from states import fields_of, two_level, uv_state  # noqa: E402

SEEDS = (0, 1)
# conserve1d runs the conservative scheme only
STOCK = [[name, "--scheme", scheme] for name in ("gaussian1d", "planewave2d")
         for scheme in ("dissipative", "conservative")] + [["conserve1d"]]


def calls() -> list[list[str]]:
    """The workloads' argument lists at each seed, each once, then the stock runs."""
    out = []
    for workload in WORKLOADS.values():
        for seed in SEEDS:
            out += [a for a in workload.args(seed) if a not in out]
    return out + STOCK


def runs():
    """Run each call in order; yields (argv, exit code, stdout, CSV bytes or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for argv in calls():
            out.unlink(missing_ok=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            yield argv, code, buf.getvalue(), out.read_bytes() if out.is_file() else None


def digest() -> tuple[str, int]:
    sha, count = hashlib.sha256(), 0
    for argv, code, stdout, table in runs():
        for part in (" ".join(argv), str(code), stdout):
            sha.update(part.encode() + b"\0")
        sha.update(b"<no csv>" if table is None else table)
        sha.update(b"\0")
        count += 1
    return sha.hexdigest(), count


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def values() -> dict:
    """Per call (arguments joined by spaces): its exit code and its numbers
    by column, the CSV's columns and "stdout"; then per library march (exit
    code null) the node values of each field and the time it reached under
    each config, as columns "config j field k" and "config j time"."""
    out = {}
    for argv, code, stdout, table in runs():
        columns = {"stdout": [float(x) for x in NUMBER.findall(stdout)]}
        if table is not None:
            for row in csv.DictReader(io.StringIO(table.decode())):
                for name, cell in row.items():
                    columns.setdefault(name, []).append(float(cell) if cell else None)
        out[" ".join(argv)] = {"exit": code, "columns": columns}
    for name, reached in marches():
        columns = {}
        for j, (fields, time) in enumerate(reached):
            for k, values in enumerate(fields):
                columns[f"config {j} field {k}"] = values.ravel().tolist()
            columns[f"config {j} time"] = [time]
        out[name] = {"exit": None, "columns": columns}
    return out


def relative(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|) over two equal-length lists; inf if
    their lengths or their empty cells differ."""
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x, y in zip(a, b):
        if (x is None) != (y is None):
            return float("inf")
        if x is not None and x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(path_a: str, path_b: str, rtol: float | None = None) -> list:
    """Print the largest relative difference per call and column, then the
    largest over all; with rtol, name each one past it. Returns those, as
    (call, column or None, difference)."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    diffs = [(call, None, float("inf")) for call in a.keys() ^ b.keys()]
    for call in (c for c in a if c in b):
        ca, cb = a[call]["columns"], b[call]["columns"]
        if a[call]["exit"] != b[call]["exit"] or ca.keys() != cb.keys():
            diffs.append((call, None, float("inf")))
            print(f"{call}: exit codes or columns differ")
            continue
        for name in ca:
            diffs.append((call, name, relative(ca[name], cb[name])))
            print(f"{call}  {name}  {diffs[-1][2]:.3g}")
    worst = max((rel for _, _, rel in diffs), default=0.0)
    print(f"largest relative difference over {len(a)} calls and marches: {worst:.3g}")
    over = [d for d in diffs if rtol is not None and not d[2] <= rtol]
    for call, name, rel in over:
        print(f"over rtol {rtol:g}: {call}  {name or 'the whole call'}  {rel:.3g}")
    return over


# (axes, m) per march: mixed walls so both reflections act, and a 2D box that
# is not square so an axis mix-up shows
MARCH_GRIDS = [
    ((Axis(-1.0, 1.0, 12),), 3),
    ((Axis(-1.0, 1.0, 12, "dirichlet0", "neumann0"),), 3),
    ((Axis(0.0, 1.0, 6), Axis(0.0, 1.0, 5)), 2),
    ((Axis(0.0, 1.0, 6, "dirichlet0", "neumann0"),
      Axis(0.0, 1.0, 5, "neumann0", "dirichlet0")), 2),
]
# half steps per config: the first, an equal but distinct one, then another lam
MARCH_CONFIGS = ((40, 0.8), (15, 0.8), (15, 0.5))


def marches():
    """Run each march; yields (name, per config the values of the state's
    fields and the time it reached). A march is named by its grid and its
    scheme."""
    for i, (axes, m) in enumerate(MARCH_GRIDS):
        grid = Grid(axes)
        d, rng = len(axes), np.random.default_rng(i)

        def field(parity, order, time=0.0):
            values = rng.standard_normal(grid.shapes[parity] + (order + 1,) * d)
            return Field(grid, parity, time, values)

        states = (("dissipative", uv_state(field(PRIMAL, m), field(PRIMAL, m - 1))),
                  ("conservative", two_level(field(PRIMAL, m), field(DUAL, m, -0.1))))
        for scheme, state in states:
            reached = []
            for steps, lam in MARCH_CONFIGS:
                cfg = SchemeConfig(m=m, lam=lam)
                for _ in range(steps):
                    state = step(state, cfg)
                reached.append(([f.values.copy() for f in fields_of(state)], state.time))
            yield f"march {i} {scheme}", reached


def march_digest() -> tuple[str, int]:
    """One sha256 over the fields and times each march reaches under each config."""
    sha, count = hashlib.sha256(), 0
    for _, reached in marches():
        for fields, time in reached:
            for values in fields:
                sha.update(np.ascontiguousarray(values).tobytes())
            sha.update(repr(time).encode() + b"\0")
        count += 1
    return sha.hexdigest(), count


# per builder, the keys of every matrix the calls build, in sorted order
MATRICES = (
    (_packed_matrix, [
        (((3, 3), (2, 2)), 0.8, (1.0, 1.0)),
        (((3, 3), (3, 3)), 0.8, (1.0, 1.0)),
        (((3,), (2,)), 0.8, (1.0,)),
        (((3,), (3,)), 0.5, (1.0,)),
        (((3,), (3,)), 0.8, (1.0,)),
        (((4,), (3,)), 0.8, (1.0,)),
        (((4,), (4,)), 0.8, (1.0,)),
    ]),
    (_update_matrix, [
        (2, 0.5, (1.0,)),
        (2, 0.8, (1.0, 1.0)),
        (2, 0.8, (1.0,)),
        (3, 0.8, (1.0,)),
    ]),
    (error_matrix, [
        (((3, 3), (2, 2)), 6, (0, 0), False),
        (((3, 3),), 6, (0, 0), False),
        *((((3,), (2,)), 6, (kind,), True) for kind in range(3)),
        *((((3,),), 6, (kind,), False) for kind in range(3)),
        *((((4,), (3,)), 8, (kind,), True) for kind in range(3)),
        *((((4,),), 8, (kind,), False) for kind in range(3)),
    ]),
)


def matrix_digest() -> tuple[str, int]:
    """One sha256 over each listed matrix's builder, key, shape and bytes."""
    sha, count = hashlib.sha256(), 0
    for build, keys in MATRICES:
        for key in keys:
            a = build(*key)
            sha.update(repr((build.__name__, key, a.shape)).encode() + b"\0")
            sha.update(np.ascontiguousarray(a).tobytes())
            count += 1
    return sha.hexdigest(), count


def gather_plans() -> dict:
    """Every gather plan that the CLI calls and the library marches build,
    keyed by (levels, parity, blocks). `gather_plan` is wrapped wherever a
    `hermwave` module reads it, and the plan caches that hold gathers are
    cleared before and after, so that every plan is asked for again."""
    plans, caches = {}, (conservative._plan, diagnostics._error_plan)
    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("hermwave.") and hasattr(mod, "gather_plan")]
    real = [mod.gather_plan for mod in modules]
    for mod, build in zip(modules, real):
        def record(stack, parity, blocks, build=build):
            plans[stack.levels, parity, blocks] = plan = build(stack, parity, blocks)
            return plan

        mod.gather_plan = record
    for cache in caches:
        cache.cache_clear()
    try:
        for _ in runs():
            pass
        for _ in marches():
            pass
    finally:
        for mod, build in zip(modules, real):
            mod.gather_plan = build
        for cache in caches:
            cache.cache_clear()
    return plans


def gather_digest() -> tuple[str, int]:
    """One sha256 over each gather plan's key, shapes, index and negate bytes."""
    sha, plans = hashlib.sha256(), gather_plans()
    for key in sorted(plans, key=repr):
        index, negate = plans[key].index, plans[key].negate
        sha.update(repr((key, index.shape, None if negate is None else negate.shape)).encode())
        for a in (index, negate):
            sha.update(b"\0" + (b"" if a is None else np.ascontiguousarray(a).tobytes()))
    return sha.hexdigest(), len(plans)


def main(args: list) -> int | str:
    """The command line: the exit code, or the usage text for a bad one."""
    if args[:1] == ["--values"] and len(args) == 2:
        Path(args[1]).write_text(json.dumps(values(), indent=1))
        return 0
    if args[:1] == ["--compare"] and len(args) == 3:
        compare(*args[1:])
        return 0
    if args[:1] == ["--compare"] and len(args) == 5 and args[3] == "--rtol":
        return 1 if compare(*args[1:3], rtol=float(args[4])) else 0
    if args:
        return __doc__
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} CLI calls")
    hexdigest, count = march_digest()
    print(f"{hexdigest}  {count} library marches")
    hexdigest, count = matrix_digest()
    print(f"{hexdigest}  {count} cached matrices")
    hexdigest, count = gather_digest()
    print(f"{hexdigest}  {count} gather plans")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
