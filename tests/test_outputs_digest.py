"""The tolerance gate of `outputs_digest.py --compare`, the names it
compares by, the matrices its third line hashes and the gathers its
fourth line hashes."""

import json

import numpy as np

import outputs_digest
from hermwave import conservative, diagnostics
from hermwave.boundary import GatherPlan
from outputs_digest import (MARCH_GRIDS, MATRICES, gather_digest, main, marches, matrix_digest,
                            runs)

COLUMNS = {"call one": {"exit": 0, "columns": {"error_u": [1.0, 2.0], "n": [10.0, 12.0]}},
           "march 0": {"exit": None, "columns": {"config 0 time": [0.5]}}}


def _compare(tmp_path, capsys, b, *rtol):
    """Run --compare of COLUMNS against b; returns (exit code, stdout lines)."""
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, values in zip(paths, (COLUMNS, b)):
        with open(path, "w") as fh:
            json.dump(values, fh)
    code = main(["--compare", *paths, *rtol])
    return code, capsys.readouterr().out.splitlines()


def test_compare_rtol_names_every_column_past_it(tmp_path, capsys):
    b = json.loads(json.dumps(COLUMNS))
    b["call one"]["columns"]["error_u"][1] = 2.0 * (1.0 + 1e-6)
    code, out = _compare(tmp_path, capsys, b, "--rtol", "1e-8")
    assert code == 1
    assert [line for line in out if line.startswith("over rtol")] == [
        "over rtol 1e-08: call one  error_u  1e-06"]
    assert _compare(tmp_path, capsys, b, "--rtol", "1e-5")[0] == 0
    code, out = _compare(tmp_path, capsys, b)  # no gate: exit 0, nothing named
    assert code == 0 and not any(line.startswith("over rtol") for line in out)
    assert out[-1] == "largest relative difference over 2 calls and marches: 1e-06"


def test_compare_rtol_names_a_call_missing_from_one_file(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, {"call one": COLUMNS["call one"]}, "--rtol", "1")
    assert code == 1 and "over rtol 1: march 0  the whole call  inf" in out


def test_every_library_march_has_its_own_name():
    """`values()` keys each march by its name, so two marches of one name
    would leave one of them out of `--compare`: one name per grid and
    scheme, 8 in all."""
    names = [name for name, _ in marches()]
    assert len(set(names)) == len(names) == 2 * len(MARCH_GRIDS) == 8


def test_matrix_list_is_every_key_the_calls_build(monkeypatch):
    """`MATRICES` lists, per builder, exactly the keys that the digest's CLI
    calls build. The plan caches are cleared so that every plan is built
    again, each builder runs uncached so that its nested calls are seen
    too, and the plans built from those copies are dropped afterwards."""
    seen = {}
    for module, build in ((conservative, conservative._packed_matrix),
                          (conservative, conservative._update_matrix),
                          (diagnostics, diagnostics.error_matrix)):
        def record(*key, build=build):
            seen.setdefault(build.__name__, set()).add(key)
            return build.__wrapped__(*key)

        monkeypatch.setattr(module, build.__name__, record)
    plans = (conservative._plan, diagnostics._error_plan)
    for plan in plans:
        plan.cache_clear()
    try:
        for _ in runs():
            pass
    finally:
        for plan in plans:
            plan.cache_clear()
    assert seen == {build.__name__: set(keys) for build, keys in MATRICES}
    assert sum(len(keys) for _, keys in MATRICES) == matrix_digest()[1] == 25


def test_matrix_digest_sees_a_sign_of_zero(monkeypatch):
    """Flipping the sign of the zeros of one builder's matrices moves the line."""
    (build, keys), *rest = MATRICES
    before = matrix_digest()

    def flipped(*key):
        a = build(*key).copy()
        a[a == 0] *= -1.0
        return a

    flipped.__name__ = build.__name__
    assert (build(*keys[0]) == 0).any()
    monkeypatch.setattr(outputs_digest, "MATRICES", ((flipped, keys), *rest))
    assert matrix_digest() != before


def test_gather_digest_sees_one_dropped_negate(monkeypatch):
    """Dropping one entry of one plan's `negate` moves the line."""
    before = gather_digest()
    plans = outputs_digest.gather_plans()
    key = next(key for key, plan in plans.items() if plan.negate is not None)
    plan = plans[key]
    plans[key] = GatherPlan(plan.nodes, plan.targets, plan.index, plan.negate[1:])
    monkeypatch.setattr(outputs_digest, "gather_plans", lambda: plans)
    assert gather_digest() != before
