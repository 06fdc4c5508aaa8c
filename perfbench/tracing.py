"""In-memory span tracing of hermwave's layers, installed from outside.

Each layer's public functions are replaced by timing wrappers at every
module attribute that refers to them. The steppers bind their helpers
with `from .boundary import pair_sources`, so patching only the defining
module would miss the hot calls; scanning every hermwave module catches
each import site. A function that no longer exists is skipped, and its
span is reported with 0 calls.

Spans are (run, index, parent, name, start_ns, end_ns, bytes_out). A
span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

ROOT_SPAN = "driver.run"

# span name -> functions it wraps; order is the report order
LAYERS = {
    "boundary.gather": ("pair_sources", "corner_sources"),
    "interp.apply": ("apply_interp", "apply_interp_2d"),
    "dissipative.expand": ("expand_taylor", "expand_taylor_2d"),
    "dissipative.series": ("eval_series",),
    "conservative.update": ("conservative_update_1d", "conservative_update_2d"),
    "conservative.bootstrap": ("bootstrap_first_half",),
    "step": ("half_step_1d", "half_step_2d", "full_step_conservative"),
    "diagnostics.energy": ("conservative_energy",),
    "diagnostics.pp_subtract": ("pp_subtract",),
    "poly.shift": ("shift",),
    "diagnostics.seminorm_sq": ("seminorm_sq",),
    "diagnostics.l2": ("l2_errors_pair", "l2_error_field", "l2_error_field_2d"),
    "driver.init": ("planewave_data", "gaussian_derivs", "gaussian_box_u",
                    "gaussian_box_v", "sine_derivs"),
}
SPANS = tuple(LAYERS) + (ROOT_SPAN,)
# spans whose functions return arrays; their output bytes are computed
ARRAY_SPANS = ("boundary.gather", "interp.apply", "dissipative.expand",
               "dissipative.series", "conservative.update", "driver.init")
# spans with child spans; their inclusive share is reported as well
PARENT_SPANS = ("step", "diagnostics.energy", "diagnostics.l2")
# spans that produce one half step of target-node data
HALF_STEP_SPANS = ("step", "conservative.bootstrap")


def _array_bytes(out) -> int:
    if isinstance(out, np.ndarray):
        return out.nbytes
    if isinstance(out, tuple):
        return sum(a.nbytes for a in out if isinstance(a, np.ndarray))
    return 0


def target_nodes(state) -> int:
    """Target nodes written by one half step (FieldPair or TwoLevelState)."""
    field = state.u if hasattr(state, "u") else state.current
    vals = field.values
    return int(np.prod(vals.shape[: vals.ndim // 2]))


class Tracer:
    """Span recorder. With keep=False it only counts half-step target nodes."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.run = 0
        self.spans: list = []
        self.stack: list[int] = []
        self.nodes = 0

    def wrap(self, name: str, fn):
        counts_nodes = name in HALF_STEP_SPANS

        def traced(*args, **kwargs):
            if not self.keep:
                out = fn(*args, **kwargs)
                if counts_nodes:
                    self.nodes += target_nodes(out)
                return out
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.spans[idx] = (self.run, idx, parent, name, start, end, 0)
            nbytes = _array_bytes(out)
            if nbytes:
                self.spans[idx] = self.spans[idx][:6] + (nbytes,)
            if counts_nodes:
                self.nodes += target_nodes(out)
            return out

        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside one span named `name`."""
        return self.wrap(name, fn)(*args)


def _hermwave_modules():
    import hermwave

    mods = [hermwave]
    for info in pkgutil.iter_modules(hermwave.__path__):
        mods.append(importlib.import_module(f"hermwave.{info.name}"))
    return mods


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Patch every import site of the given layers' functions, then restore."""
    mods = _hermwave_modules()
    wrappers = {}
    patched = []
    for span, names in layers.items():
        for fname in names:
            for mod in mods:
                fn = getattr(mod, fname, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("hermwave"):
                    if fn not in wrappers:
                        wrappers[fn] = tracer.wrap(span, fn)
                    patched.append((mod, fname, fn))
    for mod, fname, fn in patched:
        setattr(mod, fname, wrappers[fn])
    try:
        yield
    finally:
        for mod, attr, fn in patched:
            setattr(mod, attr, fn)


def pass_summary(spans, wall_ns: int) -> dict:
    """Per-span totals of one traced pass.

    Returns {"wall_ns", "self_sum_ns", "working_set_bytes", "spans": {name:
    {calls, self_ns, total_ns, bytes_out}}, "by_root": [{name: self_ns}]}.
    `by_root` splits self time by root span, i.e. by CLI invocation.
    `working_set_bytes` is the largest sum of array bytes produced under
    one child of a root span (a step, an energy sample, an error
    evaluation), computed from array sizes.
    """
    child_ns = {}
    for run, idx, parent, name, start, end, nbytes in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out = {n: {"calls": 0, "self_ns": 0, "total_ns": 0, "bytes_out": 0} for n in SPANS}
    root, top, by_root, group_bytes = {}, {}, {}, {}
    for run, idx, parent, name, start, end, nbytes in spans:
        self_ns = end - start - child_ns.get(idx, 0)
        s = out[name]
        s["calls"] += 1
        s["total_ns"] += end - start
        s["self_ns"] += self_ns
        s["bytes_out"] += nbytes
        root[idx] = idx if parent < 0 else root[parent]
        top[idx] = None if parent < 0 else (idx if top[parent] is None else top[parent])
        per_root = by_root.setdefault(root[idx], {})
        per_root[name] = per_root.get(name, 0) + self_ns
        if nbytes and top[idx] is not None:
            group_bytes[top[idx]] = group_bytes.get(top[idx], 0) + nbytes
    return {"wall_ns": wall_ns, "spans": out,
            "self_sum_ns": sum(s["self_ns"] for s in out.values()),
            "working_set_bytes": max(group_bytes.values(), default=0),
            "by_root": [by_root[r] for r in sorted(by_root)]}


def layer_metrics(passes: list, untraced_walls_ns: list, nodes_per_pass: int) -> dict:
    """Per-layer metrics: medians over traced passes of each span's figures."""
    def med(values):
        return float(statistics.median(values))

    metrics = {}
    for name in SPANS:
        per = [p["spans"][name] for p in passes]
        calls = per[0]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (med([s["self_ns"] * 1e-9 for s in per]), "s")
        metrics[f"{name}.share"] = (
            med([s["self_ns"] / p["wall_ns"] for s, p in zip(per, passes)]), "fraction")
        if name in PARENT_SPANS:
            metrics[f"{name}.total_share"] = (
                med([s["total_ns"] / p["wall_ns"] for s, p in zip(per, passes)]), "fraction")
        metrics[f"{name}.us_per_call"] = (
            med([s["self_ns"] * 1e-3 / s["calls"] for s in per]) if calls else 0.0, "us")
        if name in ARRAY_SPANS:
            metrics[f"{name}.bytes_out"] = (per[0]["bytes_out"], "B")
    energy = [p["spans"]["diagnostics.energy"] for p in passes]
    step = [p["spans"]["step"] for p in passes]
    metrics["diagnostics.energy.cost_in_steps"] = (
        med([(e["total_ns"] / e["calls"]) / (s["total_ns"] / s["calls"])
             for e, s in zip(energy, step)])
        if energy[0]["calls"] and step[0]["calls"] else 0.0, "ratio")
    metrics["step.ns_per_node"] = (
        med([s["total_ns"] / nodes_per_pass for s in step]) if nodes_per_pass else 0.0,
        "ns")
    metrics["trace.overhead_frac"] = (
        med([p["wall_ns"] for p in passes]) / med(untraced_walls_ns) - 1.0, "fraction")
    metrics["trace.working_set_bytes"] = (passes[0]["working_set_bytes"], "B")
    return metrics
