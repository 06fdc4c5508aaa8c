"""Measurement process of the hermwave benchmark; started by run.py.

Two modes, each in a fresh interpreter:

  setup    time `import hermwave` plus the workload's tiny set-up runs,
           which build every cached matrix for its (scheme, m, lambda);
  measure  one cold pass (fills the caches, counts half-step target
           nodes, then reads peak RSS), then warm cycles for --seconds:
           an untraced pass and a set-up probe (--trace 0), or an
           untraced and a traced pass (--trace 1). Untraced passes
           report the wall time of each invocation, and time the
           calibration kernel (calibration.py) before each one.

The machine's speed drifts by tens of percent over seconds, so set-up
probes are spread over the same window as the passes rather than run in
a burst before them; both medians then see the same conditions.

The last line of stdout is one JSON object for run.py. The CLI's own
prints are captured and used for the output checks only. Top-level
imports stay in the standard library so that `setup` times the first
numpy import too.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS, check_output, load_references

MIN_CYCLES = 3          # measuring cycles per run, at least
PROBE_TIMEOUT_S = 60


def _run_cli(main, argv, tracer=None, root_span=None):
    """One in-process CLI call. Returns (exit code or error text, wall ns, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter_ns()
        try:
            code = tracer.call(root_span, main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except Exception as exc:  # a crash is a failed invocation, not a harness error
            code = f"{type(exc).__name__}: {exc}"
        wall = perf_counter_ns() - t0
    return code, wall, buf.getvalue()


def probe_setup(workload, seed: int) -> dict:
    """Run `setup` in a fresh interpreter and return its result."""
    proc = subprocess.run([sys.executable, __file__, "setup", "--workload", workload.name,
                           "--seed", str(seed)], stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_setup(workload, seed: int) -> dict:
    t0 = perf_counter()
    from hermwave import cli

    failures = []
    for argv in workload.args(seed, "setup"):
        code, _, _ = _run_cli(cli.main, argv)
        if code != 0:
            failures.append(f"{' '.join(argv)}: exit {code}")
    return {"setup_s": perf_counter() - t0, "attempted": len(workload.setup),
            "failures": failures}


class Pass:
    """Runs the workload's invocations once and checks every output."""

    def __init__(self, cli_main, invocations, outdir: Path, refs: dict):
        self.main = cli_main
        self.invocations = invocations
        self.outdir = outdir
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []
        self.info: dict = {}
        self.kernel_ns: list[int] = []

    def __call__(self, tracer=None, root_span=None, kernel_ns=None) -> list[int]:
        """Wall ns of each invocation, in order.

        With kernel_ns given, the calibration kernel runs before each
        invocation, outside its timing, and its times are kept in
        self.kernel_ns.
        """
        gc.collect()  # every pass starts with no garbage left by the previous one
        walls = []
        for i, args in enumerate(self.invocations):
            if kernel_ns is not None:
                self.kernel_ns.append(kernel_ns())
            csv_path = self.outdir / f"inv{i}.csv"
            csv_path.unlink(missing_ok=True)
            code, ns, text = _run_cli(self.main, args + ["--out", str(csv_path)],
                                      tracer, root_span)
            walls.append(ns)
            self.attempted += 1
            problem, info = (f"exit {code}", {}) if code != 0 else \
                check_output(args, csv_path, text, self.refs)
            if problem:
                self.failures.append(f"{' '.join(args)}: {problem}")
            self.info[" ".join(args)] = info
        return walls


def _env() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    import hermwave

    return {"numpy": np.__version__, "blas": openblas,
            "python": sys.version.split()[0], "program": hermwave.__file__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
                outdir: Path, spans_file: Path) -> dict:
    from hermwave import cli

    import tracing

    one_pass = Pass(cli.main, workload.args(seed, "smoke" if smoke else "invocations"),
                    outdir, load_references())
    counter = tracing.Tracer(keep=False)
    with tracing.installed(counter, {k: tracing.LAYERS[k] for k in tracing.HALF_STEP_SPANS}):
        cold_ns = sum(one_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import calibration  # after the peak RSS reading: its arrays are the benchmark's own
    result = {"cold_wall_ns": cold_ns, "nodes": counter.nodes, "peak_rss_mb": peak_rss_mb,
              "env": _env()}

    walls, setups, passes = [], [], []
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    cycle_s = 0.0
    while len(walls) < MIN_CYCLES or perf_counter() + cycle_s <= deadline:
        t0 = perf_counter()
        walls.append(one_pass(kernel_ns=calibration.kernel_ns))
        if not trace:
            setups.append(probe_setup(workload, seed))
        else:
            first = len(tracer.spans)
            tracer.run = len(passes)
            with tracing.installed(tracer):
                wall = sum(one_pass(tracer, tracing.ROOT_SPAN))
            passes.append(tracing.pass_summary(tracer.spans[first:], wall))
        cycle_s = perf_counter() - t0
    if trace:
        with open(spans_file, "w") as fh:
            fh.write("run,index,parent,name,start_ns,end_ns,bytes_out\n")
            fh.writelines(",".join(map(str, s)) + "\n" for s in tracer.spans)
        result["layers"] = tracing.layer_metrics(passes, [sum(w) for w in walls],
                                                 counter.nodes)
        result["self_sum_gap"] = max(abs(p["self_sum_ns"] - p["wall_ns"]) / p["wall_ns"]
                                     for p in passes)
        result["by_invocation"] = {" ".join(a): by for a, by in
                                   zip(one_pass.invocations, passes[0]["by_root"])}
    result.update(walls_ns=walls, setups=setups, kernel_ns=one_pass.kernel_ns,
                  attempted=one_pass.attempted + sum(p["attempted"] for p in setups),
                  failures=one_pass.failures + [f for p in setups for f in p["failures"]],
                  info=one_pass.info)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--outdir", type=Path)
    ap.add_argument("--spans-file", type=Path)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = run_setup(workload, args.seed)
    else:
        out = run_measure(workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, args.outdir, args.spans_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
