"""hermwave benchmark: stock experiments end to end, and layer by layer.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from a source checkout; the program under test is ./src/hermwave,
called in process through `hermwave.cli.main`. Each run starts fresh
interpreters (worker.py) with BLAS and OpenMP pinned to one thread:

  --trace 0  a cold pass, then for --seconds warm untraced passes, each
             followed by a set-up probe in a fresh interpreter. Prints
             the end-to-end metrics (wall_s, node_updates_per_s, setup_s,
             peak_rss_mb; fail_frac on a human-readable line). wall_s is
             the sum over the pass's CLI calls of each call's median.
  --trace 1  one measuring process alternating untraced and traced
             passes. Prints the per-layer metrics of the traced passes
             and writes their spans to .bench_out/.

Every invocation's output is checked against perfbench/references.json
(or, for conserve1d, against an energy-drift bound). The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

import calibration
from workloads import WORKLOADS


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed program output)."""


def _child(args: list[str]) -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT,
                              env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {args[:3]} exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {args[:3]} exited {proc.returncode}")
    return json.loads(lines[-1])


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"tail percentile n/a ({n} samples; needs more than 10)"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.4f} s"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_bytes(level: int) -> int | None:
    """Size of cpu0's level-`level` data or unified cache, from sysfs."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            if ((idx / "level").read_text().strip() == str(level)
                    and (idx / "type").read_text().strip() != "Instruction"):
                size = (idx / "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return None


def _cache_note(nbytes: int) -> str:
    caches = [(f"L{lvl}", _cache_bytes(lvl)) for lvl in (2, 3)]
    sizes = ", ".join(f"{n} {b} B" for n, b in caches if b)
    fits = next((n for n, b in caches if b and nbytes <= b), None)
    where = f"fits in {fits}" if fits else "exceeds the caches found"
    return f"{nbytes} B vs {sizes or 'unknown cache sizes'}: {where}"


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result JSON, extra facts for printing)."""
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{workload}-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}.csv"
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        res = _child(["measure"] + common + [
            "--seconds", str(seconds), "--trace", str(int(trace)), "--outdir", str(scratch),
            "--spans-file", str(spans_file)] + (["--smoke"] if smoke else []))
    finally:
        for f in scratch.glob("*.csv"):
            f.unlink()
        scratch.rmdir()
    # passes x invocations; a pass's sum is printed, the per-call medians' sum is wall_s
    calls = [[ns * 1e-9 for ns in p] for p in res["walls_ns"]]
    walls = [sum(p) for p in calls]
    raw_wall = sum(statistics.median(c) for c in zip(*calls))
    raw_setup = statistics.median(s["setup_s"] for s in res["setups"]) if res["setups"] else 0.0
    # Rescale times to the machine's reference speed (calibration.py): each
    # call by the kernel times around it, the set-up probes by the run's.
    kernel = res["kernel_ns"]
    per_call = len(calls[0])
    local = [statistics.median(kernel[max(0, i - 1):i + 2]) / calibration.REFERENCE_NS
             for i in range(len(kernel))]
    wall = sum(statistics.median(c[j] / local[p * per_call + j] for p, c in enumerate(calls))
               for j in range(per_call))
    speed = statistics.median(kernel) / calibration.REFERENCE_NS
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "node_updates_per_s": {"value": res["nodes"] / wall, "unit": "1/s"},
            "setup_s": {"value": raw_setup / speed, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failures = res["failures"]
    result = {"correct": not failures, "attempted": res["attempted"], "failed": len(failures),
              "metrics": metrics}
    facts = {"walls": walls, "failures": failures, "res": res, "spans_file": spans_file,
             "raw_wall": raw_wall, "raw_setup": raw_setup, "speed": speed}
    return result, facts


def report(workload: str, seed: int, trace: bool, result: dict, facts: dict) -> None:
    res = facts["res"]
    env = res["env"]
    print(f"workload {workload}: {' | '.join(WORKLOADS[workload].why.split('; '))}")
    print(f"env: cpu={_cpu_model()!r} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} L2={_cache_bytes(2)} "
          f"L3={_cache_bytes(3)} numpy={env['numpy']} blas={env['blas']!r} "
          f"python={env['python']} threads={env['threads_env']} "
          f"rev={_git_revision()} seed={seed}")
    print(f"program under test: {env['program']}")
    for inv, info in res["info"].items():
        shown = ", ".join(f"{k}={v:.4g}" for k, v in info.items())
        print(f"  {inv}: {shown or '-'}  (information only)")
    walls = facts["walls"]
    print(f"passes: cold {res['cold_wall_ns'] * 1e-9:.4f} s (fills caches, not in wall_s); "
          f"warm {len(walls)} untraced, median pass {statistics.median(walls):.4f} s, "
          f"{_tail(walls)}"
          + (f"; {len(res['setups'])} set-up probes" if res["setups"] else ""))
    print(f"calibration kernel: median {statistics.median(res['kernel_ns']) * 1e-6:.3f} ms "
          f"over {len(res['kernel_ns'])} runs vs reference {calibration.REFERENCE_NS * 1e-6:g} ms "
          f"(machine {facts['speed']:.4f}x as slow); unscaled, wall {facts['raw_wall']:.4f} s"
          + (f", setup {facts['raw_setup']:.4f} s" if res["setups"] else ""))
    print(f"half-step target-node updates per pass: {res['nodes']}")
    if trace:
        print("no layer has waiting time: the program is single-threaded and "
              "has no queues, so busy time is all there is")
        print(f"traced spans written to {facts['spans_file'].relative_to(ROOT)}; "
              f"self times match traced wall to {res['self_sum_gap']:.2e}")
        ws = result["metrics"]["trace.working_set_bytes"]["value"]
        print(f"largest working set (computed from array sizes): {_cache_note(ws)}")
        print("self time by invocation, first traced pass (largest first):")
        for inv, by in res["by_invocation"].items():
            total = sum(by.values())
            top = sorted(by.items(), key=lambda kv: -kv[1])[:4]
            print(f"  {inv}: " + ", ".join(f"{k} {v / total:.0%}" for k, v in top))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"fail_frac = {fail_frac:.6g} fraction ({result['failed']} of "
          f"{result['attempted']} CLI invocations)")
    for f in facts["failures"]:
        print(f"FAILED: {f}")


def smoke() -> int:
    """Self-check on the smallest configs: metrics, units, correctness, self times."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, facts = measure(name, 1, 0.5, trace, smoke=True)
            report(name, 1, trace, result, facts)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} {kind}: metrics {got} != {want}")
            if result["failed"]:
                problems.append(f"{name}: fail_frac is not 0")
            if trace and not facts["res"]["self_sum_gap"] < 1e-3:
                problems.append(f"{name}: self times differ from traced wall by "
                                f"{facts['res']['self_sum_gap']:.2e}")
            if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
                problems.append(f"{name} {kind}: non-finite metric")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-check on the smallest configs, a few seconds per workload")
    args = ap.parse_args()
    if not (ROOT / "src" / "hermwave" / "cli.py").is_file():
        print(f"benchmark: no hermwave source at {ROOT / 'src' / 'hermwave'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result, facts = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, bool(args.trace), result, facts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
