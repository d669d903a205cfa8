"""branchkit benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Workloads: verify-all, lr-products, decompose-large, cli-cached (see
workloads.py).  Every pass runs in a fresh interpreter (worker.py), so the
memos start cold and the peak memory belongs to that pass alone.

--trace 0 prints the end-to-end metrics.  Set-up time is the median of
several fresh interpreters, from their start to the moment the first
operation would be timed.
--trace 1 runs every operation twice in one fresh interpreter, from the
same memo state: once with the layer wrappers of tracer.py installed and
once without.  It prints the per-layer metrics of the traced runs (per
round, that is per pass through the workload's job) and the tracing
overhead, the median over rounds of the traced minus the untraced round
time.  The spans are written to perfbench/out/<workload>.spans.tsv.gz.

Report lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GRID_NAMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lr.calls": "count",
    "lr.self_s": "s",
    "lr.skew_misses": "count",
    "lr.memo_hit_ratio": "ratio",
    "lr.memo_entries": "count",
    "branching.self_s": "s",
    "branching.decompose_s": "s",
    "branching.sum_calls": "count",
    "branching.sum_nonzero_ratio": "ratio",
    "characters.self_s": "s",
    "characters.freudenthal_calls": "count",
    "characters.freudenthal_misses": "count",
    "characters.freudenthal_s": "s",
    "characters.weights_computed": "count",
    "characters.support_s": "s",
    "characters.decompose_s": "s",
    "oracle.self_s": "s",
    "oracle.calls": "count",
    "oracle.memo_hit_ratio": "ratio",
    "oracle.tensor_calls": "count",
    "oracle.tensor_s": "s",
    "verify.formula_s": "s",
    "verify.oracle_s": "s",
    "verify.cases": "count",
    **{name + "_s": "s" for name in GRID_NAMES},
    "cli.cache_load_s": "s",
    "cli.cache_save_s": "s",
    "cli.cache_entries": "count",
    "cli.cache_file_kb": "KiB",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class RunFailed(Exception):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker pass and return the JSON object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("BRANCHKIT_CACHE", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before the " + mode + " pass")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} pass did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{mode} pass exited {proc.returncode}:\n"
                        + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn("setup", args, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = spawn("run", args, deadline)
    setups.append(run["setup_s"])
    walls, lat = run["walls"], run["latency"]
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": run["ops_per_round"] / statistics.median(walls),
        "op_p50_ms": lat["p50_s"] * 1000,
        "op_tail_ms": lat["tail_s"] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "op_tail_ms": f"{lat['tail_kind']}, {lat['beyond']} of "
                      f"{lat['samples']} samples beyond",
        "wall_s": f"median of {len(walls)} round(s)",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    return run | {"values": values, "units": END_TO_END, "notes": notes}, run


def traced(args, deadline: float) -> tuple[dict, dict]:
    trace = spawn("trace", args, deadline)
    values = {name: trace["layers"].get(name, 0) for name in PER_LAYER}
    values["trace.wall_s"] = statistics.median(trace["walls"])
    notes = {"trace.overhead_s": "median over rounds of traced minus "
                                 "untraced round, operations paired"}
    return trace | {"values": values, "units": PER_LAYER,
                    "notes": notes}, trace


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "branchkit" / "__init__.py").is_file():
        print(f"perfbench: no branchkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, run = (traced if args.trace else end_to_end)(args, deadline)
    except RunFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    rounds = len(run["walls"])
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations attempted, {result['failed']} "
          f"failed (failed_ratio {result['failed'] / result['attempted']:g}),"
          f" {rounds} round(s)")
    for name, value in result["values"].items():
        note = result["notes"].get(name)
        print(f"  {name:32s} {value:14.6g} {result['units'][name]}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["values"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
