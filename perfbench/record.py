"""Record a baseline: every workload over several seeds, plus a traced run.

    python3 perfbench/record.py --label baseline --seeds 1-10

Runs run.py once per workload of BENCHMARK.json and seed with --trace 0 for
its run_seconds, then once per workload with --trace 1 on the first seed,
and writes
perfbench/BENCH_<label>.json: machine info, every run's metrics, and per
metric the median, the quartiles and their distance as a share of the
median (the run-to-run spread a later comparison must beat).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def machine() -> dict:
    info = {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    seconds = bench["run_seconds"]

    out = {"label": args.label, "machine": machine(),
           "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            res = run_once(name, seed, seconds, 0)["result"]
            metrics = {k: v["value"] for k, v in res["metrics"].items()}
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics})
            print(f"{name} seed {seed} ({time.monotonic() - t0:.0f} s): "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)
        traced = run_once(name, args.seeds[0], seconds, 1)
        stats = {k: summary([r["metrics"][k] for r in runs])
                 for k in runs[0]["metrics"]}
        for k, s in stats.items():
            print(f"  {k:12s} median {s['median']:.5g}  spread "
                  f"{s['spread']:.3f}", flush=True)
        out["workloads"][name] = {
            "runs": runs, "summary": stats,
            "traced": {k: v["value"] for k, v in
                       traced["result"]["metrics"].items()},
            "traced_report": traced["report"],
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
