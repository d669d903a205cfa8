"""One pass of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|run|trace --t0 T

T is the parent's time.monotonic() when it started this process, so the
set-up time covers interpreter start, import and input generation.  The
pass prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import types
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
TAILS = (0.99, 0.95, 0.90)


def import_package() -> types.SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import branchkit
    from branchkit import (branching, characters, cli, lr, oracle,
                           partitions, verify)
    if Path(branchkit.__file__).resolve().parent != src / "branchkit":
        raise ImportError(f"branchkit imported from {branchkit.__file__}, "
                          f"not from {src}")
    return types.SimpleNamespace(
        lr=lr, branching=branching, characters=characters, oracle=oracle,
        verify=verify, cli=cli, partitions=partitions)


def percentile(samples, p: float) -> tuple[float, int]:
    """Nearest-rank percentile of (value, weight) samples, and how many
    samples rank beyond it."""
    samples = sorted(samples)
    total = sum(w for _, w in samples)
    rank = max(1, math.ceil(p * total))
    seen = 0
    for value, weight in samples:
        seen += weight
        if seen >= rank:
            return value, total - rank
    raise ValueError("no samples")


def mean_beyond(samples, p: float) -> tuple[float, int]:
    """Weighted mean of the samples that rank beyond the p-th percentile,
    and how many they are."""
    total = sum(w for _, w in samples)
    need = max(1, total - math.ceil(p * total))
    acc = seen = 0
    for value, weight in sorted(samples, reverse=True):
        take = min(weight, need - seen)
        acc += value * take
        seen += take
        if seen == need:
            break
    return acc / seen, seen


def latency_summary(samples, rounds: int, grouped: bool) -> dict:
    """Typical and tail latency of (value, weight) samples.  The tail is
    the highest of p99/p95/p90 that has ten samples beyond it in one round
    (p90 if none has), so the choice does not flip with the number of
    rounds a run completes.  Grouped samples are group means, not single
    timings; for them the typical latency is the mean and the tail the mean
    beyond p95, which average over many groups."""
    total = sum(w for _, w in samples)
    if grouped:
        p50 = sum(v * w for v, w in samples) / total
        p = 0.95
        tail, beyond = mean_beyond(samples, p)
        kind = "mean beyond p95"
    else:
        p50, _ = percentile(samples, 0.5)
        per_round = total / rounds
        for p in TAILS:
            if per_round - math.ceil(p * per_round) >= 10:
                break
        tail, beyond = percentile(samples, p)
        kind = f"p{round(p * 100)}"
    return {"p50_s": p50, "tail_s": tail, "tail_kind": kind,
            "beyond": beyond, "samples": total}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    bk = import_package()
    workload = WORKLOADS[args.workload](bk, args.seed, str(OUT_DIR))
    try:
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(bk, workload, args, setup_s)
    finally:
        workload.close()


def timed(thunk) -> tuple[float, object]:
    t = time.perf_counter()
    try:
        output = thunk()
    except Exception as exc:  # a raising operation is a failure
        output = exc
    return time.perf_counter() - t, output


def measure(bk, workload, args, setup_s: float) -> int:
    plain_calls, tracer = workload.calls, None
    if args.mode == "trace":
        tracer = Tracer()
        traced_calls = tracer.install(bk, plain_calls)
        tracer.unpatch()
    # first[key] keeps the first output of each operation; a repeat is
    # compared with it between rounds and then dropped, so that stored
    # outputs do not pile up and slow the collector in later rounds
    first: dict = {}
    rounds, walls, untraced_walls, facts = [], [], [], []
    failed = 0
    phase_start = time.perf_counter()
    while True:
        workload.start_round()
        gc.collect()
        records, untraced = [], []
        for i, (key, thunk) in enumerate(workload.round_ops()):
            if tracer is None:
                workload.before_op()
                records.append((key, *timed(thunk)))
                continue
            # a traced run, paired with an untraced run of the same
            # operation from the same state; the order alternates so that
            # neither side is always the one that finds the memory warm, and
            # a full collection before each resets the collector's counts,
            # which the first run's garbage would otherwise skew
            state = workload.snapshot()
            for n, traced in enumerate((i % 2 == 1, i % 2 == 0)):
                if n:
                    workload.restore(state)
                gc.collect()
                if traced:
                    tracer.repatch()
                    workload.calls = traced_calls
                workload.before_op()
                seconds, output = timed(thunk)
                tracer.unpatch()
                workload.calls = plain_calls
                (records if traced else untraced).append(
                    (key, seconds, output))
            del state
        walls.append(sum(seconds for _, seconds, _ in records))
        facts.append(workload.facts(records))
        if tracer is not None:
            untraced_walls.append(sum(seconds for _, seconds, _ in untraced))
        for passed in (records, untraced):
            for i, (key, seconds, output) in enumerate(passed):
                if isinstance(output, Exception):
                    continue
                if key not in first:
                    first[key] = output
                elif workload.answer(output) != workload.answer(first[key]):
                    failed += 1
                passed[i] = (key, seconds, None)
            if passed:
                rounds.append(passed)
        if time.perf_counter() - phase_start >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = {}
    if tracer is not None:
        n = len(walls)
        for name, value in tracer.metrics().items():
            layers[name] = value if name.endswith("_ratio") else value / n
        for name in facts[0]:
            layers[name] = sorted(f[name] for f in facts)[n // 2]
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(walls, untraced_walls))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{workload.name}.spans.tsv.gz")

    # checks, outside the timed phase: each distinct operation once
    for key, output in first.items():
        failed += workload.check(key, output)
    failed += workload.self_test()
    attempted = 0
    correct = True
    completed = []
    for records in rounds:
        done = [(key, seconds, first[key]) for key, seconds, output in records
                if not isinstance(output, Exception)]
        failed += len(records) - len(done)
        attempted += len(records) - len(done) + workload.attempted(done)
        correct = correct and workload.round_ok(done)
        completed.extend(done)
    correct = correct and failed == 0

    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "attempted": attempted,
        "ops_per_round": attempted / len(rounds),
        "failed": failed,
        "correct": correct,
        "latency": latency_summary(workload.samples(completed), len(rounds),
                                   workload.grouped),
        "peak_rss_mb": rss_mb,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
