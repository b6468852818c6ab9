#!/usr/bin/env python3
"""Verdict throughput and honesty benchmark of ``transform_orders``.

Run from the repository root:

    python3 bench/run.py --workload majorized-n2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Load model: one process, one thread (BLAS/OpenMP pinned to 1), closed
loop with one client; one op is one public verdict or map call.  The op
list comes from ``--seed`` (see workloads.py); the timed loop runs whole
passes over it until ``--seconds`` have elapsed, after one untimed warm-up
op.  A fixed reference kernel is timed between ops, and op and import times
are reported at the reference speed (reference.py), so that the swings of
a shared host cancel out.  Outputs are checked after the loop (verify.py).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from two traced passes over the same ops (tracing.py), whose
verdict records must equal the untraced ones and whose counters must
repeat exactly.  The last stdout line is one JSON object; a record of
every op's output is written under bench/results/.  ``--workload all``
runs each workload in its own fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 15
CLI_REPEATS = 3
CLI_ARGS = ("check-star", "--lambda", "2,3", "--theta", "1.5,3.5")

END_TO_END = (  # name, unit
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("conclusive_ratio", "ratio"),
    ("correct_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (metric, unit).  A metric named "<span>.<stat>" is the
# statistic ``stat`` of the tracer's span ``span``; the last two are not spans.
PER_LAYER = (
    ("expsum.sign_pattern.calls_per_op", "count"),
    ("expsum.sign_pattern.self_ms_per_op", "ms"),
    ("expsum.sign_pattern.ms_per_call", "ms"),
    ("expsum.sign_pattern.share", "ratio"),
    ("expsum.sign_pattern.certified_ratio", "ratio"),
    ("expsum.sign_pattern.complete_ratio", "ratio"),
    ("expsum.canonicalize.calls_per_op", "count"),
    ("expsum.canonicalize.self_ms_per_op", "ms"),
    ("expsum.shift_scale.calls_per_op", "count"),
    ("expsum.shift_scale.self_ms_per_op", "ms"),
    ("expsum.eval.calls_per_op", "count"),
    ("expsum.eval_many.points_per_op", "count"),
    ("expsum.eval_many.ns_per_point", "ns"),
    ("systems.survival.calls_per_op", "count"),
    ("systems.survival.self_ms_per_op", "ms"),
    ("orders.survival_gap.calls_per_op", "count"),
    ("orders.survival_gap.self_ms_per_op", "ms"),
    ("systems.inverse_survival.calls_per_op", "count"),
    ("systems.inverse_survival.self_ms_per_op", "ms"),
    ("systems.inverse_survival_many.self_ms_per_op", "ms"),
    ("orders.star_check.self_ms_per_op", "ms"),
    ("orders.convex_check.self_ms_per_op", "ms"),
    ("orders.star_check_n.self_ms_per_op", "ms"),
    ("orders.violation_search.calls_per_op", "count"),
    ("orders.violation_search.ms_per_call", "ms"),
    ("orders.sign_map.ms_per_call", "ms"),
    ("oracle.transform_values.ms_per_call", "ms"),
    ("oracle.star_ratio_oracle.ms_per_call", "ms"),
    ("oracle.convexity_oracle.ms_per_call", "ms"),
    ("cli.cold_run_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def child_env() -> dict:
    """Environment of the fresh interpreters: the checkout's sources, one
    BLAS thread, and the bytecode cache on, as an installed package has it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the package: the median
    over ``SETUP_REPEATS`` interpreters, after one discarded import that
    writes the bytecode cache.  Returns (scaled to the reference speed, as
    measured).  Each interpreter times the reference kernel right after the
    import and scales its import time by it."""
    code = ("import time; t = time.perf_counter(); import transform_orders; "
            "d = time.perf_counter() - t; import sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import reference; "
            "r = sorted(reference.seconds() for _ in range(5))[2]; "
            "print(repr(d), repr(d * reference.NOMINAL_S / r))")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        d, s = out.stdout.strip().splitlines()[-1].split()
        raw.append(float(d))
        scaled.append(float(s))
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def measure_cli_cold() -> float:
    """Median wall ms of a fresh-process ``transform-orders check-star``."""
    times = []
    for _ in range(CLI_REPEATS):
        start = perf_counter()
        out = subprocess.run([sys.executable, "-m", "transform_orders.cli", *CLI_ARGS],
                             cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=60)
        times.append((perf_counter() - start) * 1e3)
        if out.returncode != 0 or json.loads(out.stdout)["verdict"] != "HOLDS":
            raise RuntimeError(f"CLI cold run exited {out.returncode}: {out.stderr.strip()}")
    return statistics.median(times)


def call(lib, op, run_op):
    try:
        return run_op(lib, op)
    except Exception as exc:  # an op that raises is counted, not fatal
        return exc


def timed_loop(lib, ops, seconds, run_op):
    """Whole passes over ``ops`` until ``seconds`` elapse, with the
    reference kernel timed before the first op and after every op.

    Returns per-op wall latencies, the reference times (one more than the
    ops), the first pass's results and the wall time of the loop.
    """
    import reference

    latencies, refs, first = [], [reference.seconds()], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in ops:
            t0 = perf_counter()
            result = call(lib, op, run_op)
            latencies.append(perf_counter() - t0)
            refs.append(reference.seconds())
            if len(first) < len(ops):
                first.append(result)
    return latencies, refs, first, perf_counter() - start


def scaled(latencies, refs):
    """Each op's latency at the reference speed, from the mean of the two
    reference times that bracket it."""
    import reference

    return [t * reference.NOMINAL_S / ((r0 + r1) / 2)
            for t, r0, r1 in zip(latencies, refs, refs[1:])]


def traced_pass(lib, ops, run_op, tracer):
    """One pass with spans on, timed like the untimed loop; returns results,
    per-op counters, per-op wall latencies and reference times."""
    import reference

    results, counters, latencies, refs = [], [], [], [reference.seconds()]
    tracer.reset()
    with tracer:
        for op in ops:
            t0 = perf_counter()
            results.append(call(lib, op, run_op))
            latencies.append(perf_counter() - t0)
            counters.append(tracer.reset())
            refs.append(reference.seconds())
    return results, counters, latencies, refs


def records_of(ops, results, record):
    out = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            out.append(dict(op.inputs(), error=f"{type(res).__name__}: {res}"))
        else:
            out.append(record(op, res))
    return out


def tail(latencies):
    """Highest percentile with at least ten ops beyond it (never below the
    median); returns (value, percentile, ops beyond)."""
    lat = sorted(latencies)
    idx = max(len(lat) - 11, len(lat) // 2)
    return lat[idx], 100.0 * (idx + 1) / len(lat), len(lat) - 1 - idx


def layer_metrics(counters, op_seconds, overhead, cli_ms, tracing):
    n_ops = len(counters)
    agg: dict[str, list] = {}
    for per_op in counters:
        for name, row in per_op.items():
            acc = agg.setdefault(name, [0] * len(row))
            for i, v in enumerate(row):
                acc[i] += v
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "cli.cold_run_ms":
            value = cli_ms
        elif metric == "trace.overhead_ratio":
            value = overhead
        else:
            span, stat = metric.rsplit(".", 1)
            row = agg.get(span, [0, 0.0, 0.0, 0, 0, 0])
            calls, total, self_s = row[tracing.CALLS], row[tracing.TOTAL], row[tracing.SELF]
            value = {
                "calls_per_op": calls / n_ops,
                "self_ms_per_op": self_s * 1e3 / n_ops,
                "ms_per_call": total * 1e3 / calls if calls else 0.0,
                "share": total / op_seconds,
                "certified_ratio": row[tracing.CERTIFIED] / calls if calls else 0.0,
                "complete_ratio": row[tracing.COMPLETE] / calls if calls else 0.0,
                "points_per_op": row[tracing.POINTS] / n_ops,
                "ns_per_point": (total * 1e9 / row[tracing.POINTS]
                                 if row[tracing.POINTS] else 0.0),
            }[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


def work_counts(counters, tracing):
    """The deterministic part of the per-op counters: calls, eval points,
    and certified and complete sign patterns."""
    keep = (tracing.CALLS, tracing.POINTS, tracing.CERTIFIED, tracing.COMPLETE)
    return [{name: tuple(row[i] for i in keep) for name, row in sorted(c.items())}
            for c in counters]


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()

    import transform_orders as lib

    import reference
    import tracing
    import verify
    from workloads import conclusive, digest, generate, record, run_op, warmup_op

    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {lib.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    ops = generate(args.workload, args.seed)
    call(lib, warmup_op(args.workload), run_op)
    for _ in range(20):
        reference.seconds()

    latencies, refs, first, wall = timed_loop(lib, ops, args.seconds, run_op)
    at_ref = scaled(latencies, refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(latencies) // len(ops)
    records = records_of(ops, first, record)

    problems = []
    failed_ops = 0
    for i, (rec, res) in enumerate(zip(records, first)):
        problem = verify.check(args.workload, rec, res)
        if problem is not None:
            rec["check"] = problem
            problems.append(f"op {i} ({rec['op']}, {rec['group']}): {problem}")
            failed_ops += passes

    ok_units = sum(conclusive(r)[0] for r in records)
    all_units = sum(conclusive(r)[1] for r in records)
    tail_s, tail_pct, beyond = tail(at_ref)
    ops_per_s = len(at_ref) / sum(at_ref)
    correct = not problems
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops": len(latencies), "passes": passes, "distinct_ops": len(ops),
        "loop_wall_s": wall, "tail_percentile": tail_pct, "tail_ops_beyond": beyond,
        "error_ratio": failed_ops / len(latencies), "digest": digest(records),
        "wall": {"ops_per_s": len(latencies) / sum(latencies),
                 "op_p50_ms": statistics.median(latencies) * 1e3,
                 "setup_s": setup_wall_s,
                 "reference_ms": [r * 1e3 for r in refs],
                 "op_ms": [t * 1e3 for t in latencies]},
    }

    if args.trace:
        tracer = tracing.Tracer()
        res1, counters1, lat1, refs1 = traced_pass(lib, ops, run_op, tracer)
        res2, counters2, _, _ = traced_pass(lib, ops, run_op, tracer)
        untraced = records_of(ops, first, record)
        if not records_of(ops, res1, record) == records_of(ops, res2, record) == untraced:
            problems.append("traced verdict records differ from the untraced ones")
        if work_counts(counters1, tracing) != work_counts(counters2, tracing):
            problems.append("work counters differ between two traced passes")
        correct = not problems
        overhead = ops_per_s / (len(ops) / sum(scaled(lat1, refs1)))
        metrics = layer_metrics(counters1, sum(lat1), overhead, measure_cli_cold(), tracing)
        summary["work_counters_per_op"] = {
            m: v["value"] for m, v in metrics.items()
            if m.endswith(("calls_per_op", "points_per_op"))}
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(at_ref) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "conclusive_ratio": ok_units / all_units if all_units else 0.0,
            "correct_ratio": 1.0 - failed_ops / len(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    RESULTS.mkdir(parents=True, exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(dict(summary, metrics=metrics, problems=problems,
                                        records=records), indent=1) + "\n")

    print(f"{args.workload}: {len(latencies)} ops in {passes} passes of {len(ops)}, "
          f"{wall:.2f} s; tail at p{tail_pct:.1f} with {beyond} ops beyond; "
          f"error_ratio {summary['error_ratio']:.4g}; digest {summary['digest'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    for p in problems:
        print(f"  check failed: {p}")
    print(json.dumps({"correct": correct, "attempted": len(latencies),
                      "failed": failed_ops, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined JSON line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transform_orders" / "__init__.py").is_file():
        print(f"error: no transform_orders sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
