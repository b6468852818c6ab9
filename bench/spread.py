#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/spread.py --seeds 1-5 --seconds 20 --workload higher-n
    python3 bench/spread.py --seeds 1-10 --repeat-seeds 11-20 --seconds 20 \\
        --trace-seed 1 --out bench/baseline.json

Runs every (workload, seed) pair in a fresh process, one at a time: first
every workload on ``--seeds``, then every workload again on
``--repeat-seeds``. For each set and end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
quartile distance as a share of the median ("spread"). With a repeat set it
also prints the drift of each median between the two sets, and checks both
against the bounds in BENCHMARK.json: every spread but that of setup_s must
stay within its bound, and no median may get worse by more than its
bound. With ``--trace-seed`` it also makes one traced run per workload on
that seed and keeps its per-layer metrics. With ``--out`` it writes all of
this as JSON, with every run's metrics, error ratio, digest, tail
percentile and verdict mix.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    import numpy
    return {"cpu": cpu, "cpus": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh-process run: (final JSON line, results file with the run's
    wall time added as ``run_s``)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    run_s = perf_counter() - start
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, dict(record, run_s=run_s)


def verdict_mix(records: list[dict]) -> dict:
    """Distinct ops per "op group outcome"; the outcome of a map or oracle
    is its check result."""
    mix: dict[str, int] = {}
    for rec in records:
        outcome = rec.get("status") or ("error" if "error" in rec else "ok")
        if "check" in rec:
            outcome += " (check failed)"
        key = f"{rec['op']} {rec['group']} {outcome}"
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None}
    return out


def measure_set(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = []
    for seed in seeds:
        result, record = run(workload, seed, seconds, 0)
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "error_ratio": record["error_ratio"], "digest": record["digest"],
                     "tail_percentile": record["tail_percentile"],
                     "run_s": record["run_s"], "problems": record["problems"],
                     "verdicts": verdict_mix(record["records"]),
                     "metrics": result["metrics"],
                     "wall": {k: v for k, v in record["wall"].items()
                              if not isinstance(v, list)}})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name:18s} median {s['median']:.5g} {s['unit']}, "
              f"quartiles {s['q1']:.5g} .. {s['q3']:.5g}, spread {spread}", flush=True)
    return {"seeds": seeds, "summary": summary, "runs": runs}


def against_bounds(workload: str, sets: list[dict], bounds: dict) -> tuple[dict, list[str]]:
    """Drift of each median between the two sets (second over first, minus
    one), and the bounds that the spreads or the drift exceed."""
    drift, over = {}, []
    first, second = (s["summary"] for s in sets)
    for name, (better, bound) in bounds.items():
        a, b = first[name]["median"], second[name]["median"]
        drift[name] = b / a - 1.0 if a else 0.0
        worse = drift[name] if better == "lower" else -drift[name]
        if worse > bound:
            over.append(f"{workload} {name}: second median worse by {worse:.3f} > {bound}")
        for k, s in enumerate(sets, 1):
            spread = s["summary"][name]["spread"] or 0.0
            if name != "setup_s" and spread > bound:
                over.append(f"{workload} {name}: set {k} spread {spread:.3f} > {bound}")
    return drift, over


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--repeat-seeds", type=seed_list, default=None, help="e.g. 11-20")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    report = {"command": ["python3", "bench/spread.py", *sys.argv[1:]], "host": host(),
              "seconds": args.seconds, "workloads": {w: {"sets": []} for w in workloads}}
    for seeds in filter(None, (args.seeds, args.repeat_seeds)):
        for workload in workloads:
            report["workloads"][workload]["sets"].append(
                measure_set(workload, seeds, args.seconds))

    over = []
    for workload, entry in report["workloads"].items():
        if len(entry["sets"]) == 2:
            entry["drift"], problems = against_bounds(workload, entry["sets"], bounds)
            over += problems
            print(f"{workload} drift of the medians: " + ", ".join(
                f"{k} {v:+.3f}" for k, v in entry["drift"].items()), flush=True)
        if args.trace_seed is not None:
            result, record = run(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": result["correct"],
                              "run_s": record["run_s"],
                              "problems": record["problems"],
                              "metrics": result["metrics"],
                              "work_counters_per_op": record["work_counters_per_op"]}
            print(f"{workload} traced seed {args.trace_seed}: correct={result['correct']}",
                  flush=True)
    if args.repeat_seeds:
        report["outside_bounds"] = over
        print("\n".join(over) or "every spread and drift is within its bound")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
