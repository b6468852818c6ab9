#!/usr/bin/env python3
"""In-process wall times of star and convex checks with three or more
components, and of every op of a benchmark workload.

Sets of calls, each timed as the median and the best of ``--repeats``
runs after one untimed call:

- every op of the benchmark workload ``--workload`` at ``--seed``
  (``bench/workloads.py``), with the sum of their medians as the time of
  one pass; the default, ``higher-n``, is ``star_check`` on majorized
  pairs of n = 3..6 and reversed pairs of n = 3, 4;
- ``star_check`` on generic pairs of n = 8, 10 and 12 (``--generic``): n
  sorted rates drawn uniformly from (1, 3) with ``default_rng(5)``, theta
  drawn the same way and rescaled to lam's total, so that every gap has
  2^(n+1) - 2 terms;
- ``convex_check`` on the same generic pairs of n = 8 and 10, reversed
  (``--generic-convex``): not majorized, so each one scans the (a, b) grid;
- the pre-filter of each op of the workload (``--prefilter``):
  ``orders._may_violate`` on every grid the op hands it, with a fresh
  ``orders._Gaps`` built untimed before each repeat, so no gap is cached
  from the last one.  Its status reads as the count of kept probes;
- ``sign_map`` on linspace pairs of n = 3, 6 and 8 (``--sign-map``):
  ``linspace(2, 3, n)`` against ``linspace(1.5, 3.5, n)``, 201x201 cells
  over the window of the benchmark's dense-grid maps (b = 0.0625 /
  (theta_1 + theta_n), a in [theta_1 / (2 lam_n), 1], x in [0, 20 /
  theta_1]), which has no map of three or more components.  A map's
  status reads as its count of certain cells.

``--packages`` names one or more importable copies of the package.  Their
calls alternate repeat by repeat, first one package first, then the next,
so that two trees compared in one process see the same swings of a shared
host.  To compare with another tree, copy its ``src/transform_orders`` to
``DIR/transform_orders_base``.  Prints one JSON object.

Usage:
    PYTHONPATH=src python scripts/time_higher_n.py [--workload higher-n] [--seed 7] \
        [--repeats 5] [--generic 8,10,12] [--generic-convex 8,10] [--sign-map 3,6,8] [--prefilter]
    PYTHONPATH=src:DIR python scripts/time_higher_n.py \
        --packages transform_orders_base,transform_orders
    PYTHONPATH=src python scripts/time_higher_n.py --workload unordered-n2 --repeats 1 \
        --generic '' --generic-convex '' --sign-map ''
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def generic_rates(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    rng = np.random.default_rng(5)
    lam = np.sort(rng.uniform(1.0, 3.0, n))
    theta = np.sort(rng.uniform(1.0, 3.0, n))
    theta *= lam.sum() / theta.sum()
    return tuple(lam.tolist()), tuple(theta.tolist())


def status_of(result) -> str | int:
    """A verdict's status, whether an oracle's grid is clean, the count of
    certain cells of a sign map, or a count itself."""
    if isinstance(result, int):
        return result
    if hasattr(result, "status"):
        return result.status.value
    if hasattr(result, "clean"):
        return "clean" if result.clean else "violations"
    return sum(1 for row in result.signs for s in row if s)


def timed(calls: dict, repeats: int, setup: dict | None = None) -> dict:
    """Per package: the status of its call and the median and best time.
    With ``setup``, each call takes the result of its package's untimed
    setup call, made afresh before each one."""
    names = list(calls)

    def args(name):
        return (setup[name](),) if setup else ()

    status = {name: status_of(calls[name](*args(name))) for name in names}
    times = {name: [] for name in names}
    for r in range(repeats):
        for name in names[r % len(names):] + names[: r % len(names)]:
            given = args(name)
            start = perf_counter()
            calls[name](*given)
            times[name].append(perf_counter() - start)
    return {name: {"status": status[name],
                   "median_ms": round(1e3 * statistics.median(times[name]), 2),
                   "best_ms": round(1e3 * min(times[name]), 2)} for name in names}


def timed_generic(libs: dict, ns: str, check: str, repeats: int, reverse: bool = False) -> dict:
    """``timed`` of ``check`` on the generic pair of each n in the
    comma-separated ``ns``, with theta first if ``reverse``."""
    out = {}
    for n in filter(None, ns.split(",")):
        pair = generic_rates(int(n))[:: -1 if reverse else 1]
        calls = {name: (lambda lib=lib: getattr(lib, check)(*map(lib.HazardVector, pair)))
                 for name, lib in libs.items()}
        out[n] = timed(calls, repeats)
    return out


def timed_sign_maps(libs: dict, ns: str, repeats: int) -> dict:
    """``timed`` of the 201x201 ``sign_map`` of the linspace pair of each n
    in the comma-separated ``ns``."""
    out = {}
    for n in filter(None, ns.split(",")):
        lam = np.linspace(2.0, 3.0, int(n)).tolist()
        theta = np.linspace(1.5, 3.5, int(n)).tolist()
        b = 0.0625 / (theta[0] + theta[-1])
        window = (theta[0] / (2.0 * lam[-1]), 1.0), (0.0, 20.0 / theta[0])
        calls = {name: (lambda lib=lib: lib.sign_map(
                     lib.HazardVector(lam), lib.HazardVector(theta), b, *window, 201))
                 for name, lib in libs.items()}
        out[n] = timed(calls, repeats)
    return out


def prefilter_calls(lib, op) -> list:
    """The (lam, theta, grid, violating) of each ``_may_violate`` call of
    ``op``, recorded from one run of it."""
    calls = []
    may_violate = lib.orders._may_violate

    def recording(gaps, grid, violating):
        calls.append((gaps.lam, gaps.theta, list(grid), violating))
        return may_violate(gaps, grid, violating)

    lib.orders._may_violate = recording
    try:
        workloads.run_op(lib, op)
    finally:
        lib.orders._may_violate = may_violate
    return calls


def timed_prefilters(libs: dict, workload: str, seed: int, repeats: int) -> list:
    """``timed`` of the pre-filter of each op of ``workload`` at ``seed``:
    every recorded ``_may_violate`` call of the op, each on a fresh
    ``_Gaps``."""
    out = []
    for op in workloads.generate(workload, seed):
        recorded = {name: prefilter_calls(lib, op) for name, lib in libs.items()}
        setup = {name: (lambda lib=lib, rec=recorded[name]:
                        [lib.orders._Gaps(lam, theta) for lam, theta, _, _ in rec])
                 for name, lib in libs.items()}
        calls = {name: (lambda gaps, lib=lib, rec=recorded[name]: sum(
                     len(lib.orders._may_violate(g, grid, violating))
                     for g, (_, _, grid, violating) in zip(gaps, rec)))
                 for name, lib in libs.items()}
        out.append({"kind": op.kind, "group": op.group, "n": len(op.lam),
                    "by_package": timed(calls, repeats, setup)})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="higher-n", choices=workloads.WORKLOADS,
                        help="the benchmark workload whose ops are timed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--generic", default="8,10,12",
                        help="comma-separated n of the generic pairs ('' for none)")
    parser.add_argument("--generic-convex", default="8,10",
                        help="comma-separated n of the reversed generic convex checks")
    parser.add_argument("--sign-map", default="3,6,8",
                        help="comma-separated n of the linspace-pair sign maps")
    parser.add_argument("--prefilter", action="store_true",
                        help="time the pre-filter of each op of the workload")
    parser.add_argument("--packages", default="transform_orders",
                        help="comma-separated importable copies of the package")
    args = parser.parse_args(argv)
    libs = {name: importlib.import_module(name) for name in args.packages.split(",")}
    ops = []
    for op in workloads.generate(args.workload, args.seed):
        calls = {name: (lambda lib=lib: workloads.run_op(lib, op)) for name, lib in libs.items()}
        ops.append({"kind": op.kind, "group": op.group, "n": len(op.lam),
                    "by_package": timed(calls, args.repeats)})
    generic = timed_generic(libs, args.generic, "star_check", args.repeats)
    generic_convex = timed_generic(libs, args.generic_convex, "convex_check", args.repeats,
                                   reverse=True)
    sign_maps = timed_sign_maps(libs, args.sign_map, args.repeats)
    prefilters = (timed_prefilters(libs, args.workload, args.seed, args.repeats)
                  if args.prefilter else [])
    passes = {name: round(sum(op["by_package"][name]["median_ms"] for op in ops), 2)
              for name in libs}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "repeats": args.repeats,
                      "ops": ops, "pass_median_ms": passes, "generic_star_check": generic,
                      "generic_convex_check_reversed": generic_convex,
                      "linspace_sign_map": sign_maps, "prefilter": prefilters}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
