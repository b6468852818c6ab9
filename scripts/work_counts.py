#!/usr/bin/env python3
"""Deterministic work counters of the verdict functions on fixed pairs,
and of one root scan.

Wall times on a small shared machine spread too widely to compare two
trees; these counts do not move between runs.  For each verdict the line
reads

    name evaluator_calls=E sign_patterns_calls=C patterns=P dip_split=D geomspace=G canonicalize=K eval_blocks=B sign_at_zero=Z quantile_evals=Q kept_probes=R bisect_points=M

- ``evaluator_calls``: calls of a certified evaluator (``scaled_rows``,
  ``ExpSum._scaled_many``, or ``product.ProductGaps.evaluate`` for the
  gaps of n >= 3 systems) not made from inside another one;
- ``sign_patterns_calls`` and ``patterns``: calls of ``sign_patterns``
  made by the verdict functions, and the sums they scanned in total;
- ``dip_split``: calls of the dip-pass split rule ``expsum._dip_split``;
- ``geomspace``: calls of ``numpy.geomspace`` (sign grids and a-grids);
- ``canonicalize``: calls of ``expsum.canonicalize`` through the module
  attribute (one per gap built);
  ``systems.survival`` holds its own reference and is not counted;
- ``eval_blocks``: calls of the evaluators' block routines
  ``expsum._scaled_block`` and ``product.product_block``, one per block of
  points of each evaluator call;
- ``sign_at_zero``: scalar evaluations of ``ExpSum.sign_at_zero`` (the
  cached ``ExpSum._sign_at_zero``), whether inside a verdict or as the
  fallback of ``expsum.sign_at_zero_rows``; a sum whose sign at 0+ the
  batch helper gave is not counted;
- ``quantile_evals``: calls of ``ExpSum.eval_many`` made inside
  ``systems.inverse_survival_many`` (doubling and bisection rounds of
  each quantile inversion), called from ``systems`` or ``oracle``;
- ``kept_probes``: the probes that the grid pre-filter
  ``orders._may_violate`` keeps for the scan, summed over its calls;
- ``bisect_points``: the midpoints that the bisection planner
  ``expsum.bisection_round`` plans (flip bisection and quantile
  inversion, which imports it into ``systems``), summed over its calls.

With ``--check FILE`` the lines are compared with those stored in FILE
(``scripts/work_counts.txt`` holds the counts of this tree): the script
exits 1 when a count is higher than stored or a verdict has no stored
line, and names every count that is lower, so that the file can be
brought down with it.

Usage:
    PYTHONPATH=src python scripts/work_counts.py [--check scripts/work_counts.txt]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from contextlib import ExitStack
from functools import cached_property
from unittest import mock

import numpy as np

from transform_orders import (
    HazardVector,
    convex_check,
    convex_check_at,
    count_roots,
    sign_map,
    star_check,
    star_ratio_oracle,
    survival,
    violation_search,
)
from transform_orders import expsum, oracle, orders, product, systems

CLASSIC = HazardVector((2.0, 3.0)), HazardVector((1.5, 3.5))
REVERSED = CLASSIC[::-1]
HOMOGENEOUS = HazardVector((2.5, 2.5)), HazardVector((1.5, 3.5))
STAR_FAILS = HazardVector((1.0, 4.0)), HazardVector((2.0, 2.5))
# The classic pair with theta rescaled: not majorized, star_check INCONCLUSIVE.
RESCALED = HazardVector((2.0, 3.0)), HazardVector((3.0, 7.0))
# A narrow-strip majorized pair: the floored scan certifies the '-' region
# at the strip top but not the tail '+', so violation_search ends INCONCLUSIVE.
NARROW = HazardVector((1.6702, 1.6707)), HazardVector((0.6158, 2.7251))
# The narrow pair with theta rescaled by 1.5, so not majorized.
RESCALED_NARROW = NARROW[0], HazardVector((0.9237, 4.08765))
# The gap at the classic published violating point (a, b) = (0.749, 0.0125).
CLASSIC_WITNESS_GAP = survival(CLASSIC[1]) - survival(CLASSIC[0]).shift_scale(0.749, 0.0125)


def linspace_pair(n: int):
    return (
        HazardVector(tuple(np.linspace(2.0, 3.0, n).tolist())),
        HazardVector(tuple(np.linspace(1.5, 3.5, n).tolist())),
    )


VERDICTS = (
    ("star_check classic", star_check, CLASSIC),
    ("star_check reversed", star_check, REVERSED),
    ("star_check (1,4)/(2,2.5)", star_check, STAR_FAILS),
    ("star_check rescaled", star_check, RESCALED),
    ("violation_search classic", violation_search, CLASSIC),
    ("convex_check classic", convex_check, CLASSIC),
    ("convex_check reversed", convex_check, REVERSED),
    ("convex_check homogeneous", convex_check, HOMOGENEOUS),
    ("convex_check (1,4)/(2,2.5)", convex_check, STAR_FAILS),
    ("convex_check narrow", convex_check, NARROW),
    ("convex_check rescaled narrow", convex_check, RESCALED_NARROW),
    ("convex_check (2,3,4)/(1,3,5)", convex_check,
     (HazardVector((2.0, 3.0, 4.0)), HazardVector((1.0, 3.0, 5.0)))),
    ("convex_check_at classic", lambda lam, theta: convex_check_at(lam, theta, 0.749, 0.0125),
     CLASSIC),
    ("star_check linspace n=3", star_check, linspace_pair(3)),
    ("star_check linspace n=6", star_check, linspace_pair(6)),
    # A late hit: the "+,-" witness is probe 46 of the 67-probe a-grid.
    ("star_check reversed linspace n=3", star_check, linspace_pair(3)[::-1]),
    # The (a, b) grid at n >= 3, where the rate-dominance rule prunes the
    # probes whose gap has one sign.
    ("convex_check reversed linspace n=3", convex_check, linspace_pair(3)[::-1]),
    # The rounds of flip bisection, outside any verdict.
    ("count_roots classic witness", lambda f: count_roots(f, -5.0, 10.0), (CLASSIC_WITNESS_GAP,)),
    # The bulk paths of the benchmark's dense-grid ops: a 201x201 map (203
    # rows, of which only those where a rate of X meets one of Y build
    # their gap) and a 2000-point oracle (its quantile rounds).
    ("sign_map classic",
     lambda lam, theta: sign_map(lam, theta, 0.0125, (0.25, 1.0), (0.0, 20.0 / 1.5), 201),
     CLASSIC),
    ("star_ratio_oracle classic",
     lambda lam, theta: star_ratio_oracle(lam, theta, np.linspace(5.0 / 2000, 5.0, 2000)),
     CLASSIC),
)


def counted(counts: Counter, key: str, fn, outermost=None):
    """fn, adding 1 to counts[key] for each call (only for calls made from
    outside every function that shares the one-element list outermost)."""

    def wrapper(*args, **kwargs):
        if outermost is None or outermost[0] == 0:
            counts[key] += 1
        if outermost is not None:
            outermost[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            if outermost is not None:
                outermost[0] -= 1

    return wrapper


def work(run, *args) -> Counter:
    counts: Counter = Counter()
    depth = [0]
    scan = orders.sign_patterns

    def scanning(fs, *rest, **kwargs):
        # fs is a list or a SumBlock, which keeps its own evaluator.
        counts["sign_patterns_calls"] += 1
        counts["patterns"] += len(fs)
        return scan(fs, *rest, **kwargs)

    with ExitStack() as stack:
        patch = stack.enter_context
        patch(mock.patch.object(expsum, "scaled_rows",
                                counted(counts, "evaluator_calls", expsum.scaled_rows, depth)))
        patch(mock.patch.object(expsum.ExpSum, "_scaled_many",
                                counted(counts, "evaluator_calls", expsum.ExpSum._scaled_many,
                                        depth)))
        patch(mock.patch.object(product.ProductGaps, "evaluate",
                                counted(counts, "evaluator_calls", product.ProductGaps.evaluate,
                                        depth)))
        patch(mock.patch.object(orders, "sign_patterns", scanning))
        patch(mock.patch.object(expsum, "_dip_split",
                                counted(counts, "dip_split", expsum._dip_split)))
        patch(mock.patch.object(np, "geomspace", counted(counts, "geomspace", np.geomspace)))
        patch(mock.patch.object(expsum, "canonicalize",
                                counted(counts, "canonicalize", expsum.canonicalize)))
        patch(mock.patch.object(expsum, "_scaled_block",
                                counted(counts, "eval_blocks", expsum._scaled_block)))
        patch(mock.patch.object(product, "product_block",
                                counted(counts, "eval_blocks", product.product_block)))
        at_zero = cached_property(counted(counts, "sign_at_zero",
                                          expsum.ExpSum._sign_at_zero.func))
        at_zero.__set_name__(expsum.ExpSum, "_sign_at_zero")
        patch(mock.patch.object(expsum.ExpSum, "_sign_at_zero", at_zero))
        inverting = [0]
        inverse = counted(counts, "inversions", systems.inverse_survival_many, inverting)
        patch(mock.patch.object(systems, "inverse_survival_many", inverse))
        patch(mock.patch.object(oracle, "inverse_survival_many", inverse))
        evaluate = expsum.ExpSum.eval_many

        def eval_many(f, xs):
            if inverting[0]:
                counts["quantile_evals"] += 1
            return evaluate(f, xs)

        patch(mock.patch.object(expsum.ExpSum, "eval_many", eval_many))
        may_violate = orders._may_violate

        def keeping(*args, **kwargs):
            kept = may_violate(*args, **kwargs)
            counts["kept_probes"] += len(kept)
            return kept

        patch(mock.patch.object(orders, "_may_violate", keeping))
        plan = expsum.bisection_round

        def planning(*args):
            mids = args[-1]
            before = len(mids)
            index = plan(*args)
            counts["bisect_points"] += len(mids) - before
            return index

        patch(mock.patch.object(expsum, "bisection_round", planning))
        patch(mock.patch.object(systems, "bisection_round", planning))
        run(*args)
    return counts


KEYS = ("evaluator_calls", "sign_patterns_calls", "patterns", "dip_split", "geomspace",
        "canonicalize", "eval_blocks", "sign_at_zero", "quantile_evals", "kept_probes",
        "bisect_points")


def parse(line: str) -> tuple[str, dict[str, int]]:
    """(name, counts) of one printed line."""
    name, _, counts = line.partition(f" {KEYS[0]}=")
    return name, {k: int(v) for k, v in (w.split("=") for w in f"{KEYS[0]}={counts}".split())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 if a count is higher than in FILE's lines")
    args = parser.parse_args(argv)
    stored = {}
    if args.check:
        with open(args.check) as fh:
            stored = dict(parse(line) for line in fh if line.strip())
    failed = False
    for name, run, pair in VERDICTS:
        counts = work(run, *pair)
        print(name, " ".join(f"{k}={counts[k]}" for k in KEYS), flush=True)
        if not args.check:
            continue
        if name not in stored:
            print(f"  no stored line for {name!r} in {args.check}", file=sys.stderr)
            failed = True
            continue
        for k in KEYS:
            if counts[k] != stored[name].get(k):
                rose = counts[k] > stored[name].get(k, -1)
                failed |= rose
                print(f"  {name}: {k} {'rose' if rose else 'fell'}: "
                      f"{stored[name].get(k)} -> {counts[k]}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
