#!/usr/bin/env python3
"""Digests of sign patterns, root scans and verdicts on fixed inputs.

A refactor that keeps the behaviour keeps every digest: run this on the
tree before and after the change and compare the lines.  Each line reads
``section sha256 count``, where the hash is over the ``repr`` of each
result in the section (one per line) and ``count`` is how many results
went in.  A call that raises contributes the repr of its exception.

Sections and their inputs (every input is seeded, so the set is fixed):

- ``sign_pattern``: 2,500 gaps of random n = 2..4 systems and 500 random
  sums of up to 6 terms;
- ``sign_patterns_unrefined``: the same 3,000 sums through
  ``sign_patterns(..., refine=False)`` in blocks of 40;
- ``count_roots_decisions`` and ``count_roots_brackets``: the count,
  ``certified`` and ``touches`` of ``count_roots``, and apart from them
  its brackets, for 300 of the random sums on [-5, 10] and [0, 10];
- ``verdicts``: ``star_check``, ``convex_check``, ``violation_search``
  and ``convex_check_at`` on 8 pairs, evidence included;
- ``star_check_n``: linspace-rate pairs for n = 3..6, both ways round.

With ``--check FILE`` the lines are compared with those stored in FILE
(``scripts/repr_digest.txt`` holds the digests of this tree): the script
exits 1 and names each section whose line differs or has no stored line.

Usage:
    PYTHONPATH=src python scripts/repr_digest.py [--check scripts/repr_digest.txt]
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from transform_orders import (
    HazardVector,
    canonicalize,
    convex_check,
    convex_check_at,
    count_roots,
    sign_pattern,
    sign_patterns,
    star_check,
    star_check_n,
    survival,
    violation_search,
)

PAIRS = (
    ((2.0, 3.0), (1.5, 3.5)),  # classic
    ((1.5, 3.5), (2.0, 3.0)),  # reversed
    ((2.5, 2.5), (1.5, 3.5)),  # homogeneous base
    ((2.0, 3.0), (2.0, 3.0)),  # identical
    ((2.0, 3.0), (3.0, 7.0)),  # rescaled
    ((1.0, 4.0), (2.0, 2.5)),  # star fails, convex grid scans
    ((1.0, 1000.0), (0.5, 1000.5)),  # extreme rates
    ((1.6702, 1.6707), (0.6158, 2.7251)),  # narrow strip
)
CHECK_AT = (0.749, 0.0125)  # the classic published violating point
BLOCK = 40


def random_gap(rng: np.random.Generator):
    """Gap of random n = 2..4 systems at a in [0.1, 3], b in [0, 1]."""
    n = int(rng.integers(2, 5))
    lam = HazardVector(tuple(rng.uniform(0.2, 5.0, n).tolist()))
    theta = HazardVector(tuple(rng.uniform(0.2, 5.0, n).tolist()))
    a, b = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 1.0))
    return survival(theta) - survival(lam).shift_scale(a, b)


def random_sum(rng: np.random.Generator):
    """Nonzero canonical sum: up to 6 terms, rates in (0.01, 10), coeffs in (-5, 5)."""
    while True:
        n = int(rng.integers(1, 7))
        rates, coeffs = rng.uniform(0.01, 10.0, n), rng.uniform(-5.0, 5.0, n)
        f = canonicalize(zip(rates.tolist(), coeffs.tolist()))
        if not f.is_zero:
            return f


def attempt(call, *args):
    try:
        return call(*args)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return exc


def digest(items) -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for item in items:
        h.update(repr(item).encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def sections():
    rng = np.random.default_rng(20261018)
    sums = [random_gap(rng) for _ in range(2500)] + [random_sum(rng) for _ in range(500)]
    yield "sign_pattern", (sign_pattern(f) for f in sums)
    blocks = (sums[i : i + BLOCK] for i in range(0, len(sums), BLOCK))
    yield "sign_patterns_unrefined", (p for fs in blocks for p in sign_patterns(fs, refine=False))

    scans = [attempt(count_roots, f, lo, 10.0) for f in sums[-300:] for lo in (-5.0, 0.0)]
    yield "count_roots_decisions", (
        s if isinstance(s, Exception) else (s.count, s.certified, s.touches) for s in scans
    )
    yield "count_roots_brackets", (getattr(s, "brackets", None) for s in scans)

    def verdicts():
        for lam, theta in PAIRS:
            lam, theta = HazardVector(lam), HazardVector(theta)
            yield attempt(star_check, lam, theta)
            yield attempt(convex_check, lam, theta)
            yield attempt(violation_search, lam, theta)
            yield attempt(convex_check_at, lam, theta, *CHECK_AT)

    yield "verdicts", verdicts()

    def star_n():
        for n in range(3, 7):
            lam = HazardVector(tuple(np.linspace(2.0, 3.0, n).tolist()))
            theta = HazardVector(tuple(np.linspace(1.5, 3.5, n).tolist()))
            yield star_check_n(lam, theta)
            yield star_check_n(theta, lam)

    yield "star_check_n", star_n()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 if a section's line differs from FILE's")
    args = parser.parse_args(argv)
    stored = {}
    if args.check:
        with open(args.check) as fh:
            stored = {line.split()[0]: line.strip() for line in fh if line.strip()}
    failed = False
    for name, items in sections():
        sha, count = digest(items)
        line = f"{name} {sha} {count}"
        print(line, flush=True)
        if args.check and stored.get(name) != line:
            print(f"  {name}: stored {stored.get(name)!r}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
