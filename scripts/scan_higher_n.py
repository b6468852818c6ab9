#!/usr/bin/env python3
"""Numerical star-order scans for systems with more than two components.

For n > 2 no analytic criterion is known, so this experiment samples
random majorized n-component hazard vectors and scans each pair for a
certified star-order violation.  The scan has never produced one, which
is consistent with (but does not prove) the conjectured ordering.

Usage:
    python scripts/scan_higher_n.py --n 3 --pairs 25 --seed 0
"""

import argparse
import sys

import numpy as np

from transform_orders import HazardVector, Status, star_check


def random_majorized(rng, n, scale=2.0):
    """theta spreads the lam rates further from their common mean."""
    mean = rng.uniform(0.5, 2.0) * scale
    lam_spread = np.sort(rng.uniform(-0.4, 0.4, n) * mean)
    theta_spread = np.sort(lam_spread * rng.uniform(1.0, 2.0))
    lam_spread -= lam_spread.mean()
    theta_spread -= theta_spread.mean()
    if np.max(np.abs(theta_spread)) >= 0.95 * mean:
        return random_majorized(rng, n, scale)
    lam = HazardVector(tuple(mean + lam_spread))
    theta = HazardVector(tuple(mean + theta_spread))
    # Prefix sums: growing the centred spread can break majorization for
    # middle prefixes, so reject and resample when it does.
    for k in range(1, n):
        if sum(lam.rates[:k]) < sum(theta.rates[:k]) - 1e-12:
            return random_majorized(rng, n, scale)
    return lam, theta


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    fails = 0
    for i in range(args.pairs):
        lam, theta = random_majorized(rng, args.n)
        verdict = star_check(lam, theta)
        tag = verdict.status.value
        if verdict.status is Status.FAILS:
            fails += 1
            w = verdict.witness
            print(f"[{i:03d}] {tag}  lam={lam.rates} theta={theta.rates} "
                  f"a={w.a:.6g} pattern={w.pattern.text()}")
        else:
            print(f"[{i:03d}] {tag}  lam={tuple(round(r, 4) for r in lam.rates)} "
                  f"theta={tuple(round(r, 4) for r in theta.rates)}")
    print(f"\n{args.pairs} majorized pairs at n={args.n}: {fails} violations found"
          + ("" if fails else " (consistent with the conjectured ordering)"))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
