"""Seeded input generators and operations of the benchmark.

Every workload is a list of operations built from ``--seed`` alone; one
operation is one public verdict or map call of ``transform_orders``.  The
list is stratified: the seed only jitters values inside fixed strata, so
the mix of pair shapes (and hence of code paths) is the same for every
seed and runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Classic pair from the paper, used for the warm-up op.
CLASSIC = ((2.0, 3.0), (1.5, 3.5))

SIGN_MAP_RESOLUTION = 201
ORACLE_POINTS = 2000


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``kind`` names the public function called."""

    kind: str  # star_check, convex_check, star_check_n, sign_map, *_oracle
    group: str  # stratum label; the truth tables key on it
    lam: tuple[float, ...]
    theta: tuple[float, ...]
    b: float = 0.0  # sign_map shift
    a_range: tuple[float, float] = (0.0, 0.0)  # sign_map scale window
    x_max: float = 0.0  # sign_map / oracle abscissa window

    def inputs(self) -> dict:
        out = {"op": self.kind, "group": self.group, "lam": self.lam, "theta": self.theta}
        if self.kind == "sign_map":
            out.update(b=self.b, a_range=self.a_range, x_max=self.x_max,
                       resolution=SIGN_MAP_RESOLUTION)
        elif self.kind.endswith("_oracle"):
            out.update(x_max=self.x_max, points=ORACLE_POINTS)
        return out


def _log_strata(rng, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from the middle fifth of each of ``count`` equal
    log-width bins of [lo, hi].

    Keeping draws near the bin centres keeps op costs and verdicts close
    across seeds, so that runs with different seeds measure the same work.
    """
    edges = np.linspace(np.log10(lo), np.log10(hi), count + 1)
    return [float(10.0 ** rng.uniform(0.6 * a + 0.4 * b, 0.4 * a + 0.6 * b))
            for a, b in zip(edges, edges[1:])]


def _pair_n2(mid: float, theta_spread: float, ratio: float):
    """lam majorized below theta: both centred on ``mid``, theta half-width
    ``theta_spread * mid``, lam half-width ``ratio`` times that.  The
    violating strip theta1/lam2 < a < theta1/lam1 narrows with ``ratio``
    and is empty for ratio 0 (homogeneous base)."""
    d_theta = theta_spread * mid
    d_lam = ratio * d_theta
    return (mid - d_lam, mid + d_lam), (mid - d_theta, mid + d_theta)


def _strict_pairs(rng, count: int, ratio_range, spread_range):
    # Ratio and spread bins are paired in opposite orders, so the pairs
    # cover the range of both without tying the widest of one to the
    # widest of the other.
    ratios = _log_strata(rng, *ratio_range, count)
    spreads = _log_strata(rng, *spread_range, count)[::-1]
    mids = rng.uniform(0.5, 5.0, count).tolist()
    return [_pair_n2(m, s, r) for m, s, r in zip(mids, spreads, ratios)]


# Strip-width strata of strictly heterogeneous majorized pairs.  Wide
# strips (ratio >= 0.45 with theta spread >= 0.35) are where the violation
# search certifies the paper's FAILS; narrow strips (ratio 1e-4 .. 0.1,
# three decades) are where it ends INCONCLUSIVE today.
WIDE = ((0.45, 0.95), (0.35, 0.9))
NARROW = ((1e-4, 0.1), (0.05, 0.9))
# Reversed, these pairs give a certified star FAILS on the a-grid today;
# a theta spread near 0.9 or a ratio near 1 can leave it INCONCLUSIVE.
REVERSIBLE = ((0.01, 0.5), (0.1, 0.6))


def _random_majorized_n(rng, n, scale=2.0, factor=(1.0, 2.0), min_width=0.0):
    """theta spreads the lam rates further from their common mean.

    Same construction (and rejection rule) as ``scripts/scan_higher_n.py``;
    ``factor`` is the range of the spread multiplier, and draws whose lam
    rates span less than ``min_width`` times the mean are rejected too.
    """
    while True:
        mean = rng.uniform(0.5, 2.0) * scale
        lam_spread = np.sort(rng.uniform(-0.4, 0.4, n) * mean)
        theta_spread = np.sort(lam_spread * rng.uniform(*factor))
        lam_spread -= lam_spread.mean()
        theta_spread -= theta_spread.mean()
        if np.max(np.abs(theta_spread)) >= 0.95 * mean:
            continue
        if lam_spread[-1] - lam_spread[0] < min_width * mean:
            continue
        lam = np.sort(mean + lam_spread)
        theta = np.sort(mean + theta_spread)
        if all(lam[:k].sum() >= theta[:k].sum() - 1e-12 for k in range(1, n)):
            return tuple(lam.tolist()), tuple(theta.tolist())


def _verdict_pair_ops(group, lam, theta):
    return [Op("star_check", group, lam, theta), Op("convex_check", group, lam, theta)]


def majorized_n2(rng) -> list[Op]:
    # 22 pairs: 6 wide-strip, 12 narrow-strip, 4 with a homogeneous base.
    pairs = [("wide", p) for p in _strict_pairs(rng, 6, *WIDE)]
    pairs += [("narrow", p) for p in _strict_pairs(rng, 12, *NARROW)]
    pairs += [("homogeneous", _pair_n2(float(rng.uniform(0.5, 5.0)), s, 0.0))
              for s in _log_strata(rng, 0.05, 0.9, 4)]
    return [op for group, p in pairs for op in _verdict_pair_ops(group, *p)]


def unordered_n2(rng) -> list[Op]:
    # 3 reversed majorized pairs (star and convex check), interleaved with
    # 3 narrow-strip majorized pairs whose theta is rescaled by a factor in
    # [1.25, 3] or its reciprocal range (convex check, which runs the star
    # check's a-grid scan first).
    ops = []
    factors = _log_strata(rng, 1.25, 3.0, 3)
    factors[1] = 1.0 / factors[1]
    pairs = zip(_strict_pairs(rng, 3, *REVERSIBLE), _strict_pairs(rng, 3, *NARROW), factors)
    for (lam, theta), (lam2, theta2), k in pairs:
        ops += _verdict_pair_ops("reversed", theta, lam)
        ops.append(Op("convex_check", "rescaled", lam2, tuple(k * t for t in theta2)))
    return ops


def higher_n(rng) -> list[Op]:
    # Nine majorized pairs with n = 3..6 (five at n = 4, so the median op
    # is the middle of five draws from one cost cluster), plus reversed
    # n = 3, 4 pairs, so that the FAILS path of the scan is exercised too.
    # A reversed pair whose rates nearly coincide ends INCONCLUSIVE, so
    # those pairs have a spread multiplier of at least 1.5 and rates
    # spanning at least 0.3 of the mean.
    ops = [Op("star_check_n", "majorized", *_random_majorized_n(rng, n))
           for n in (3, 4, 5, 6, 4, 4, 5, 4, 4)]
    for n in (3, 4):
        lam, theta = _random_majorized_n(rng, n, factor=(1.5, 2.0), min_width=0.3)
        ops.append(Op("star_check_n", "reversed", theta, lam))
    return ops


def dense_grid(rng) -> list[Op]:
    # Six pairs, three per strip stratum; one sign map and both oracles each.
    ops = []
    for lam, theta in _strict_pairs(rng, 3, *WIDE) + _strict_pairs(rng, 3, *NARROW):
        t1, t2 = theta
        l1, l2 = lam
        ops.append(Op("sign_map", "strict", lam, theta, b=0.0625 / (t1 + t2),
                      a_range=(t1 / (2.0 * l2), 1.0), x_max=20.0 / t1))
        ops.append(Op("star_ratio_oracle", "strict", lam, theta, x_max=10.0 / l1))
        ops.append(Op("convexity_oracle", "strict", lam, theta, x_max=10.0 / l1))
    return ops


GENERATORS = {
    "majorized-n2": majorized_n2,
    "unordered-n2": unordered_n2,
    "higher-n": higher_n,
    "dense-grid": dense_grid,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Op]:
    return GENERATORS[workload](np.random.default_rng(seed))


def warmup_op(workload: str) -> Op:
    """A fixed op of the workload's kinds, run untimed before the loop."""
    lam, theta = CLASSIC
    if workload == "higher-n":
        return Op("star_check_n", "majorized", (2.0, 2.5, 3.0), (1.5, 2.5, 3.5))
    if workload == "dense-grid":
        return Op("sign_map", "strict", lam, theta, b=0.0125,
                  a_range=(0.25, 1.0), x_max=20.0 / 1.5)
    return Op("convex_check", "strict", lam, theta)


# -- calling the library --------------------------------------------------


def run_op(lib, op: Op):
    """Call the public function named by ``op.kind`` on ``lib`` (looked up
    at call time, so a tracer's patched names are seen)."""
    lam, theta = lib.HazardVector(op.lam), lib.HazardVector(op.theta)
    fn = getattr(lib, op.kind)
    if op.kind == "sign_map":
        return fn(lam, theta, op.b, op.a_range, (0.0, op.x_max), SIGN_MAP_RESOLUTION)
    if op.kind == "star_ratio_oracle":
        grid = np.linspace(op.x_max / ORACLE_POINTS, op.x_max, ORACLE_POINTS)
        return fn(lam, theta, grid)
    if op.kind == "convexity_oracle":
        return fn(lam, theta, np.linspace(0.0, op.x_max, ORACLE_POINTS))
    return fn(lam, theta)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def record(op: Op, result) -> dict:
    """JSON-ready record of one op's output (floats keep every digit)."""
    rec = op.inputs()
    if op.kind == "sign_map":
        flat = [s for row in result.signs for s in row]
        rec.update(rows=len(result.signs), cells=len(flat),
                   certain=sum(1 for s in flat if s != 0),
                   plus=flat.count(1), minus=flat.count(-1),
                   signs_sha256=_sha([result.a_values, result.x_values, result.signs]))
    elif op.kind.endswith("_oracle"):
        bad = result.monotone_violations or result.convexity_violations
        rec.update(clean=result.clean, violations=len(bad),
                   first_violation=list(bad[0]) if bad else None,
                   values_sha256=_sha(result.values))
    else:
        w = result.witness
        rec.update(status=result.status.value, certificate=result.certificate,
                   witness=None if w is None else {
                       "a": w.a, "b": w.b, "pattern": w.pattern.text(),
                       "regions": [[r.sign, r.x, r.value, r.certain]
                                   for r in w.pattern.regions]})
    return rec


def conclusive(rec: dict) -> tuple[int, int]:
    """(conclusive, attempted) units of one record: verdicts, or map cells."""
    if rec["op"] == "sign_map":
        return rec["certain"], rec["cells"]
    if "status" in rec:
        return int(rec["status"] in ("HOLDS", "FAILS")), 1
    return 0, 0


def digest(records: list[dict]) -> str:
    return _sha(records)
