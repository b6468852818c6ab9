"""Parallel systems of independent exponential components.

A parallel system works while at least one component works, so its
lifetime is the maximum of the component lifetimes and its survival
function is 1 - prod_i (1 - exp(-rate_i * x)).  Expanding the product by
inclusion-exclusion expresses everything (survival, density, failure
rate) as an :class:`~transform_orders.expsum.ExpSum`, the exact working
representation used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expsum import ExpSum, canonicalize

MAX_COMPONENTS = 20  # inclusion-exclusion yields 2^n - 1 terms
RATE_RTOL = 1e-12  # relative tolerance at which two rates, or two rate totals, agree
BISECT_STEPS = 120  # most bisection steps of a quantile
BISECT_POINTS = 128  # points one bisection call may evaluate, over all pending quantiles


class SurvivalUnderflow(ArithmeticError):
    """Survival underflowed to zero; eval further right is meaningless."""

    def __init__(self, message: str, max_safe_x: float):
        super().__init__(message)
        self.max_safe_x = max_safe_x


@dataclass(frozen=True)
class HazardVector:
    """Sorted positive hazard rates of a parallel system's components."""

    rates: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(sorted(float(r) for r in self.rates))
        if not rates:
            raise ValueError("a system needs at least one component")
        for r in rates:
            if not (r > 0.0) or not math.isfinite(r):
                raise ValueError(f"hazard rates must be positive and finite, got {r}")
        object.__setattr__(self, "rates", rates)

    @property
    def n(self) -> int:
        return len(self.rates)

    def scaled(self, k: float) -> "HazardVector":
        if not (k > 0.0):
            raise ValueError("scale factor must be positive")
        return HazardVector(tuple(r * k for r in self.rates))

    def close_to(self, other: "HazardVector") -> bool:
        if self.n != other.n:
            return False
        return all(
            abs(a - b) <= RATE_RTOL * max(a, b)
            for a, b in zip(self.rates, other.rates)
        )


def survival(h: HazardVector) -> ExpSum:
    """Survival function of the system lifetime max_i T_i.

    Inclusion-exclusion over nonempty component subsets S:
    sum_S (-1)^(|S|+1) exp(-(sum_{i in S} rate_i) x).  Subset rate sums
    that collide (e.g. rates 1,2,3) are merged, and exact cancellations
    drop out, during canonicalization.
    """
    if h.n > MAX_COMPONENTS:
        raise ValueError(
            f"n={h.n} gives 2^n - 1 = {2**h.n - 1} terms; capped at n={MAX_COMPONENTS}"
        )
    sums = np.zeros(1)
    signs = np.ones(1)  # (-1)^|S| over subsets built so far
    for r in h.rates:
        sums = np.concatenate([sums, sums + r])
        signs = np.concatenate([signs, -signs])
    # Skip the empty subset (index 0); coefficient is (-1)^(|S|+1) = -(-1)^|S|.
    return canonicalize(zip(sums[1:].tolist(), (-signs[1:]).tolist()))


def density(h: HazardVector) -> ExpSum:
    """Lifetime density: -d/dx of the survival function."""
    return -survival(h).derivative()


def failure_rate(h: HazardVector, x: float) -> float:
    """Instantaneous failure rate density(x) / survival(x), for x > 0."""
    if not (x > 0.0):
        raise ValueError(f"failure rate needs x > 0, got {x}")
    surv = survival(h)
    denom = surv.eval(x)
    if denom <= 0.0:
        max_safe = 700.0 / h.rates[0]
        raise SurvivalUnderflow(
            f"survival underflowed at x={x}; largest safe x is about {max_safe:.6g}",
            max_safe,
        )
    return density(h).eval(x) / denom


def _check_survival_form(f: ExpSum) -> None:
    if f.is_zero or abs(f.eval(0.0) - 1.0) > 1e-9:
        raise ValueError("not a survival ExpSum: f(0) must be 1")
    if f.asymptotic_sign() <= 0 or f.rates[0] <= 0.0:
        raise ValueError("not a survival ExpSum: tail must decay to 0 from above")


def inverse_survival(f: ExpSum, u: float) -> float:
    """x with f(x) = u for a survival-form ExpSum (f(0)=1, decreasing to 0).

    A one-element :func:`inverse_survival_many`.
    """
    return float(inverse_survival_many(f, np.array([u]))[0])


def inverse_survival_many(f: ExpSum, u: np.ndarray) -> np.ndarray:
    """x with f(x) = u for each tail level u in (0, 1] of a survival-form
    ExpSum (f(0)=1, decreasing to 0).

    Bracketing by doubling followed by bisection to machine width, so the
    residual |f(x) - u| is far below 1e-13 for any u in (0, 1].

    Each bisection call evaluates as many levels of the pending
    quantiles' midpoint trees as fit in BISECT_POINTS points, at least
    one: seven for one quantile, one for a 2000-point oracle (see
    :func:`_bisect_levels`).  Every value of ``eval_many`` depends on its
    own point only, so lo and hi are those of one level per call.
    """
    _check_survival_form(f)
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("all tail levels must lie in (0, 1]")
    lo = np.zeros_like(u)
    hi = np.where(u < 1.0, 1.0 / f.rates[0], 0.0)  # level 1 is x = 0
    for _ in range(200):
        too_high = (f.eval_many(hi) >= u) & (hi > 0.0)
        if not too_high.any():
            break
        hi[too_high] *= 2.0
    else:
        raise ValueError("failed to bracket all quantiles by doubling")
    steps = 0
    while steps < BISECT_STEPS:
        mid = 0.5 * (lo + hi)
        step = (lo < mid) & (mid < hi)  # brackets still wider than one ulp
        pending = np.count_nonzero(step)
        if not pending:
            break
        depth = min(BISECT_STEPS - steps, max(1, int(math.log2(BISECT_POINTS // pending + 1))))
        if depth > 1:
            at = np.flatnonzero(step)
            lo[at], hi[at] = _bisect_levels(f, u[at], lo[at], hi[at], depth)
        else:
            above = f.eval_many(mid) > u
            lo = np.where(step & above, mid, lo)
            hi = np.where(step & ~above, mid, hi)
        steps += depth
    return 0.5 * (lo + hi)


def _bisect_levels(f: ExpSum, u, lo, hi, depth: int):
    """``depth`` bisection steps of the brackets [lo, hi] of f = u from one
    ``eval_many`` call over every midpoint those steps can reach: level k
    of a bracket's tree holds the 2^k midpoints of the intervals its first
    k steps can leave, node i's children being 2i (left) and 2i + 1.  The
    values then pick each bracket's path, as one step at a time would; a
    midpoint not strictly inside its interval ends the bracket's steps, as
    it would leave the bracket there for good."""
    u, lo, hi = u.tolist(), lo.tolist(), hi.tolist()
    mids, starts = [], []  # every midpoint; per bracket, the index of each level's first
    for a, b in zip(lo, hi):
        level, first = [(a, b)], []
        for _ in range(depth):
            first.append(len(mids))
            mids += [0.5 * (a + b) for a, b in level]
            level = [iv for (a, b), m in zip(level, mids[first[-1]:]) for iv in ((a, m), (m, b))]
        starts.append(first)
    values = f.eval_many(np.array(mids)).tolist()
    for k, first in enumerate(starts):
        node = 0
        for start in first:
            m = mids[start + node]
            if not lo[k] < m < hi[k]:
                break
            if values[start + node] > u[k]:
                lo[k], node = m, 2 * node + 1
            else:
                hi[k], node = m, 2 * node
    return lo, hi


def majorizes(lam: HazardVector, theta: HazardVector) -> bool:
    """Whether lam precedes theta in the majorization order.

    True iff every prefix sum of the (sorted ascending) lam rates
    dominates the corresponding theta prefix sum while the totals agree to
    relative RATE_RTOL; theta is then at least as spread out as lam.
    """
    if lam.n != theta.n:
        raise ValueError(f"length mismatch: {lam.n} vs {theta.n}")
    n = lam.n
    for k in range(1, n):
        if math.fsum(lam.rates[:k]) < math.fsum(theta.rates[:k]):
            return False
    tot_l = math.fsum(lam.rates)
    tot_t = math.fsum(theta.rates)
    return abs(tot_l - tot_t) <= RATE_RTOL * max(tot_l, tot_t)
