"""Parallel systems of independent exponential components.

A parallel system works while at least one component works, so its
lifetime is the maximum of the component lifetimes and its survival
function is 1 - prod_i (1 - exp(-rate_i * x)).  Expanding the product by
inclusion-exclusion expresses the survival function as an
:class:`~transform_orders.expsum.ExpSum`, the exact working representation
used throughout; the density and the failure rate are taken from the
product form, which does not cancel near 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expsum import ExpSum, bisect_brackets, canonicalize

MAX_COMPONENTS = 20  # inclusion-exclusion yields 2^n - 1 terms
RATE_RTOL = 1e-12  # relative tolerance at which two rates, or two rate totals, agree
BISECT_STEPS = 120  # most bisection steps of a quantile
# Points that the first bisection round of the pending quantiles may
# evaluate for the intervals their next steps can reach, all of them
# together; more are planned on each one's path toward its predicted root.
BISECT_POINTS = 128


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
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which canonicalize rejects
        for r in h.rates:
            sums = np.concatenate([sums, sums + r])
            signs = np.concatenate([signs, -signs])
    # Skip the empty subset (index 0); coefficient is (-1)^(|S|+1) = -(-1)^|S|.
    return canonicalize(zip(sums[1:].tolist(), (-signs[1:]).tolist()))


def failure_rate(h: HazardVector, x: float) -> float:
    """Instantaneous failure rate density(x) / survival(x), for x > 0."""
    if not (x > 0.0):
        raise ValueError(f"failure rate needs x > 0, got {x}")
    dens, surv = density_and_survival(h, x)
    if surv <= 0.0:
        max_safe = 700.0 / h.rates[0]
        raise SurvivalUnderflow(
            f"survival underflowed at x={x}; largest safe x is about {max_safe:.6g}",
            max_safe,
        )
    return dens / surv


def density_and_survival(h: HazardVector, t: float) -> tuple[float, float]:
    """The density f(t) and survival S(t) of the system at t >= 0 from the
    product form, with q_i = exp(-rate_i t), 1 - q_i = -expm1(-rate_i t)
    and rates ascending: f = sum_i rate_i q_i prod_{j != i} (1 - q_j) and
    S = sum_i q_i prod_{j < i} (1 - q_j).  Every term is nonnegative, so
    neither cancels near 0, where the coefficient form does."""
    q = [math.exp(-r * t) for r in h.rates]
    p = [-math.expm1(-r * t) for r in h.rates]  # 1 - q
    dens = math.fsum(r * qi * math.prod(p[:i] + p[i + 1:])
                     for i, (r, qi) in enumerate(zip(h.rates, q)))
    return dens, math.fsum(qi * math.prod(p[:i]) for i, qi in enumerate(q))


def _check_survival_form(f: ExpSum) -> None:
    # f(0) is the sum of the coefficients, exactly rounded by fsum.
    if f.is_zero or abs(math.fsum(f.coeffs) - 1.0) > 1e-9:
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

    Bisection takes one vectorized step per ``eval_many`` call while two
    steps of every pending quantile do not fit in BISECT_POINTS points (a
    2000-point oracle), then the rounds of :func:`_bisect_rounds`.  Every
    value of ``eval_many`` depends on its own point only, so lo and hi are
    those of one step per call.  A quantile takes at most BISECT_STEPS
    steps.
    """
    _check_survival_form(f)
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("all tail levels must lie in (0, 1]")
    lo = np.zeros_like(u)
    hi = np.where(u < 1.0, 1.0 / f.rates[0], 0.0)  # level 1 is x = 0
    for _ in range(200):
        f_hi = f.eval_many(hi)
        too_high = (f_hi >= u) & (hi > 0.0)
        if not too_high.any():
            break
        hi[too_high] *= 2.0
    else:
        raise ValueError("failed to bracket all quantiles by doubling")
    levels = 0  # one step per call while two steps of every interval (3 points each) do not fit
    while levels < BISECT_STEPS:
        mid = 0.5 * (lo + hi)
        step = (lo < mid) & (mid < hi)  # brackets still wider than one ulp
        if BISECT_POINTS // max(np.count_nonzero(step), 1) >= 3:
            break
        above = f.eval_many(mid) > u
        above &= step
        lo = np.where(above, mid, lo)
        step &= ~above
        hi = np.where(step, mid, hi)
        levels += 1
    else:
        return 0.5 * (lo + hi)
    at = np.flatnonzero(step)
    if at.size:
        known = levels == 0  # f(0) = 1 and f(hi) from the doubling, until a level moves them
        f_lo = [1.0 if known else math.nan] * at.size
        f_hi = f_hi[at].tolist() if known else [math.nan] * at.size
        lo[at], hi[at] = _bisect_rounds(
            f, u[at].tolist(), lo[at].tolist(), hi[at].tolist(), f_lo, f_hi, levels
        )
    return 0.5 * (lo + hi)


def _quantile_guess(u: float, a: float, b: float, f_a: float, f_b: float) -> float:
    """The predicted root of f = u in [a, b] from f_a = f(a) and f_b = f(b):
    the secant of log f against x in the tail (u <= 1/2), where f is about
    c e^(-r x), and of log(1 - f) against log x near 0, where 1 - f is
    about c x^p; at a = 0, 1 - f is taken proportional to x.  nan where
    that is not strictly inside (a, b): where the values are unknown, or
    f(b) = 0, or f(a) = 1 at a > 0."""
    try:
        if u <= 0.5:
            log_a = math.log(f_a)
            guess = a + (b - a) * (log_a - math.log(u)) / (log_a - math.log(f_b))
        elif a > 0.0:
            gap_a, log_a = math.log1p(-f_a), math.log(a)
            t = (math.log1p(-u) - gap_a) / (math.log1p(-f_b) - gap_a)
            guess = math.exp(log_a + t * (math.log(b) - log_a))
        else:
            guess = b * math.exp(math.log1p(-u) - math.log1p(-f_b))
    except (ValueError, ZeroDivisionError, OverflowError):  # a log of 0, or equal ends
        return math.nan
    return guess if a < guess < b else math.nan


def _bisect_rounds(f: ExpSum, u: list, lo: list, hi: list, f_lo: list, f_hi: list, levels: int):
    """Bisect the brackets [lo, hi] of f = u to machine width after
    ``levels`` steps taken, each round of
    :func:`~transform_orders.expsum.bisect_brackets` from one ``eval_many``
    call, toward the predicted root (:func:`_quantile_guess`); f_lo and
    f_hi are f at the ends (nan where unknown).  Returns lo and hi.  A
    bracket's first round plans as many levels as fit in BISECT_POINTS
    points over the brackets in the round: seven for one quantile."""
    rounds = bisect_brackets(
        lo, hi, (f_lo, f_hi), _half,
        lambda k: _quantile_guess(u[k], lo[k], hi[k], f_lo[k], f_hi[k]),
        lambda active: max(1, int(math.log2(BISECT_POINTS // active + 1))), BISECT_STEPS,
        lambda values: (lambda k, i: values[i] > u[k], values), levels,
    )
    try:
        mids = next(rounds)
        while True:
            mids = rounds.send(f.eval_many(mids).tolist())
    except StopIteration:
        return lo, hi


def _half(a: float, b: float) -> float | None:
    """The midpoint of quantile bisection, or None where it is not
    strictly inside [a, b]."""
    mid = 0.5 * (a + b)
    return mid if a < mid < b else None


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
