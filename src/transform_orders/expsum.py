"""Finite sums of decaying exponentials and rigorous sign analysis.

The central value type is :class:`ExpSum`, a canonical representation of

    f(x) = sum_i  c_i * exp(-r_i * x)

with strictly increasing nonnegative rates ``r_i`` and nonzero
coefficients ``c_i``.  Survival functions of parallel systems of
exponential components, their densities, and differences of shifted and
scaled survival functions all live in this class, which is closed under
every operation needed here (derivative, substitution x -> a*x + b,
linear combination).

Sign analysis rests on a Descartes-style zero bound: a sum whose
coefficient sequence, ordered by ascending rate, has k sign changes has at
most k real zeros.  Combined with exact derivative information at 0
(coefficient sums) and the analytic sign at +/-infinity (extreme-rate
coefficients), grid scans can *certify* sign patterns instead of merely
observing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import zip_longest
from typing import Iterable, NamedTuple, Sequence

import numpy as np

_EPS = 2.220446049250313e-16  # float64 machine epsilon
_BLOCK = 1 << 14  # most (term, point) pairs one evaluation holds in memory
# Fewest points a block holds while that is at most _WIDE_BLOCK pairs: a
# sum wider than _BLOCK would otherwise go one point at a time, through a
# Python loop over all of its terms at every point.
_MIN_POINTS, _WIDE_BLOCK = 16, 1 << 20

DEFAULT_MERGE_TOL = 1e-12  # relative tolerance for duplicate-rate merging

# Sign-scan and root-isolation budgets.
BASE_POINTS = 256  # initial grid points
DIP_PASSES = 3  # passes that halve |f| valleys and uncertain gaps, outside the end bands
MAX_REFINEMENTS = 80  # bisection steps per sign flip
# Bisection steps whose every reachable interval a round plans for a flip
# bracket, and for a quantile after its first round, before the intervals
# on the path toward the predicted root; at 1, one flip step a call and no
# such path.
BISECT_LEVELS = 4
X_RTOL = 1e-10  # relative bracket width at which bisection stops
ZERO_TOL = 1e-12  # relative threshold for a nonzero derivative sum at 0


class RootScanInconclusive(RuntimeError):
    """Root isolation failed to converge; carries the brackets found so far."""

    def __init__(self, message: str, brackets: Sequence[tuple[float, float]]):
        super().__init__(message)
        self.brackets = tuple(brackets)


@dataclass(frozen=True)
class ExpSum:
    """Canonical sum of decaying exponentials sum_i coeffs[i]*exp(-rates[i]*x).

    Invariants (enforced at construction): rates strictly increasing and
    nonnegative, all coefficients nonzero, equal lengths.  The empty sum is
    the zero function.  Build instances through :func:`canonicalize`, which
    merges near-duplicate rates and drops negligible coefficients.
    """

    rates: tuple[float, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.rates) != len(self.coeffs):
            raise ValueError("rates and coeffs must have equal length")
        prev = -math.inf
        for r in self.rates:
            if r < 0.0 or not math.isfinite(r):
                raise ValueError(f"rates must be finite and nonnegative, got {r}")
            if r <= prev:
                raise ValueError("rates must be strictly increasing")
            prev = r
        for c in self.coeffs:
            if c == 0.0 or not math.isfinite(c):
                raise ValueError(f"coefficients must be finite and nonzero, got {c}")

    # -- basic structure ------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.rates)

    @property
    def is_zero(self) -> bool:
        return not self.rates

    def terms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.rates, self.coeffs))

    # -- evaluation -----------------------------------------------------

    def _scaled_many(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate a 1-D array xs as (s, m, err): the one-row case of
        :func:`scaled_rows`."""
        return scaled_rows([self], [xs])

    def eval(self, x: float) -> float:
        """Value at x, computed with compensated (Kahan) summation."""
        (s,), (m,), _ = self._scaled_many([x])
        return _unscale(float(s), float(m))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Values on a grid of x >= 0 (compensated across terms), certifying nothing.

        For x >= 0 no term exceeds |c_i|, so this unscaled form cannot
        overflow; x < 0 is outside its domain.  Bulk value paths (oracles,
        quantiles, Monte Carlo) use it because it makes no scaling and no
        bound.

        Every value is that of the plain Kahan loop over the terms (the
        reference in ``tests/test_expsum.py``), bit for bit, for any input,
        without its dead passes: that loop starts from s = comp = +0, so
        its first term gives s = y + 0.0 and comp = s - y, and its last
        term's compensation is never read.  The terms go through one
        reused buffer.  A 3-term survival at 2000 points takes 22.7 us,
        against 33.9 us for the plain loop (best of 7 repeats on a 2-CPU
        machine).
        """
        xs = np.asarray(xs, dtype=float)
        if self.is_zero:
            return np.zeros_like(xs)
        y, s, tot, comp = (np.empty_like(xs) for _ in range(4))
        last = self.n_terms - 1
        for i, (r, c) in enumerate(zip(self.rates, self.coeffs)):
            np.exp(np.multiply(xs, -r, out=y), out=y)
            y *= c
            if i == 0:
                np.add(y, 0.0, out=s)
                if last:
                    np.subtract(s, y, out=comp)
                continue
            y -= comp
            np.add(s, y, out=tot)
            if i < last:
                np.subtract(tot, s, out=comp)
                comp -= y
            s, tot = tot, s
        return s

    # -- algebra ----------------------------------------------------------

    def derivative(self) -> "ExpSum":
        """Term-wise d/dx: (r, c) -> (r, -c*r); rate-0 terms vanish."""
        return canonicalize(
            [(r, -c * r) for r, c in zip(self.rates, self.coeffs)], tol=0.0
        )

    def shift_scale(self, a: float, b: float = 0.0) -> "ExpSum":
        """The sum g with g(x) = f(a*x + b), for a > 0 and b >= 0.

        Term-wise (r, c) -> (r*a, c*exp(-r*b)).
        """
        return canonicalize(self._shifted_terms(a, b))

    def _shifted_terms(self, a: float, b: float) -> list[tuple[float, float]]:
        """The terms of :meth:`shift_scale` before canonicalization."""
        if not (a > 0.0):
            raise ValueError(f"scale factor a must be positive, got {a}")
        if not (0.0 <= b < math.inf):
            raise ValueError(f"shift b must be finite and nonnegative, got {b}")
        return [(r * a, c * math.exp(-r * b)) for r, c in zip(self.rates, self.coeffs)]

    def minus_shift_scale(self, other: "ExpSum", a: float, b: float = 0.0) -> "ExpSum":
        """The sum g with g(x) = self(x) - other(a*x + b), from one
        canonicalization of self's terms and the negated, shifted terms of
        other, so no shifted term is merged or dropped before it meets a
        term of self at the same rate."""
        return canonicalize([*self.terms(), *((r, -c) for r, c in other._shifted_terms(a, b))])

    def __sub__(self, other: "ExpSum") -> "ExpSum":
        return canonicalize(list(self.terms()) + [(r, -c) for r, c in other.terms()])

    # -- exact structure ---------------------------------------------------

    def sign_change_bound(self) -> int:
        """Sign changes in the coefficient sequence by ascending rate.

        Ascending rate is descending base exp(-r), so this is the zero bound:
        the sum has at most this many real zeros (none for a single term).
        """
        changes = 0
        for c0, c1 in zip(self.coeffs, self.coeffs[1:]):
            if (c0 > 0) != (c1 > 0):
                changes += 1
        return changes

    def prefix_sign_changes(self) -> int:
        """Sign changes of the exact prefix sums c_0, c_0 + c_1, ..., f(0)
        by ascending rate, zeros skipped: a bound on the zeros in (0, inf)
        (see :func:`possible_signs`).

        The one-row case of :func:`prefix_sign_changes_rows`.
        """
        return int(prefix_sign_changes_rows(np.array([self.coeffs], dtype=float))[0])

    def zero_bound(self) -> int:
        """A bound on the zeros in (0, inf), at most
        :meth:`prefix_sign_changes` (see :func:`possible_signs`).

        The one-row case of :func:`zero_bound_rows`.
        """
        rates, coeffs = (np.array(v, dtype=float).reshape(1, -1) for v in (self.rates, self.coeffs))
        return int(zero_bound_rows(rates, coeffs)[0])

    def asymptotic_sign(self) -> int:
        """Sign of f as x -> +infinity: the smallest-rate coefficient (0 if zero sum)."""
        if self.is_zero:
            return 0
        return 1 if self.coeffs[0] > 0 else -1

    def sign_at_minus_inf(self) -> int:
        """Sign of f as x -> -infinity: the largest-rate coefficient."""
        if self.is_zero:
            return 0
        return 1 if self.coeffs[-1] > 0 else -1

    def derivative_sum(self, order: int) -> float:
        """f^(order)(0) computed exactly as the coefficient sum sum_i c_i*(-r_i)^order."""
        return math.fsum(c * (-r) ** order for r, c in zip(self.rates, self.coeffs))

    def sign_at_zero(self) -> tuple[int, int]:
        """Sign of f just right of 0 and the multiplicity of a root at 0.

        Probes f(0), f'(0), f''(0), ... as exact coefficient sums until one
        is resolvably nonzero (ZERO_TOL relative to sum_i |c_i| r_i^k); for a nonzero
        canonical sum with n terms one of the first n is, by linear
        independence of the exponentials.  Returns (sign, k) where k is the
        first nonvanishing order, i.e. the multiplicity of the zero at 0.
        Computed once per sum.
        """
        return self._sign_at_zero

    @cached_property
    def _sign_at_zero(self) -> tuple[int, int]:
        if self.is_zero:
            return 0, 0
        max_order = max(4, self.n_terms)
        for k in range(max_order):
            # (-r)**k is exactly +/- r**k, so each |product| is |c| * r**k.
            try:
                prods = [c * (-r) ** k for r, c in zip(self.rates, self.coeffs)]
                scale = math.fsum(map(abs, prods))
            except OverflowError:
                scale = math.inf
            if scale == math.inf:
                # The same sums over r / r_max: a positive common factor
                # changes neither the sign of d nor the relative test.
                top = self.rates[-1]
                prods = [c * (-r / top) ** k for r, c in zip(self.rates, self.coeffs)]
                scale = math.fsum(map(abs, prods))
            d = math.fsum(prods)
            if abs(d) > ZERO_TOL * max(scale, 1e-300):
                return (1 if d > 0 else -1), k
        return 0, max_order

    def dominance_point(self) -> float:
        """x beyond which the smallest-rate term provably dominates the
        rest.  Computed once per sum."""
        return self._dominance_point

    @cached_property
    def _dominance_point(self) -> float:
        if self.n_terms <= 1:
            return 1.0
        r0, c0 = self.rates[0], self.coeffs[0]
        n = self.n_terms
        worst = 0.0
        for r, c in zip(self.rates[1:], self.coeffs[1:]):
            worst = max(worst, math.log((n - 1) * abs(c) / abs(c0)) / (r - r0))
        return max(worst, 0.0)


class SumBlock:
    """A list of sums that a scan evaluates together, with the certified
    evaluator that serves them: :meth:`evaluate` gives (s, m, err) as
    :func:`scaled_rows` does, and :meth:`take` a subset in the same form.
    A plain sequence of sums is laid out as :class:`_PaddedSums`; the
    gaps of one pair of systems with three or more components come as
    ``product.ProductGaps``.  A block that is only evaluated, such as the
    rows of a sign map, may hold no sums: ``fs`` is then empty."""

    def __init__(self, fs: Iterable[ExpSum]):
        self.fs = list(fs)

    def __len__(self) -> int:
        return len(self.fs)

    def __iter__(self):
        return iter(self.fs)

    def take(self, ks: Sequence[int]) -> "SumBlock":
        """The sums fs[k] for k in ks, in that order, in this form."""
        raise NotImplementedError

    def evaluate(self, xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, m, err) of each sum fs[k] at its own points xss[k], the
        rows concatenated in order."""
        raise NotImplementedError


def _block(fs: Sequence[ExpSum] | SumBlock) -> SumBlock:
    return fs if isinstance(fs, SumBlock) else _PaddedSums(fs)


class _PaddedSums(SumBlock):
    """A list of sums with the (terms x sums) arrays of their shared
    padded layout, built once: minus the rates and the coefficients, each
    sum padded in front, up to the largest term count, with zero
    coefficients at its own first rate (see :func:`scaled_rows`).  A scan
    block hands one to each of its evaluator calls, and a subset of the
    sums (:meth:`take`) is a column take of the arrays."""

    def __init__(self, fs: Iterable[ExpSum], neg_rates=None, coeffs=None, zero=None):
        super().__init__(fs)
        if neg_rates is None:
            n = max([1] + [f.n_terms for f in self.fs])  # the zero sum gets one padding term
            shape = len(self.fs), n
            neg_rates = -np.array(
                [(f.rates[:1] or (0.0,)) * (n - f.n_terms) + f.rates for f in self.fs], dtype=float
            ).reshape(shape).T
            coeffs = np.array(
                [(0.0,) * (n - f.n_terms) + f.coeffs for f in self.fs], dtype=float
            ).reshape(shape).T
        self.neg_rates, self.coeffs = neg_rates, coeffs
        self.zero = [k for k, f in enumerate(self.fs) if f.is_zero] if zero is None else zero

    @classmethod
    def from_rows(cls, rates: np.ndarray, coeffs: np.ndarray) -> "_PaddedSums":
        """The layout of the canonical sums in the rows of the (sums x
        terms) arrays, each already padded in front as here (zero
        coefficients at its own first rate, at rate 0 for the zero sum),
        cut to the largest term count; every term of a canonical sum has a
        nonzero coefficient.  It holds no sums (``fs`` is empty), so it
        serves :meth:`evaluate` only."""
        n = max(1, int(np.count_nonzero(coeffs, axis=1).max(initial=0)))
        zero = np.flatnonzero(~coeffs.any(axis=1)).tolist()
        return cls((), -rates[:, -n:].T, coeffs[:, -n:].T, zero)

    def take(self, ks: Sequence[int]) -> "_PaddedSums":
        return _PaddedSums(
            [self.fs[k] for k in ks], self.neg_rates[:, ks], self.coeffs[:, ks]
        )

    def evaluate(self, xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return scaled_rows(self, xss)


def scaled_rows(fs: Sequence[ExpSum], xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate each sum fs[k] on its own 1-D array xss[k], as (s, m, err)
    with the rows concatenated in order: f = s * exp(m), |rounding| <= err.

    The certified evaluator of the coefficient form: every sign decision
    rests on ``err``, here or in ``product.ProductGaps``, which evaluates
    the gaps of the verdicts and sign maps for three or more components.
    The shared exponent m = max_i(-r_i * x) (the first rate's term for
    x >= 0, the last one's for x < 0) keeps the computation free of
    overflow for any real x, so the *sign* of f stays decidable far
    beyond the range where f itself over- or underflows.  ``err`` bounds
    the rounding error of s (exp-argument rounding plus compensated
    summation), on the same scale as s.

    All rows share one (terms x points) layout: each sum is padded in
    front, up to the largest term count, with zero coefficients at its
    own first rate.  That changes no bit of any row: a padding term is
    exactly +0 (its exponent is <= 0 and its coefficient 0), so the Kahan
    sum and compensation stay +0 until the first real term and the in-order
    sums of the bound and of |terms| only add exact zeros in front,
    while m is still the first real rate's term for x >= 0 and the last
    term's for x < 0.  The zero sum is (+0, +0, +0) everywhere.  A
    :class:`_PaddedSums` brings its layout along, which a scan block builds
    once for all of its calls; any other sequence is laid out here.

    The points go in the blocks of :func:`in_blocks` (_BLOCK // terms
    points, and at least 16 for sums of up to 65,536 terms), each one
    (terms x points) array; see :func:`_scaled_block`.
    """
    sums = fs if isinstance(fs, _PaddedSums) else _PaddedSums(fs)
    block = partial(_scaled_block, sums.neg_rates, sums.coeffs)
    s, m, err = in_blocks(block, sums.neg_rates.shape[0], xss)
    if sums.zero:  # a zero sum's padding term left m = -0.0 * x
        m[np.isin(np.repeat(np.arange(len(xss)), [len(x) for x in xss]), sums.zero)] = 0.0
    return s, m, err


def in_blocks(block, width: int, xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, m, err) of each row k at its own points xss[k], the rows
    concatenated in order.  ``block(owner, xs)`` gives them at the points
    xs, point i of row owner[i], and holds ``width`` (term, point) pairs
    a point.  The points go in blocks of _BLOCK // width, but of at least
    min(_MIN_POINTS, _WIDE_BLOCK // width) and at least one, so a row
    wider than _BLOCK still shares each pass over its terms among several
    points; every point's result is independent of the others, so the
    blocks change no bit.  The one blocking loop of both certified
    evaluators, :func:`scaled_rows` and ``product.ProductGaps``."""
    sizes = [len(x) for x in xss]
    xs = np.concatenate(xss, dtype=float) if xss else np.zeros(0)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    step = max(1, _BLOCK // width, min(_MIN_POINTS, _WIDE_BLOCK // width))
    if 0 < xs.size <= step:
        return block(owner, xs)
    s, m, err = np.zeros((3, xs.size))
    for i in range(0, xs.size, step):
        part = slice(i, i + step)
        s[part], m[part], err[part] = block(owner[part], xs[part])
    return s, m, err


def _scaled_block(neg_rates, coeffs, owner, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, m, err) at the points xs of the sums (columns) owner of the
    padded (terms x sums) arrays neg_rates and coeffs, from one (terms x
    points) array summed in term order: Kahan summation for s, and
    in-order sums for the bound."""
    # Three (terms x points) arrays, reused in place to bound peak memory.
    exps = np.take(neg_rates, owner, axis=1)
    exps *= xs
    m = np.where(xs >= 0.0, exps[0], exps[-1])
    bounds = np.abs(exps)
    bounds += np.abs(m)
    bounds *= 2.0
    bounds += 4.0
    terms = np.exp(np.subtract(exps, m, out=exps), out=exps)
    terms *= np.take(coeffs, owner, axis=1)
    mags = np.abs(terms)
    bounds *= mags
    bounds *= _EPS
    err = _in_order_sum(bounds)
    err += 2.0 * _EPS * _in_order_sum(mags)
    s, tot, comp = np.zeros(xs.shape), np.empty(xs.shape), np.zeros(xs.shape)
    for t in terms:  # Kahan summation over terms, all points at once
        t -= comp
        np.add(s, t, out=tot)
        np.subtract(tot, s, out=comp)
        comp -= t
        s, tot = tot, s
    return s, m, err


def _in_order_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the outer axis, adding the rows in order.  A reduction
    over the outer axis adds whole rows for two or more points, but goes
    pairwise for one, where the last row of a cumsum is the in-order sum."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0)
    return np.cumsum(rows, axis=0)[-1]


def canonicalize(
    raw_terms: Iterable[tuple[float, float]], tol: float = DEFAULT_MERGE_TOL
) -> ExpSum:
    """Build a canonical ExpSum from (rate, coefficient) pairs.

    Terms are sorted by rate; rates closer than ``tol * max(1, rate)`` to
    their predecessor are merged by coefficient addition (inclusion-
    exclusion over subset sums routinely produces exactly equal rates that
    must cancel); merged coefficients with ``|c| <= tol`` are dropped.
    A non-finite rate or coefficient is an error, never a merged or dropped
    term: an infinite rate would pass every merge test.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    terms = sorted((float(r), float(c)) for r, c in raw_terms)
    for r, c in terms:
        if not (0.0 <= r < math.inf):
            raise ValueError(f"rates must be finite and nonnegative, got {r}")
        if not math.isfinite(c):
            raise ValueError(f"coefficients must be finite, got {c}")
    rates: list[float] = []
    groups: list[list[float]] = []
    for r, c in terms:
        if rates and r - rates[-1] <= tol * max(1.0, r):
            groups[-1].append(c)
        else:
            rates.append(r)
            groups.append([c])
    out_r: list[float] = []
    out_c: list[float] = []
    for r, cs in zip(rates, groups):
        c = math.fsum(cs)
        if abs(c) > tol or (tol == 0.0 and c != 0.0):
            out_r.append(r)
            out_c.append(c)
    return ExpSum(tuple(out_r), tuple(out_c))


def canonical_rows(rates: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of each row of the (rows x terms) arrays, sorted by
    rate, and a mask of the rows that :func:`canonicalize` keeps term for
    term at ``DEFAULT_MERGE_TOL``, the tolerance every gap is built with:
    finite nonnegative rates, none within ``tol * max(1, rate)`` of its
    predecessor, and every ``|c| > tol``.  A masked row's sorted
    coefficients are those of its canonical sum, bit for bit; any other
    row would have terms merged or dropped (or raise)."""
    tol = DEFAULT_MERGE_TOL
    order = np.argsort(rates, axis=1)
    rates = np.take_along_axis(rates, order, axis=1)
    coeffs = np.take_along_axis(coeffs, order, axis=1)
    exact = (rates[:, 0] >= 0.0) & np.isfinite(rates[:, -1]) & (np.abs(coeffs) > tol).all(axis=1)
    exact &= (np.diff(rates, axis=1) > tol * np.maximum(1.0, rates[:, 1:])).all(axis=1)
    return coeffs, exact


def prefix_sign_changes_rows(coeffs: np.ndarray) -> np.ndarray:
    """:meth:`ExpSum.prefix_sign_changes` of each row of the (rows x
    terms) array of coefficients, every row by ascending rate.

    A float running sum's sign is taken where it clears the bound
    k * eps * sum|c_i| on the rounding of its k additions, and everywhere
    in a row of integers whose magnitudes sum to less than 2^53 (every b = 0
    gap), whose running sums are exact; elsewhere the
    prefix is summed again with ``math.fsum``, whose correctly rounded
    result has the sign of the exact sum.  ``np.cumsum`` adds in order, so
    each running sum is that of a scalar loop, bit for bit.  A zero prefix
    takes the sign before it, so changes are counted between nonzero signs.
    """
    return _sign_changes(_exact_prefix_sums(coeffs))


def _exact_prefix_sums(coeffs: np.ndarray) -> np.ndarray:
    """The running sums of each row, each with the sign of the exact
    prefix sum (see :func:`prefix_sign_changes_rows`)."""
    run = np.cumsum(coeffs, axis=1)
    mags = np.cumsum(np.abs(coeffs), axis=1)
    exact = (coeffs == np.trunc(coeffs)).all(axis=1) & (mags[:, -1:] < 2.0**53).all(axis=1)
    unsure = np.nonzero((np.abs(run) <= np.arange(coeffs.shape[1]) * _EPS * mags)
                        & ~exact[:, None])
    if unsure[0].size:
        rows = coeffs.tolist()
        run[unsure] = [math.fsum(rows[i][: k + 1])
                       for i, k in zip(*(u.tolist() for u in unsure))]
    return run


def _sign_changes(run: np.ndarray) -> np.ndarray:
    """The sign changes along each row of ``run``, zeros skipped."""
    flat = run.ravel()
    at = np.flatnonzero(flat)
    signs = flat[at] > 0.0
    row = at // run.shape[1]
    changes = (signs[1:] != signs[:-1]) & (row[1:] == row[:-1])
    return np.bincount(row[1:][changes], minlength=len(run))


ROLLE_PIVOTS = 3  # the pivots of the Rolle step: the rates of the first nonzero terms


def rolle_bounds_rows(rates: np.ndarray, coeffs: np.ndarray, run: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The Rolle-step bounds of each row of the (rows x terms) arrays of
    rates and coefficients, each row a canonical sum or one padded in
    front with zero coefficients, from ``run``, their prefix sums with
    exact signs (``_exact_prefix_sums``): (rolle, unsure).  rolle
    (pivots x rows) is the bound of each row at each of the
    ``ROLLE_PIVOTS`` pivots r = the rates of its first nonzero terms (the
    last one repeated in a row with fewer), and unsure (pivots x rows x
    terms) marks the prefix sums of the derivative whose sign it left
    open (see :func:`possible_signs`).

    The bound is the sign changes of the prefix sums of the derivative's
    coefficients e_i = c_i (r - r_i), plus 1 unless the prefix sums of
    the c_i end at exactly 0.  A float running sum of the e_i has the sign
    of the exact prefix where it clears (m + 2) eps sum_i (|e_i| +
    2^-1022): twice the rounding of its m nonzero terms, each e_i rounded
    twice, and more than the 2^-1074 that a product can lose to
    underflow.  The 2^-1022 is left out for the products that are exactly
    0 (c_i = 0, or r_i = r), so a prefix whose bound is 0 is exactly 0.
    Any other prefix is unsure, and is charged the most changes it can
    add: 2 inside the row and 1 at its end.  So a bound is never below the
    exact count, and equals it where no prefix is unsure.  A row whose
    magnitudes overflow gets no bound (it is ``terms``, above Laguerre's).
    Leading zero coefficients change nothing: they add exactly 0 and no
    rounding.
    """
    rows, n = coeffs.shape
    nonzero = coeffs != 0.0
    m = np.cumsum(nonzero, axis=1)
    # The k-th nonzero term of a row with z leading zeros is term z + k.
    at = np.minimum(n - m[:, -1] + np.arange(ROLLE_PIVOTS)[:, None], n - 1)
    pivots = rates[np.arange(rows), at]
    with np.errstate(over="ignore", invalid="ignore"):
        d = pivots[:, :, None] - rates
        e = coeffs * d
        pivot_run = np.cumsum(e, axis=2)
        # (m + 2) eps 2^-1022 covers the 2^-1074 a product loses to underflow.
        mags = np.cumsum(np.abs(e) + (nonzero & (d != 0.0)) * 2.0**-1022, axis=2)
        bound = (m + 2.0) * _EPS * mags
    sure = np.abs(pivot_run) > bound
    unsure = ~sure & (bound > 0.0)
    charges = np.full(n, 2.0)
    charges[-1] = 1.0
    changes = _sign_changes(np.where(sure, pivot_run, 0.0).reshape(-1, n))
    rolle = (changes + unsure.reshape(-1, n) @ charges).reshape(-1, rows).astype(int)
    rolle += run[:, -1] != 0.0
    rolle[~np.isfinite(mags[:, :, -1])] = n
    return rolle, unsure


def zero_bound_rows(rates: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """:meth:`ExpSum.zero_bound` of each row of the (rows x terms) arrays
    of rates and coefficients, every row by ascending rate and either a
    canonical sum or one padded in front with zero coefficients: the
    least of Laguerre's count (:func:`prefix_sign_changes_rows`) and the
    Rolle-step counts of :func:`rolle_bounds_rows`, from one prefix pass.
    """
    if not coeffs.shape[1]:
        return np.zeros(len(coeffs), dtype=int)
    run = _exact_prefix_sums(coeffs)
    rolle, _ = rolle_bounds_rows(rates, coeffs, run)
    return np.minimum(_sign_changes(run), rolle.min(axis=0))


def sign_at_zero_rows(rates: np.ndarray, coeffs: np.ndarray) -> list[tuple[int, int]]:
    """:meth:`ExpSum.sign_at_zero` of each row of the (rows x terms)
    arrays of rates and coefficients, each row a canonical sum with every
    term kept.

    Order by order, the derivative sum d and its scale S of every row still
    open come from running products of the rates, summed by numpy.  Each
    differs from the scalar method's correctly rounded ``fsum`` by at most
    err = 2 (terms + k + 8) eps S + (k + 2) 2^-1074 max(1, sum|c_i|): k
    roundings of the running product against ``pow``'s one, the product
    with c_i, the summation and subnormal results.  A row is decided at
    order k where |d| - err clears ZERO_TOL (S + err), with the sign of d,
    and goes on to the next order where |d| + err stays under
    ZERO_TOL (S - err).  Any other row goes to the scalar method, and so
    does a row whose S lies outside (1e-280, 1e280) or whose largest
    power reaches 1e300: there the scalar method's floor of 1e-300 or its
    overflow path could decide.  So every result is the scalar one.
    """
    rows, n = coeffs.shape
    max_order = max(4, n)
    out = [(0, max_order)] * rows
    scalar = []
    idx, neg, c, power = np.arange(rows), -rates, coeffs, np.ones(rates.shape)
    tiny = 2.0**-1074 * np.maximum(1.0, np.abs(coeffs).sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_order):
            if not idx.size:
                break
            if k:
                power *= neg
            prods = c * power
            d, scale = prods.sum(axis=1), np.abs(prods).sum(axis=1)
            err = 2.0 * (n + k + 8) * _EPS * scale + (k + 2) * tiny
            fits = (scale > 1e-280) & (scale < 1e280) & (np.abs(power[:, -1]) < 1e300)
            nonzero = fits & (np.abs(d) - err > ZERO_TOL * (scale + err))
            zero = fits & (np.abs(d) + err < ZERO_TOL * (scale - err))
            for i, s in zip(idx[nonzero].tolist(), (d[nonzero] > 0.0).tolist()):
                out[i] = (1 if s else -1), k
            scalar += idx[~(nonzero | zero)].tolist()
            idx, neg, c, power, tiny = (v[zero] for v in (idx, neg, c, power, tiny))
    for i in scalar:
        out[i] = ExpSum(tuple(rates[i].tolist()), tuple(coeffs[i].tolist())).sign_at_zero()
    return out


def dominance_point_rows(rates: np.ndarray, coeffs: np.ndarray) -> list[float]:
    """:meth:`ExpSum.dominance_point` of each row of the (rows x terms)
    arrays of rates and coefficients, each row a canonical sum with every
    term kept.

    The ratios (n - 1) |c_i| / |c_0| and rate gaps r_i - r_0 are the
    scalar method's bit for bit; only ``np.log`` may differ from
    ``math.log``, by less than 16 eps of its value.  Where one term's
    log(ratio) / gap exceeds every other by more than both margins, it is
    the scalar maximum, taken again with ``math.log``.  A row with a
    closer runner-up or a value that is not finite goes to the scalar
    method.
    """
    rows, n = coeffs.shape
    if n <= 1:
        return [1.0] * rows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (n - 1) * np.abs(coeffs[:, 1:]) / np.abs(coeffs[:, :1])
        gap = rates[:, 1:] - rates[:, :1]
        value = np.log(ratio) / gap
        margin = 16.0 * _EPS * np.abs(value) + 2.0**-1000
        top = np.arange(rows), np.argmax(value, axis=1)
        rest = value + margin
        rest[top] = -np.inf
        clear = np.isfinite(value).all(axis=1) & (
            np.max(rest, axis=1, initial=-np.inf) < value[top] - margin[top]
        )
    return [
        max(0.0, math.log(q) / g) if ok
        else ExpSum(tuple(rates[i].tolist()), tuple(coeffs[i].tolist())).dominance_point()
        for i, (q, g, ok) in enumerate(zip(ratio[top].tolist(), gap[top].tolist(), clear.tolist()))
    ]


def known_sum(rates, coeffs, sign_at_zero: tuple[int, int], dominance_point: float) -> ExpSum:
    """``ExpSum(rates, coeffs)`` with the results of its
    :meth:`~ExpSum.sign_at_zero` and :meth:`~ExpSum.dominance_point`
    given (from :func:`sign_at_zero_rows` and :func:`dominance_point_rows`),
    so neither is computed again.  The rows are those of a row that
    :func:`canonical_rows` keeps, which has checked every invariant, so
    ``ExpSum.__post_init__`` does not check them again."""
    f = ExpSum.__new__(ExpSum)
    f.__dict__.update(rates=tuple(rates), coeffs=tuple(coeffs),
                      _sign_at_zero=sign_at_zero, _dominance_point=dominance_point)
    return f


# -- sign scanning -------------------------------------------------------


@dataclass(frozen=True)
class ScanOptions:
    """The one settable knob of sign scans and root isolation.

    sign_floor is an absolute magnitude below which a sign is never
    asserted; the violating parameter regions of interest here have
    legitimate witnesses many orders of magnitude below 1, so the floor is
    deliberately tiny and certainty additionally requires clearing the
    evaluation's own rounding-error bound.  Grid sizes and refinement
    budgets are the module constants above.
    """

    sign_floor: float = 1e-18


@dataclass(frozen=True)
class SignRegion:
    """One maximal sign region: its sign, a representative abscissa, the
    value achieved there, and whether that witness clears the sign floor."""

    sign: str  # "+" or "-"
    x: float
    value: float
    certain: bool


@dataclass(frozen=True)
class SignPattern:
    """Compressed sign sequence of a function on (0, +infinity).

    ``regions`` alternate in sign with strictly increasing representatives;
    ``transitions`` are the abscissae where the sign flips.  ``certified``
    means every region's witness magnitude clears the sign floor and the
    rounding bound, so the observed sign sequence is a real subsequence of
    the true one.  ``complete`` additionally means the zero-count
    accounting (transitions found, root multiplicity at 0, parity of the
    negative axis) saturates the coefficient sign-change bound, so no sign
    region was missed.
    """

    regions: tuple[SignRegion, ...]
    transitions: tuple[float, ...]
    certified: bool
    complete: bool

    def __post_init__(self):
        for r0, r1 in zip(self.regions, self.regions[1:]):
            if r0.sign == r1.sign:
                raise ValueError("adjacent regions must alternate in sign")
            if not (r0.x < r1.x):
                raise ValueError("region representatives must increase")

    def signs(self) -> tuple[str, ...]:
        return tuple(r.sign for r in self.regions)

    def text(self) -> str:
        return ",".join(self.signs())


@dataclass(frozen=True)
class RootScan:
    """Result of root isolation on an interval.

    ``brackets`` are disjoint sign-change intervals (one root each);
    ``touches`` are suspected tangential (even-multiplicity) contacts,
    which do not change sign and are not counted.  ``certified`` means the
    count plus analytically implied roots outside the window plus the root
    multiplicity at 0 saturates the sign-change bound, so no root in the
    window was missed.
    """

    count: int
    brackets: tuple[tuple[float, float], ...]
    certified: bool
    touches: tuple[float, ...] = ()


class _Pts(NamedTuple):
    """Evaluated points as parallel arrays, f(x) = s * exp(m) at each x."""

    x: np.ndarray
    s: np.ndarray  # scaled mantissa
    m: np.ndarray
    logmag: np.ndarray  # log|f(x)|, -inf where s == 0
    sign: np.ndarray  # +1 / -1, or 0 when below the floor or the rounding bound

    def take(self, idx) -> "_Pts":
        return _Pts(*(a[idx] for a in self))

    def merged(self, new: "_Pts") -> "_Pts":
        """Both point sets sorted by x; at equal x, self's points come first."""
        both = _Pts(*(np.concatenate(pair) for pair in zip(self, new)))
        return both.take(np.argsort(both.x, kind="stable"))

    def value(self, i: int) -> float:
        return _unscale(float(self.s[i]), float(self.m[i]))


_NO_PTS = _Pts(*[np.zeros(0)] * 4, np.zeros(0, dtype=np.int8))


class _Run(NamedTuple):
    """A sign region under assembly: its certain points span [first, last]
    (None for an analytic end region, which has none); x is its witness."""

    sign: int  # +1 or -1
    first: float | None
    last: float | None
    x: float
    value: float
    certain: bool


def _unscale(s: float, m: float) -> float:
    """s * exp(m), saturating at +/-inf."""
    try:
        return s * math.exp(m) if s != 0.0 else 0.0
    except OverflowError:
        return math.copysign(math.inf, s)


def _certify(s, m, err, opts: ScanOptions) -> tuple[np.ndarray, np.ndarray]:
    """(sign, logmag) of f = s * exp(m): the sign is +1 or -1 only where |f|
    clears both the rounding bound err and the sign floor, else 0."""
    mag = np.abs(s)
    certain = mag > err
    with np.errstate(divide="ignore"):
        logmag = np.log(mag, out=mag)
    logmag += m
    certain &= logmag > math.log(opts.sign_floor)
    sign = np.sign(s).astype(np.int8)
    sign[~certain] = 0
    return sign, logmag


def certain_signs(fs: Sequence[ExpSum] | SumBlock, xss, opts: ScanOptions) -> list[np.ndarray]:
    """Signs of each fs[k] at its own points xss[k], one array per row, from
    one evaluator call (:class:`SumBlock`): +1 or -1 only where |f| clears
    both the rounding bound and the sign floor; elsewhere 0."""
    sign = _certify(*_block(fs).evaluate(xss), opts)[0]
    return np.split(sign, np.cumsum([len(xs) for xs in xss])[:-1])


def _evaluated(fs: SumBlock, xss, opts: ScanOptions) -> _Pts:
    """The points xss[k] of each fs[k] from one evaluator call,
    concatenated in row order."""
    s, m, err = fs.evaluate(xss)
    sign, logmag = _certify(s, m, err, opts)
    return _Pts(np.concatenate(xss, dtype=float), s, m, logmag, sign)


def _lockstep(fs: SumBlock, gens: list, opts: ScanOptions) -> list:
    """Run the step generators gens[k], one for each sum fs[k], together.

    A step generator yields each x-array it needs evaluated, is sent back
    those points as :class:`_Pts` in request order, and returns its result.
    Each round, the requests of all running generators go to one
    evaluator call, with their sums taken from the block; a flip-bisection
    request holds the midpoints of the intervals planned for each bracket
    (see :func:`bisect_brackets`).  The generators of sign scans and root
    scans start from the points of :func:`_grid_phase`, which has already
    evaluated the grids and dip passes of all the sums.
    """
    results: list = [None] * len(gens)
    pending: dict[int, np.ndarray] = {}

    def advance(k: int, pts: _Pts | None) -> None:
        try:
            pending[k] = gens[k].send(pts)
        except StopIteration as done:
            results[k] = done.value

    for k in range(len(gens)):
        advance(k, None)
    while pending:
        ks, xss = list(pending), list(pending.values())
        pending.clear()
        pts = _evaluated(fs.take(ks), xss, opts)
        end = 0
        for k, xs in zip(ks, xss):
            advance(k, pts.take(slice(end, end + xs.size)))
            end += xs.size
        del pts  # not kept alive through the next round
    return results


def _mids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The one bisection midpoint rule: geometric where lo > 0, else
    arithmetic, and lo + (hi - lo) / 2 where that leaves [lo, hi] (lo * hi
    under- or overflows), so a midpoint never leaves its interval."""
    with np.errstate(invalid="ignore", over="ignore"):
        mid = np.where(lo > 0, np.sqrt(lo * hi), 0.5 * (lo + hi))
        return np.where((lo <= mid) & (mid <= hi), mid, lo + 0.5 * (hi - lo))


def _mid(a: float, b: float) -> float:
    """The rule of :func:`_mids` for one interval; a scan has a few flip
    brackets, for which scalar arithmetic is cheaper."""
    mid = math.sqrt(a * b) if a > 0 else 0.5 * (a + b)
    return mid if a <= mid <= b else a + 0.5 * (b - a)


def bisection_round(a: float, b: float, depth: int, links: int, guess: float, split,
                    mids: list) -> dict:
    """Plan one round of bisection of [a, b], appending the points it
    evaluates to ``mids``: every interval that its next ``depth`` steps
    can reach, then up to ``links`` more on the path toward the predicted
    root ``guess`` (none where guess is nan).  split(lo, hi) is the
    midpoint of [lo, hi] that a step uses, or None where one step at a
    time would stop; nothing below such an interval is planned.

    Returns the planned intervals: a dict that maps each (lo, hi) to
    (its midpoint, the midpoint's index in mids), or to None where split
    gives no midpoint.
    """
    index, spans = {}, [(a, b)]
    for _ in range(depth):
        below = []
        for span in spans:
            lo, hi = span
            mid = split(lo, hi)
            index[span] = None if mid is None else (mid, len(mids))
            if mid is not None:
                mids.append(mid)
                below += ((lo, mid), (mid, hi))
        spans = below
    if not links or guess != guess:
        return index
    # Down the reachable intervals toward the guess; where that stops at an
    # interval without a midpoint, split stops the links at once.
    a, b, *_ = walk_round(index, a, b, lambda i: guess >= mids[i])
    for _ in range(links):
        mid = split(a, b)
        index[a, b] = None if mid is None else (mid, len(mids))
        if mid is None:
            break
        mids.append(mid)
        a, b = (mid, b) if guess >= mid else (a, mid)
    return index


def walk_round(index: dict, a: float, b: float, goes_right):
    """The steps of one at a time bisection from [a, b] while its interval
    was planned (see :func:`bisection_round`): goes_right(i) says whether
    the root lies right of point i (the step keeps [mid, b]), or None
    where the bracket stops for good, as it does at an interval planned
    without a point.

    Returns a, b, the indices of the points walked in step order, the
    index of the point now at a and at b (-1 for an end not moved), and
    whether the bracket can go on.
    """
    path, at_a, at_b = [], -1, -1
    while (step := index.get((a, b), ())) != ():  # () where not planned
        if step is None:
            return a, b, path, at_a, at_b, False
        mid, i = step
        path.append(i)
        right = goes_right(i)
        if right is None:
            return a, b, path, at_a, at_b, False
        if right:
            a, at_a = mid, i
        else:
            b, at_b = mid, i
    return a, b, path, at_a, at_b, True


def bisect_brackets(lo: list, hi: list, ends: tuple, split, guess, depth, cap: int, read,
                    steps: int = 0):
    """Bisect the brackets [lo[k], hi[k]] in place and together (a step
    generator): each round yields its midpoints as an array, and ``read``
    turns what is sent back into right(k, i), whether bracket k's root
    lies right of point i (None to end the bracket), and the values at
    the points, which update the end values ends = (at lo, at hi).
    Returns each bracket's walked points in step order, numbered through
    all rounds.

    A bracket takes a round while ``split`` gives its midpoint and it has
    taken fewer than ``cap`` steps (``steps`` before the first round).
    The round plans (:func:`bisection_round`) every interval its next
    depth(brackets in the round) steps can reach, at most BISECT_LEVELS
    after its first round, then twice its last round's steps (or depth)
    more toward guess(k), none at depth 1.  The values then walk each
    bracket as one step at a time would (:func:`walk_round`); as each
    value depends on its own point only, lo, hi and the paths are those
    of one step per round.
    """
    n = len(lo)
    steps, last = [steps] * n, [0] * n  # steps taken, and in the last round
    paths, active, seen = [[] for _ in range(n)], range(n), 0
    while active := [k for k in active if steps[k] < cap and split(lo[k], hi[k]) is not None]:
        levels, plans, mids = depth(len(active)), [], []
        for k in active:
            d = min(levels, BISECT_LEVELS) if last[k] else levels
            reach = min(d, cap - steps[k])
            links = min(2 * (last[k] or d), cap - steps[k] - reach) if d > 1 else 0
            plans.append(bisection_round(lo[k], hi[k], reach, links, guess(k), split, mids))
        right, values = read((yield np.array(mids)))
        still = []
        for k, plan in zip(active, plans):
            lo[k], hi[k], path, *at, goes_on = walk_round(plan, lo[k], hi[k], partial(right, k))
            for end, i in zip(ends, at):
                if i >= 0:
                    end[k] = values[i]
            paths[k] += [seen + i for i in path]
            steps[k] += len(path)
            last[k] = len(path)
            if goes_on:
                still.append(k)
        active, seen = still, seen + len(mids)
    return paths


def _flip_split(a: float, b: float) -> float | None:
    """The midpoint flip bisection steps at (:func:`_mid`), or None where
    it is not strictly inside [a, b] or [a, b] is no wider than X_RTOL
    relative to its ends."""
    mid = _mid(a, b)
    if a < mid < b and b - a > X_RTOL * max(abs(a), abs(b), 1e-30):
        return mid
    return None


def _flip_guess(a: float, b: float, log_a: float, log_b: float) -> float:
    """The secant root of a flip bracket: where the line through the
    signed values at its ends, of magnitudes e^log_a and e^log_b and of
    opposite signs, crosses 0 against log x (against x where a <= 0, as
    the midpoints there are arithmetic); nan where a magnitude is not a
    number."""
    w = 1.0 / (1.0 + math.exp(min(max(log_b - log_a, -700.0), 700.0)))  # |f(a)| / (|f(a)| + |f(b)|)
    if a > 0:
        return math.exp(math.log(a) + w * (math.log(b) - math.log(a)))
    return a + w * (b - a)


def _refine_flips(lo: list, hi: list, left_sign: list, lo_log: list | None = None,
                  hi_log: list | None = None):
    """Shrink certain-sign flip brackets [lo[k], hi[k]] in place and
    together by bisection (a step generator; see _lockstep).  left_sign[k]
    is the sign at lo[k]; lo_log[k] and hi_log[k] are log|f| at the ends
    (0 where not given).  Returns lo, hi and the points of the bisection
    paths, in the order sequential bisection evaluates them.  Each certain
    one lies inside its bracket, on the side of its own sign: left of every
    point of the other sign.

    The rounds are those of :func:`bisect_brackets`, BISECT_LEVELS levels
    deep and toward the secant root (:func:`_flip_guess`); an interval
    narrower than X_RTOL has no midpoint (:func:`_flip_split`), a sign of
    0 ends its bracket, and a bracket takes at most MAX_REFINEMENTS steps.
    """
    n, rounds = len(lo), []
    lo_log = [0.0] * n if lo_log is None else list(lo_log)
    hi_log = [0.0] * n if hi_log is None else list(hi_log)

    def read(p: _Pts):
        rounds.append(p)
        signs = p.sign.tolist()
        return (lambda k, i: signs[i] == left_sign[k] if signs[i] else None), p.logmag.tolist()

    paths = yield from bisect_brackets(
        lo, hi, (lo_log, hi_log), _flip_split,
        lambda k: _flip_guess(lo[k], hi[k], lo_log[k], hi_log[k]),
        lambda active: BISECT_LEVELS, MAX_REFINEMENTS, read,
    )
    pts = _Pts(*(np.concatenate(col) for col in zip(_NO_PTS, *rounds)))
    order = [i for step in zip_longest(*paths) for i in step if i is not None]
    return lo, hi, pts.take(np.array(order, dtype=np.intp))


def _dip_split(pts: _Pts, owner: np.ndarray | None = None) -> np.ndarray:
    """Which intervals between neighbouring points a dip pass halves: those
    at an |f| valley and those with an uncertain end, except the intervals
    with two uncertain ends that lie before the first certain point of
    their sum or after its last one (a sum with no certain point keeps
    all of its intervals).

    The points of one sum are sorted by x; for a block of sums, owner[i]
    is the index of the sum of point i and the points are sorted by owner,
    then x.  No interval or valley spans two sums, so each sum's intervals
    are split as if it were alone.

    In a sign scan those end bands hold cancellation noise near 0 or a tail
    below the floor, whose signs the 0+ walk and the analytic tail sign
    settle.  Leaving them whole certifies nothing new: every certified
    region still rests on an evaluated point that clears the rounding bound
    and the floor.  At worst a region there is missed, which leaves a
    pattern incomplete, never wrong.
    """
    logs, inner = pts.logmag, pts.logmag[1:-1]
    unsure = pts.sign == 0
    if owner is None:
        owner = np.zeros(logs.size, dtype=np.intp)
    inside = owner[:-1] == owner[1:]  # the intervals within one sum
    valley = inside[:-1] & inside[1:]  # the inner points with both neighbours in their sum
    split = unsure[:-1] | unsure[1:]
    split[1:] |= valley & (inner < logs[:-2]) & (inner <= logs[2:])  # valley at the left end
    split[:-1] |= valley & (inner <= logs[:-2]) & (inner < logs[2:])  # valley at the right end
    # An interval is in an end band when its sum has certain points on one side only.
    seen = np.concatenate(([0], np.cumsum(~unsure)))  # certain points before each index
    firsts = np.searchsorted(owner, np.arange(owner[-1] + 2 if owner.size else 0))
    sums = owner[:-1]  # the sum of each interval
    before = seen[1:-1] > seen[firsts[sums]]
    after = seen[firsts[sums + 1]] > seen[1:-1]
    split &= inside & ~(unsure[:-1] & unsure[1:] & (before != after))
    return split


def _grid_phase(fs: SumBlock, grids, opts: ScanOptions) -> list[_Pts]:
    """Evaluate each sum fs[k] on its sorted grid grids[k], then run up to
    DIP_PASSES passes that halve the intervals :func:`_dip_split` picks, to
    expose narrow regions; returns each sum's points by x.

    The points of all sums are held in one array sorted by (owner, x), so
    the grid and every dip pass take one evaluator call and one split, one
    midpoint and one merge for the whole block (:func:`_with_dips`).  A
    sum whose split is empty stays so, as its points no longer change.
    """
    owner = np.repeat(np.arange(len(fs)), [len(grid) for grid in grids])
    if not owner.size:
        return [_NO_PTS] * len(fs)
    pts = _evaluated(fs, grids, opts)
    for _ in range(DIP_PASSES):
        left = np.flatnonzero(_dip_split(pts, owner))
        if not left.size:
            break
        new_owner = owner[left]
        mids = _mids(pts.x[left], pts.x[left + 1])
        rows = np.split(mids, np.cumsum(np.bincount(new_owner, minlength=len(fs)))[:-1])
        pts, owner = _with_dips(pts, owner, left, _evaluated(fs, rows, opts), new_owner)
    ends = np.searchsorted(owner, np.arange(len(fs) + 1)).tolist()
    return [pts.take(slice(a, b)) for a, b in zip(ends, ends[1:])]


def _with_dips(pts: _Pts, owner: np.ndarray, left: np.ndarray, new: _Pts,
               new_owner: np.ndarray) -> tuple[_Pts, np.ndarray]:
    """pts and their owners with each new point j spliced in right behind
    point left[j], the left end of its interval.  As :func:`_mids` never
    leaves [lo, hi], the points stay sorted by (owner, x).  A midpoint
    equal to its interval's right end, of two adjacent or equal floats,
    goes in front of that point instead of behind it, as a stable sort
    would put it; the arrays are the same, since each point's value does
    not depend on the others in its evaluator call."""
    new_at = left + 1 + np.arange(left.size)  # index once merged
    fresh = np.zeros(owner.size + left.size, dtype=bool)
    fresh[new_at] = True
    old_at = np.flatnonzero(~fresh)

    def spliced(old: np.ndarray, add: np.ndarray) -> np.ndarray:
        out = np.empty(fresh.size, dtype=old.dtype)
        out[old_at], out[new_at] = old, add
        return out

    return _Pts(*map(spliced, pts, new)), spliced(owner, new_owner)


def _zero_walk(pts: _Pts, s0: int):
    """Materialize the 0+ region if the grid starts past its end: steps
    left by factors of 4 (down to 1e-300), up to the first point with sign
    s0 (a step generator; see _lockstep); returns all points by x."""
    signs = pts.sign[pts.sign != 0]
    if s0 == 0 or not signs.size or signs[0] == s0:
        return pts
    xs = np.ldexp(pts.x[0], -2 * np.arange(1, MAX_REFINEMENTS + 1))
    walk = yield xs[xs >= 1e-300]
    hits = np.flatnonzero(walk.sign == s0)
    return pts.merged(walk.take(slice(0, hits[0] + 1 if hits.size else None)))


def sign_pattern(f: ExpSum, opts: ScanOptions | None = None) -> SignPattern:
    """Certified compressed sign sequence of f on (0, +infinity).

    Combines an adaptive logarithmic grid (overflow-safe scaled
    evaluation), the exact sign and root multiplicity at 0+ from
    coefficient sums, the analytic tail sign, and the coefficient
    sign-change bound for completeness accounting.  Each maximal region
    reports the abscissa of its largest certain |f|; a region whose best
    witness sits at or below the sign floor is flagged uncertain and the
    whole pattern is then not certified.
    """
    return sign_patterns([f], opts)[0]


def sign_patterns(
    fs: Sequence[ExpSum] | SumBlock, opts: ScanOptions | None = None, *, refine: bool = True,
    unfinished: dict | None = None,
) -> list[SignPattern]:
    """``[sign_pattern(f) for f in fs]``, computed together.  A sequence
    of sums is laid out once (:class:`_PaddedSums`) for every evaluator
    call of the block; a :class:`SumBlock` brings its own evaluator.  The
    grid phase runs once for the whole block: one geomspace call builds
    every grid, and the grid and each dip pass take one evaluator call
    over the points of all sums (see :func:`_grid_phase`).  Then each
    scan's step generator goes on from its own points in lock step: each
    0+ walk, flip-bisection round (the intervals planned for each flip,
    walked while the next one was planned; see :func:`_refine_flips`) and
    guessed end region evaluates the points that every scan still running
    requests in one evaluator call.

    ``refine=False`` skips flip bisection, for scans that only decide.
    Bisection places transitions and may move witnesses and values, but
    never the sign tuple, ``certified`` or ``complete`` of a certified
    pattern: every certain point it adds lies inside its flip's bracket,
    on the side of its own sign, so each run keeps its place.  An
    uncertified pattern whose regions outnumber the zero bound can differ
    in its signs, since which region is dropped as the weakest depends on
    the witness values.  Such a scan also puts the finishing state of
    each sum of two or more terms into the dict ``unfinished``, if given,
    under its index in fs: its certain points after the 0+ walk and its
    grid's left end, from which :func:`finished_pattern` bisects that
    pattern alone.
    """
    fs, opts = _block(fs), opts or ScanOptions()
    grids = _grid_phase(fs, _sign_grids(fs), opts)
    return _lockstep(fs, [_pattern_steps(f, pts, refine, unfinished, k)
                          for k, (f, pts) in enumerate(zip(fs, grids))], opts)


def finished_pattern(fs: Sequence[ExpSum] | SumBlock, state: tuple, opts: ScanOptions | None = None
                     ) -> SignPattern:
    """The pattern of the one sum of fs with flip bisection, resumed from
    the finishing state that a scan with ``refine=False`` left for it (see
    :func:`sign_patterns`): byte-identical to ``sign_patterns(fs,
    opts)[0]``, which goes on from the same certain points."""
    (f,) = fs = _block(fs)
    return _lockstep(fs, [_finish_steps(f, *state, refine=True)], opts or ScanOptions())[0]


def _sign_grids(fs: Sequence[ExpSum]) -> list[np.ndarray]:
    """The grid each sign scan starts from, built with one geomspace call:
    BASE_POINTS log-spaced points from 1e-9 / (largest rate) to past the
    dominance point for a sum of two or more terms, the one point 1/rate
    (1 at rate 0) for a single term, and none for the zero sum."""
    multi = [f for f in fs if f.n_terms > 1]
    lo = [1e-9 / f.rates[-1] for f in multi]
    hi = [1.05 * max(40.0 / (f.rates[1] - f.rates[0]), f.dominance_point()) + 1e-6 for f in multi]
    logs = iter(np.geomspace(lo, hi, BASE_POINTS, axis=1) if multi else ())
    grids = []
    for f in fs:
        if f.n_terms > 1:
            grids.append(next(logs))
        elif f.n_terms == 1:
            grids.append(np.array([1.0 / f.rates[0] if f.rates[0] > 0 else 1.0]))
        else:
            grids.append(np.zeros(0))
    return grids


def possible_signs(f: ExpSum) -> list[tuple[str, ...]]:
    """Every sign tuple that a certified ``sign_pattern(f)`` can report,
    read off the coefficients without evaluating f: the
    :func:`sign_tuples` from ``sign_at_zero()`` (either start when that
    sign is 0) to ``asymptotic_sign()`` with at most ``zero_bound()``
    changes; the zero sum gives ``[()]``.  The
    scan guarantees the ends by construction: ``_pattern_steps`` puts an
    uncertified region in front of (behind) the witnessed runs when the
    first (last) one disagrees with those signs, drops regions beyond
    ``sign_change_bound()`` and then clears ``certified``, and
    ``SignPattern`` enforces alternation.

    The zero bound starts from ``prefix_sign_changes()``, the sign changes
    of the exact prefix sums c_0, c_0 + c_1, ..., f(0) by ascending rate
    (Laguerre's rule; Polya and Szego, *Problems and Theorems in Analysis
    II*, Part V; Karlin, *Total Positivity*, 1968).  Proof: for x > 0,
    f(x) = x * integral P(s) exp(-s x) ds, where the step function P
    takes the k-th prefix sum on [r_k, r_{k+1}) and f(0) from the last
    rate on, and the Laplace kernel is variation-diminishing, so f has at
    most as many zeros in (0, infinity), counted with multiplicity, as P
    has sign changes.  The proof holds for rates of any sign.  The regions
    of a certified pattern are real sign regions of f, each witnessed by a
    point whose sign clears the rounding bound, so each of its changes
    needs such a zero.

    One Rolle step sharpens it.  For any real pivot r, g(x) = exp(r x) f(x)
    has the zeros of f, and between two zeros of g lies a zero of g', so f
    has at most one zero more in (0, infinity) than g' = sum_i c_i (r -
    r_i) exp(-(r_i - r) x).  When f(0) = 0 exactly, the zero of g at 0
    counts too, and f has at most as many zeros there as g'.  Laguerre's
    rule bounds the zeros of g' by the sign changes of its prefix sums
    r P_j - Q_j, with P_j and Q_j those of c_i and of c_i r_i.  So
    ``zero_bound()`` is the least of Laguerre's count and this one at the
    pivots r = the rates of the first :data:`ROLLE_PIVOTS` nonzero terms
    (:func:`rolle_bounds_rows`, which charges a prefix sum whose sign the
    float sums leave open the most changes it can add).

    The bound never exceeds ``sign_change_bound()``, nor that bound less
    one when f(0) = 0: each change of the prefix sums needs a coefficient
    of the new sign since the last nonzero prefix, and so does a final
    prefix of 0.  So it covers the Descartes bound with the exact zero at
    0 counted against it.  A grid of gaps reads the same tuples without
    building each one (``orders._may_violate``, through
    :func:`zero_bound_rows`).
    """
    s0, _ = f.sign_at_zero()
    starts = (s0,) if s0 else (1, -1)
    return sign_tuples(starts, f.zero_bound(), f.asymptotic_sign())


def sign_tuples(starts: Iterable[int], bound: int, s_inf: int) -> list[tuple[str, ...]]:
    """The alternating sign tuples from each sign in ``starts`` to
    ``s_inf`` with at most ``bound`` changes, by start, then by length:
    the parity of the change count is fixed by its two ends.  A tail sign
    of 0 (the zero sum) gives ``[()]``."""
    if not s_inf:
        return [()]
    return [
        tuple("+-"[(start < 0) ^ (i % 2)] for i in range(changes + 1))
        for start in starts
        for changes in range(bound + 1)
        if start * (-1) ** changes == s_inf
    ]


def _pattern_steps(f: ExpSum, pts: _Pts, refine: bool, unfinished: dict | None, k: int):
    """The step generator of sign_pattern(f) (see _lockstep), from f's
    grid-phase points ``pts``: the 0+ walk, then :func:`_finish_steps`;
    an unrefined scan puts its finishing state into ``unfinished[k]``."""
    if f.is_zero:
        return SignPattern((), (), certified=True, complete=True)

    s0, _ = f.sign_at_zero()
    if f.n_terms == 1:  # its one grid point, 1/rate, is the witness
        x = float(pts.x[0])
        region = SignRegion("+-"[f.asymptotic_sign() < 0], x, pts.value(0), bool(pts.sign[0]))
        return SignPattern((region,), (), certified=region.certain, complete=True)

    x_lo = float(pts.x[0])  # the grid's left end: geomspace keeps both ends exact
    pts = yield from _zero_walk(pts, s0)
    certain = pts.take(np.flatnonzero(pts.sign))
    del pts  # only the certain points are kept while the flips are bisected
    if unfinished is not None and not refine:
        unfinished[k] = certain, x_lo
    return (yield from _finish_steps(f, certain, x_lo, refine))


def _finish_steps(f: ExpSum, certain: _Pts, x_lo: float, refine: bool):
    """The rest of the step generator of sign_pattern(f), from f's certain
    points after the 0+ walk and its grid's left end x_lo: with
    ``refine``, flip bisection; then the runs, the guessed end regions,
    the zero-bound repair and the pattern.  Without ``refine`` the runs
    come from the grid, dip and 0+ walk points alone.

    Transitions are placed after the zero-bound repair, from the extents
    of the regions left (a merged region spans both of its parts): mid-way
    between the facing ends of two neighbours, else at the one end that
    exists, else nan.  So each lies between the regions it separates.
    """
    s0, mult0 = f.sign_at_zero()
    s_inf = f.asymptotic_sign()
    s_neg = f.sign_at_minus_inf()
    bound = f.sign_change_bound()

    # Bisect the witnessed flips together, then keep their certain points:
    # each lies between its flip's two runs, so it joins the run of its sign.
    if refine:
        flip = np.flatnonzero(np.diff(certain.sign))
        _, _, bisected = yield from _refine_flips(
            certain.x[flip].tolist(), certain.x[flip + 1].tolist(), certain.sign[flip].tolist(),
            certain.logmag[flip].tolist(), certain.logmag[flip + 1].tolist(),
        )
        certain = certain.merged(bisected.take(np.flatnonzero(bisected.sign)))

    # One record per region: each run of equal certain sign, then an
    # analytic end region (the sign at 0+ or at infinity) with no extent
    # where the nearest run disagrees with it.
    xs = certain.x.tolist()
    cuts = (np.flatnonzero(np.diff(certain.sign)) + 1).tolist()
    edges = [0, *cuts, len(xs)] if xs else []
    runs = []
    for a, b in zip(edges, edges[1:]):
        i = a + int(np.argmax(certain.logmag[a:b]))  # the first-by-x largest |f|
        runs.append(_Run(int(certain.sign[a]), xs[a], xs[b - 1], xs[i], certain.value(i), True))
    if s0 != 0 and (not runs or runs[0].sign != s0):
        runs.insert(0, _Run(s0, None, None, xs[0] / 2.0 if xs else x_lo, math.nan, False))
    if s_inf != 0 and (not runs or runs[-1].sign != s_inf):
        x_end = x_lo
        if runs:  # past the last run's extent; the analytic 0+ region has none
            x_end = 2.0 * (runs[-1].x if runs[-1].last is None else runs[-1].last)
        runs.append(_Run(s_inf, None, None, x_end, math.nan, False))
    guessed = [k for k, run in enumerate(runs) if run.first is None]
    if guessed:
        p = yield np.array([runs[k].x for k in guessed])
        for i, k in enumerate(guessed):
            runs[k] = runs[k]._replace(value=p.value(i))

    # A certified pattern can never exceed the zero bound; if numerical dust
    # produced extra alternations anyway, drop the weakest regions.  An
    # interior drop merges its two neighbours into one region that spans
    # both and keeps the stronger one's witness.
    certified = all(run.certain for run in runs)
    while len(runs) - 1 > bound:
        k = min(range(len(runs)), key=lambda i: abs(runs[i].value))
        certified = False
        if 0 < k < len(runs) - 1:
            left, right = runs[k - 1], runs[k + 1]
            stronger = max((left, right), key=lambda run: abs(run.value))
            runs[k - 1 : k + 2] = [stronger._replace(first=left.first, last=right.last)]
        else:
            runs.pop(k)

    transitions = []
    for left, right in zip(runs, runs[1:]):
        ends = [x for x in (left.last, right.first) if x is not None]
        transitions.append(sum(ends) / len(ends) if ends else math.nan)

    sign_right_of_zero = runs[0].sign if runs else s0
    sign_left_of_zero = sign_right_of_zero * (-1 if mult0 % 2 else 1)
    neg_min = 1 if (s_neg != 0 and s_neg != sign_left_of_zero) else 0
    accounted = (len(runs) - 1) + mult0 + neg_min
    complete = certified and accounted == bound

    regions = tuple(SignRegion("+-"[run.sign < 0], run.x, run.value, run.certain) for run in runs)
    return SignPattern(regions, tuple(transitions), certified, complete)


def count_roots(
    f: ExpSum, lo: float, hi: float, opts: ScanOptions | None = None
) -> RootScan:
    """Isolate the sign-change roots of f in [lo, hi].

    Adaptive grid scan plus bisection refinement; every returned bracket
    contains exactly one sign change.  The count can never exceed the
    coefficient sign-change bound (a hard error otherwise).  Tangential
    contacts (equal signs around a sub-floor dip) are reported in
    ``touches``, not counted.  ``certified`` is True when the bracket
    count, the analytically implied roots outside the window (tail-sign
    parity), and the root multiplicity at 0 together saturate the bound,
    i.e. the window count is provably exhaustive.
    """
    opts = opts or ScanOptions()
    if f.is_zero:
        raise ValueError("count_roots requires a nonzero ExpSum")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    grid = list(np.linspace(lo, hi, BASE_POINTS))
    if lo < 0.0 < hi:
        grid.extend([0.0, -1e-12 * abs(lo), 1e-12 * hi])
    fs = _PaddedSums([f])
    (pts,) = _grid_phase(fs, [np.array(sorted(set(grid)), dtype=float)], opts)
    return _lockstep(fs, [_root_steps(f, pts, lo, hi, opts)], opts)[0]


def _root_steps(f: ExpSum, pts: _Pts, lo: float, hi: float, opts: ScanOptions):
    """The step generator of count_roots(f, lo, hi, opts) (see _lockstep),
    from f's grid-phase points ``pts``."""
    bound = f.sign_change_bound()
    certain = pts.take(np.flatnonzero(pts.sign))
    flip = np.flatnonzero(certain.sign[1:] != certain.sign[:-1])
    left, right, _ = yield from _refine_flips(
        certain.x[flip].tolist(), certain.x[flip + 1].tolist(), certain.sign[flip].tolist(),
        certain.logmag[flip].tolist(), certain.logmag[flip + 1].tolist(),
    )
    brackets = list(zip(left, right))

    # A touch: two same-sign neighbours with only sub-floor points between.
    same = np.flatnonzero(certain.sign[1:] == certain.sign[:-1])
    a, b = certain.x[same], certain.x[same + 1]
    start = np.searchsorted(pts.x, a, side="right")
    stop = np.searchsorted(pts.x, b, side="left")
    above = np.concatenate([[0], np.cumsum(pts.logmag > math.log(opts.sign_floor))])
    touch = (stop > start) & (above[stop] == above[start])
    touches = (0.5 * (a[touch] + b[touch])).tolist()

    count = len(brackets)
    if count > bound:
        raise RootScanInconclusive(
            f"found {count} sign-change roots but the coefficient bound is {bound}; "
            "evaluation is numerically inconsistent",
            brackets,
        )

    implied = 0
    if certain.x.size:
        if f.sign_at_minus_inf() != certain.sign[0]:
            implied += 1
        if f.asymptotic_sign() != certain.sign[-1]:
            implied += 1
    extra0 = 0
    if lo <= 0.0 <= hi:
        _, mult0 = f.sign_at_zero()
        extra0 = mult0 - 1 if mult0 % 2 else mult0
    certified = count + implied + extra0 == bound
    return RootScan(count, tuple(brackets), certified, tuple(touches))
