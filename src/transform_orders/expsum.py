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
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

_EPS = 2.220446049250313e-16  # float64 machine epsilon
_BLOCK = 1 << 14  # most (term, point) pairs one evaluation holds in memory

DEFAULT_MERGE_TOL = 1e-12  # relative tolerance for duplicate-rate merging

# Sign-scan and root-isolation budgets.
BASE_POINTS = 256  # initial grid points
DIP_PASSES = 3  # passes that halve |f| valleys and uncertain gaps, outside the end bands
MAX_REFINEMENTS = 80  # bisection steps per sign flip
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
        quantiles, Monte Carlo) use it because :func:`scaled_rows` costs
        about 3.5 to 4.5 times as much per 2000-point call (sums of 3, 6
        and 41 terms, on a 2-CPU machine).
        """
        xs = np.asarray(xs, dtype=float)
        s = np.zeros_like(xs)
        comp = np.zeros_like(xs)
        for r, c in zip(self.rates, self.coeffs):
            y = c * np.exp(-r * xs) - comp
            tot = s + y
            comp = (tot - s) - y
            s = tot
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
        if not (a > 0.0):
            raise ValueError(f"scale factor a must be positive, got {a}")
        if not (0.0 <= b < math.inf):
            raise ValueError(f"shift b must be finite and nonnegative, got {b}")
        return canonicalize(
            [(r * a, c * math.exp(-r * b)) for r, c in zip(self.rates, self.coeffs)]
        )

    def scaled_by(self, k: float) -> "ExpSum":
        if k == 0.0:
            return ExpSum((), ())
        return ExpSum(self.rates, tuple(c * k for c in self.coeffs))

    def __neg__(self) -> "ExpSum":
        return self.scaled_by(-1.0)

    def __add__(self, other: "ExpSum") -> "ExpSum":
        return canonicalize(list(self.terms()) + list(other.terms()))

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
        """
        if self.is_zero:
            return 0, 0
        max_order = max(4, self.n_terms)
        for k in range(max_order):
            d = self.derivative_sum(k)
            scale = math.fsum(abs(c) * r**k for r, c in zip(self.rates, self.coeffs))
            if abs(d) > ZERO_TOL * max(scale, 1e-300):
                return (1 if d > 0 else -1), k
        return 0, max_order

    def dominance_point(self) -> float:
        """x beyond which the smallest-rate term provably dominates the rest."""
        if self.n_terms <= 1:
            return 1.0
        r0, c0 = self.rates[0], self.coeffs[0]
        n = self.n_terms
        worst = 0.0
        for r, c in zip(self.rates[1:], self.coeffs[1:]):
            worst = max(worst, math.log((n - 1) * abs(c) / abs(c0)) / (r - r0))
        return max(worst, 0.0)


def scaled_rows(fs: Sequence[ExpSum], xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate each sum fs[k] on its own 1-D array xss[k], as (s, m, err)
    with the rows concatenated in order: f = s * exp(m), |rounding| <= err.

    The one certified evaluator: every sign decision rests on ``err``.
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
    sum and compensation stay +0 until the first real term and the
    cumsums of the bound and of |terms| only add exact zeros in front,
    while m is still the first real rate's term for x >= 0 and the last
    term's for x < 0.  The zero sum is (+0, +0, +0) everywhere.
    """
    sizes = [len(x) for x in xss]
    xs = np.concatenate(xss, dtype=float) if xss else np.zeros(0)
    s, m, err = np.zeros((3, xs.size))
    n = max([1] + [f.n_terms for f in fs])  # the zero sum gets one padding term
    neg_rates = -np.array([(f.rates[:1] or (0.0,)) * (n - f.n_terms) + f.rates for f in fs]).T
    coeffs = np.array([(0.0,) * (n - f.n_terms) + f.coeffs for f in fs]).T
    owner = np.repeat(np.arange(len(fs)), sizes)  # the row of each point
    step = max(1, _BLOCK // n)  # points are independent
    for i in range(0, xs.size, step):
        part = slice(i, i + step)
        exps = np.take(neg_rates, owner[part], axis=1)
        exps *= xs[part]
        c = np.take(coeffs, owner[part], axis=1)
        s[part], m[part], err[part] = _scaled_block(exps, c, xs[part])
    for f, end, size in zip(fs, accumulate(sizes), sizes):
        if f.is_zero:  # its padding term left m = -0.0 * x
            m[end - size : end] = 0.0
    return s, m, err


def _scaled_block(exps, coeffs, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, m, err) at xs from the (terms x points) array exps of -rate * x,
    which it overwrites, and the matching coefficients."""
    # Three (terms x points) arrays, reused in place to bound peak memory.
    m = np.where(xs >= 0.0, exps[0], exps[-1])
    bounds = np.abs(exps)
    bounds += np.abs(m)
    bounds *= 2.0
    bounds += 4.0
    terms = np.exp(np.subtract(exps, m, out=exps), out=exps)
    terms *= coeffs
    mags = np.abs(terms)
    bounds *= mags
    bounds *= _EPS
    # cumsum adds terms in order for any batch; sum goes pairwise for one x.
    abs_sum = np.cumsum(mags, axis=0, out=mags)[-1]
    err = np.cumsum(bounds, axis=0, out=bounds)[-1] + 2.0 * _EPS * abs_sum
    s, tot, comp = np.zeros(xs.shape), np.empty(xs.shape), np.zeros(xs.shape)
    for t in terms:  # Kahan summation over terms, all points at once
        t -= comp
        np.add(s, t, out=tot)
        np.subtract(tot, s, out=comp)
        comp -= t
        s, tot = tot, s
    return s, m, err


def canonicalize(
    raw_terms: Iterable[tuple[float, float]], tol: float = DEFAULT_MERGE_TOL
) -> ExpSum:
    """Build a canonical ExpSum from (rate, coefficient) pairs.

    Terms are sorted by rate; rates closer than ``tol * max(1, rate)`` to
    their predecessor are merged by coefficient addition (inclusion-
    exclusion over subset sums routinely produces exactly equal rates that
    must cancel); merged coefficients with ``|c| <= tol`` are dropped.
    A non-finite coefficient is an error, never a dropped term.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    terms = sorted((float(r), float(c)) for r, c in raw_terms)
    for r, c in terms:
        if not (r >= 0.0):
            raise ValueError(f"rates must be nonnegative, got {r}")
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

    def scaled_floor(self, k: float) -> "ScanOptions":
        return replace(self, sign_floor=self.sign_floor * k)


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


def certain_signs(fs: Sequence[ExpSum], xss, opts: ScanOptions) -> list[np.ndarray]:
    """Signs of each fs[k] at its own points xss[k], one array per row, from
    one :func:`scaled_rows` call: +1 or -1 only where |f| clears both the
    rounding bound and the sign floor; elsewhere 0."""
    sign = _certify(*scaled_rows(fs, xss), opts)[0]
    return np.split(sign, np.cumsum([len(xs) for xs in xss])[:-1])


def _lockstep(fs: Sequence[ExpSum], steps, opts: ScanOptions) -> list:
    """Run the step generator ``steps(f)`` of every sum in fs together.

    A step generator yields each x-array it needs evaluated, is sent back
    those points as :class:`_Pts` in request order, and returns its result.
    Each round, the requests of all running generators go to one
    :func:`scaled_rows` call.
    """
    gens = [steps(f) for f in fs]
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
        s, m, err = scaled_rows([fs[k] for k in ks], xss)
        sign, logmag = _certify(s, m, err, opts)
        end = 0
        for k, xs in zip(ks, xss):
            rows = slice(end, end + xs.size)
            end += xs.size
            advance(k, _Pts(xs, s[rows], m[rows], logmag[rows], sign[rows]))
        del s, m, err, sign, logmag  # not kept alive through the next round
    return results


def _mids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The one bisection midpoint rule: geometric where lo > 0, else arithmetic."""
    with np.errstate(invalid="ignore"):
        return np.where(lo > 0, np.sqrt(lo * hi), 0.5 * (lo + hi))


def _refine_flips(lo: list, hi: list, left_sign: list):
    """Shrink certain-sign flip brackets [lo[k], hi[k]] in place and
    together, one evaluation per step (a step generator; see _lockstep).
    left_sign[k] is the sign at lo[k].  Returns lo, hi and every point
    evaluated on the way.  Each certain one lies inside its bracket, on the
    side of its own sign: left of every point of the other sign."""
    seen = [_NO_PTS]
    active = list(range(len(lo)))
    for _ in range(MAX_REFINEMENTS):
        stepping, mids = [], []
        for k in active:  # a scan has a few brackets: scalar arithmetic is cheaper
            a, b = lo[k], hi[k]
            mid = math.sqrt(a * b) if a > 0 else 0.5 * (a + b)  # the rule of _mids
            if a < mid < b and b - a > X_RTOL * max(abs(a), abs(b), 1e-30):
                stepping.append(k)
                mids.append(mid)
        if not mids:
            break
        p = yield np.array(mids)
        seen.append(p)
        active = []
        for k, mid, sign in zip(stepping, mids, p.sign.tolist()):
            if sign == 0:
                continue  # cannot place the flip more precisely than this gap
            if sign == left_sign[k]:
                lo[k] = mid
            else:
                hi[k] = mid
            active.append(k)
    return lo, hi, _Pts(*(np.concatenate(col) for col in zip(*seen)))


def _dip_split(pts: _Pts) -> np.ndarray:
    """Which intervals between neighbouring points (sorted by x) a dip pass
    halves: those at an |f| valley and those with an uncertain end, except
    the intervals with two uncertain ends that lie before the first certain
    point or after the last one (with no certain point, none is left out).

    In a sign scan those end bands hold cancellation noise near 0 or a tail
    below the floor, whose signs the 0+ walk and the analytic tail sign
    settle.  Leaving them whole certifies nothing new: every certified
    region still rests on an evaluated point that clears the rounding bound
    and the floor.  At worst a region there is missed, which leaves a
    pattern incomplete, never wrong.
    """
    logs, inner = pts.logmag, pts.logmag[1:-1]
    unsure = pts.sign == 0
    split = unsure[:-1] | unsure[1:]
    split[1:] |= (inner < logs[:-2]) & (inner <= logs[2:])  # valley at the left end
    split[:-1] |= (inner <= logs[:-2]) & (inner < logs[2:])  # valley at the right end
    certain = np.flatnonzero(~unsure)
    if certain.size:
        band = unsure[:-1] & unsure[1:]
        band[certain[0] : certain[-1]] = False
        split &= ~band
    return split


def _grid_points(grid: np.ndarray):
    """Evaluate the sorted grid, then run up to DIP_PASSES passes that halve
    the intervals :func:`_dip_split` picks, to expose narrow regions (a step
    generator; see _lockstep); returns all points by x."""
    pts = yield grid
    for _ in range(DIP_PASSES):
        split = _dip_split(pts)
        if not split.any():
            break
        pts = pts.merged((yield _mids(pts.x[:-1][split], pts.x[1:][split])))
    return pts


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
    fs: Sequence[ExpSum], opts: ScanOptions | None = None, *, refine: bool = True
) -> list[SignPattern]:
    """``[sign_pattern(f) for f in fs]``, computed in lock step: each grid,
    dip pass, 0+ walk and bisection step evaluates the points that every
    scan still running requests in one evaluator call.

    ``refine=False`` skips flip bisection, for scans that only decide.
    Bisection places transitions and may move witnesses and values, but
    never the sign tuple, ``certified`` or ``complete`` of a certified
    pattern: every certain point it adds lies inside its flip's bracket,
    on the side of its own sign, so each run keeps its place.  An
    uncertified pattern whose regions outnumber the zero bound can differ
    in its signs, since which region is dropped as the weakest depends on
    the witness values.
    """
    fs = list(fs)
    return _lockstep(fs, lambda f: _pattern_steps(f, refine), opts or ScanOptions())


def possible_signs(f: ExpSum) -> list[tuple[str, ...]]:
    """Every sign tuple that a certified ``sign_pattern(f)`` can report,
    read off the coefficients without evaluating f.

    Each tuple alternates from ``sign_at_zero()`` (either start when that
    sign is 0) to ``asymptotic_sign()`` with at most
    ``sign_change_bound()`` changes, so its parity fixes which change
    counts occur; the zero sum gives ``[()]``.  The scan guarantees this by
    construction, not by any further analysis: ``_pattern_steps`` puts an
    uncertified region in front of (behind) the witnessed runs when the
    first (last) one disagrees with those signs, drops regions beyond the
    bound and then clears ``certified``, and ``SignPattern`` enforces
    alternation.
    """
    if f.is_zero:
        return [()]
    s0, _ = f.sign_at_zero()
    s_inf = f.asymptotic_sign()
    return [
        tuple("+-"[(start < 0) ^ (i % 2)] for i in range(changes + 1))
        for start in ((s0,) if s0 else (1, -1))
        for changes in range(f.sign_change_bound() + 1)
        if start * (-1) ** changes == s_inf
    ]


def _pattern_steps(f: ExpSum, refine: bool):
    """The step generator of sign_pattern(f) (see _lockstep); without
    ``refine`` the runs come from the grid, dip and 0+ walk points alone.

    Transitions are placed after the zero-bound repair, from the extents
    of the regions left (a merged region spans both of its parts): mid-way
    between the facing ends of two neighbours, else at the one end that
    exists, else nan.  So each lies between the regions it separates.
    """
    if f.is_zero:
        return SignPattern((), (), certified=True, complete=True)

    s0, mult0 = f.sign_at_zero()
    s_inf = f.asymptotic_sign()
    s_neg = f.sign_at_minus_inf()
    bound = f.sign_change_bound()

    if f.n_terms == 1:
        r = f.rates[0]
        x_rep = 1.0 / r if r > 0 else 1.0
        p = yield np.array([x_rep])
        region = SignRegion("+" if s_inf > 0 else "-", x_rep, p.value(0), bool(p.sign[0]))
        return SignPattern((region,), (), certified=region.certain, complete=True)

    gap = f.rates[1] - f.rates[0]
    x_hi = 1.05 * max(40.0 / gap, f.dominance_point()) + 1e-6
    x_lo = 1e-9 / f.rates[-1]
    pts = yield from _grid_points(np.geomspace(x_lo, x_hi, BASE_POINTS))
    pts = yield from _zero_walk(pts, s0)
    certain = pts.take(np.flatnonzero(pts.sign))
    del pts  # only the certain points are kept while the flips are bisected

    # Bisect the witnessed flips together, then keep their certain points:
    # each lies between its flip's two runs, so it joins the run of its sign.
    if refine:
        flip = np.flatnonzero(np.diff(certain.sign))
        _, _, bisected = yield from _refine_flips(
            certain.x[flip].tolist(), certain.x[flip + 1].tolist(), certain.sign[flip].tolist()
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
        runs.append(_Run(s_inf, None, None, runs[-1].x * 2.0 if runs else x_lo, math.nan, False))
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
    return _lockstep([f], lambda g: _root_steps(g, lo, hi, opts), opts)[0]


def _root_steps(f: ExpSum, lo: float, hi: float, opts: ScanOptions):
    """The step generator of count_roots(f, lo, hi, opts) (see _lockstep)."""
    bound = f.sign_change_bound()

    grid = list(np.linspace(lo, hi, BASE_POINTS))
    if lo < 0.0 < hi:
        grid.extend([0.0, -1e-12 * abs(lo), 1e-12 * hi])
    pts = yield from _grid_points(np.array(sorted(set(grid)), dtype=float))

    certain = pts.take(np.flatnonzero(pts.sign))
    flip = np.flatnonzero(certain.sign[1:] != certain.sign[:-1])
    left, right, _ = yield from _refine_flips(
        certain.x[flip].tolist(), certain.x[flip + 1].tolist(), certain.sign[flip].tolist()
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
