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
from typing import Iterable, Sequence

import numpy as np

_EPS = 2.220446049250313e-16  # float64 machine epsilon

DEFAULT_MERGE_TOL = 1e-12  # relative tolerance for duplicate-rate merging

# Sign-scan and root-isolation budgets.
BASE_POINTS = 256  # initial grid points
DIP_PASSES = 3  # subdivision passes around |f| valleys and uncertain gaps
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

    def _scaled(self, x: float) -> tuple[float, float, float]:
        """Evaluate as (s, m, err) with f(x) = s * exp(m) and |rounding| <= err.

        The shared exponent m = max_i(-r_i * x) keeps the computation free
        of overflow for any real x, so the *sign* of f stays decidable far
        beyond the range where f itself over- or underflows.  ``err`` bounds
        the rounding error of s (exp-argument rounding plus compensated
        summation), on the same scale as s.
        """
        exps = [-r * x for r in self.rates]
        m = max(exps)
        s = 0.0
        comp = 0.0
        abs_sum = 0.0
        err = 0.0
        for e, c in zip(exps, self.coeffs):
            t = c * math.exp(e - m)
            a = abs(t)
            abs_sum += a
            err += a * (2.0 * (abs(e) + abs(m)) + 4.0) * _EPS
            y = t - comp
            tot = s + y
            comp = (tot - s) - y
            s = tot
        err += 2.0 * _EPS * abs_sum
        return s, m, err

    def eval(self, x: float) -> float:
        """Value at x, computed with compensated (Kahan) summation."""
        if self.is_zero:
            return 0.0
        s, m, _ = self._scaled(x)
        if s == 0.0:
            return 0.0
        try:
            return s * math.exp(m)
        except OverflowError:
            return math.copysign(math.inf, s)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (compensated across terms), for x >= 0 grids."""
        xs = np.asarray(xs, dtype=float)
        s = np.zeros_like(xs)
        comp = np.zeros_like(xs)
        for r, c in zip(self.rates, self.coeffs):
            y = c * np.exp(-r * xs) - comp
            tot = s + y
            comp = (tot - s) - y
            s = tot
        return s

    def abs_scale(self, xs: np.ndarray) -> np.ndarray:
        """sum_i |c_i| exp(-r_i x): the natural rounding-error scale at x."""
        xs = np.asarray(xs, dtype=float)
        s = np.zeros_like(xs)
        for r, c in zip(self.rates, self.coeffs):
            s += abs(c) * np.exp(-r * xs)
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

    @property
    def n_changes(self) -> int:
        return max(len(self.regions) - 1, 0)


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


@dataclass(frozen=True)
class _Pt:
    x: float
    s: float  # scaled mantissa: f(x) = s * exp(m)
    m: float
    sign: int  # +1 / -1, or 0 when below the floor or the rounding bound

    @property
    def logmag(self) -> float:
        if self.s == 0.0:
            return -math.inf
        return self.m + math.log(abs(self.s))

    def value(self) -> float:
        if self.s == 0.0:
            return 0.0
        try:
            return self.s * math.exp(self.m)
        except OverflowError:
            return math.copysign(math.inf, self.s)


def _eval_pt(f: ExpSum, x: float, opts: ScanOptions) -> _Pt:
    s, m, err = f._scaled(x)
    log_floor = math.log(opts.sign_floor)
    certain = abs(s) > err and (s != 0.0 and m + math.log(abs(s)) > log_floor)
    sign = (1 if s > 0 else -1) if certain else 0
    return _Pt(x, s, m, sign)


def _refine_flip(
    f: ExpSum, left: _Pt, right: _Pt, opts: ScanOptions, geometric: bool
) -> tuple[_Pt, _Pt, list[_Pt]]:
    """Shrink a certain-sign flip bracket; returns it and the interior points."""
    extra: list[_Pt] = []
    for _ in range(MAX_REFINEMENTS):
        if geometric and left.x > 0:
            mid = math.sqrt(left.x * right.x)
        else:
            mid = 0.5 * (left.x + right.x)
        if not (left.x < mid < right.x):
            break
        if right.x - left.x <= X_RTOL * max(abs(left.x), abs(right.x), 1e-30):
            break
        p = _eval_pt(f, mid, opts)
        extra.append(p)
        if p.sign == 0:
            break  # cannot place the flip more precisely than this gap
        if p.sign == left.sign:
            left = p
        else:
            right = p
    return left, right, extra


def _dip_refine(
    f: ExpSum, pts: list[_Pt], opts: ScanOptions, geometric: bool
) -> list[_Pt]:
    """Subdivide around |f| valleys and uncertain gaps to expose narrow regions."""
    for _ in range(DIP_PASSES):
        inserts: list[float] = []
        logs = [p.logmag for p in pts]
        for i in range(len(pts) - 1):
            a, b = pts[i], pts[i + 1]
            near_valley = (
                (0 < i and logs[i] < logs[i - 1] and logs[i] <= logs[i + 1])
                or (i + 2 < len(pts) and logs[i + 1] <= logs[i] and logs[i + 1] < logs[i + 2])
            )
            if a.sign == 0 or b.sign == 0 or near_valley:
                if geometric and a.x > 0:
                    inserts.append(math.sqrt(a.x * b.x))
                else:
                    inserts.append(0.5 * (a.x + b.x))
        if not inserts:
            break
        pts.extend(_eval_pt(f, x, opts) for x in inserts)
        pts.sort(key=lambda p: p.x)
    return pts


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
    opts = opts or ScanOptions()
    if f.is_zero:
        return SignPattern((), (), certified=True, complete=True)

    s0, mult0 = f.sign_at_zero()
    s_inf = f.asymptotic_sign()
    s_neg = f.sign_at_minus_inf()
    bound = f.sign_change_bound()

    if f.n_terms == 1:
        r = f.rates[0]
        x_rep = 1.0 / r if r > 0 else 1.0
        p = _eval_pt(f, x_rep, opts)
        region = SignRegion("+" if s_inf > 0 else "-", x_rep, p.value(), p.sign != 0)
        return SignPattern((region,), (), certified=region.certain, complete=True)

    gap = f.rates[1] - f.rates[0]
    x_hi = 1.05 * max(40.0 / gap, f.dominance_point()) + 1e-6
    x_lo = 1e-9 / f.rates[-1]
    grid = np.geomspace(x_lo, x_hi, BASE_POINTS)
    pts = [_eval_pt(f, float(x), opts) for x in grid]
    pts = _dip_refine(f, pts, opts, geometric=True)

    # Materialize the 0+ region if the grid starts past its end.
    if s0 != 0:
        first_certain = next((p for p in pts if p.sign != 0), None)
        if first_certain is not None and first_certain.sign != s0:
            x = pts[0].x
            for _ in range(MAX_REFINEMENTS):
                x /= 4.0
                if x < 1e-300:
                    break
                p = _eval_pt(f, x, opts)
                pts.append(p)
                if p.sign == s0:
                    break
            pts.sort(key=lambda q: q.x)

    certain = [p for p in pts if p.sign != 0]

    # Assemble the alternating region runs, with analytic endpoints.
    runs: list[list[_Pt]] = []
    run_signs: list[int] = []
    for p in certain:
        if run_signs and run_signs[-1] == p.sign:
            runs[-1].append(p)
        else:
            runs.append([p])
            run_signs.append(p.sign)
    if s0 != 0 and (not run_signs or run_signs[0] != s0):
        runs.insert(0, [])
        run_signs.insert(0, s0)
    if s_inf != 0 and (not run_signs or run_signs[-1] != s_inf):
        runs.append([])
        run_signs.append(s_inf)

    # Transition abscissae between consecutive runs.
    transitions: list[float] = []
    for i in range(len(runs) - 1):
        left = runs[i][-1] if runs[i] else None
        right = runs[i + 1][0] if runs[i + 1] else None
        if left is not None and right is not None:
            lo, hi, extra = _refine_flip(f, left, right, opts, geometric=True)
            for p in extra:
                if p.sign == run_signs[i]:
                    runs[i].append(p)
                elif p.sign == run_signs[i + 1]:
                    runs[i + 1].insert(0, p)
            transitions.append(0.5 * (lo.x + hi.x))
        elif left is not None:
            transitions.append(left.x)
        elif right is not None:
            transitions.append(right.x)
        else:
            transitions.append(math.nan)

    regions: list[SignRegion] = []
    for sign, run in zip(run_signs, runs):
        label = "+" if sign > 0 else "-"
        if run:
            best = max(run, key=lambda p: p.logmag)
            regions.append(SignRegion(label, best.x, best.value(), True))
        else:
            # Analytically implied region without a witness above the floor.
            if regions:
                x_guess = regions[-1].x * 2.0
            elif certain:
                x_guess = certain[0].x / 2.0
            else:
                x_guess = x_lo
            regions.append(SignRegion(label, x_guess, f.eval(x_guess), False))

    # A certified pattern can never exceed the zero bound; if numerical dust
    # produced extra alternations anyway, drop the weakest regions.
    certified = all(r.certain for r in regions)
    while len(regions) - 1 > bound and len(regions) >= 2:
        weakest = min(
            range(len(regions)), key=lambda i: abs(regions[i].value)
        )
        regions.pop(weakest)
        certified = False
        if 0 < weakest < len(regions):
            merged = max(
                (regions[weakest - 1], regions[weakest]), key=lambda r: abs(r.value)
            )
            regions[weakest - 1] = merged
            regions.pop(weakest)
        if transitions:
            transitions = transitions[: len(regions) - 1]

    sign_right_of_zero = (
        (1 if regions[0].sign == "+" else -1) if regions else s0
    )
    sign_left_of_zero = sign_right_of_zero * (-1 if mult0 % 2 else 1)
    neg_min = 1 if (s_neg != 0 and s_neg != sign_left_of_zero) else 0
    accounted = (len(regions) - 1) + mult0 + neg_min
    complete = certified and accounted == bound

    return SignPattern(tuple(regions), tuple(transitions), certified, complete)


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
    bound = f.sign_change_bound()

    grid = list(np.linspace(lo, hi, BASE_POINTS))
    if lo < 0.0 < hi:
        grid.extend([0.0, -1e-12 * abs(lo), 1e-12 * hi])
    grid = sorted(set(grid))
    pts = [_eval_pt(f, x, opts) for x in grid]
    pts = _dip_refine(f, pts, opts, geometric=False)

    certain = [p for p in pts if p.sign != 0]
    brackets: list[tuple[float, float]] = []
    touches: list[float] = []
    log_floor = math.log(opts.sign_floor)
    for a, b in zip(certain, certain[1:]):
        if a.sign != b.sign:
            left, right, _ = _refine_flip(f, a, b, opts, geometric=False)
            brackets.append((left.x, right.x))
        else:
            interior = [p for p in pts if a.x < p.x < b.x]
            if interior and all(p.logmag <= log_floor for p in interior):
                touches.append(0.5 * (a.x + b.x))

    count = len(brackets)
    if count > bound:
        raise RootScanInconclusive(
            f"found {count} sign-change roots but the coefficient bound is {bound}; "
            "evaluation is numerically inconsistent",
            brackets,
        )

    implied = 0
    if certain:
        if f.sign_at_minus_inf() != certain[0].sign:
            implied += 1
        if f.asymptotic_sign() != certain[-1].sign:
            implied += 1
    extra0 = 0
    if lo <= 0.0 <= hi:
        _, mult0 = f.sign_at_zero()
        extra0 = mult0 - 1 if mult0 % 2 else mult0
    certified = count + implied + extra0 == bound
    return RootScan(count, tuple(brackets), certified, tuple(touches))
