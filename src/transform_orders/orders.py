"""Star and convex transform order decisions between parallel systems of
any equal number of components: analytic certificates where one is known
(at two components), certified numerical scans everywhere else.

Everything here analyses the gap function

    V(x; a, b) = survival_Y(x) - survival_X(a*x + b)

for systems X (rates ``lam``) and Y (rates ``theta``).  The star order
X <= Y holds iff for every a > 0 the gap with b = 0 changes sign at most
once and only in the order "-,+"; the convex order holds iff for all a, b
the gap changes sign at most twice and a double change is "+,-,+".  Any
certified pattern containing a "+" immediately followed by "-" therefore
refutes the star order, and three or more changes (or a "-,+,-") refute
the convex order.

For two-component systems whose hazard vectors are ordered by
majorization there is an analytic certificate for the star order, while
the convex order genuinely fails when both systems are strictly
heterogeneous: inside the parameter strip theta_1/lam_2 < a <
theta_1/lam_1 a shift b close to 0 produces the forbidden "+,-,+,-"
variation.  ``violation_search`` seeks such a witness for any n, inside
theta_1/lam_n < a < theta_1/lam_1; since
dV/da = x * density_X(a*x + b) > 0, the gap is increasing in a and the
search can walk a downward from the top of the strip.

``star_check`` and ``convex_check`` are one ladder (``_verdict``), whose
steps run in this order:

1. entry checks: identical rates (``close_to``) give both orders their
   ``CERT_IDENTICAL`` HOLDS before any survival is built; then
   ``majorizes``, which rejects a length mismatch, and ``_Gaps``, which
   builds both survivals once and caps n;
2. the n = 2 analytic table, each certificate spot-checked
   (``_spot_checked``): a majorized pair holds the star order
   (``CERT_MAJORIZATION``), and with a homogeneous base, whose strip is
   empty, the convex order too (``CERT_HOMOGENEOUS``);
3. the search: the strip search of ``violation_search``
   (``_strip_search``, on the ladder's own gaps) for a majorized,
   strictly heterogeneous pair under the convex order, and otherwise one
   scan of the grid, the a-grid at b = 0 for the star order and the
   (a, b) grid, b >= 0, for the convex one; a certified violation FAILS
   with its witness;
4. otherwise the verdict is INCONCLUSIVE: a grid without a violation
   proves nothing, so every HOLDS names its certificate.

``_scan`` is the one place where sign patterns are scanned: every verdict
probes a list of (a, b) through it, with both survivals built once per call.
Each gap's structure (sign at 0+, tail sign, zero bound, grid ends) comes
from its coefficients; for three or more components its points are
evaluated in product form (``product``, from the rates and (a, b) at 2n
exponentials a point), for two from the coefficients.  ``_Gaps.product``
picks the form for the scans (``_Gaps.block``) and ``sign_map``
(``_Gaps.evaluator``) alike; ``sign_map`` only evaluates, so it builds no
gap that its form does not read (see its docstring).
It hands the probes to ``expsum.sign_patterns`` in blocks of 1, 4, 10,
then ``MAX_BLOCK`` = 64 (a list of at most 15 probes, such as a list of
spot checks, goes whole), whose patterns are scanned together: each
evaluator call carries the points of the whole block, and the first
certified violation in probe order is still the one returned.  The sizes
follow where violations land: a list's first certified violation is
nearly always among its first 5 probes (the a-walk and the n = 2 grids
within the first 5), most lists have none, and the few late ones
(reversed n >= 3 a-grids) land past probe 40, so after 15 probes a
block is as long as memory allows.  The b-halving of
``violation_search`` ends at its first probe with a certified '-'
region (``_scan``'s ``stop``), which in practice is its first.

The grids of ``star_check`` (the a-grid
at b = 0) and ``convex_check`` (the (a, b) grid) are pruned before
scanning, through ``_kept``, by two rules; a probe either rule drops
cannot yield a certified violation, so only the other probes are scanned
and the first certified violation is the same probe as without them:
pruning never changes a verdict.  The first reads
the rates alone: where a * lam_(i) >= theta_(i) for every i (rates in
ascending order, products exact; ``_dominance_bounds``) the gap is >= 0
for every b >= 0, and where a * lam_(i) <= theta_(i) for every i it is
<= 0 at b = 0, and a violation of either order needs both signs.  The
second, ``_may_violate``, drops a probe whose gap admits no violating sign
tuple among ``expsum.possible_signs``: the signs at 0+ and at infinity,
and at most ``zero_bound()`` changes.  That bound is the least of the sign
changes of the exact prefix sums of the coefficients (Laguerre's rule,
which counts the exact zero at 0 of each b = 0 gap) and of those of the
derivative of exp(r x) times the gap, plus 1 unless the gap is 0 at 0 (a
Rolle step, at three pivots r).  It decides the
probes the first rule leaves in one array pass over the gaps'
coefficients and rates (``_Gaps.rows``, the row builder it shares with
``sign_map``): rows in rate order, prefix sums by ``np.cumsum``,
``math.fsum`` only where a running sum does not clear its rounding
bound and its row is not one of integers, whose sums are exact (a
Rolle-step prefix that does not clear it is charged the most changes it
can add), and the sign at 0+ of every row that may be kept from one batch of
derivative sums.  The gap of each kept row is built straight from its
sorted row, with its sign at 0+ and dominance point already known, so the
scan computes neither again; ``canonicalize`` runs only where it would
change a row's terms.  Pruned rows build nothing.  At n = 2 the second
rule already drops every probe the first one does.  Of the 335 probes
of the convex grid it keeps 2, 7 and 0 on the reversed classic pair,
(1, 4) vs (2, 2.5) and the rescaled narrow pair, where Laguerre's rule
alone keeps 90, 127 and 40.  At n >= 3 the second
drops almost none of the a-grid probes, while the first leaves only those
with a strictly between min_i and max_i of theta_(i)/lam_(i): 13 of 65 on
linspace-rate pairs, 1-23 of 67 on the benchmark's higher-n pairs.  On
the (a, b) grid it drops every probe above that range and the b = 0 ones
below it, and 160-250 of 335 are left; the second rule then keeps 70 of
the 228 left on the reversed linspace n = 3 pair, and nearly all at
n >= 4.  The other scans run unfiltered
and build their gaps one at a time:
``violation_search`` would gain nothing, since its b-halving nearly
always ends at its first probe, and on the classic pair the filter
prunes only the last 6 of its 40 probes.  The spot checks and
``convex_check_at`` report every scanned pattern.

Scans decide first and bisect only what a verdict reports.  Flip bisection
places transitions and witnesses but never changes which pattern is a
certified violation, so the scans whose patterns are discarded
(``violation_search`` and the grids) run without it.  ``_scan``
then bisects the witness alone, from the certain points its own scan
left (``expsum.finished_pattern``), in one more lock-step call: no probe
is scanned twice.  Per-point results do not depend on the batch, so the
witness is byte-identical to the one a fully bisected scan finds.  The
grid verdicts without a witness carry no evidence, so they bisect
nothing, and the b-halving of ``violation_search`` keeps only the b of
the shift it stops at, so it has no witness to bisect.  It halves b only
up to the first shift whose pattern certifies a '-' region: a smaller
shift lowers the gap at every x, so it only weakens the '+' regions
that pattern lacks.  The spot checks and ``convex_check_at`` return
their scanned patterns as evidence and keep bisection throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import Callable, Iterable

import numpy as np

from .expsum import (
    _BLOCK,
    ExpSum,
    ScanOptions,
    SignPattern,
    SignRegion,
    SumBlock,
    _certify,
    _exact_prefix_sums,
    _PaddedSums,
    _sign_changes,
    canonical_rows,
    certain_signs,
    dominance_point_rows,
    finished_pattern,
    known_sum,
    sign_at_zero_rows,
    sign_patterns,
    rolle_bounds_rows,
    sign_tuples,
)
from .product import ProductGaps
from .systems import HazardVector, density_and_survival, inverse_survival, majorizes, survival


class Status(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"


class RegionLabel(Enum):
    FAV1 = "FAV1"  # a >= 1: gap is nonnegative outright
    FAV2 = "FAV2"  # theta1/lam1 <= a < 1: pattern "+" or "+,-,+"
    FAV3 = "FAV3"  # 0 < a <= theta1/lam2: pattern "+,-"
    VIOLATING_STRIP = "VIOLATING_STRIP"  # theta1/lam2 < a < theta1/lam1


# Analytic certificate tags.
CERT_MAJORIZATION = "majorization"  # majorized hazards imply the star order
CERT_HOMOGENEOUS = "homogeneous-base"  # equal-rate base system ages fastest
CERT_IDENTICAL = "identical-rates"  # same distribution, identity transform

# Scan grids and search budgets.
A_POINTS = 64  # log-spaced a-grid points, before the analytic breakpoints
B_FACTORS = (0.0, 0.01, 0.05, 0.25, 1.0)  # convex-scan shifts, units of 1/(theta_1+theta_n)
# Cap on the shifts b the search scans at the strip top: it halves b only
# while no '-' region is certified, and stops at the first shift that
# certifies one, whether or not it certifies "+,-,+".
SEARCH_MAX_HALVINGS = 40
SEARCH_A_STEPS = 12  # geometric a-steps down from the strip top before the sweep

# Probe blocks of a scan.  Each block costs a fixed set of evaluator calls
# (the sign grid, the dip passes, the walk to 0+ and the guessed ends),
# about the work of five probes, so a long list is cut into few blocks;
# but a list's first certified violation, where it has one, is nearly
# always among its first 5 probes, so the first blocks are short.  A list
# of at most sum(LEAD_BLOCKS) = 15 probes, such as the spot checks, is one
# block.
LEAD_BLOCKS = (1, 4, 10)
# Most probes whose sign patterns are computed together, from a memory
# budget: every pattern in flight holds its evaluated points (33 bytes each,
# up to about 2000), and each lock-step round evaluates the new points of
# all of them at once.  On the longest list the verdicts scan, the 335
# (a, b) probes of the reversed linspace n = 6 convex grid, blocks of 64
# peak at 34.4 MB of process memory, against 33.7 MB for blocks of 16 and
# 34.2 MB one probe at a time; one block of all 335 peaks at 41.7 MB.  On
# the benchmark workloads 64 costs up to 1 MB over blocks of 16.
MAX_BLOCK = 64


class ViolationSearchError(RuntimeError):
    """Counterexample construction failed.  ``attempts`` holds an (x0, b0)
    pair for each shift the b-halving actually scanned, in order: up to
    its hit, or up to the shift where it stopped without one."""

    def __init__(self, message: str, attempts: tuple[tuple[float, float], ...]):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class Witness:
    """Concrete (a, b) and the certified sign pattern that refutes an order."""

    a: float
    b: float
    pattern: SignPattern


@dataclass(frozen=True)
class OrderVerdict:
    status: Status
    certificate: str | None
    witness: Witness | None = None
    detail: str = ""
    evidence: tuple[tuple[float, SignPattern], ...] = ()

    def __post_init__(self):
        if self.status is Status.FAILS and self.witness is None:
            raise ValueError("a FAILS verdict must carry a witness")


@dataclass(frozen=True)
class CounterexampleReport:
    """A constructed convex-order violation for a majorized, strictly
    heterogeneous pair: the violating (a, b), the parameter strip it lies
    in, the certified "+,-,+,-" pattern, and the b0/x0 seeds used."""

    a: float
    b: float
    strip: tuple[float, float]
    pattern: SignPattern
    b0_used: float
    x0_seed: float

    def __post_init__(self):
        a_lo, a_hi = self.strip
        if not (a_lo < self.a < a_hi):
            raise ValueError("violating a must lie strictly inside the strip")
        if len(self.pattern.regions) < 4 or self.pattern.regions[0].sign != "+":
            raise ValueError("pattern must have >= 4 regions starting with '+'")

    def concavity_window(self) -> tuple[float, float]:
        """Argument interval of the transform certain to contain concavity.

        The second and fourth sign regions map to points where the
        composed transform lies below the comparison line and the third
        to a point above it, so the transform is non-convex between the
        images a*x + b of the second and fourth representatives.
        """
        r = self.pattern.regions
        return (self.a * r[1].x + self.b, self.a * r[3].x + self.b)


@dataclass(frozen=True)
class SignMap:
    """Grid of signs of the gap function over (x, a) at fixed b; sign 0
    marks cells whose magnitude is below the sign floor (uncertain)."""

    a_values: tuple[float, ...]
    x_values: tuple[float, ...]
    signs: tuple[tuple[int, ...], ...]  # signs[i][j] at (a_values[i], x_values[j])
    b: float


@dataclass(frozen=True)
class OrderOptions:
    """The settable knobs; scan grids and search budgets are module constants."""

    scan: ScanOptions = field(default_factory=ScanOptions)


class _Gaps:
    """The gap V(.; a, b) for any (a, b), from survivals built once; each
    gap is built once, so a scan that probes it again reuses it."""

    def __init__(self, lam: HazardVector, theta: HazardVector):
        self.lam, self.theta = lam, theta
        self.surv_x, self.surv_y = survival(lam), survival(theta)
        self._built: dict[tuple[float, float], ExpSum] = {}
        # The product form takes both systems at the same three or more
        # components, where a gap has up to 2^(n+1) - 2 terms; at two the
        # coefficient form is the faster one.
        self.product = lam.n == theta.n >= 3

    def block(self, probes: list[tuple[float, float]]) -> list[ExpSum] | ProductGaps:
        """The gaps at the (a, b) probes as one scan block: evaluated in
        product form where ``product`` is set, and from their
        coefficients otherwise (at two components, and for systems of
        different sizes)."""
        fs = [self(a, b) for a, b in probes]
        if not self.product:
            return fs
        return ProductGaps(fs, self.lam.rates, self.theta.rates, probes)

    def evaluator(self, probes: list[tuple[float, float]]) -> SumBlock:
        """The gaps at the (a, b) probes in the form :meth:`block` picks,
        for evaluation only: its points are those of :meth:`block`, bit
        for bit, but no sum is built.  The product form reads only the
        rates and the probes, and the coefficient form is laid out from
        :meth:`rows`, where only the rows that ``canonicalize`` changes
        build their gap."""
        if self.product:
            return ProductGaps((), self.lam.rates, self.theta.rates, probes)
        return _PaddedSums.from_rows(*self.rows(probes)[:2])

    def rows(self, probes: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rates, coeffs, exact): the gaps at the (a, b) probes as (probes
        x terms) arrays from one array pass, and the mask of the rows that
        are their gap term for term.

        Each row holds Y's survival terms and X's negated, shifted terms
        ``(a * r, -(c * exp(-r * b)))``, with the coefficients taken once
        per distinct b from :meth:`ExpSum._shifted_terms`, sorted by rate.
        A row that :func:`canonical_rows` keeps term for term is its gap,
        bit for bit.  Any other row is its gap, built by ``canonicalize``
        (and kept), padded in front with zero coefficients at its own
        first rate as :class:`~transform_orders.expsum._PaddedSums` pads
        it; the zero sum is all zeros at rate 0.  A row with a rate that
        overflows is not kept term for term either, and building its gap
        raises the ``ValueError`` of ``canonicalize``, which names that
        rate."""
        x, y = self.surv_x, self.surv_y
        shifted = {b: tuple(-c for _, c in x._shifted_terms(1.0, b))
                   for b in {b for _, b in probes}}
        a = np.array([a for a, _ in probes])
        coeffs = np.array([y.coeffs + shifted[b] for _, b in probes])
        with np.errstate(over="ignore", invalid="ignore"):
            rates = np.hstack([np.broadcast_to(y.rates, (len(probes), y.n_terms)),
                               a[:, None] * np.array(x.rates)])
            coeffs, exact = canonical_rows(rates, coeffs)
        rates = np.sort(rates, axis=1)  # in the order of each row's sorted coefficients
        n = rates.shape[1]
        for j in np.flatnonzero(~exact).tolist():
            gap = self(*probes[j])
            pad = n - gap.n_terms
            rates[j] = (gap.rates[:1] or (0.0,)) * pad + gap.rates
            coeffs[j] = (0.0,) * pad + gap.coeffs
        return rates, coeffs, exact

    def __call__(self, a: float, b: float = 0.0) -> ExpSum:
        gap = self._built.get((a, b))
        if gap is None:
            gap = self._built[a, b] = self.surv_y.minus_shift_scale(self.surv_x, a, b)
        return gap

    def keep(self, a: float, b: float, gap: ExpSum) -> None:
        """Take ``gap`` as the gap at (a, b), built elsewhere bit for bit
        as :meth:`ExpSum.minus_shift_scale` builds it."""
        self._built.setdefault((a, b), gap)


def survival_gap(
    lam: HazardVector, theta: HazardVector, a: float, b: float = 0.0
) -> ExpSum:
    """V(x) = survival_theta(x) - survival_lam(a*x + b) as an ExpSum."""
    return _Gaps(lam, theta)(a, b)


def _scan(
    gaps: _Gaps,
    probes: Iterable[tuple[float, float]],
    violating: Callable[[tuple[str, ...]], bool],
    opts: ScanOptions,
    *,
    refine: bool = True,
    stop: Callable[[SignPattern], bool] | None = None,
) -> tuple[Witness | None, list[tuple[float, SignPattern]]]:
    """Sign patterns of the gap ``gaps(a, b)`` at each (a, b) probe, in
    order, up to the first certified one whose sign tuple is ``violating``:
    returns it as a witness (or None) and every scanned (a, pattern).
    With ``stop``, the scan also ends, without a witness, at the first
    pattern that ``stop`` accepts, which is then the last one scanned.

    Probes go to :func:`sign_patterns` in blocks of LEAD_BLOCKS (1, 4,
    10), then MAX_BLOCK, so an early violation costs little extra work and
    a long scan shares each evaluator call among many patterns.  A list of
    at most sum(LEAD_BLOCKS) = 15 probes, such as the spot checks, is one
    block.

    With ``refine=False`` the patterns skip flip bisection, which never
    changes which probe violates, and only the witness is bisected, from
    the points its own scan left (:func:`finished_pattern`), in one more
    lock-step call; so it is byte-identical to a refined scan's.  A
    finished witness that no longer certifies the violation is a
    numerical defect.  The finishing states of a block are kept only
    while its patterns are read.
    """
    probes = list(probes)
    scanned = []
    if len(probes) <= sum(LEAD_BLOCKS):
        sizes = iter((len(probes),))
    else:
        sizes = chain(LEAD_BLOCKS, repeat(MAX_BLOCK))
    start = 0
    while start < len(probes):
        block = probes[start : start + next(sizes)]
        unfinished: dict = {}
        patterns = sign_patterns(gaps.block(block), opts, refine=refine, unfinished=unfinished)
        for k, ((a, b), p) in enumerate(zip(block, patterns)):
            scanned.append((a, p))
            if p.certified and violating(p.signs()):
                if k in unfinished:
                    p = finished_pattern(gaps.block([(a, b)]), unfinished[k], opts)
                    if not (p.certified and violating(p.signs())):
                        raise RuntimeError(
                            f"bisected witness at a={a}, b={b} does not certify the "
                            "violation; this is a numerical defect"
                        )
                return Witness(a, b, p), scanned
            if stop is not None and stop(p):
                return None, scanned
        start += len(block)
    return None, scanned


def _spot_checked(
    gaps: _Gaps,
    probes: list[tuple[float, float]],
    violating: Callable[[tuple[str, ...]], bool],
    opts: ScanOptions,
    certificate: str,
    detail: str,
) -> OrderVerdict:
    """HOLDS on ``certificate``, with the spot checks' patterns as evidence;
    a certified violation among them is a numerical defect."""
    hit, evidence = _scan(gaps, probes, violating, opts)
    if hit is not None:
        raise RuntimeError(
            f"spot check at a={hit.a}, b={hit.b} contradicts the {certificate} "
            "certificate; this is a numerical defect"
        )
    return OrderVerdict(Status.HOLDS, certificate, detail=detail, evidence=tuple(evidence))


def _may_violate(
    gaps: _Gaps, grid: list[tuple[float, float]], violating: Callable[[tuple[str, ...]], bool]
) -> list[tuple[float, float]]:
    """The probes of ``grid`` whose gap's ``possible_signs`` include a
    sign tuple that ``violating`` accepts, in grid order, from one array
    pass over the gaps' coefficients instead of one gap per probe.
    :func:`_kept` hands it only the probes its rate-dominance rule leaves,
    so the probes that rule drops build no row either.

    The rows are those of :meth:`_Gaps.rows`: each is its gap, sorted by
    rate, or padded in front with zero coefficients at its first rate,
    which change neither prefix-sum pass.  So each row's zero bound and
    tail sign (its first nonzero coefficient) are its gap's.  The zero
    bound is that of :func:`~transform_orders.expsum.zero_bound_rows`,
    taken in two steps: Laguerre's count for every row, then the Rolle
    step (:func:`~transform_orders.expsum.rolle_bounds_rows`) for the rows
    that count leaves open.  The probe is kept when both starts admit
    a violating tuple and pruned when neither does; otherwise the sign at
    0+ decides.  The exact rows that may be kept get their sign at 0+
    (:func:`sign_at_zero_rows`), and the kept ones their dominance point
    (:func:`dominance_point_rows`), all at once; each kept one goes into
    ``gaps`` as a sum built from its row, with both already known.  Pruned
    rows build nothing.  Rows go in chunks of at most ``_BLOCK`` entries.
    """
    step = max(1, _BLOCK // (gaps.surv_y.n_terms + gaps.surv_x.n_terms))
    starts: dict[tuple[int, int], tuple[bool, bool]] = {}

    def ends(bound: int, tail: int) -> tuple[bool, bool]:
        if (bound, tail) not in starts:
            starts[bound, tail] = tuple(any(map(violating, sign_tuples((s,), bound, tail)))
                                        for s in (1, -1))
        return starts[bound, tail]

    kept = []
    for i in range(0, len(grid), step):
        part = grid[i : i + step]
        rates, coeffs, exact = gaps.rows(part)
        run = _exact_prefix_sums(coeffs)
        laguerre = _sign_changes(run)
        tails = np.sign(coeffs[np.arange(len(part)), np.argmax(coeffs != 0.0, axis=1)])
        tails = tails.astype(int).tolist()
        both = [ends(b, t) for b, t in zip(laguerre.tolist(), tails)]
        # A smaller bound admits fewer tuples: the rows Laguerre's count
        # prunes stay pruned, so only the others take the Rolle step.
        rows = [j for j, e in enumerate(both) if any(e)]
        if rows:
            rolle, _ = rolle_bounds_rows(rates[rows], coeffs[rows], run[rows])
            for j, b in zip(rows, np.minimum(laguerre[rows], rolle.min(axis=0)).tolist()):
                both[j] = ends(b, tails[j])
        rows = [j for j in np.flatnonzero(exact).tolist() if any(both[j])]
        at_zero = dict(zip(rows, sign_at_zero_rows(rates[rows], coeffs[rows])))
        built = []
        for j, (ab, (up, down)) in enumerate(zip(part, both)):
            keep = up
            if up != down:
                s0, _ = at_zero[j] if j in at_zero else gaps(*ab).sign_at_zero()
                keep = s0 == 0 or (up if s0 > 0 else down)
            if keep:
                kept.append(ab)
                if j in at_zero:
                    built.append(j)
        for j, dom in zip(built, dominance_point_rows(rates[built], coeffs[built])):
            gaps.keep(*part[j], known_sum(rates[j].tolist(), coeffs[j].tolist(), at_zero[j], dom))
    return kept


def _dominance_bounds(lam: HazardVector, theta: HazardVector) -> tuple[float, float]:
    """(lo, hi): the largest float a with a * lam_(i) <= theta_(i) for
    every i, and the smallest with a * lam_(i) >= theta_(i) for every i,
    the rates in ascending order and each product exact, not rounded.

    These are min_i theta_(i)/lam_(i) rounded down and max_i
    theta_(i)/lam_(i) rounded up.  A float quotient is within one step of
    the exact ratio, and the integer ratios of the three floats tell on
    which side it lies.
    """
    lo, hi = math.inf, 0.0
    for r, t in zip(lam.rates, theta.rates, strict=True):
        q = t / r
        if q == math.inf:  # the exact ratio exceeds the largest float
            lo, hi = min(lo, sys.float_info.max), math.inf
            continue
        (qn, qd), (rn, rd), (tn, td) = (v.as_integer_ratio() for v in (q, r, t))
        over = qn * rn * td - tn * qd * rd  # the sign of q * r - t
        lo = min(lo, q if over <= 0 else math.nextafter(q, 0.0))
        hi = max(hi, q if over >= 0 else math.nextafter(q, math.inf))
    return lo, hi


def _kept(
    gaps: _Gaps, grid: list[tuple[float, float]], violating: Callable[[tuple[str, ...]], bool]
) -> list[tuple[float, float]]:
    """The probes of ``grid``, in grid order, where the gap can have both
    signs and its ``possible_signs`` include a sign tuple that
    ``violating`` accepts (:func:`_may_violate`): a probe without one
    cannot yield a certified violation, so the first certified violation
    among them is the same probe as on the whole grid.

    The gap is V = F_X(a x + b) - F_Y(x), with F_X(t) = prod_i (1 -
    exp(-lam_(i) t)) and F_Y likewise.  Where a * lam_(i) >= theta_(i) for
    every i (a >= hi of :func:`_dominance_bounds`) and b >= 0, each factor
    of F_X(a x + b) is at least the matching factor of F_Y(x), so V >= 0
    on [0, inf); where a * lam_(i) <= theta_(i) for every i (a <= lo) and
    b = 0, V <= 0.  A violation of either order has regions of both signs,
    so these probes are dropped before any row is built.
    """
    lo, hi = _dominance_bounds(gaps.lam, gaps.theta)
    two_signed = [(a, b) for a, b in grid
                  if not (a >= hi and b >= 0.0) and not (a <= lo and b == 0.0)]
    return _may_violate(gaps, two_signed, violating)


def _unconfirmed_region(
    gap: list[ExpSum] | ProductGaps, pattern: SignPattern, opts: ScanOptions
) -> SignRegion | None:
    """The first region of pattern whose sign is not certain at its
    witness abscissa by a fresh evaluation of the one-gap block ``gap``
    (clearing both the rounding bound and the sign floor), or None when
    every one is.  The block from ``_Gaps.block`` brings the evaluator of
    the scan that found the pattern, so a region fails only on its sign."""
    (signs,) = certain_signs(gap, [[r.x for r in pattern.regions]], opts)
    for sign, region in zip(signs.tolist(), pattern.regions):
        if sign != (1 if region.sign == "+" else -1):
            return region
    return None


def _star_signs(signs: tuple[str, ...]) -> bool:
    # Any "+" immediately followed by "-" breaks "at most one change, in
    # the order '-,+'"; alternation makes this equivalent to the criterion.
    return any(s0 == "+" and s1 == "-" for s0, s1 in zip(signs, signs[1:]))


def _convex_signs(signs: tuple[str, ...]) -> bool:
    # Allowed: <= 1 change in any order, or exactly two in the order "+,-,+".
    changes = len(signs) - 1
    return changes >= 3 or (changes == 2 and signs[0] == "-")


def _strip(lam: HazardVector, theta: HazardVector) -> tuple[float, float]:
    """The strip (theta1/lam_n, theta1/lam_1) of a that can host violations."""
    return theta.rates[0] / lam.rates[-1], theta.rates[0] / lam.rates[0]


def _a_grid(lam: HazardVector, theta: HazardVector) -> list[float]:
    """Logarithmic a-grid covering all analytic breakpoints.

    The case boundaries sit at rate ratios (theta1/lam_n, theta1/lam_1, 1),
    so those are always included exactly.
    """
    lo = theta.rates[0] / (2.0 * lam.rates[-1])
    grid = set(np.geomspace(min(lo, 1.0), max(2.0, 2.0 * lo), A_POINTS).tolist())
    grid.update((*_strip(lam, theta), 1.0))
    return sorted(grid)


def region_classify(
    a: float, b: float, lam: HazardVector, theta: HazardVector
) -> RegionLabel:
    """Classify the shift/scale parameters against the analytic case map.

    Requires a majorized, non-identical pair.  Boundaries belong to the
    favorable side; only the open strip between theta1/lam2 and
    theta1/lam1 can host convex-order violations.
    """
    if not (0.0 < a < math.inf):
        raise ValueError(f"a must be positive and finite, got {a}")
    if not (0.0 <= b < math.inf):
        raise ValueError(f"b must be nonnegative and finite, got {b}")
    if not majorizes(lam, theta):
        raise ValueError("region classification assumes majorized hazard vectors")
    if lam.close_to(theta):
        raise ValueError("degenerate: identical rate vectors admit no classification")
    a_lo, a_hi = _strip(lam, theta)
    if a >= 1.0:
        return RegionLabel.FAV1
    if a >= a_hi:
        return RegionLabel.FAV2
    if a <= a_lo:
        return RegionLabel.FAV3
    return RegionLabel.VIOLATING_STRIP


def dVda(lam: HazardVector, x: float, a: float, b: float = 0.0) -> float:
    """Partial derivative of the gap in a: x * density_lam(a*x + b).

    Strictly positive for x > 0, which makes the gap increasing in a and
    justifies the downward a-scan of the violation search.
    """
    if not (0.0 <= x < math.inf):
        raise ValueError(f"x must be nonnegative and finite, got {x}")
    if not (0.0 < a < math.inf):
        raise ValueError(f"a must be positive and finite, got {a}")
    if not (0.0 <= b < math.inf):
        raise ValueError(f"b must be nonnegative and finite, got {b}")
    if x == 0.0:
        return 0.0
    return x * density_and_survival(lam, a * x + b)[0]


def _dip_certified(p: SignPattern) -> bool:
    """Whether ``p`` has a certain '-' region."""
    return any(r.sign == "-" and r.certain for r in p.regions)


def violation_search(
    lam: HazardVector, theta: HazardVector, opts: OrderOptions | None = None
) -> CounterexampleReport:
    """Construct a certified convex-order violation inside the strip.

    Strategy: (i) seed x0 = 1/(theta_1+theta_n) and derive the shift budget
    slack = survival_X^{-1}(survival_Y(x0)) - a_hi*x0 > 0, then scan the
    gap at the top of the strip from b = slack/2, halving b (at most
    SEARCH_MAX_HALVINGS shifts) only while no '-' region is certified.
    The first shift that certifies one ends the halving: it is the hit
    when its pattern is a certified "+,-,+", and otherwise the search
    fails, since dV/db = density_X(a*x + b) > 0 makes a smaller shift
    lower V at every x, which only weakens the '+' regions the pattern
    lacks.  By the choice of slack the gap at x0 is negative from the
    first shift on, so that shift is nearly always the last one scanned;
    (ii) with that b0 fixed, walk a downward from a_hi through
    geometrically growing offsets until the full "+,-,+,-" certifies (the
    gap is increasing in a, so the fourth region grows as a falls);
    (iii) evaluate the witness once more at its region abscissae
    (``_unconfirmed_region``).  That re-runs the evaluator of the scan
    that found it, so it catches a region the scan misread but is not an
    independent check of the arithmetic.  Both scans decide without flip
    bisection: the b-halving keeps only b0, and only the "+,-,+,-"
    witness is bisected, from the points of its own scan (see ``_scan``).
    """
    if not majorizes(lam, theta):
        raise ValueError("violation_search requires majorized hazard vectors")
    if lam.close_to(theta):
        raise ValueError("identical rate vectors: nothing to violate")
    a_lo, a_hi = _strip(lam, theta)
    if not a_lo < a_hi:
        raise ValueError(
            f"degenerate strip ({a_lo:.6g}, {a_hi:.6g}): homogeneous base rates "
            "admit no convex-order violation"
        )
    return _strip_search(_Gaps(lam, theta), (a_lo, a_hi), (opts or OrderOptions()).scan)


def _strip_search(
    gaps: _Gaps, strip: tuple[float, float], opts: ScanOptions
) -> CounterexampleReport:
    """Steps (i)-(iii) of :func:`violation_search` on the gaps of a
    majorized, strictly heterogeneous pair whose strip (a_lo, a_hi) is
    ``strip``; raises :class:`ViolationSearchError` where a step fails."""
    a_lo, a_hi = strip
    x0 = 1.0 / (gaps.theta.rates[0] + gaps.theta.rates[-1])
    slack = inverse_survival(gaps.surv_x, gaps.surv_y.eval(x0)) - a_hi * x0
    if slack <= 0.0:
        raise ViolationSearchError(
            "no positive shift budget at the seed point", ((x0, 0.0),)
        )

    # A certified "+,-,+" has a certain '-' region: the halving stops at its
    # hit, and keeps only its b.
    probes = [(a_hi, 0.5 * slack * 0.5**k) for k in range(SEARCH_MAX_HALVINGS)]
    _, scanned = _scan(gaps, probes, lambda s: False, opts, refine=False, stop=_dip_certified)
    attempts = [(x0, b) for _, b in probes[: len(scanned)]]
    last = scanned[-1][1]
    if not (last.certified and last.signs() == ("+", "-", "+")):
        if _dip_certified(last):
            why = (
                f"halving stopped at b0={attempts[-1][1]:.6g}, whose pattern '{last.text()}'"
                f"{'' if last.certified else ' (uncertified)'} has a certified '-' region: "
                "a smaller shift lowers the gap and only weakens its '+' regions"
            )
        else:
            why = f"halving stopped after {len(attempts)} shifts, none with a certified '-' region"
        raise ViolationSearchError(
            f"no shift produced a certified '+,-,+' at a={a_hi:.6g}: {why}; "
            f"attempted (x0, b0) pairs: {attempts}",
            tuple(attempts),
        )

    # a walks downward from a_hi, then a fallback sweep covers the rest of
    # the strip: the violating sub-window can be narrow.
    b0 = attempts[-1][1]
    width = a_hi - a_lo
    walk = [a_hi - width / (2.0**k) for k in range(SEARCH_A_STEPS, 0, -1)]
    sweep = np.linspace(a_hi - width / 2.0**SEARCH_A_STEPS, a_lo, 64)[1:].tolist()
    probes = [(a, b0) for a in walk + sweep]
    hit, _ = _scan(gaps, probes, lambda s: s == ("+", "-", "+", "-"), opts, refine=False)
    if hit is None:
        raise ViolationSearchError(
            f"'+,-,+' certified at the strip top (b0={b0:.6g}) but no a in the strip "
            "certified '+,-,+,-'",
            tuple(attempts),
        )

    bad = _unconfirmed_region(gaps.block([(hit.a, b0)]), hit.pattern, opts)
    if bad is not None:
        raise ViolationSearchError(
            f"witness re-verification failed at x={bad.x}", tuple(attempts)
        )
    return CounterexampleReport(
        a=hit.a, b=b0, strip=strip, pattern=hit.pattern, b0_used=b0, x0_seed=x0
    )


def star_check(
    lam: HazardVector, theta: HazardVector, opts: OrderOptions | None = None
) -> OrderVerdict:
    """Decide the star transform order between two systems of equal n.

    Identical rates give an analytic HOLDS (the composed transform is the
    identity).  A 2-component pair whose hazards lam majorizes-below theta
    holds with an analytic certificate; representative gap patterns for
    each regime of a are still scanned and attached as evidence.  Every
    other pair (and every pair for n >= 3, where no certificate is known)
    is scanned on a logarithmic a-grid for a certified pattern with a
    "+,-" change, which refutes the order; with nothing found the verdict
    is INCONCLUSIVE.  Only the probes whose gap can take both signs and
    whose ``possible_signs`` hold a "+,-" are scanned (``_kept``), so the
    verdict is that of the full grid.
    """
    return _verdict(lam, theta, opts or OrderOptions(), star=True)


star_check_n = star_check  # the former name of the n >= 3 scan, still looked up by bench/


def convex_check(
    lam: HazardVector, theta: HazardVector, opts: OrderOptions | None = None
) -> OrderVerdict:
    """Decide the convex transform order between two systems of equal n.

    Identical rates give an analytic HOLDS (the composed transform is the
    identity), and so does a homogeneous base system at n = 2 (the
    parameter strip is empty and every regime is favorable).  A majorized,
    strictly heterogeneous pair goes to the strip search of
    ``violation_search``: FAILS with its witness, INCONCLUSIVE when it
    certifies none (at n >= 3, where the order is open).  Everything else
    stays numerical: a certified violating pattern on the (a, b) grid,
    b >= 0, gives FAILS, otherwise INCONCLUSIVE, since grids cannot
    certify HOLDS.  The pruning is that of :func:`star_check`, so it
    never changes the verdict.
    """
    return _verdict(lam, theta, opts or OrderOptions(), star=False)


def _verdict(
    lam: HazardVector, theta: HazardVector, opts: OrderOptions, star: bool
) -> OrderVerdict:
    """The verdict of the star order (``star``) or of the convex order:
    the entry checks, then the rungs of :func:`_ladder`."""
    if lam.close_to(theta):
        return OrderVerdict(
            Status.HOLDS,
            CERT_IDENTICAL,
            detail="identical rate vectors: the composed transform is the identity",
        )
    majorized = majorizes(lam, theta)  # raises on a length mismatch
    # survival() caps n at systems.MAX_COMPONENTS
    return _ladder(_Gaps(lam, theta), majorized, opts, star)


def _ladder(gaps: _Gaps, majorized: bool, opts: OrderOptions, star: bool) -> OrderVerdict:
    """The rungs of :func:`_verdict` past its entry checks, on the gaps of
    a pair whose majorization is known: the n = 2 analytic table, the
    search and the verdict texts of both orders."""
    lam, theta = gaps.lam, gaps.theta
    violating = _star_signs if star else _convex_signs
    a_lo, a_hi = strip = _strip(lam, theta)
    if majorized and lam.n == 2 and (star or a_lo == a_hi):
        if star:
            probes = [(a, 0.0) for a in sorted({0.5 * a_hi, a_hi, 0.5 * (a_hi + 1.0), 1.0})]
            certificate = CERT_MAJORIZATION
            detail = "majorized hazard vectors; gap patterns spot-checked"
        else:  # homogeneous base: the strip is empty
            b_ref = 0.1 / (theta.rates[0] + theta.rates[-1])
            probes = [(a, b_ref) for a in (1.25, 0.5 * (a_hi + 1.0), 0.5 * a_lo)]
            certificate = CERT_HOMOGENEOUS
            detail = "empty violating strip: every shift/scale regime is favorable"
        return _spot_checked(gaps, probes, violating, opts.scan, certificate, detail)

    if majorized and not star and a_lo < a_hi:
        try:
            report = _strip_search(gaps, strip, opts.scan)
        except ViolationSearchError as exc:
            detail = f"suspect region: strip a in ({a_lo:.6g}, {a_hi:.6g}) unresolved ({exc})"
            return OrderVerdict(Status.INCONCLUSIVE, None, detail=detail)
        detail = f"certified '{report.pattern.text()}' inside the strip ({a_lo:.6g}, {a_hi:.6g})"
        witness = Witness(report.a, report.b, report.pattern)
        return OrderVerdict(Status.FAILS, None, witness=witness, detail=detail)

    # The a-grid at b = 0, or the (a, b) grid with nonnegative shifts.
    b_scale = 1.0 / (theta.rates[0] + theta.rates[-1])
    shifts = (0.0,) if star else [f * b_scale for f in B_FACTORS]
    grid = [(a, b) for a in _a_grid(lam, theta) for b in shifts]
    hit, _ = _scan(gaps, _kept(gaps, grid, violating), violating, opts.scan, refine=False)
    if hit is not None:
        if star:
            detail = f"gap pattern '{hit.pattern.text()}' at a={hit.a:.6g} has a '+,-' change"
        else:
            detail = f"pattern '{hit.pattern.text()}' violates the two-change criterion"
        return OrderVerdict(Status.FAILS, None, witness=hit, detail=detail)
    if not star:
        detail = "no violation found on the (a, b) grid; grids cannot certify HOLDS"
    elif majorized:  # n >= 3, where the star order is conjectured
        detail = "no violating pattern found: consistent with the conjectured ordering"
    else:
        detail = "no violating pattern on the a-grid; grids alone cannot certify HOLDS"
    return OrderVerdict(Status.INCONCLUSIVE, None, detail=detail)


def convex_check_at(
    lam: HazardVector,
    theta: HazardVector,
    a: float,
    b: float,
    opts: OrderOptions | None = None,
) -> OrderVerdict:
    """Single-point convex-order check at explicit shift/scale parameters.

    A certified violating pattern refutes the order (FAILS); an allowed
    pattern at one point proves nothing, so the verdict is INCONCLUSIVE
    with the pattern attached.
    """
    opts = opts or OrderOptions()
    hit, scanned = _scan(_Gaps(lam, theta), [(a, b)], _convex_signs, opts.scan)
    if hit is not None:
        detail = f"certified pattern '{hit.pattern.text()}' at (a={a:.6g}, b={b:.6g})"
        return OrderVerdict(Status.FAILS, None, witness=hit, detail=detail)
    return OrderVerdict(
        Status.INCONCLUSIVE,
        None,
        detail=f"pattern '{scanned[0][1].text()}' at (a={a:.6g}, b={b:.6g}) shows no violation",
        evidence=tuple(scanned),
    )


def sign_map(
    lam: HazardVector,
    theta: HazardVector,
    b: float,
    a_range: tuple[float, float],
    x_range: tuple[float, float],
    resolution: int | tuple[int, int],
    opts: OrderOptions | None = None,
) -> SignMap:
    """Matrix of gap signs over (x, a) at fixed b, for CSV emission.

    The rows a = theta1/lam_n and a = theta1/lam_1 (the strip boundaries)
    are always included exactly.  A cell's sign is certain by the rule of
    ``sign_pattern``: cells whose |gap| does not clear both the sign floor
    and the rounding bound carry sign 0 (uncertain).  The rows are one
    evaluator call in the form a scan of the same probes takes
    (``_Gaps.evaluator``), with the points of ``_Gaps.block`` bit for bit,
    but no gap is built that the form does not read: for three or more
    components the product form takes the rates and (a, b) alone (and
    leaves the x = 0 column, where V = F_X(b), uncertain only at b = 0 or
    where lam_1 * b < 2^-1000); for two the coefficient layout
    comes from one array pass over the rows of ``_Gaps.rows``, and only
    the few rows where a rate of X meets one of Y (at the strip ends, for
    one) go through ``canonicalize``.
    """
    opts = opts or OrderOptions()
    na, nx = (resolution, resolution) if isinstance(resolution, int) else resolution
    if na < 2 or nx < 2:
        raise ValueError("resolution must be at least 2x2")
    a_min, a_max = a_range
    if not (0.0 < a_min < a_max):
        raise ValueError("a_range must satisfy 0 < a_min < a_max")
    x_min, x_max = x_range
    if not (0.0 <= x_min < x_max):
        raise ValueError("x_range must satisfy 0 <= x_min < x_max")
    if not (0.0 <= b < math.inf):
        raise ValueError(f"shift b must be finite and nonnegative, got {b}")

    a_vals = sorted(set(np.linspace(a_min, a_max, na).tolist()) | set(_strip(lam, theta)))
    x_vals = np.linspace(x_min, x_max, nx)
    block = _Gaps(lam, theta).evaluator([(a, b) for a in a_vals])
    signs, _ = _certify(*block.evaluate([x_vals] * len(a_vals)), opts.scan)
    return SignMap(
        a_values=tuple(a_vals),
        x_values=tuple(float(x) for x in x_vals),
        signs=tuple(map(tuple, signs.reshape(len(a_vals), nx).tolist())),
        b=b,
    )
