"""Star/convex order verdicts, region map, counterexample search, sign maps."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transform_orders import (
    HazardVector,
    OrderOptions,
    ScanOptions,
    SignRegion,
    OrderVerdict,
    RegionLabel,
    Status,
    Witness,
    convex_check,
    convex_check_at,
    dVda,
    region_classify,
    sign_map,
    sign_pattern,
    star_check,
    star_ratio_oracle,
    majorizes,
    survival_gap,
    violation_search,
)
from transform_orders import expsum, orders, product, systems

from _samplers import random_majorized_pair

LAM = HazardVector((2, 3))
THETA = HazardVector((1.5, 3.5))
# The totals differ, so majorization gives no certificate; the end slopes
# of the transform prove that the star order fails.
END_SLOPE_PAIR = (HazardVector((0.6352362650266548, 0.9033312629286587)),
                  HazardVector((2.443419179170774, 2.7294321383536375)))


def plain_gap_value(lam, theta, a, b, x):
    """Gap evaluated straight from math.exp, independent of ExpSum."""
    def surv(rates, t):
        r1, r2 = rates
        return math.exp(-r1 * t) + math.exp(-r2 * t) - math.exp(-(r1 + r2) * t)
    return surv(theta.rates, x) - surv(lam.rates, a * x + b)


class TestStarCheck:
    def test_majorized_pair_holds_with_certificate(self):
        verdict = star_check(LAM, THETA)
        assert verdict.status is Status.HOLDS
        assert verdict.certificate is not None
        assert verdict.evidence  # spot-checked gap patterns attached

    def test_identical_systems_hold(self):
        h = HazardVector((1, 1))
        verdict = star_check(h, h)
        assert verdict.status is Status.HOLDS
        assert verdict.certificate is not None

    def test_reversed_pair_fails_with_certified_witness(self):
        verdict = star_check(THETA, LAM)
        assert verdict.status is Status.FAILS
        w = verdict.witness
        assert w is not None and w.b == 0.0
        assert w.pattern.certified
        signs = w.pattern.signs()
        assert any(s0 == "+" and s1 == "-" for s0, s1 in zip(signs, signs[1:]))
        # The ratio oracle agrees: a decreasing stretch exists.
        grid = np.linspace(3.3 / 5000, 3.3, 5000)
        assert star_ratio_oracle(THETA, LAM, grid).monotone_violations

    def test_witness_signs_reproduce_independently(self):
        verdict = star_check(THETA, LAM)
        w = verdict.witness
        for region in w.pattern.regions:
            v = plain_gap_value(THETA, LAM, w.a, 0.0, region.x)
            assert (v > 0) == (region.sign == "+")

    def test_status_invariant_under_joint_scaling(self):
        for k in (0.5, 2.0, 10.0):
            assert star_check(LAM.scaled(k), THETA.scaled(k)).status is Status.HOLDS
            assert star_check(THETA.scaled(k), LAM.scaled(k)).status is Status.FAILS

    def test_unequal_sums_without_violation_is_inconclusive(self):
        # (0.9, 3.6) is a scaled copy of a majorized partner, so the order
        # holds, but majorization fails (totals differ) and grids alone
        # cannot certify it.
        verdict = star_check(LAM, HazardVector((0.9, 3.6)))
        assert verdict.status is Status.INCONCLUSIVE

    def test_end_slope_failing_pair_is_never_held(self):
        # psi = S_X^-1(S_Y(x)) / x runs from (prod theta / prod lam)^(1/2)
        # at 0+ to theta_1 / lam_1 at infinity; a rise refutes the star
        # order, exactly: prod theta * lam_1^2 < theta_1^2 * prod lam.
        lam, theta = (tuple(map(Fraction, v.rates)) for v in END_SLOPE_PAIR)
        assert theta[0] * theta[1] * lam[0] ** 2 < theta[0] ** 2 * lam[0] * lam[1]
        assert star_check(*END_SLOPE_PAIR).status is not Status.HOLDS

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the a-grid stops at 2.706, below the a-range (3.022, 3.846) where the "
        "b = 0 gap takes both signs, so no probe sees the '+,-' (ROADMAP item 20: "
        "misplaced a-grid)",
    )
    def test_end_slope_failing_pair_fails(self):
        assert star_check(*END_SLOPE_PAIR).status is Status.FAILS


class TestConvexCheck:
    def test_strictly_heterogeneous_pair_fails(self):
        verdict = convex_check(LAM, THETA)
        assert verdict.status is Status.FAILS
        w = verdict.witness
        assert 0.5 < w.a < 0.75
        assert w.b > 0.0
        assert w.pattern.signs() == ("+", "-", "+", "-")

    def test_homogeneous_base_holds(self):
        verdict = convex_check(HazardVector((2.5, 2.5)), THETA)
        assert verdict.status is Status.HOLDS
        assert verdict.certificate is not None

    def test_identical_systems_hold(self):
        verdict = convex_check(LAM, LAM)
        assert verdict.status is Status.HOLDS

    @pytest.mark.parametrize("check", [star_check, convex_check], ids=lambda f: f.__name__)
    def test_identical_rates_decide_before_any_survival(self, check):
        # 21 rates exceed systems.MAX_COMPONENTS, but identical rates are
        # decided before either survival is built, for both orders.
        h = HazardVector(tuple(np.linspace(1.0, 2.0, 21).tolist()))
        verdict = check(h, h)
        assert verdict.status is Status.HOLDS and verdict.certificate == "identical-rates"

    @pytest.mark.parametrize("theta", [np.linspace(1.0, 3.0, 21), np.linspace(0.5, 2.5, 21)],
                             ids=["not-majorized", "majorized"])
    def test_too_many_components_raise_the_survival_cap(self, theta):
        lam = HazardVector(tuple(np.linspace(1.0, 2.0, 21).tolist()))
        with pytest.raises(ValueError, match="capped at n=20"):
            convex_check(lam, HazardVector(tuple(theta.tolist())))

    def test_gap_nonnegative_when_scale_exceeds_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam, theta = random_majorized_pair(rng, strict=True)
            a = float(rng.uniform(1.0, 3.0))
            b = float(rng.uniform(0.0, 1.0))
            gap = survival_gap(lam, theta, a, b)
            xs = np.linspace(0.0, 10.0 / theta.rates[0], 500)
            assert np.all(gap.eval_many(xs) >= -1e-15)

    def test_point_check_flags_published_parameters(self):
        verdict = convex_check_at(LAM, THETA, 0.749, 0.0125)
        assert verdict.status is Status.FAILS
        assert verdict.witness.pattern.signs() == ("+", "-", "+", "-")
        assert verdict.witness.pattern.certified

    def test_point_check_on_benign_parameters_is_inconclusive(self):
        verdict = convex_check_at(LAM, THETA, 1.5, 0.1)
        assert verdict.status is Status.INCONCLUSIVE


class TestRegionClassify:
    def test_scale_above_one(self):
        assert region_classify(1.2, 0.3, LAM, THETA) is RegionLabel.FAV1

    def test_published_point_in_strip(self):
        assert 1.5 / 3 == 0.5 and 1.5 / 2 == 0.75
        assert region_classify(0.749, 0.0125, LAM, THETA) is RegionLabel.VIOLATING_STRIP

    def test_small_scale(self):
        assert region_classify(0.4, 0.1, LAM, THETA) is RegionLabel.FAV3

    def test_boundaries_belong_to_favorable_side(self):
        assert region_classify(1.0, 0.0, LAM, THETA) is RegionLabel.FAV1
        assert region_classify(0.75, 0.0, LAM, THETA) is RegionLabel.FAV2
        assert region_classify(0.5, 0.0, LAM, THETA) is RegionLabel.FAV3

    def test_small_scale_region_pattern(self):
        # Below the strip with a positive shift the gap starts positive and
        # crosses exactly once.
        rng = np.random.default_rng(47)
        for _ in range(5):
            a = float(rng.uniform(0.05, 0.5))
            b = float(rng.uniform(0.005, 0.5))
            assert region_classify(a, b, LAM, THETA) is RegionLabel.FAV3
            p = sign_pattern(survival_gap(LAM, THETA, a, b))
            assert p.signs() == ("+", "-")

    def test_partition_changes_only_at_breakpoints(self):
        rng = np.random.default_rng(23)
        breaks = (0.5, 0.75, 1.0)
        labels = {}
        for a in sorted(rng.uniform(0.01, 2.0, 400).tolist()):
            label = region_classify(a, float(rng.uniform(0.0, 1.0)), LAM, THETA)
            segment = sum(a > brk for brk in breaks)
            labels.setdefault(segment, set()).add(label)
        assert all(len(seen) == 1 for seen in labels.values())

    def test_identical_rates_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            region_classify(0.7, 0.0, LAM, LAM)


class TestViolationSearch:
    def test_constructs_certified_counterexample(self):
        report = violation_search(LAM, THETA)
        a_lo, a_hi = report.strip
        assert (a_lo, a_hi) == (0.5, 0.75)
        assert a_lo < report.a < a_hi
        assert report.b > 0.0
        assert report.pattern.signs() == ("+", "-", "+", "-")
        assert report.pattern.certified

    def test_regions_reverify_independently(self):
        report = violation_search(LAM, THETA)
        for region in report.pattern.regions:
            v = plain_gap_value(LAM, THETA, report.a, report.b, region.x)
            assert (v > 0) == (region.sign == "+")
            assert abs(v) > 1e-18

    def test_homogeneous_base_has_degenerate_strip(self):
        with pytest.raises(ValueError, match="degenerate strip"):
            violation_search(HazardVector((2.5, 2.5)), THETA)

    def test_concavity_window_is_ordered(self):
        report = violation_search(LAM, THETA)
        lo, hi = report.concavity_window()
        assert 0.0 < lo < hi

    def test_random_strict_pairs_yield_windows_inside_strip(self):
        rng = np.random.default_rng(29)
        found = 0
        for _ in range(8):
            lam, theta = random_majorized_pair(rng, strict=True)
            try:
                report = violation_search(lam, theta)
            except RuntimeError:
                continue  # extremely narrow strips may stay unresolved
            a_lo, a_hi = report.strip
            assert a_lo < report.a < a_hi
            found += 1
        assert found >= 5


    def test_reverification_needs_the_rounding_bound(self):
        # Move a region next to the first sign change, to a point whose
        # float value clears the 1e-18 floor but not the rounding bound:
        # its sign is not certain there, so re-verification rejects it.
        report = violation_search(LAM, THETA)
        gap = survival_gap(LAM, THETA, report.a, report.b)
        regions = list(report.pattern.regions)
        lo, hi = regions[0].x, regions[1].x
        for _ in range(200):  # float bisection down to adjacent doubles
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if gap.eval(mid) > 0 else (lo, mid)
        xs = lo + np.arange(-2000, 2001) * math.ulp(lo)
        s, m, err = gap._scaled_many(xs)
        noisy = np.flatnonzero((np.abs(s) <= err) & (np.abs(s * np.exp(m)) > 1e-18))
        assert noisy.size
        x = float(xs[noisy[0]])
        value = gap.eval(x)
        k = 0 if value > 0 else 1  # the region whose sign the float value agrees with
        assert (value > 0) == (regions[k].sign == "+") and abs(value) > 1e-18
        regions[k] = SignRegion(regions[k].sign, x, value, True)
        fabricated = replace(report.pattern, regions=tuple(regions))
        opts = ScanOptions()
        assert orders._unconfirmed_region([gap], fabricated, opts) == regions[k]
        assert orders._unconfirmed_region([gap], report.pattern, opts) is None


NARROW = HazardVector((1.6702, 1.6707)), HazardVector((0.6158, 2.7251))


def halving_shifts(lam, theta):
    """(x0, the SEARCH_MAX_HALVINGS shifts b at the strip top a_hi, a_hi)
    of violation_search, or (x0, [], a_hi) without a positive budget."""
    gaps = orders._Gaps(lam, theta)
    a_hi = orders._strip(lam, theta)[1]
    x0 = 1.0 / (theta.rates[0] + theta.rates[-1])
    slack = systems.inverse_survival(gaps.surv_x, gaps.surv_y.eval(x0)) - a_hi * x0
    if slack <= 0.0:
        return x0, [], a_hi
    return x0, [0.5 * slack * 0.5**k for k in range(orders.SEARCH_MAX_HALVINGS)], a_hi


def full_halving_b0(lam, theta, opts):
    """The b-halving without its stop rule: the first of all
    SEARCH_MAX_HALVINGS shifts whose gap at the strip top certifies
    '+,-,+', from one sign_patterns call over all of them (per-probe
    results do not depend on the batch), or None."""
    _, shifts, a_hi = halving_shifts(lam, theta)
    gaps = orders._Gaps(lam, theta)
    patterns = expsum.sign_patterns(gaps.block([(a_hi, b) for b in shifts]), opts, refine=False)
    for b, p in zip(shifts, patterns):
        if p.certified and p.signs() == ("+", "-", "+"):
            return b
    return None


def sweep_pairs(count, seed):
    """Seeded majorized pairs, n = 2-4, strictly heterogeneous: theta spread
    s in (0.05, 0.9) about its mean, and lam the same spread times rho, in
    turn uniform in (0.3, 0.95) (wide strips) and log-uniform in (1e-4,
    0.3), where most strips are too narrow for the floored scan."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 2 + i % 3
        mid = float(rng.uniform(0.5, 5.0))
        theta = mid * (1.0 + rng.uniform(0.05, 0.9) * np.sort(rng.uniform(-1.0, 1.0, n)))
        theta += mid - theta.mean()
        rho = rng.uniform(0.3, 0.95) if i % 2 else 10.0 ** rng.uniform(-4.0, math.log10(0.3))
        lam = mid + rho * (theta - mid)
        yield HazardVector(tuple(lam.tolist())), HazardVector(tuple(theta.tolist()))


class TestBHalvingStop:
    """violation_search halves b only until a '-' region is certified."""

    def test_sweep_matches_the_full_halving(self):
        # The a-walk is a function of b0 alone, so the same b0 (or none)
        # on every pair means the same status and witness.
        opts = OrderOptions()
        outcomes = []
        for lam, theta in sweep_pairs(60, seed=25):
            assert majorizes(lam, theta) and not lam.close_to(theta)
            want = full_halving_b0(lam, theta, opts.scan)
            x0, shifts, _ = halving_shifts(lam, theta)
            try:
                report = violation_search(lam, theta, opts)
            except orders.ViolationSearchError as exc:
                scanned = [b for _, b in exc.attempts]
                assert all(x == x0 for x, _ in exc.attempts)
                if str(exc).startswith(("no shift produced", "no positive shift budget")):
                    assert want is None
                    assert not shifts or scanned == shifts[: len(scanned)]
                    outcomes.append("halving")
                else:  # '+,-,+' found at the strip top, but no witness
                    assert scanned == shifts[: len(scanned)] and scanned[-1] == want
                    outcomes.append("walk")
                continue
            assert report.b0_used == want
            outcomes.append("found")
        # Every ending occurs (8 witnesses, 8 a-walks without one and 44
        # halvings without a '+,-,+' at this seed).
        assert all(outcomes.count(k) >= 5 for k in ("found", "walk", "halving"))

    def test_smaller_shift_lowers_the_gap(self):
        # dV/db = density_X(a x + b) > 0: V(x; a, b/2) < V(x; a, b), at 50
        # digits, anywhere in the strip and beyond it.
        rng = np.random.default_rng(31)
        for lam, theta in sweep_pairs(12, seed=31):
            a_lo, a_hi = orders._strip(lam, theta)
            for _ in range(4):
                a = float(rng.uniform(0.5 * a_lo, 1.5 * a_hi))
                b = float(rng.uniform(1e-6, 1.0)) / theta.rates[0]
                x = float(rng.uniform(0.0, 10.0)) / theta.rates[0]
                lower = TestSignMap.mp_gap(lam.rates, theta.rates, a, 0.5 * b, x)
                assert lower < TestSignMap.mp_gap(lam.rates, theta.rates, a, b, x)

    def test_narrow_pair_scans_one_shift(self, monkeypatch):
        # The first shift certifies the '-' region but not the tail '+'.
        scans = recorded_scans(monkeypatch)
        x0, shifts, _ = halving_shifts(*NARROW)
        with pytest.raises(orders.ViolationSearchError) as info:
            violation_search(*NARROW)
        assert info.value.attempts == ((x0, shifts[0]),)
        assert scans == [(1, False)]
        message = str(info.value)
        assert f"halving stopped at b0={shifts[0]:.6g}" in message
        assert "'+,-,+' (uncertified) has a certified '-' region" in message
        assert message.endswith(f"attempted (x0, b0) pairs: [{(x0, shifts[0])!r}]")
        assert message in convex_check(*NARROW).detail

    def test_stop_at_a_later_shift(self, monkeypatch):
        # At sign floor 0.2 the '-' region of the first shift (-0.187) is
        # not certain and that of the second (-0.209) is: the block of 4
        # after the first probe is scanned, but only the shifts up to the
        # stop are attempts.
        opts = OrderOptions(scan=ScanOptions(sign_floor=0.2))
        scans = recorded_scans(monkeypatch)
        x0, shifts, _ = halving_shifts(*NARROW)
        with pytest.raises(orders.ViolationSearchError, match="halving stopped at b0") as info:
            violation_search(*NARROW, opts)
        assert info.value.attempts == ((x0, shifts[0]), (x0, shifts[1]))
        assert scans == [(1, False), (4, False)]

    def test_no_certified_dip_scans_every_shift(self):
        # Nothing clears a floor of 1: every shift is scanned.
        opts = OrderOptions(scan=ScanOptions(sign_floor=1.0))
        x0, shifts, _ = halving_shifts(LAM, THETA)
        with pytest.raises(orders.ViolationSearchError, match="none with a certified") as info:
            violation_search(LAM, THETA, opts)
        assert info.value.attempts == tuple((x0, b) for b in shifts)
        assert len(shifts) == orders.SEARCH_MAX_HALVINGS


def scan_one_at_a_time(gaps, probes, violating, opts):
    """The probe loop as a plain sequence of sign_pattern calls."""
    scanned = []
    for a, b in probes:
        p = sign_pattern(gaps(a, b), opts)
        scanned.append((a, p))
        if p.certified and violating(p.signs()):
            return orders.Witness(a, b, p), scanned
    return None, scanned


class TestScanBlocks:
    @staticmethod
    def assert_same_scan(lam, theta, probes, violating):
        gaps, opts = orders._Gaps(lam, theta), ScanOptions()
        got = orders._scan(gaps, probes, violating, opts)
        want = scan_one_at_a_time(gaps, probes, violating, opts)
        assert repr(got) == repr(want)
        return got

    def test_hit_in_mid_grid(self):
        # Reversed classic star check: the violation is found part way up.
        probes = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = self.assert_same_scan(THETA, LAM, probes, orders._star_signs)
        assert hit is not None
        assert sum(orders.LEAD_BLOCKS) < len(scanned) < len(probes)

    # The reversed classic a-grid has its first "+,-" hit at index 45, so
    # the hit of grid[45 - k:] is at index k: on either side of each block
    # edge (after 1, 5 and 15 probes) and inside the first 64-probe block
    # (k = 45, the whole grid, is test_hit_in_mid_grid).
    @pytest.mark.parametrize("k", [0, 1, 4, 5, 14, 15, 16])
    def test_hit_at_each_block_edge(self, k):
        grid = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = self.assert_same_scan(THETA, LAM, grid[45 - k:], orders._star_signs)
        assert hit is not None and len(scanned) == k + 1

    @pytest.mark.parametrize("size, blocks", [
        (15, (15,)),  # one block, as a list of spot checks
        (16, (1, 4, 10, 1)),
    ])
    def test_lists_of_15_and_16_probes(self, size, blocks, monkeypatch):
        scans = recorded_scans(monkeypatch)
        grid = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = self.assert_same_scan(THETA, LAM, grid[46 - size : 46], orders._star_signs)
        assert hit is not None and len(scanned) == size
        assert tuple(n for n, _ in scans) == blocks

    def test_hit_after_the_first_full_block(self, monkeypatch):
        # The 45 probes before the hit twice over, then the rest of the
        # grid: the hit is probe 91 of 112, in the second MAX_BLOCK block.
        scans = recorded_scans(monkeypatch)
        grid = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        probes = grid[:45] + grid[:45] + grid[45:]
        hit, scanned = self.assert_same_scan(THETA, LAM, probes, orders._star_signs)
        assert hit is not None and len(scanned) == 91 and len(probes) == 112
        assert tuple(n for n, _ in scans) == (1, 4, 10, orders.MAX_BLOCK, 33)

    def test_majorized_pair_has_no_hit(self):
        probes = [(a, 0.0) for a in orders._a_grid(LAM, THETA)]
        hit, scanned = self.assert_same_scan(LAM, THETA, probes, orders._star_signs)
        assert hit is None and len(scanned) == len(probes)

    def test_b_halving_list(self):
        # The first probe list of violation_search on the classic pair.
        gaps = orders._Gaps(LAM, THETA)
        (t1, t2), a_hi = THETA.rates, THETA.rates[0] / LAM.rates[0]
        x0 = 1.0 / (t1 + t2)
        slack = systems.inverse_survival(gaps.surv_x, gaps.surv_y.eval(x0)) - a_hi * x0
        probes = [(a_hi, 0.5 * slack * 0.5**k) for k in range(orders.SEARCH_MAX_HALVINGS)]
        hit, _ = self.assert_same_scan(
            LAM, THETA, probes, lambda s: s == ("+", "-", "+")
        )
        assert hit is not None

    def test_evaluator_calls_shared_by_a_block(self, monkeypatch):
        # Outermost evaluator calls, counted deterministically.  One pattern
        # at a time, this scan of 335 probes made 7,101 of them.
        calls, depth = [0], [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += depth[0] == 0
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        monkeypatch.setattr(expsum, "scaled_rows", counted(expsum.scaled_rows))
        monkeypatch.setattr(expsum.ExpSum, "_scaled_many", counted(expsum.ExpSum._scaled_many))
        verdict = convex_check(THETA, LAM)
        assert verdict.status is Status.INCONCLUSIVE
        assert 0 < calls[0] <= 1500


def counted_outermost(fn, calls):
    """fn, adding 1 to calls[0] for each call not made from inside another."""
    depth = [0]

    def wrapper(*args):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1
    return wrapper


def full_grid_convex_verdict(lam, theta, opts=OrderOptions()):
    """The non-majorized convex_check verdict from one bisected _scan over
    the whole (a, b) grid, with no probe pruned."""
    b_scale = 1.0 / (theta.rates[0] + theta.rates[-1])
    probes = [(a, f * b_scale) for a in orders._a_grid(lam, theta) for f in orders.B_FACTORS]
    hit, _ = orders._scan(orders._Gaps(lam, theta), probes, orders._convex_signs, opts.scan)
    if hit is not None:
        detail = f"pattern '{hit.pattern.text()}' violates the two-change criterion"
        return OrderVerdict(Status.FAILS, None, witness=hit, detail=detail)
    detail = "no violation found on the (a, b) grid; grids cannot certify HOLDS"
    return OrderVerdict(Status.INCONCLUSIVE, None, detail=detail)


LAM_THETA_RESCALED = HazardVector((2, 3)), HazardVector((3, 7))
# Scaled to lam's total, theta is majorized and strictly more spread than
# the heterogeneous lam, so the convex order fails; the (a, b) grid
# certifies no violation, so it stays INCONCLUSIVE.  Its test id recalls
# the wrong numerical HOLDS that a violation-free grid once gave it.
SPREAD_PAIR = (HazardVector((0.6384049867156364, 0.7631396960750423)),
               HazardVector((2.308588531300789, 3.881142047020032)))


def linspace_pair(n):
    return HazardVector(tuple(np.linspace(2, 3, n))), HazardVector(tuple(np.linspace(1.5, 3.5, n)))


def full_grid_star_verdict(lam, theta, opts):
    """The star_check verdict of a pair without an analytic certificate,
    from one bisected _scan over the whole a-grid, with no probe pruned."""
    probes = [(a, 0.0) for a in orders._a_grid(lam, theta)]
    hit, _ = orders._scan(orders._Gaps(lam, theta), probes, orders._star_signs, opts.scan)
    if hit is not None:
        detail = f"gap pattern '{hit.pattern.text()}' at a={hit.a:.6g} has a '+,-' change"
        return OrderVerdict(Status.FAILS, None, witness=hit, detail=detail)
    if systems.majorizes(lam, theta):
        detail = "no violating pattern found: consistent with the conjectured ordering"
    else:
        detail = "no violating pattern on the a-grid; grids alone cannot certify HOLDS"
    return OrderVerdict(Status.INCONCLUSIVE, None, detail=detail)


class TestStarGridPrefilter:
    @pytest.mark.parametrize("opts", [OrderOptions()], ids=["default"])
    @pytest.mark.parametrize("lam, theta, status", [
        (THETA, LAM, Status.FAILS),
        (HazardVector((1, 4)), HazardVector((2, 2.5)), Status.FAILS),
        (*LAM_THETA_RESCALED, Status.INCONCLUSIVE),
        (*linspace_pair(3)[::-1], Status.FAILS),
        (HazardVector((2, 3, 4)), HazardVector((1, 3, 6)), Status.INCONCLUSIVE),
        (HazardVector((2, 3, 4)), HazardVector((1, 3, 5)), Status.INCONCLUSIVE),
    ], ids=["reversed-classic", "(1,4)-(2,2.5)", "(2,3)-(3,7)", "reversed-linspace-n3",
            "(2,3,4)-(1,3,6)", "(2,3,4)-(1,3,5)"])
    def test_verdict_equals_full_grid_scan(self, lam, theta, status, opts):
        verdict = star_check(lam, theta, opts)
        assert repr(verdict) == repr(full_grid_star_verdict(lam, theta, opts))
        assert verdict.status is status

    def test_inconclusive_scan_bisects_nothing(self, monkeypatch):
        # Only the kept probes are scanned, unbisected; no evidence is kept.
        scans = recorded_scans(monkeypatch)
        verdict = star_check(*LAM_THETA_RESCALED)
        assert verdict.status is Status.INCONCLUSIVE and verdict.evidence == ()
        assert scans and all(not refine for _, refine in scans)
        assert sum(size for size, _ in scans) < len(orders._a_grid(*LAM_THETA_RESCALED))


CONVEX_GRID_PAIRS = {
    "reversed-classic": (THETA, LAM, Status.INCONCLUSIVE),
    "(1,4)-(2,2.5)": (HazardVector((1, 4)), HazardVector((2, 2.5)), Status.INCONCLUSIVE),
    "(2,3)-(3,7)": (*LAM_THETA_RESCALED, Status.FAILS),
    "numerical-holds-pair": (*SPREAD_PAIR, Status.INCONCLUSIVE),
}


class TestConvexGridPrefilter:
    @pytest.mark.parametrize("lam, theta, status", list(CONVEX_GRID_PAIRS.values()),
                             ids=list(CONVEX_GRID_PAIRS))
    def test_verdict_equals_full_grid_scan(self, lam, theta, status):
        verdict = convex_check(lam, theta)
        assert repr(verdict) == repr(full_grid_convex_verdict(lam, theta))
        assert verdict.status is status

    @settings(max_examples=6, deadline=None)
    @given(
        st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)),
        st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)),
    )
    def test_random_non_majorized_pairs_equal_full_grid_scan(self, lam, theta):
        lam, theta = HazardVector(lam), HazardVector(theta)
        assume(not systems.majorizes(lam, theta) and not lam.close_to(theta))
        assert repr(convex_check(lam, theta)) == repr(full_grid_convex_verdict(lam, theta))

    def test_pruned_grid_counts(self, monkeypatch):
        # Deterministic counts on the reversed classic pair: the full grid
        # scans 335 patterns in 612 outermost evaluator calls.
        calls, patterns = [0], [0]
        scan_patterns = orders.sign_patterns

        def counting_patterns(fs, opts=None, **kw):
            fs = list(fs)
            patterns[0] += len(fs)
            return scan_patterns(fs, opts, **kw)

        monkeypatch.setattr(orders, "sign_patterns", counting_patterns)
        monkeypatch.setattr(expsum, "scaled_rows", counted_outermost(expsum.scaled_rows, calls))
        monkeypatch.setattr(
            expsum.ExpSum, "_scaled_many", counted_outermost(expsum.ExpSum._scaled_many, calls)
        )
        verdict = convex_check(THETA, LAM)
        assert verdict.status is Status.INCONCLUSIVE
        assert 0 < patterns[0] <= 230
        assert 0 < calls[0] <= 400


# The narrow-strip majorized pair with theta rescaled by 1.5: not majorized.
RESCALED_NARROW = HazardVector((1.6702, 1.6707)), HazardVector((0.9237, 4.08765))


def convex_grid_work(lam, theta, monkeypatch):
    """convex_check's verdict, the patterns it scans and its outermost
    evaluator calls."""
    calls, patterns = [0], [0]
    scan_patterns = orders.sign_patterns

    def counting_patterns(fs, opts=None, **kw):
        fs = list(fs)
        patterns[0] += len(fs)
        return scan_patterns(fs, opts, **kw)

    monkeypatch.setattr(orders, "sign_patterns", counting_patterns)
    monkeypatch.setattr(expsum, "scaled_rows", counted_outermost(expsum.scaled_rows, calls))
    monkeypatch.setattr(
        expsum.ExpSum, "_scaled_many", counted_outermost(expsum.ExpSum._scaled_many, calls)
    )
    return convex_check(lam, theta), patterns[0], calls[0]


def convex_grid(lam, theta):
    b_scale = 1.0 / (theta.rates[0] + theta.rates[-1])
    return [(a, f * b_scale) for a in orders._a_grid(lam, theta) for f in orders.B_FACTORS]


class TestArrayPrefilter:
    """The array pass of the pruned grids keeps exactly the probes whose
    possible_signs hold a violating tuple, for both orders' predicates."""

    @staticmethod
    def assert_keeps_possible_violations(lam, theta, grid):
        gaps = orders._Gaps(lam, theta)
        for violating in (orders._convex_signs, orders._star_signs):
            want = [ab for ab in grid if any(map(violating, expsum.possible_signs(gaps(*ab))))]
            assert orders._may_violate(orders._Gaps(lam, theta), grid, violating) == want

    @pytest.mark.parametrize("lam, theta", [
        (THETA, LAM),
        (HazardVector((1, 4)), HazardVector((2, 2.5))),
        (HazardVector((2, 3)), HazardVector((3, 7))),
        RESCALED_NARROW,
        (HazardVector((1, 1000)), HazardVector((0.5, 1000.5))),
        (HazardVector((1, 1.000001)), HazardVector((0.9999995, 1.0000015))),
        (HazardVector((1e-13, 2e-13)), HazardVector((1.5e-13, 2.5e-13))),
    ], ids=["reversed-classic", "(1,4)-(2,2.5)", "(2,3)-(3,7)", "rescaled-narrow",
            "rates-near-1000", "near-degenerate", "rates-near-1e-13"])
    def test_named_pairs(self, lam, theta):
        self.assert_keeps_possible_violations(lam, theta, convex_grid(lam, theta))

    @pytest.mark.parametrize("lam, theta", [(THETA, LAM), RESCALED_NARROW],
                             ids=["reversed-classic", "rescaled-narrow"])
    def test_probes_whose_terms_canonicalize_changes(self, lam, theta):
        # At b = 40 every shifted coefficient of X falls below 1e-12 and is
        # dropped; at the strip ends a * lam_i meets theta_1 and two terms
        # merge (exactly, on the reversed classic pair).
        a_lo, a_hi = orders._strip(lam, theta)
        grid = [(a, b) for a in (a_lo, 0.5 * (a_lo + a_hi), a_hi) for b in (0.0, 0.05, 40.0)]
        gaps = orders._Gaps(lam, theta)
        changed = [ab for ab in grid if gaps(*ab).n_terms < 6]
        assert len(changed) == 7
        self.assert_keeps_possible_violations(lam, theta, grid)

    @pytest.mark.parametrize("lam, theta, convex", [
        (THETA, LAM, False),
        (THETA, LAM, True),
        *((*linspace_pair(n), False) for n in (3, 4, 5, 6)),
    ], ids=["reversed-classic-star", "reversed-classic-convex", "linspace-n3", "linspace-n4",
            "linspace-n5", "linspace-n6"])
    def test_gaps_left_for_the_scan_equal_the_built_ones(self, lam, theta, convex):
        if convex:
            grid, violating = convex_grid(lam, theta), orders._convex_signs
        else:
            grid, violating = [(a, 0.0) for a in orders._a_grid(lam, theta)], orders._star_signs
        gaps = orders._Gaps(lam, theta)
        kept = orders._may_violate(gaps, grid, violating)
        assert kept and set(kept) <= set(gaps._built)
        for (a, b), gap in gaps._built.items():
            built = gaps.surv_y.minus_shift_scale(gaps.surv_x, a, b)
            assert gap == built
            assert gap.sign_at_zero() == built.sign_at_zero()
            assert gap.dominance_point() == built.dominance_point()

    def test_random_pairs_of_any_size(self, monkeypatch):
        monkeypatch.setattr(orders, "_BLOCK", 256)  # several chunks per grid
        rng = np.random.default_rng(37)
        for n in (2, 2, 3, 3, 4, 5):
            lam, theta = (HazardVector(tuple(rng.uniform(0.2, 8.0, n).tolist())) for _ in "xy")
            self.assert_keeps_possible_violations(lam, theta, convex_grid(lam, theta))


class TestExactZeroAtOrigin:
    """possible_signs allows one change fewer when the gap's coefficients
    sum to exactly 0, as at every b = 0 probe of the convex grid."""

    @pytest.mark.parametrize("lam, theta", [
        (THETA, LAM), (HazardVector((1, 4)), HazardVector((2, 2.5))),
        (HazardVector((2, 3)), HazardVector((3, 7))), RESCALED_NARROW,
    ], ids=["reversed-classic", "(1,4)-(2,2.5)", "(2,3)-(3,7)", "rescaled-narrow"])
    def test_full_grid_certified_signs_are_possible(self, lam, theta):
        gaps = orders._Gaps(lam, theta)
        b_scale = 1.0 / (theta.rates[0] + theta.rates[-1])
        probes = [(a, f * b_scale) for a in orders._a_grid(lam, theta) for f in orders.B_FACTORS]
        _, scanned = orders._scan(gaps, probes, lambda s: False, ScanOptions())
        assert len(scanned) == len(probes)
        certified = 0
        for (a, b), (_, p) in zip(probes, scanned):
            if p.certified:
                certified += 1
                assert p.signs() in expsum.possible_signs(gaps(a, b)), (a, b, p.signs())
        assert certified > len(probes) // 2

    def test_b_zero_gaps_sum_to_zero_at_origin(self):
        # Each survival is 1 at 0, so every b = 0 gap's coefficients sum to 0.
        gaps = orders._Gaps(THETA, LAM)
        for a in orders._a_grid(THETA, LAM):
            assert gaps(a, 0.0).derivative_sum(0) == 0.0

    @pytest.mark.parametrize("lam, theta, max_patterns, max_calls", [
        (THETA, LAM, 180, 60),  # 225 patterns and 72 calls without the exact zero
        (HazardVector((1, 4)), HazardVector((2, 2.5)), 188, 60),  # 227 and 72
        # 99 and 37; 40 and 6 without the Rolle step, which prunes the grid whole.
        (*RESCALED_NARROW, 0, 0),
    ], ids=["reversed-classic", "(1,4)-(2,2.5)", "rescaled-narrow"])
    def test_pruned_grid_counts_with_exact_zero(self, lam, theta, max_patterns, max_calls,
                                                monkeypatch):
        verdict, patterns, calls = convex_grid_work(lam, theta, monkeypatch)
        assert verdict.status is Status.INCONCLUSIVE
        assert patterns <= max_patterns and calls <= max_calls
        assert (patterns > 0) is (max_patterns > 0)

    def test_verdict_equals_full_grid_scan(self):
        assert repr(convex_check(*RESCALED_NARROW)) == repr(full_grid_convex_verdict(*RESCALED_NARROW))


class TestRolleStep:
    """The Rolle step of the zero bound prunes most of the convex grid
    that Laguerre's rule keeps, and stays a true bound on the gap."""

    def test_sharpened_probes_hold_at_50_digits(self):
        # The gap from bench/verify.py, independent of the float64 scanner.
        from test_cli import load_bench_verify

        verify = load_bench_verify()
        gaps = orders._Gaps(THETA, LAM)
        sharpened = [(a, b) for a, b in convex_grid(THETA, LAM)
                     if gaps(a, b).zero_bound() < gaps(a, b).prefix_sign_changes()]
        assert len(sharpened) == 148
        xs = np.geomspace(1e-4, 40.0, 400).tolist()
        for a, b in sharpened[::6]:
            signs = [v > 0 for v in (verify.gap(THETA.rates, LAM.rates, a, b, x) for x in xs) if v]
            changes = sum(s0 != s1 for s0, s1 in zip(signs, signs[1:]))
            assert changes <= gaps(a, b).zero_bound(), (a, b)

    @pytest.mark.parametrize("lam, theta, laguerre_kept, kept", [
        (THETA, LAM, 90, 2),
        (HazardVector((1, 4)), HazardVector((2, 2.5)), 127, 7),
        (*RESCALED_NARROW, 40, 0),
    ], ids=["reversed-classic", "(1,4)-(2,2.5)", "rescaled-narrow"])
    def test_kept_probes(self, lam, theta, laguerre_kept, kept, monkeypatch):
        grid = convex_grid(lam, theta)
        assert len(orders._may_violate(orders._Gaps(lam, theta), grid, orders._convex_signs)) == kept
        monkeypatch.setattr(expsum.ExpSum, "zero_bound", expsum.ExpSum.prefix_sign_changes)
        gaps = orders._Gaps(lam, theta)
        lo, hi = orders._dominance_bounds(lam, theta)
        left = [(a, b) for a, b in grid if not (a >= hi and b >= 0.0) and not (a <= lo and b == 0.0)]
        laguerre = [ab for ab in left if any(map(orders._convex_signs, expsum.possible_signs(gaps(*ab))))]
        assert len(laguerre) == laguerre_kept


def generic_pair(n, rng):
    """n sorted rates uniform on (1, 3) for each system, theta rescaled to
    lam's total."""
    lam = np.sort(rng.uniform(1.0, 3.0, n))
    theta = np.sort(rng.uniform(1.0, 3.0, n))
    theta *= lam.sum() / theta.sum()
    return HazardVector(tuple(lam.tolist())), HazardVector(tuple(theta.tolist()))


def spread_pair(n, rng):
    """A majorized pair: theta spreads the same centred offsets as lam
    by a factor in (1.2, 2), around the same mean."""
    mean = rng.uniform(1.0, 3.0)
    offsets = np.sort(rng.uniform(-0.4, 0.4, n)) * mean
    offsets -= offsets.mean()
    lam = mean + offsets
    theta = mean + offsets * rng.uniform(1.2, 2.0)
    return HazardVector(tuple(lam.tolist())), HazardVector(tuple(theta.tolist()))


def one_signed(lam, theta, grid):
    """The probes of grid that the rate-dominance rule prunes, each with the
    sign its gap cannot take: '-' where a * lam_(i) >= theta_(i) for all i,
    '+' where a * lam_(i) <= theta_(i) for all i at b = 0."""
    lo, hi = orders._dominance_bounds(lam, theta)
    return [((a, b), "-" if a >= hi else "+") for a, b in grid
            if (a >= hi and b >= 0.0) or (a <= lo and b == 0.0)]


class TestDominancePrune:
    """_kept drops the probes whose rates dominate term by term: the
    gap has one sign on [0, inf), so neither order can be violated there."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_pruned_probes_certify_no_region_of_the_excluded_sign(self, n):
        rng = np.random.default_rng(600 + n)
        pairs = [linspace_pair(n), generic_pair(n, rng), spread_pair(n, rng)]
        checked = {"+": 0, "-": 0}
        for lam, theta in pairs + [p[::-1] for p in pairs]:
            gaps = orders._Gaps(lam, theta)
            pruned = one_signed(lam, theta, convex_grid(lam, theta))
            assert {s for _, s in pruned} == {"+", "-"}
            sample = pruned[:: max(1, len(pruned) // 4)]
            _, scanned = orders._scan(gaps, [ab for ab, _ in sample], lambda s: False,
                                      ScanOptions(), refine=False)
            for ((a, b), excluded), (_, p) in zip(sample, scanned):
                assert not any(r.certain and r.sign == excluded for r in p.regions), (a, b, p)
                checked[excluded] += any(r.certain for r in p.regions)
        assert min(checked.values()) > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_verdicts_equal_those_without_the_rule(self, n, monkeypatch):
        rng = np.random.default_rng(700 + n)
        pairs = [spread_pair(n, rng), spread_pair(n, rng)]
        cases = [(check, *p) for lam, theta in pairs
                 for p in ((lam, theta), (theta, lam)) for check in (star_check, convex_check)]
        with_rule = [repr(check(lam, theta)) for check, lam, theta in cases]
        monkeypatch.setattr(orders, "_dominance_bounds", lambda lam, theta: (0.0, math.inf))
        assert with_rule == [repr(check(lam, theta)) for check, lam, theta in cases]

    def test_float_tie_is_not_dominance(self):
        # fl(a * 3) == 1, but the exact product is below 1: a * lam_(1) >=
        # theta_(1) does not hold, so the probe is kept.
        a = 1.0 / 3.0
        assert a * 3.0 == 1.0 and Fraction(a) * 3 < 1
        lam, theta = HazardVector((3.0, 6.0, 9.0)), HazardVector((1.0, 1.5, 2.0))
        lo, hi = orders._dominance_bounds(lam, theta)
        assert a < hi == math.nextafter(a, math.inf)
        assert one_signed(lam, theta, [(a, 0.0), (a, 0.05)]) == []
        assert one_signed(lam, theta, [(hi, 0.0)]) == [((hi, 0.0), "-")]
        # And the '+' side: fl(0.1 * 10) == 1, but the exact product is above 1.
        a = 0.1
        assert a * 10.0 == 1.0 and Fraction(a) * 10 > 1
        lam, theta = HazardVector((10.0, 20.0, 30.0)), HazardVector((1.0, 5.0, 10.0))
        lo, hi = orders._dominance_bounds(lam, theta)
        assert lo == math.nextafter(a, 0.0) < a
        assert one_signed(lam, theta, [(a, 0.0)]) == []
        assert one_signed(lam, theta, [(lo, 0.0)]) == [((lo, 0.0), "+")]

    def test_bounds_at_extreme_ratios(self):
        # theta_(1)/lam_(1) = 1e310 overflows, and 1e-600 underflows to 0.
        lo, hi = orders._dominance_bounds(HazardVector((1e-300, 1.0)), HazardVector((1e10, 1e300)))
        assert (lo, hi) == (1e300, math.inf)
        lo, hi = orders._dominance_bounds(HazardVector((1e300, 2e300)), HazardVector((1e-300, 2e300)))
        assert (lo, hi) == (0.0, 1.0)

    def test_violations_need_both_signs(self):
        for signs in [(), ("+",), ("-",)]:
            assert not orders._star_signs(signs) and not orders._convex_signs(signs)


def bisect_every_scan(fs, opts=None, **kw):
    """orders.sign_patterns with refine=False ignored: every scan bisects."""
    return expsum.sign_patterns(fs, opts)


class TestTwoPhaseScans:
    @pytest.mark.parametrize("run, budget", [
        (lambda: violation_search(LAM, THETA), 100),  # 141 when every scan bisects
        (lambda: convex_check(THETA, LAM), 100),  # 345
        (lambda: star_check(*linspace_pair(6)), 40),  # 63
    ], ids=["violation-search-classic", "convex-check-reversed", "star-check-n6-linspace"])
    def test_outermost_evaluator_calls(self, monkeypatch, run, budget):
        calls = [0]
        monkeypatch.setattr(expsum, "scaled_rows", counted_outermost(expsum.scaled_rows, calls))
        monkeypatch.setattr(
            expsum.ExpSum, "_scaled_many", counted_outermost(expsum.ExpSum._scaled_many, calls)
        )
        monkeypatch.setattr(  # the evaluator of n >= 3 gaps
            product.ProductGaps, "evaluate", counted_outermost(product.ProductGaps.evaluate, calls)
        )
        run()
        assert 0 < calls[0] <= budget

    @pytest.mark.parametrize("lam, theta", [
        (LAM, THETA), (THETA, LAM), (HazardVector((1, 4)), HazardVector((2, 2.5))),
        (HazardVector((2, 3)), HazardVector((3, 7))),
        (HazardVector((1.6702, 1.6707)), HazardVector((0.6158, 2.7251))),
        *(linspace_pair(n) for n in (3, 4, 5)), linspace_pair(3)[::-1],
    ], ids=["classic", "reversed", "(1,4)-(2,2.5)", "(2,3)-(3,7)", "narrow-strip",
            "linspace-n3", "linspace-n4", "linspace-n5", "reversed-n3"])
    def test_verdicts_equal_bisected_scans(self, monkeypatch, lam, theta):
        # Skipping bisection in discarded patterns moves no byte of a verdict.
        if lam.n == 2:
            checks = [star_check, convex_check, violation_search]
        else:
            checks = [star_check]

        def verdicts():
            out = []
            for check in checks:
                try:
                    out.append(repr(check(lam, theta)))
                except (ValueError, orders.ViolationSearchError) as exc:
                    out.append(repr(exc))
            return out

        got = verdicts()
        monkeypatch.setattr(orders, "sign_patterns", bisect_every_scan)
        assert got == verdicts()

    def test_unconfirmed_rescan_is_a_numerical_defect(self, monkeypatch):
        # The bisected witness of a violating probe must certify it again.
        def uncertified_when_finished(fs, state, opts=None):
            return replace(expsum.finished_pattern(fs, state, opts), certified=False)

        monkeypatch.setattr(orders, "finished_pattern", uncertified_when_finished)
        with pytest.raises(RuntimeError, match="numerical defect"):
            star_check(*linspace_pair(3)[::-1])


def recorded_scans(monkeypatch):
    """The (block size, refine) of every orders.sign_patterns call, as made."""
    scans = []

    def recording(fs, opts=None, *, refine=True, **kw):
        fs = list(fs)
        scans.append((len(fs), refine))
        return expsum.sign_patterns(fs, opts, refine=refine, **kw)

    monkeypatch.setattr(orders, "sign_patterns", recording)
    return scans


class TestSpotChecksAndRescans:
    def test_violation_search_bisects_only_its_witness(self, monkeypatch):
        # Every scan decides without bisection; the b-halving keeps only the
        # b of its "+,-,+" hit, and only the "+,-,+,-" witness is finished.
        scans = recorded_scans(monkeypatch)
        finished = []

        def recording(fs, state, opts=None):
            finished.append(len(fs))
            return expsum.finished_pattern(fs, state, opts)

        monkeypatch.setattr(orders, "finished_pattern", recording)
        report = violation_search(LAM, THETA)
        assert scans and not any(refine for _, refine in scans)
        assert finished == [1] and report.pattern.signs() == ("+", "-", "+", "-")

    @pytest.mark.parametrize("check, lam, theta, probes", [
        (star_check, LAM, THETA, 4),
        (convex_check, HazardVector((2.5, 2.5)), THETA, 3),
    ], ids=["star-majorized", "convex-homogeneous"])
    def test_spot_checks_take_one_block(self, monkeypatch, check, lam, theta, probes):
        scans = recorded_scans(monkeypatch)
        verdict = check(lam, theta)
        assert verdict.status is Status.HOLDS and len(verdict.evidence) == probes
        assert scans == [(probes, True)]

    @pytest.mark.parametrize("check, lam, violation", [
        (star_check, LAM, "_star_signs"),
        (convex_check, HazardVector((2.5, 2.5)), "_convex_signs"),
    ], ids=["star-majorized", "convex-homogeneous"])
    def test_contradicted_certificate_is_a_numerical_defect(
        self, monkeypatch, check, lam, violation
    ):
        # Every certified spot-check pattern taken as a violation.
        monkeypatch.setattr(orders, violation, lambda s: True)
        with pytest.raises(RuntimeError, match="contradicts the .* numerical defect"):
            check(lam, THETA)

    def test_long_scans_start_with_one_probe(self, monkeypatch):
        # The reversed classic a-grid, scanned unfiltered: the "+,-" hit is
        # the 46th of 67 probes.
        scans = recorded_scans(monkeypatch)
        probes = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = orders._scan(orders._Gaps(THETA, LAM), probes, orders._star_signs,
                                    ScanOptions(), refine=False)
        assert hit is not None and len(scanned) == 46 and len(probes) == 67
        assert scans == [(n, False) for n in (1, 4, 10, 52)]


def fresh_bisected_pattern(lam, theta, a, b):
    """The pattern of one refined scan of the probe (a, b) alone, its gap
    built anew."""
    return expsum.sign_patterns(orders._Gaps(lam, theta).block([(a, b)]), ScanOptions())[0]


class TestFinishedWitness:
    """A witness is bisected from the points its unrefined scan left; it
    must equal the pattern a fresh bisected scan of its probe finds."""

    @pytest.mark.parametrize("check, lam, theta", [
        (star_check, THETA, LAM),
        (star_check, HazardVector((1, 4)), HazardVector((2, 2.5))),
        (star_check, *linspace_pair(3)[::-1]),
        (convex_check, *linspace_pair(3)),
    ], ids=["star-reversed", "star-(1,4)-(2,2.5)", "star-reversed-n3", "convex-n3"])
    def test_verdict_witness(self, check, lam, theta):
        verdict = check(lam, theta)
        assert verdict.status is Status.FAILS
        w = verdict.witness
        assert repr(w.pattern) == repr(fresh_bisected_pattern(lam, theta, w.a, w.b))

    def test_violation_search_witness(self):
        report = violation_search(LAM, THETA)
        assert repr(report.pattern) == repr(fresh_bisected_pattern(LAM, THETA, report.a, report.b))

    def test_unfiltered_scan_hit_in_a_long_block(self, monkeypatch):
        # The reversed classic a-grid: the hit is the 46th probe, in a block
        # of 52, and only its pattern is bisected.
        scans = recorded_scans(monkeypatch)
        probes = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = orders._scan(orders._Gaps(THETA, LAM), probes, orders._star_signs,
                                    ScanOptions(), refine=False)
        assert len(scanned) == 46 and scans[-1] == (52, False)
        assert repr(hit.pattern) == repr(fresh_bisected_pattern(THETA, LAM, hit.a, hit.b))
        assert hit.pattern.transitions != scanned[-1][1].transitions


class TestScaleFreeCertificates:
    @pytest.mark.parametrize("k", [1e-13, 1e-20])
    def test_tiny_rates_get_no_analytic_certificate(self, k):
        # The reversed classic pair's star order FAILS at scale 1, so its
        # convex order cannot hold; the totals of (2,4) and (1.5,3.5) differ
        # by a factor 1.2.  Neither pair earns a certificate at any scale.
        for verdict in (
            convex_check(THETA.scaled(k), LAM.scaled(k)),
            star_check(HazardVector((2, 4)).scaled(k), THETA.scaled(k)),
        ):
            assert verdict.certificate is None
            assert verdict.status is not Status.HOLDS


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="canonicalize drops every X term of this gap (|c| <= 1e-12), so the scan "
    "certifies the pattern of survival_Y alone (ROADMAP item 1)",
)
def test_pattern_certifies_the_true_gap_not_its_canonical_form():
    # V(x) = S_Y(x) - S_X(0.5 x + 15): each X term carries exp(-15 r) <= exp(-30).
    def true_gap(x):
        def surv(rates, t):
            r1, r2 = (mpmath.mpf(r) for r in rates)
            return mpmath.exp(-r1 * t) + mpmath.exp(-r2 * t) - mpmath.exp(-(r1 + r2) * t)
        x = mpmath.mpf(x)
        return surv(THETA.rates, x) - surv(LAM.rates, x / 2 + 15)

    with mpmath.workdps(60):
        assert true_gap(59) > 0 > true_gap(61)
    p = sign_pattern(survival_gap(LAM, THETA, 0.5, 15.0))
    assert not (p.certified and p.complete) or "-" in p.signs()


class TestGapDerivativeInScale:
    def test_zero_at_origin(self):
        assert dVda(LAM, 0.0, 0.6, 0.01) == 0.0

    def test_matches_central_difference(self):
        got = dVda(LAM, 1.0, 0.6, 0.01)
        h = 1e-6
        fd = (
            survival_gap(LAM, THETA, 0.6 + h, 0.01).eval(1.0)
            - survival_gap(LAM, THETA, 0.6 - h, 0.01).eval(1.0)
        ) / (2 * h)
        assert got > 0.0
        assert abs(got - fd) / abs(fd) < 1e-6

    def test_strictly_positive_on_random_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            x = float(rng.uniform(1e-3, 10.0))
            a = float(rng.uniform(0.05, 3.0))
            b = float(rng.uniform(0.0, 2.0))
            assert dVda(LAM, x, a, b) > 0.0


@pytest.mark.parametrize("call, args", [
    (region_classify, (0.6, math.nan, LAM, THETA)),
    (region_classify, (0.6, math.inf, LAM, THETA)),
    (region_classify, (math.nan, 0.01, LAM, THETA)),
    (region_classify, (math.inf, 0.01, LAM, THETA)),
    (dVda, (LAM, math.nan, 0.6, 0.01)),
    (dVda, (LAM, 1.0, 0.6, math.nan)),
    (dVda, (LAM, math.inf, 0.6, 0.0)),
    (dVda, (LAM, 1.0, math.nan, 0.0)),
    (dVda, (LAM, 1.0, math.inf, 0.0)),
    (dVda, (LAM, 1.0, 0.6, math.inf)),
])
def test_non_finite_parameters_rejected(call, args):
    with pytest.raises(ValueError, match="finite"):
        call(*args)


class TestSignMap:
    def test_strip_boundary_rows_included_exactly(self):
        smap = sign_map(LAM, THETA, 0.0125, (0.3, 0.9), (0.0, 20.0), 9)
        assert 0.5 in smap.a_values and 0.75 in smap.a_values

    def test_boundary_row_patterns(self):
        smap = sign_map(LAM, THETA, 0.0125, (0.4, 0.8), (0.0, 20.0), (5, 161))
        def row_pattern(a):
            row = smap.signs[smap.a_values.index(a)]
            compact = []
            for s in row:
                if s != 0 and (not compact or compact[-1] != s):
                    compact.append(s)
            return tuple(compact)
        assert row_pattern(0.75) == (1, -1, 1)
        assert row_pattern(0.5) == (1, -1)

    def test_signs_monotone_in_scale_at_fixed_x(self):
        # The gap is increasing in a, so up each column - can flip to + once.
        smap = sign_map(LAM, THETA, 0.0125, (0.3, 1.1), (0.0, 12.0), (17, 33))
        for j in range(len(smap.x_values)):
            column = [row[j] for row in smap.signs if row[j] != 0]
            assert column == sorted(column)

    def test_identical_systems_at_unit_scale_all_uncertain(self):
        smap = sign_map(LAM, LAM, 0.0, (0.5, 1.5), (0.0, 5.0), 5)
        row = smap.signs[smap.a_values.index(1.0)]
        assert all(s == 0 for s in row)

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            sign_map(LAM, THETA, 0.0, (0.5, 1.0), (0.0, 5.0), 1)

    def test_one_evaluator_call_per_map(self, monkeypatch):
        # Counted as in test_evaluator_calls_shared_by_a_block.  One call
        # per a-row, this 201x201 map (203 rows) made 203 of them.
        calls, depth = [0], [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += depth[0] == 0
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        monkeypatch.setattr(expsum, "scaled_rows", counted(expsum.scaled_rows))
        monkeypatch.setattr(expsum.ExpSum, "_scaled_many", counted(expsum.ExpSum._scaled_many))
        smap = sign_map(LAM, THETA, 0.0125, (0.25, 1.0), (0.0, 12.0), 201)
        assert len(smap.a_values) == 203 and calls[0] == 1

    def test_rows_match_rows_certified_alone(self):
        smap = sign_map(LAM, THETA, 0.0125, (0.3, 1.1), (0.0, 12.0), (17, 33))
        gaps, opts = orders._Gaps(LAM, THETA), ScanOptions()
        x_vals = np.array(smap.x_values)
        n_terms = set()
        for a, row in zip(smap.a_values, smap.signs):
            gap = gaps(a, smap.b)
            n_terms.add(gap.n_terms)
            (alone,) = expsum.certain_signs([gap], [x_vals], opts)
            assert row == tuple(alone.tolist()), a
        # canonicalize merges a*lam_i = theta_1 on the strip-boundary rows,
        # so the map's one call mixes rows of different term counts.
        assert n_terms == {5, 6}

    @staticmethod
    def mp_gap(lam, theta, a, b, x):
        """V(x; a, b) at 50 digits, each survival by inclusion-exclusion
        over the nonempty subsets S of components."""
        def surv(rates, t):
            rates = [mpmath.mpf(r) for r in rates]
            return mpmath.fsum(
                (-1) ** (k + 1) * mpmath.exp(-mpmath.fsum(s) * t)
                for k in range(1, len(rates) + 1) for s in combinations(rates, k)
            )
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            return surv(theta, x) - surv(lam, mpmath.mpf(a) * x + mpmath.mpf(b))

    def test_n3_cells_at_rates_near_1e_11_match_50_digits(self):
        # Rates near 1e-11 merge in the coefficient form, which certified
        # 94 of these 1,720 cells with the wrong sign.
        lam, theta = (2e-11, 3e-11, 4e-11), (1e-11, 3e-11, 5e-11)
        smap = sign_map(HazardVector(lam), HazardVector(theta), 0.0, (0.3, 1.0),
                        (0.0, 1.5e12), 41)
        certain = 0
        for a, row in zip(smap.a_values, smap.signs):
            for x, s in zip(smap.x_values, row):
                if s:
                    certain += 1
                    value = self.mp_gap(lam, theta, a, smap.b, x)
                    assert value != 0 and (value > 0) == (s > 0), (a, x, s, value)
        assert certain > 1500

    N3 = HazardVector((2, 3, 4)), HazardVector((1, 3, 5))

    def test_n3_cells_certified_by_both_forms_agree(self):
        lam, theta = self.N3
        smap = sign_map(lam, theta, 0.05, (0.125, 1.0), (0.0, 20.0), 41)
        gaps = orders._Gaps(lam, theta)
        x_vals = np.array(smap.x_values)
        coefficient = expsum.certain_signs(
            [gaps(a, smap.b) for a in smap.a_values], [x_vals] * len(smap.a_values), ScanOptions()
        )
        product_signs = np.array(smap.signs)
        assert not np.any(product_signs * np.array(coefficient) < 0)
        assert np.count_nonzero(product_signs) > 1500

    @pytest.mark.parametrize("lam, theta, probes", [
        # The strip ends 0.5 and 0.75 and a = 1 (5a = 5) merge a term; at
        # b = 40 every shifted term of X is dropped.
        (LAM, THETA, [(a, b) for a in (0.3, 0.5, 0.6, 0.75, 1.0) for b in (0.0, 0.0125, 40.0)]),
        (LAM, THETA, [(0.5, 0.0), (0.75, 0.0125), (1.0, 0.0)]),  # no row kept term for term
        (LAM, LAM, [(0.5, 0.0), (1.0, 0.0), (1.0, 0.01)]),  # a zero gap at a = 1, b = 0
        (LAM, LAM, [(1.0, 0.0)]),  # only the zero gap
        (HazardVector((2.0,)), THETA, [(0.5, 0.0), (0.75, 0.3)]),  # systems of different sizes
    ], ids=["classic", "changed-rows-only", "identical", "zero-only", "sizes-1-and-2"])
    def test_layout_from_rows_is_the_padded_gaps(self, lam, theta, probes):
        gaps = orders._Gaps(lam, theta)
        rows = gaps.evaluator(probes)
        padded = expsum._PaddedSums([gaps(a, b) for a, b in probes])
        assert rows.neg_rates.tobytes() == padded.neg_rates.tobytes()
        assert rows.coeffs.tobytes() == padded.coeffs.tobytes()
        assert rows.zero == padded.zero
        x = [np.linspace(-1.0, 20.0, 50)] * len(probes)
        for got, want in zip(rows.evaluate(x), padded.evaluate(x)):
            assert got.tobytes() == want.tobytes()

    def test_dense_map_builds_only_the_changed_rows(self, monkeypatch):
        # 4 of the 203 rows of this map are not their gap term for term,
        # where a rate of X meets one of Y: a = 0.5 and 0.75
        # (a lam_i = theta_1), 0.7 (5a = theta_2) and 1 (5a = 5).
        calls = [0]
        canonicalize = expsum.canonicalize

        def counted(*args, **kwargs):
            calls[0] += 1
            return canonicalize(*args, **kwargs)

        monkeypatch.setattr(expsum, "canonicalize", counted)
        smap = sign_map(LAM, THETA, 0.0125, (0.25, 1.0), (0.0, 12.0), 201)
        assert len(smap.a_values) == 203 and calls[0] == 4

    @pytest.mark.parametrize("lam, theta", [N3, (HazardVector((2.0, 2.5, 3.0, 3.5)),
                                                  HazardVector((1.0, 2.0, 3.0, 5.0)))],
                             ids=["n3", "n4"])
    def test_product_rows_equal_the_scan_block(self, lam, theta):
        smap = sign_map(lam, theta, 0.05, (0.125, 1.0), (0.0, 20.0), 41)
        gaps = orders._Gaps(lam, theta)
        block = gaps.block([(a, smap.b) for a in smap.a_values])
        assert isinstance(block, product.ProductGaps)
        rows = expsum.certain_signs(block, [np.array(smap.x_values)] * len(smap.a_values),
                                    ScanOptions())
        assert smap.signs == tuple(tuple(row.tolist()) for row in rows)

    def test_negative_shift_rejected(self):
        for lam, theta in ((LAM, THETA), self.N3):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                sign_map(lam, theta, -0.1, (0.5, 1.0), (0.0, 5.0), 5)

    def test_n3_origin_column_certain_for_positive_b(self):
        # V(0) = F_X(b) > 0 exactly, as in the n = 2 maps; b = 0 is an
        # exact zero there, and stays uncertain.
        for b in (0.0125, 0.05, 5.0):
            smap = sign_map(*self.N3, b, (0.125, 1.0), (0.0, 20.0), 41)
            assert [row[0] for row in smap.signs] == [1] * len(smap.a_values)
            assert all(s != 0 for row in smap.signs for s in row[1:3])
        smap = sign_map(*self.N3, 0.0, (0.125, 1.0), (0.0, 20.0), 41)
        assert [row[0] for row in smap.signs] == [0] * len(smap.a_values)


class TestStarCheckN:
    def test_three_component_scan_consistent(self):
        verdict = star_check(HazardVector((2, 3, 4)), HazardVector((1, 3, 5)))
        assert verdict.status is Status.INCONCLUSIVE
        assert "consistent" in verdict.detail

    def test_identical_systems_consistent(self):
        h = HazardVector((1, 2, 3))
        verdict = star_check(h, h)
        assert verdict.status is Status.HOLDS and verdict.certificate == "identical-rates"

    def test_unequal_totals_noted_but_scanned(self):
        # Not majorized, so the scan may not call itself consistent with the
        # conjecture, which is about majorized pairs.
        verdict = star_check(HazardVector((2, 3, 4)), HazardVector((1, 3, 6)))
        assert verdict.status in (Status.FAILS, Status.INCONCLUSIVE)
        assert "consistent" not in verdict.detail

    def test_never_analytic_holds(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            mid = rng.uniform(1.0, 3.0)
            d = rng.uniform(0.1, 0.9) * mid
            lam = HazardVector((mid - d / 2, mid, mid + d / 2))
            theta = HazardVector((mid - d, mid, mid + d))
            verdict = star_check(lam, theta)
            assert verdict.status is not Status.HOLDS

    @pytest.mark.parametrize("check", [star_check, convex_check, violation_search],
                             ids=lambda check: check.__name__)
    def test_length_mismatch_rejected(self, check):
        with pytest.raises(ValueError, match="length mismatch"):
            check(HazardVector((1, 2)), HazardVector((1, 2, 3)))


def assert_rate_scale_equivariant(lam, theta, j):
    """star_check of both systems scaled by 2^j gives the verdict at
    scale 1: (2^j r)(2^-j x) == r x in floats, so the status and a are
    the same, and b and each region's x scale by 2^-j exactly."""
    k = 2.0**j
    base = star_check(HazardVector(lam), HazardVector(theta))
    moved = star_check(HazardVector(lam).scaled(k), HazardVector(theta).scaled(k))
    assert moved.status is base.status
    if base.witness is not None:
        w, v = base.witness, moved.witness
        assert (v.a, v.b) == (w.a, w.b / k)
        assert [(r.sign, r.x) for r in v.pattern.regions] == [
            (r.sign, r.x / k) for r in w.pattern.regions
        ]


N3_STAR_PAIRS = {
    "n3": ((2, 3, 4), (1, 3, 5)),
    "n4": ((2, 2.5, 3, 3.5), (1.5, 2.5, 3, 4)),
    "n6": ((2, 2.2, 2.4, 2.6, 2.8, 3), (1.5, 2, 2.4, 2.6, 3, 3.5)),
}


class TestRateScaleEquivariance:
    """Power-of-two rescaling of both systems at n >= 3 (ROADMAP item 12).
    The product form evaluates the true gap, so no scale-dependent rounding
    of the gap's coefficients can certify a wrong sign: the majorized n = 3
    pair FAILED at j = -30 and -40 while the scans read the coefficient form."""

    @pytest.mark.parametrize("j", [-40, -30, 30])
    @pytest.mark.parametrize("name", list(N3_STAR_PAIRS))
    def test_majorized_verdicts(self, name, j):
        assert_rate_scale_equivariant(*N3_STAR_PAIRS[name], j)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the scan's structure still comes from the canonical form, whose merge "
        "tolerance is absolute below rate 1 and whose sign grids end 1e-6 past their "
        "last point, so witness abscissae move and the j = -40 FAILS is lost "
        "(ROADMAP item 10)",
    )
    @pytest.mark.parametrize("j", [-40, -30, 30])
    @pytest.mark.parametrize("name", list(N3_STAR_PAIRS))
    def test_reversed_verdicts(self, name, j):
        lam, theta = N3_STAR_PAIRS[name]
        assert_rate_scale_equivariant(theta, lam, j)


class TestOrderVerdict:
    def test_fails_requires_witness(self):
        with pytest.raises(ValueError):
            OrderVerdict(Status.FAILS, None)

    def test_witness_fields(self):
        p = sign_pattern(survival_gap(LAM, THETA, 1.0))
        w = Witness(1.0, 0.0, p)
        v = OrderVerdict(Status.FAILS, None, witness=w)
        assert v.witness.a == 1.0
