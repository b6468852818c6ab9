"""Star/convex order verdicts, region map, counterexample search, sign maps."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    star_check_n,
    star_ratio_oracle,
    survival_gap,
    violation_search,
)
from transform_orders import expsum, orders, systems

from _samplers import random_majorized_pair

LAM = HazardVector((2, 3))
THETA = HazardVector((1.5, 3.5))


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

    def test_numerical_holds_opt_in(self):
        opts = OrderOptions(allow_numerical_holds=True)
        verdict = star_check(LAM, HazardVector((0.9, 3.6)), opts)
        assert verdict.status in (Status.HOLDS, Status.INCONCLUSIVE)
        assert verdict.certificate is None

    def test_wrong_size_redirects(self):
        with pytest.raises(ValueError, match="star_check_n"):
            star_check(HazardVector((1, 2, 3)), HazardVector((1, 2, 3)))


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
        assert orders._unconfirmed_region(gap, fabricated, opts) == regions[k]
        assert orders._unconfirmed_region(gap, report.pattern, opts) is None


def scan_one_at_a_time(gaps, probes, violates, opts):
    """The probe loop as a plain sequence of sign_pattern calls."""
    scanned = []
    for a, b in probes:
        p = sign_pattern(gaps(a, b), opts)
        scanned.append((a, p))
        if p.certified and violates(p):
            return orders.Witness(a, b, p), scanned
    return None, scanned


class TestScanBlocks:
    @staticmethod
    def assert_same_scan(lam, theta, probes, violates):
        gaps, opts = orders._Gaps(lam, theta), ScanOptions()
        got = orders._scan(gaps, probes, violates, opts)
        want = scan_one_at_a_time(gaps, probes, violates, opts)
        assert repr(got) == repr(want)
        return got

    def test_hit_in_mid_grid(self):
        # Reversed classic star check: the violation is found part way up.
        probes = [(a, 0.0) for a in orders._a_grid(THETA, LAM)]
        hit, scanned = self.assert_same_scan(THETA, LAM, probes, orders._star_violation)
        assert hit is not None
        assert 1 < len(scanned) < len(probes) - orders.MAX_BLOCK

    def test_majorized_pair_has_no_hit(self):
        probes = [(a, 0.0) for a in orders._a_grid(LAM, THETA)]
        hit, scanned = self.assert_same_scan(LAM, THETA, probes, orders._star_violation)
        assert hit is None and len(scanned) == len(probes)

    def test_b_halving_list(self):
        # The first probe list of violation_search on the classic pair.
        gaps = orders._Gaps(LAM, THETA)
        (t1, t2), a_hi = THETA.rates, THETA.rates[0] / LAM.rates[0]
        x0 = 1.0 / (t1 + t2)
        slack = systems.inverse_survival(gaps.surv_x, gaps.surv_y.eval(x0)) - a_hi * x0
        probes = [(a_hi, 0.5 * slack * 0.5**k) for k in range(orders.SEARCH_MAX_HALVINGS)]
        hit, _ = self.assert_same_scan(
            LAM, THETA, probes, lambda p: p.signs() == ("+", "-", "+")
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


class TestStarCheckN:
    def test_three_component_scan_consistent(self):
        verdict = star_check_n(HazardVector((2, 3, 4)), HazardVector((1, 3, 5)))
        assert verdict.status is Status.INCONCLUSIVE
        assert "consistent" in verdict.detail

    def test_identical_systems_consistent(self):
        h = HazardVector((1, 2, 3))
        verdict = star_check_n(h, h)
        assert verdict.status is Status.INCONCLUSIVE
        assert "consistent" in verdict.detail

    def test_unequal_totals_noted_but_scanned(self):
        verdict = star_check_n(HazardVector((2, 3, 4)), HazardVector((1, 3, 6)))
        assert "majorization precondition fails" in verdict.detail
        assert verdict.status in (Status.FAILS, Status.INCONCLUSIVE)

    def test_never_analytic_holds(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            mid = rng.uniform(1.0, 3.0)
            d = rng.uniform(0.1, 0.9) * mid
            lam = HazardVector((mid - d / 2, mid, mid + d / 2))
            theta = HazardVector((mid - d, mid, mid + d))
            verdict = star_check_n(lam, theta)
            assert verdict.status is not Status.HOLDS

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            star_check_n(HazardVector((1, 2)), HazardVector((1, 2, 3)))


class TestOrderVerdict:
    def test_fails_requires_witness(self):
        with pytest.raises(ValueError):
            OrderVerdict(Status.FAILS, None)

    def test_witness_fields(self):
        p = sign_pattern(survival_gap(LAM, THETA, 1.0))
        w = Witness(1.0, 0.0, p)
        v = OrderVerdict(Status.FAILS, None, witness=w)
        assert v.witness.a == 1.0
