"""Brute-force validators: ratio monotonicity, convexity, Monte Carlo."""

import dataclasses
import json
import math

import numpy as np
import pytest

from transform_orders import (
    HazardVector,
    convex_check,
    convexity_oracle,
    mc_survival,
    star_check,
    star_ratio_oracle,
    transform_values,
    violation_search,
    zoomed_concavity_grid,
    Status,
    SurvivalUnderflow,
    survival,
)
from transform_orders import oracle

LAM = HazardVector((2, 3))
THETA = HazardVector((1.5, 3.5))


def ratio_grid(theta, points=5000):
    x_max = 5.0 / theta.rates[0]
    return np.linspace(x_max / points, x_max, points)


class TestStarRatioOracle:
    def test_identity_pair_is_flat(self):
        report = star_ratio_oracle(LAM, LAM, ratio_grid(LAM))
        assert not report.monotone_violations
        np.testing.assert_allclose(report.values, 1.0, atol=1e-9)

    def test_majorized_pair_clean(self):
        report = star_ratio_oracle(LAM, THETA, ratio_grid(THETA, 10_000))
        assert report.clean

    def test_reversed_pair_violates(self):
        report = star_ratio_oracle(THETA, LAM, ratio_grid(LAM, 10_000))
        assert report.monotone_violations

    def test_agrees_with_checker_on_verdicts(self):
        clean = star_ratio_oracle(LAM, THETA, ratio_grid(THETA)).clean
        assert clean == (star_check(LAM, THETA).status is not Status.FAILS)
        dirty = star_ratio_oracle(THETA, LAM, ratio_grid(LAM)).clean
        assert dirty == (star_check(THETA, LAM).status is not Status.FAILS)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            star_ratio_oracle(LAM, THETA, np.linspace(0.0, 1.0, 10))

    @pytest.mark.parametrize("grid", [[0.5, -1.0, 1.0], [0.5, math.nan, 1.0]],
                             ids=["negative", "nan"])
    def test_rejects_a_later_bad_point(self, grid):
        # Only the grid is named, not the tail levels it would turn into.
        with pytest.raises(ValueError, match="star ratio grid"):
            star_ratio_oracle(LAM, THETA, np.array(grid))


class TestConvexityOracle:
    def test_identity_pair_has_zero_curvature(self):
        grid = np.linspace(0.0, 3.0, 2001)
        report = convexity_oracle(LAM, LAM, grid)
        assert not report.convexity_violations
        np.testing.assert_allclose(report.values, grid, atol=1e-10)

    def test_homogeneous_base_is_convex(self):
        grid = np.linspace(0.0, 5.0 / THETA.rates[0], 100_001)
        report = convexity_oracle(HazardVector((2.5, 2.5)), THETA, grid)
        assert not report.convexity_violations

    def test_zoomed_window_reveals_concavity(self):
        window = violation_search(LAM, THETA).concavity_window()
        report = convexity_oracle(LAM, THETA, zoomed_concavity_grid(window))
        assert report.convexity_violations

    def test_concavity_found_iff_convex_check_fails(self):
        window = violation_search(LAM, THETA).concavity_window()
        found = bool(
            convexity_oracle(LAM, THETA, zoomed_concavity_grid(window))
            .convexity_violations
        )
        assert found == (convex_check(LAM, THETA).status is Status.FAILS)

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError):
            convexity_oracle(LAM, THETA, np.geomspace(0.1, 1.0, 50))

    @pytest.mark.parametrize("grid", [np.linspace(-1.0, 1.0, 5), [0.0, math.nan, 1.0]],
                             ids=["negative", "nan"])
    def test_rejects_a_negative_or_nan_point(self, grid):
        with pytest.raises(ValueError, match="convexity grid"):
            convexity_oracle(LAM, THETA, np.asarray(grid))

    def test_transform_starts_at_origin(self):
        vals = transform_values(LAM, THETA, np.array([0.0, 1.0]))
        assert vals[0] == 0.0


class TestSurvivalUnderflow:
    # S_lam(x) is about 2 e^-2x: it underflows to 0 near x = 372, so the
    # grid from 0 to 400 in steps of 400/49 keeps a positive (subnormal)
    # survival up to 367.35.
    GRID = np.linspace(0.0, 400.0, 50)

    def test_both_oracles_report_the_largest_safe_grid_x(self):
        safe = float(self.GRID[survival(LAM).eval_many(self.GRID) > 0.0].max())
        assert safe == pytest.approx(367.35, abs=0.01)
        for check, grid in ((convexity_oracle, self.GRID), (star_ratio_oracle, self.GRID[1:])):
            with pytest.raises(SurvivalUnderflow) as info:
                check(LAM, THETA, grid)
            assert info.value.max_safe_x == safe
            assert "largest safe grid x" in str(info.value)

    def test_a_grid_past_the_underflow_has_no_safe_x(self):
        with pytest.raises(SurvivalUnderflow) as info:
            transform_values(LAM, THETA, np.array([500.0, 600.0]))
        assert info.value.max_safe_x == 0.0


class TestMcSurvival:
    def test_heterogeneous_pair_close_to_analytic(self):
        report = mc_survival(LAM, 1_000_000, seed=20240817)
        assert report.sup_distance < 0.005

    def test_single_exponential_matches_tail(self):
        report = mc_survival(HazardVector((1.0,)), 1_000_000, seed=3)
        assert report.sup_distance < 0.005
        for x, analytic in zip(report.grid_x, report.analytic):
            assert abs(analytic - math.exp(-x)) < 1e-12

    def test_seeded_reports_are_identical(self):
        a = mc_survival(LAM, 10_000, seed=99)
        b = mc_survival(LAM, 10_000, seed=99)
        assert json.dumps(dataclasses.asdict(a)) == json.dumps(dataclasses.asdict(b))

    def test_different_seeds_differ(self):
        a = mc_survival(LAM, 10_000, seed=1)
        b = mc_survival(LAM, 10_000, seed=2)
        assert a.sup_distance != b.sup_distance

    def test_rejects_tiny_sample_size(self):
        with pytest.raises(ValueError):
            mc_survival(LAM, 999, seed=0)


class TestReportTuples:
    """The reports' tuples, built from ``tolist()``, against the same arrays
    converted one element at a time with ``float`` and ``int``: equal by
    value and by repr, so every element is a Python float or int."""

    @staticmethod
    def assert_same(got, want):
        assert got == want
        assert repr(got) == repr(want)

    def test_star_ratio_report(self):
        grid = ratio_grid(LAM, 2000)
        got = star_ratio_oracle(THETA, LAM, grid)
        ratio = transform_values(THETA, LAM, grid) / grid
        drops = ratio[:-1] - ratio[1:]
        bad = np.nonzero(drops > oracle.RATIO_DROP_TOL)[0]
        assert bad.size
        self.assert_same(got, oracle.GridReport(
            grid_x=tuple(float(x) for x in grid),
            values=tuple(float(v) for v in ratio),
            monotone_violations=tuple((int(i), float(drops[i])) for i in bad),
        ))

    def test_convexity_report(self):
        grid = zoomed_concavity_grid(violation_search(LAM, THETA).concavity_window(), 2000)
        got = convexity_oracle(LAM, THETA, grid)
        values = transform_values(LAM, THETA, grid)
        d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
        bad = np.nonzero(d2 < -oracle.CONCAVITY_TOL)[0]
        assert bad.size
        self.assert_same(got, oracle.GridReport(
            grid_x=tuple(float(x) for x in grid),
            values=tuple(float(v) for v in values),
            convexity_violations=tuple((int(i) + 1, float(-d2[i])) for i in bad),
        ))

    def test_mc_survival_report(self):
        got = mc_survival(LAM, 10_000, seed=5)
        u = np.random.default_rng(5).random((10_000, LAM.n))
        lifetimes = np.sort((-np.log1p(-u) / np.asarray(LAM.rates)).max(axis=1))
        grid = np.linspace(0.0, float(-np.log(1e-4) / LAM.rates[0]), oracle.MC_GRID_POINTS)
        analytic = survival(LAM).eval_many(grid)
        empirical = 1.0 - np.searchsorted(lifetimes, grid, side="right") / 10_000
        self.assert_same(got, oracle.McSurvivalReport(
            rates=LAM.rates, n_samples=10_000, seed=5,
            grid_x=tuple(float(x) for x in grid),
            empirical=tuple(float(v) for v in empirical),
            analytic=tuple(float(v) for v in analytic),
            sup_distance=float(np.max(np.abs(empirical - analytic))),
        ))
