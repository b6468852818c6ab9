"""Parallel-system survival, density, hazard, quantiles, majorization."""

import itertools
import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from transform_orders import (
    HazardVector,
    SurvivalUnderflow,
    dVda,
    failure_rate,
    inverse_survival,
    inverse_survival_many,
    majorizes,
    sign_pattern,
    survival,
)
from transform_orders import systems

from _samplers import random_hazard, random_majorized_pair


def brute_force_survival_terms(rates):
    """Independent inclusion-exclusion over explicit subsets."""
    buckets = {}
    for size in range(1, len(rates) + 1):
        for subset in itertools.combinations(range(len(rates)), size):
            key = math.fsum(rates[i] for i in subset)
            buckets[key] = buckets.get(key, 0.0) + (-1.0) ** (size + 1)
    return tuple(sorted((r, c) for r, c in buckets.items() if c != 0.0))


class TestHazardVector:
    def test_sorted_on_construction(self):
        assert HazardVector((3, 1, 2)).rates == (1.0, 2.0, 3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HazardVector((1.0, 0.0))
        with pytest.raises(ValueError):
            HazardVector(())

    def test_scaled(self):
        assert HazardVector((1, 2)).scaled(2.0).rates == (2.0, 4.0)

    @pytest.mark.parametrize("k", [1.0, 1e-13, 1e-20])
    def test_close_to_is_scale_free(self, k):
        # An absolute tolerance floor made every pair of rates below about
        # 1e-12 count as equal.
        a, b = HazardVector((1.5, 3.5)).scaled(k), HazardVector((2, 3)).scaled(k)
        assert not a.close_to(b) and not b.close_to(a)
        assert a.close_to(HazardVector((1.5, 3.5 * (1 + 1e-13))).scaled(k))


class TestSurvival:
    def test_two_heterogeneous_components(self):
        assert survival(HazardVector((2, 3))).terms() == (
            (2.0, 1.0), (3.0, 1.0), (5.0, -1.0),
        )

    def test_two_equal_components(self):
        assert survival(HazardVector((1, 1))).terms() == ((1.0, 2.0), (2.0, -1.0))

    def test_subset_sum_collision_cancels(self):
        got = survival(HazardVector((1, 2, 3))).terms()
        assert got == ((1.0, 1.0), (2.0, 1.0), (4.0, -1.0), (5.0, -1.0), (6.0, 1.0))
        assert got == brute_force_survival_terms((1.0, 2.0, 3.0))

    def test_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            h = random_hazard(rng)
            got = survival(h).terms()
            expected = brute_force_survival_terms(h.rates)
            assert len(got) == len(expected)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            survival(HazardVector((1.0,) * 21))

    def test_overflowing_subset_sum_rejected(self):
        # 1e308 + 1.5e308 is inf: an error, not a one-term survival.
        with pytest.raises(ValueError, match="finite and nonnegative, got inf"):
            survival(HazardVector((1e308, 1.5e308)))

    def test_starts_at_one_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = survival(random_hazard(rng))
            assert math.fsum(f.coeffs) == 1.0

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = random_hazard(rng)
            slope = survival(h).derivative()
            xs = np.linspace(1e-6, 20.0 / h.rates[0], 2000)
            assert np.all(slope.eval_many(xs) <= 1e-15)

    def test_scale_equivalence(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = random_hazard(rng)
            k = float(rng.uniform(0.3, 4.0))
            xs = np.linspace(0.0, 5.0, 100)
            np.testing.assert_allclose(
                survival(h.scaled(k)).eval_many(xs),
                survival(h).eval_many(k * xs),
                rtol=1e-12,
            )


class TestDensity:
    """The density from the product form, ``systems.density_and_survival``."""

    @staticmethod
    def density(h, t):
        return systems.density_and_survival(h, t)[0]

    def test_two_equal_components(self):
        # f(t) = 2 e^-t - 2 e^-2t.
        h = HazardVector((1, 1))
        for t in (1e-3, 0.1, 1.0, 5.0):
            assert self.density(h, t) == pytest.approx(2.0 * math.exp(-t) * -math.expm1(-t),
                                                       rel=1e-14)

    def test_vanishes_at_origin_for_multiple_components(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            h = random_hazard(rng)
            if h.n < 2:
                continue
            assert self.density(h, 0.0) == 0.0

    def test_integrates_to_one(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            h = random_hazard(rng)
            numeric, _ = quad(lambda t: self.density(h, t), 0.0, np.inf, limit=200)
            assert abs(numeric - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_positive_near_zero(self, n):
        # F(t) = prod_i (1 - e^(-r_i t)) is about prod_i r_i t^n near 0, so
        # f(t) is about n prod_i r_i t^(n-1); the coefficient form cancels
        # there (it gave -1.42e-14 for rates 1..8 at t = 1e-3).
        h = HazardVector(tuple(range(1, n + 1)))
        for t in (1e-3, 1e-6):
            leading = n * math.prod(h.rates) * t ** (n - 1)
            assert 0.0 < self.density(h, t) == pytest.approx(leading, rel=n * sum(h.rates) * t)


class TestFailureRate:
    def test_single_component_is_constant(self):
        h = HazardVector((2.0,))
        for x in (0.1, 1.0, 7.5):
            assert abs(failure_rate(h, x) - 2.0) < 1e-12

    def test_vanishes_toward_origin(self):
        h = HazardVector((1, 1))
        values = [failure_rate(h, x) for x in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-5

    def test_value_against_high_precision_ratio(self):
        getcontext().prec = 50
        num = (
            2 * Decimal(-2).exp() + 3 * Decimal(-3).exp() - 5 * Decimal(-5).exp()
        )
        den = Decimal(-2).exp() + Decimal(-3).exp() - Decimal(-5).exp()
        assert abs(failure_rate(HazardVector((2, 3)), 1.0) - float(num / den)) < 1e-10

    def test_underflow_reports_safe_range(self):
        h = HazardVector((2, 3))
        with pytest.raises(SurvivalUnderflow) as info:
            failure_rate(h, 5000.0)
        assert info.value.max_safe_x == pytest.approx(350.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            failure_rate(HazardVector((1,)), 0.0)

    @pytest.mark.parametrize("rates", [(2,), (2, 3), (0.5, 2, 7), tuple(range(1, 9)),
                                       tuple(range(1, 21))], ids=lambda r: f"n={len(r)}")
    def test_against_mpmath_from_near_zero_to_the_tail(self, rates):
        # The coefficient form of the density cancels near 0, where it gave
        # a negative rate for n = 8 at x = 1e-3; the product form has
        # positive terms only, so the rate and dV/da = x f(a x) are
        # accurate and positive.
        h = HazardVector(rates)
        with mpmath.workdps(250):  # S(100) is down to e^-200; 1 - q(1e-20) about 1e-20
            for x in (1e-20, 1e-10, 1e-3, 0.1, 1.0, 10.0, 100.0):
                t = mpmath.mpf(x)
                q = [mpmath.exp(-mpmath.mpf(r) * t) for r in h.rates]
                dens = mpmath.fsum(
                    r * qi * mpmath.fprod(1 - qj for j, qj in enumerate(q) if j != i)
                    for i, (r, qi) in enumerate(zip(h.rates, q))
                )
                surv = 1 - mpmath.fprod(1 - qi for qi in q)
                if dens * t < mpmath.mpf(1e-300):  # below the range of float64
                    continue
                assert failure_rate(h, x) == pytest.approx(float(dens / surv), rel=2e-15)
                got = dVda(h, x, 1.0)
                assert got > 0.0 and got == pytest.approx(float(dens * t), rel=2e-15)


class TestInverseSurvival:
    def test_full_tail_maps_to_origin(self):
        f = survival(HazardVector((2, 3)))
        assert inverse_survival(f, 1.0) == 0.0

    def test_equal_rate_pair_quantile(self):
        # 2t - t^2 = 0.75 at t = 1 - sqrt(0.25) = 1/2, so x = ln 2.
        f = survival(HazardVector((1, 1)))
        t = 1.0 - math.sqrt(1.0 - 0.75)
        assert t == 0.5
        assert abs(inverse_survival(f, 0.75) - math.log(2.0)) < 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            f = survival(random_hazard(rng))
            u = rng.uniform(1e-6, 1.0, 100)
            for ui in u:
                assert abs(f.eval(inverse_survival(f, float(ui))) - ui) < 1e-12

    def test_vectorized_matches_scalar(self):
        f = survival(HazardVector((1.3, 2.7)))
        u = np.array([1.0, 0.9, 0.5, 0.1, 1e-5])
        got = inverse_survival_many(f, u)
        expected = [inverse_survival(f, float(ui)) for ui in u]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-300)

    @staticmethod
    def sequential_quantiles(f, u):
        """inverse_survival_many as one bisection level per eval_many call:
        the reference for the evaluation of several levels per call."""
        u = np.asarray(u, dtype=float)
        lo = np.zeros_like(u)
        hi = np.where(u < 1.0, 1.0 / f.rates[0], 0.0)
        for _ in range(200):
            too_high = (f.eval_many(hi) >= u) & (hi > 0.0)
            if not too_high.any():
                break
            hi[too_high] *= 2.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            step = (lo < mid) & (mid < hi)
            if not step.any():
                break
            above = f.eval_many(mid) > u
            lo = np.where(step & above, mid, lo)
            hi = np.where(step & ~above, mid, hi)
        return 0.5 * (lo + hi)

    def test_levels_per_call_match_the_sequential_loop(self):
        # The levels violation_search asks for: S_Y(1 / (theta_1 + theta_n))
        # of strictly heterogeneous majorized pairs, inverted on S_X, one
        # at a time (several bisection levels per call) and all together.
        rng = np.random.default_rng(7)
        for scale in (1.0, 1.0, 1e-3, 1e3):
            for _ in range(10):
                lam, theta = random_majorized_pair(rng, scale=scale, strict=True)
                f, g = survival(lam), survival(theta)
                u = g.eval(1.0 / (theta.rates[0] + theta.rates[-1]))
                assert inverse_survival(f, u) == self.sequential_quantiles(f, [u])[0]
        f = survival(HazardVector((1.3, 2.7, 4.0)))
        u = np.concatenate([[1.0, 1e-300, 1e-12], rng.uniform(0.0, 1.0, 37) ** 4])
        assert np.array_equal(inverse_survival_many(f, u), self.sequential_quantiles(f, u))
        for ui in u.tolist():
            assert inverse_survival(f, ui) == self.sequential_quantiles(f, [ui])[0]

    # Levels where a predicted root is poor or fails: next to 1 (1 - f is
    # a few ulps), deep in the tail, subnormal, and level 1 itself.
    EDGE_LEVELS = (1.0 - 1e-6, 1.0 - 1e-15, 1e-12, 1e-300, 5e-324, 1.0)

    @settings(max_examples=40)
    @given(
        rates=st.lists(st.floats(0.2, 8.0), min_size=1, max_size=5),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        size=st.sampled_from([1, 5, 40, 300]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chained_rounds_match_the_sequential_loop(self, rates, scale, size, seed):
        # Uniform levels, their 8th powers (deep in the tail) and the edge
        # levels, inverted together and one at a time.
        f = survival(HazardVector(tuple(r * scale for r in rates)))
        rng = np.random.default_rng(seed)
        v = 1.0 - rng.random(size)  # in (0, 1]
        u = rng.choice(np.concatenate([self.EDGE_LEVELS, v, v**8]), size)
        assert np.array_equal(inverse_survival_many(f, u), self.sequential_quantiles(f, u))
        for ui in u[:8].tolist():
            assert inverse_survival(f, ui) == self.sequential_quantiles(f, [ui])[0]

    def test_rejects_out_of_range(self):
        f = survival(HazardVector((1,)))
        for u in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                inverse_survival(f, u)


class TestMajorizes:
    def test_spread_out_pair(self):
        assert majorizes(HazardVector((2, 3)), HazardVector((1.5, 3.5)))

    def test_reflexive(self):
        h = HazardVector((2, 3))
        assert majorizes(h, h)

    def test_direction_matters(self):
        assert not majorizes(HazardVector((1.5, 3.5)), HazardVector((2, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            majorizes(HazardVector((1, 2)), HazardVector((1, 2, 3)))

    @pytest.mark.parametrize("k", [1e-13, 1e-20])
    def test_scale_free(self, k):
        # (2,4) and (1.5,3.5) have totals 6k and 5k: never majorized, though
        # an absolute tolerance floor accepted them below about k = 1e-12.
        pairs = [((2, 4), (1.5, 3.5)), ((2, 3), (1.5, 3.5)), ((1.5, 3.5), (2, 3))]
        for lam, theta in pairs:
            unit = majorizes(HazardVector(lam), HazardVector(theta))
            assert majorizes(HazardVector(lam).scaled(k), HazardVector(theta).scaled(k)) == unit

    def test_antisymmetry(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = random_hazard(rng, 3)
            b = random_hazard(rng, 3)
            if majorizes(a, b) and majorizes(b, a):
                np.testing.assert_allclose(a.rates, b.rates, rtol=1e-12)

    def test_unit_scale_gap_is_nonnegative(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            lam, theta = random_majorized_pair(rng, strict=True)
            gap = survival(theta) - survival(lam)
            p = sign_pattern(gap)
            assert p.signs() == ("+",)
