"""Exponential-sum algebra, zero bounds, and certified sign analysis."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transform_orders import (
    ExpSum,
    ScanOptions,
    canonicalize,
    count_roots,
    sign_pattern,
)

from _samplers import random_expsum

# Gap of the theta=(1.5,3.5) system over the lam=(2,3) system at unit scale;
# the shared rate-5 terms cancel exactly.
GAP_AT_UNIT_SCALE = canonicalize([(1.5, 1), (2, -1), (3, -1), (3.5, 1)])


def expsum_strategy(max_terms=5):
    term = st.tuples(
        st.floats(0.01, 10.0, allow_nan=False),
        st.floats(-5.0, 5.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(canonicalize)


# -- canonicalize ---------------------------------------------------------


class TestCanonicalize:
    def test_sorted_terms_kept_verbatim(self):
        f = canonicalize([(2, 1), (3, 1), (5, -1)], tol=0.0)
        assert f.terms() == ((2.0, 1.0), (3.0, 1.0), (5.0, -1.0))

    def test_equal_rates_merge(self):
        f = canonicalize([(1, 1), (1, 1), (2, -1)], tol=0.0)
        assert f.terms() == ((1.0, 2.0), (2.0, -1.0))

    def test_exact_cancellation_drops_term(self):
        f = canonicalize([(1, 1), (3, 1), (3, -1)], tol=0.0)
        assert f.terms() == ((1.0, 1.0),)

    def test_near_duplicate_rates_merge_at_default_tol(self):
        a = 1.4 / 2.1 * 2.1  # float dust away from 1.4
        f = canonicalize([(1.4, 1.0), (a, -1.0), (3.0, 0.5)])
        assert f.terms() == ((3.0, 0.5),)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([(-0.5, 1.0)])

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, c):
        # A NaN would otherwise be dropped as negligible (abs(nan) > tol is False).
        with pytest.raises(ValueError):
            canonicalize([(1.0, 1.0), (2.0, c)])

    def test_unsorted_input_sorted(self):
        f = canonicalize([(5, -1), (2, 1), (3, 1)])
        assert f.rates == (2.0, 3.0, 5.0)

    @given(expsum_strategy())
    def test_invariants(self, f):
        assert all(r0 < r1 for r0, r1 in zip(f.rates, f.rates[1:]))
        assert all(c != 0.0 for c in f.coeffs)


# -- eval -----------------------------------------------------------------


class TestEval:
    def test_survival_at_origin(self):
        f = canonicalize([(2, 1), (3, 1), (5, -1)])
        assert f.eval(0.0) == 1.0

    def test_value_against_high_precision_summation(self):
        # Independent oracle: 50-digit decimal arithmetic.
        getcontext().prec = 50
        oracle = float(
            Decimal(-1).exp() + Decimal("-1.5").exp() - Decimal("-2.5").exp()
        )
        f = canonicalize([(2, 1), (3, 1), (5, -1)])
        got = f.eval(0.5)
        assert abs(got - oracle) < 1e-14
        assert abs(got - 0.5089246026959734) < 1e-13
        assert abs(got - 0.50893) < 1e-5

    def test_zero_sum_evaluates_to_zero(self):
        z = ExpSum((), ())
        for x in (-3.0, 0.0, 1.0, 1e6):
            assert z.eval(x) == 0.0

    def test_eval_many_matches_scalar(self):
        f = canonicalize([(0.5, 2.0), (1.5, -1.0), (4.0, 0.25)])
        xs = np.linspace(0.0, 10.0, 257)
        np.testing.assert_allclose(
            f.eval_many(xs), [f.eval(float(x)) for x in xs], rtol=1e-13, atol=1e-300
        )

    def test_large_negative_argument_keeps_sign(self):
        f = canonicalize([(1, 1), (2, -3), (3, 2)])
        # Largest rate has positive coefficient, so f -> +inf as x -> -inf.
        assert f.eval(-500.0) == math.inf


# -- derivative -----------------------------------------------------------


class TestDerivative:
    def test_term_wise_rule(self):
        f = canonicalize([(2, 1), (3, 1), (5, -1)])
        assert f.derivative().terms() == ((2.0, -2.0), (3.0, -3.0), (5.0, 5.0))

    def test_rate_zero_terms_vanish(self):
        f = canonicalize([(0.0, 5.0), (1.0, 1.0)])
        assert f.derivative().terms() == ((1.0, -1.0),)

    def test_gap_slope_vanishes_at_origin(self):
        assert abs(GAP_AT_UNIT_SCALE.derivative().eval(0.0)) < 1e-14

    def test_gap_curvature_at_origin(self):
        # Independent oracle in exact rationals: -l1^2 + t1^2 - l2^2 + t2^2.
        expected = (
            -Fraction(2) ** 2 + Fraction(3, 2) ** 2 - Fraction(3) ** 2
            + Fraction(7, 2) ** 2
        )
        assert expected == Fraction(3, 2)
        d2 = GAP_AT_UNIT_SCALE.derivative().derivative()
        assert abs(d2.eval(0.0) - 1.5) < 1e-12
        assert abs(GAP_AT_UNIT_SCALE.derivative_sum(2) - 1.5) < 1e-12

    @given(expsum_strategy(), st.floats(0.05, 5.0))
    def test_matches_central_differences(self, f, x):
        h = 1e-6
        fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
        exact = f.derivative().eval(x)
        assume(abs(fd) > 1e-4)  # stay away from slope roots
        assert abs(exact - fd) / abs(fd) < 1e-6


# -- shift_scale ----------------------------------------------------------


class TestShiftScale:
    def test_identity(self):
        f = canonicalize([(2, 1)])
        assert f.shift_scale(1.0, 0.0).terms() == ((2.0, 1.0),)

    def test_direct_substitution(self):
        f = canonicalize([(2, 1)])
        (rate, coeff), = f.shift_scale(0.5, 1.0).terms()
        assert rate == 1.0
        assert abs(coeff - math.exp(-2.0)) < 1e-16

    def test_survival_rates_scaled(self):
        f = canonicalize([(2, 1), (3, 1), (5, -1)])
        assert f.shift_scale(0.75).rates == (1.5, 2.25, 3.75)

    def test_nonpositive_scale_rejected(self):
        f = canonicalize([(2, 1)])
        with pytest.raises(ValueError):
            f.shift_scale(0.0)
        with pytest.raises(ValueError):
            f.shift_scale(-1.0)
        with pytest.raises(ValueError):
            f.shift_scale(1.0, -0.1)
        with pytest.raises(ValueError):
            f.shift_scale(1.0, math.nan)

    @given(
        expsum_strategy(),
        st.floats(0.1, 4.0),
        st.floats(0.0, 2.0),
        st.floats(0.0, 5.0),
    )
    def test_composition_identity(self, f, a, b, x):
        lhs = f.shift_scale(a, b).eval(x)
        rhs = f.eval(a * x + b)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


# -- sign change bound / asymptotics ---------------------------------------


class TestSignStructure:
    def test_gap_bound_is_two(self):
        assert GAP_AT_UNIT_SCALE.sign_change_bound() == 2

    def test_single_term_has_no_zeros(self):
        assert canonicalize([(2, 1)]).sign_change_bound() == 0

    def test_one_change(self):
        assert canonicalize([(1, 1), (2, -1)]).sign_change_bound() == 1

    def test_tail_sign_positive(self):
        assert GAP_AT_UNIT_SCALE.asymptotic_sign() == 1

    def test_tail_sign_negative(self):
        f = canonicalize([(2.25, -1), (3.5, 1), (3.75, 1), (5, -1)])
        assert f.asymptotic_sign() == -1

    def test_tail_sign_zero_sum(self):
        assert ExpSum((), ()).asymptotic_sign() == 0


# -- count_roots ----------------------------------------------------------


class TestCountRoots:
    def test_single_crossing_at_origin(self):
        f = canonicalize([(1, 1), (2, -1)])
        scan = count_roots(f, -1.0, 1.0)
        assert scan.count == 1
        lo, hi = scan.brackets[0]
        assert lo <= 0.0 <= hi
        assert scan.certified

    def test_nonnegative_gap_has_no_positive_roots(self):
        scan = count_roots(GAP_AT_UNIT_SCALE, 0.0, 60.0)
        assert scan.count == 0
        assert scan.certified  # double root at 0 plus tail parity saturate the bound

    def test_two_roots_match_dense_grid_oracle(self):
        # 1 - 3t + 2t^2 with t = exp(-x) vanishes at t in {1, 1/2}: x in {0, ln 2}.
        f = canonicalize([(1, 1), (2, -3), (3, 2)])
        xs = np.linspace(-5.0, 10.0, 1_000_000)
        signs = np.sign(f.eval_many(xs))
        signs = signs[signs != 0]  # a grid point can land on a root exactly
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        scan = count_roots(f, -5.0, 10.0)
        assert scan.count == flips == 2
        assert any(lo <= 0.0 <= hi for lo, hi in scan.brackets)
        assert any(lo <= math.log(2) <= hi for lo, hi in scan.brackets)

    def test_zero_bound_never_exceeded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = random_expsum(rng)
            scan = count_roots(f, -30.0, 60.0)
            assert scan.count <= f.sign_change_bound()

    def test_rejects_bad_window(self):
        f = canonicalize([(1, 1)])
        with pytest.raises(ValueError):
            count_roots(f, 2.0, 1.0)

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            count_roots(ExpSum((), ()), 0.0, 1.0)


# -- sign_pattern ---------------------------------------------------------


class TestSignPattern:
    def test_nonnegative_gap_is_single_plus(self):
        p = sign_pattern(GAP_AT_UNIT_SCALE)
        assert p.signs() == ("+",)
        assert p.certified and p.complete

    def test_dominated_gap_is_single_minus(self):
        f = canonicalize([(2.25, -1), (3.5, 1), (3.75, 1), (5, -1)])
        p = sign_pattern(f)
        assert p.signs() == ("-",)
        assert p.certified and p.complete

    def test_violating_parameters_show_four_regions(self):
        # Gap of (1.5,3.5) over (2,3) shifted/scaled by the published point.
        surv_x = canonicalize([(2, 1), (3, 1), (5, -1)])
        surv_y = canonicalize([(1.5, 1), (3.5, 1), (5, -1)])
        gap = surv_y - surv_x.shift_scale(0.749, 0.0125)
        p = sign_pattern(gap)
        assert p.signs() == ("+", "-", "+", "-")
        assert p.certified and p.complete
        assert all(abs(r.value) > 1e-18 for r in p.regions)

    def test_zero_sum_has_empty_pattern(self):
        p = sign_pattern(ExpSum((), ()))
        assert p.regions == ()
        assert p.certified and p.complete

    def test_region_witnesses_reproduce(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = random_expsum(rng)
            p = sign_pattern(f)
            for region in p.regions:
                if region.certain:
                    v = f.eval(region.x)
                    assert (v > 0) == (region.sign == "+")

    @given(expsum_strategy())
    def test_alternation_bounded_by_zero_count(self, f):
        p = sign_pattern(f)
        assert len(p.regions) <= f.sign_change_bound() + 1

    @given(expsum_strategy())
    def test_regions_alternate_and_increase(self, f):
        p = sign_pattern(f)
        for r0, r1 in zip(p.regions, p.regions[1:]):
            assert r0.sign != r1.sign
            assert r0.x < r1.x


def test_scan_options_floor_scaling():
    opts = ScanOptions()
    assert opts.scaled_floor(100.0).sign_floor == 100.0 * opts.sign_floor
