"""Exponential-sum algebra, zero bounds, and certified sign analysis."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transform_orders import (
    ExpSum,
    HazardVector,
    ScanOptions,
    canonicalize,
    count_roots,
    sign_pattern,
    sign_patterns,
    survival,
)
from transform_orders.expsum import _BLOCK, scaled_rows

from _samplers import random_expsum

# Gap of the theta=(1.5,3.5) system over the lam=(2,3) system at unit scale;
# the shared rate-5 terms cancel exactly.
GAP_AT_UNIT_SCALE = canonicalize([(1.5, 1), (2, -1), (3, -1), (3.5, 1)])


def assert_rounding_bound_holds(f, xs, evaluated=None):
    """|s - f(x) * exp(-m)| <= err at every x, for (s, m, err) from
    _scaled_many unless given, with the true f(x) of the float64
    coefficients and rates summed at 60 digits."""
    s, m, err = f._scaled_many(xs) if evaluated is None else evaluated
    with mpmath.workdps(60):
        for x, si, mi, ei in zip(xs, s.tolist(), m.tolist(), err.tolist()):
            exact = mpmath.fsum(
                mpmath.mpf(c) * mpmath.exp(-mpmath.mpf(r) * mpmath.mpf(x) - mpmath.mpf(mi))
                for r, c in f.terms()
            )
            assert abs(mpmath.mpf(si) - exact) <= ei, (f, x)


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 10.0), st.booleans(), st.floats(-3.0, 3.0)),
            min_size=2,
            max_size=8,
        ),
        st.lists(st.floats(-60.0, 300.0), min_size=1, max_size=16),
    )
    def test_rounding_bound_holds_against_mpmath(self, raw, xs):
        # Coefficients of both signs with magnitudes in 1e-3..1e3.
        f = canonicalize([(r, (-1.0 if neg else 1.0) * 10.0**e) for r, neg, e in raw])
        assert_rounding_bound_holds(f, xs)

    @pytest.mark.parametrize("base, other, probes", [
        # The classic witness: (1.5,3.5) over (2,3) at the published (a, b).
        ((2, 3), (1.5, 3.5), [(0.749, 0.0125)]),
        # n = 6: 2^6 - 1 terms per survival.
        ((2, 2.2, 2.4, 2.6, 2.8, 3), (1.5, 2, 2.4, 2.6, 3, 3.5), [(0.8, 0.0)]),
        # Four gaps in one scaled_rows call: three of 6 terms, and one of 4
        # (at a = 1, b = 0 the rate-5 terms cancel).
        ((2, 3), (1.5, 3.5), [(0.749, 0.0125), (0.6, 0.0125), (1.0, 0.0), (0.9, 0.0125)]),
    ], ids=["classic-witness", "n6", "classic-batch"])
    def test_rounding_bound_holds_on_gaps(self, base, other, probes):
        gaps = [
            survival(HazardVector(other)) - survival(HazardVector(base)).shift_scale(a, b)
            for a, b in probes
        ]
        xs = np.concatenate(
            [-np.geomspace(1e-6, 60.0, 100), [0.0], np.geomspace(1e-9, 300.0, 300)]
        )
        s, m, err = scaled_rows(gaps, [xs] * len(gaps))
        for k, gap in enumerate(gaps):
            rows = slice(k * xs.size, (k + 1) * xs.size)
            assert_rounding_bound_holds(gap, xs, (s[rows], m[rows], err[rows]))

    def test_large_negative_argument_keeps_sign(self):
        f = canonicalize([(1, 1), (2, -3), (3, 2)])
        # Largest rate has positive coefficient, so f -> +inf as x -> -inf.
        assert f.eval(-500.0) == math.inf


class TestScaledRows:
    """The multi-sum evaluator gives each row exactly what it gives alone."""

    @staticmethod
    def random_sum(rng, n):
        """n terms: distinct rates in (0, 20), coefficients of both signs."""
        rates = np.sort(rng.choice(np.arange(1, 400), n, replace=False) * 0.05)
        coeffs = rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)
        return ExpSum(tuple(rates.tolist()), tuple(coeffs.tolist()))

    @staticmethod
    def assert_rows_exact(fs, xss):
        got = scaled_rows(fs, xss)
        end = 0
        for f, xs in zip(fs, xss):
            rows = slice(end, end + len(xs))
            end += len(xs)
            for batched, alone in zip(got, f._scaled_many(xs)):
                assert batched[rows].tobytes() == np.asarray(alone).tobytes(), f
        assert end == got[0].size

    def test_mixed_batch_matches_rows_alone(self):
        rng = np.random.default_rng(3)
        # Term counts 1..63 (some rows share a count) and the zero sum; up to
        # 40 points of both signs per row, some rows with none, and signed
        # zeros and tiny |x| in the first row.
        fs = [ExpSum((), ())]
        fs += [self.random_sum(rng, n) for n in list(range(1, 64)) + [2, 6, 6, 15, 15, 63]]
        order = rng.permutation(len(fs))
        fs = [fs[k] for k in order]
        xss = [rng.uniform(-20.0, 60.0, int(rng.integers(0, 41))) for _ in fs]
        xss[0] = np.array([0.0, -0.0, -1e-300, 1e-300])
        self.assert_rows_exact(fs, xss)

    def test_batches_split_above_block(self):
        rng = np.random.default_rng(5)
        # 12 rows of 10 terms with 300 points each hold 36_000 (term, point)
        # pairs, so the evaluation runs in blocks; so does one row alone.
        fs = [self.random_sum(rng, 10) for _ in range(12)] + [ExpSum((), ())]
        xss = [rng.uniform(-30.0, 80.0, 300) for _ in fs]
        assert sum(f.n_terms * len(xs) for f, xs in zip(fs, xss)) > 2 * _BLOCK
        self.assert_rows_exact(fs, xss)
        long_row = rng.uniform(-5.0, 50.0, 3 * _BLOCK // fs[0].n_terms)
        self.assert_rows_exact(fs[:1], [long_row])

    def test_one_row_matches_sequential_formula(self):
        # The scalar loop the vectorized form replaced: same term order,
        # exponent, Kahan summation and bound, with np.exp.
        f = canonicalize([(0.5, 2.0), (1.5, -1.0), (4.0, 0.25), (7.5, -3.0)])
        xs = np.array([-3.0, -1e-9, 0.0, 1e-9, 0.3, 2.0, 40.0, 900.0])
        s, m, err = f._scaled_many(xs)
        eps = np.finfo(float).eps
        for i, x in enumerate(xs.tolist()):
            mx = -f.rates[0] * x if x >= 0.0 else -f.rates[-1] * x
            total = comp = bound = abs_sum = 0.0
            for r, c in f.terms():
                e = -r * x
                term = c * float(np.exp(e - mx))
                bound += (2.0 * (abs(e) + abs(mx)) + 4.0) * abs(term) * eps
                abs_sum += abs(term)
                y = term - comp
                tot = total + y
                comp = (tot - total) - y
                total = tot
            assert (s[i], m[i], err[i]) == (total, mx, bound + 2.0 * eps * abs_sum)


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


@st.composite
def gap_sums(draw):
    """Gaps of random n = 2..4 systems at a in [0.1, 3], b in [0, 1]."""
    n = draw(st.integers(2, 4))
    rates = st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n).map(tuple)
    lam, theta = HazardVector(draw(rates)), HazardVector(draw(rates))
    a, b = draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 1.0))
    return survival(theta) - survival(lam).shift_scale(a, b)


def assert_same_pattern(p, q):
    assert p.regions == q.regions
    assert np.array_equal(p.transitions, q.transitions, equal_nan=True)
    assert (p.certified, p.complete) == (q.certified, q.complete)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            gap_sums(),
            expsum_strategy(max_terms=1),
            st.just(ExpSum((), ())),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_sign_patterns_match_one_at_a_time(fs):
    batch = sign_patterns(fs)
    assert len(batch) == len(fs)
    for f, p in zip(fs, batch):
        assert_same_pattern(p, sign_pattern(f))


def test_scan_options_floor_scaling():
    opts = ScanOptions()
    assert opts.scaled_floor(100.0).sign_floor == 100.0 * opts.sign_floor
