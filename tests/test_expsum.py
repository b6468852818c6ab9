"""Exponential-sum algebra, zero bounds, and certified sign analysis."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from transform_orders import expsum
from transform_orders.expsum import _BLOCK, possible_signs, scaled_rows

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

    @staticmethod
    def counted_blocks(monkeypatch):
        """A one-element list that counts the _scaled_block calls from now on."""
        calls = [0]
        block = expsum._scaled_block

        def wrapper(*args):
            calls[0] += 1
            return block(*args)
        monkeypatch.setattr(expsum, "_scaled_block", wrapper)
        return calls

    def test_strip_row_mix_is_one_block_pass(self, monkeypatch):
        # sign_map's rows have 5 and 6 terms; all rows share one padded
        # layout, so a batch within _BLOCK is one pass whatever its counts.
        rng = np.random.default_rng(11)
        fs = [self.random_sum(rng, 5 + k % 2) for k in range(16)]
        calls = self.counted_blocks(monkeypatch)
        scaled_rows(fs, [rng.uniform(0.0, 20.0, 4) for _ in fs])
        assert calls[0] == 1

    def test_mixed_batch_passes_fewer_than_term_counts(self, monkeypatch):
        # The batch of test_mixed_batch_matches_rows_alone: term counts 0..63.
        rng = np.random.default_rng(3)
        fs = [ExpSum((), ())]
        fs += [self.random_sum(rng, n) for n in list(range(1, 64)) + [2, 6, 6, 15, 15, 63]]
        order = rng.permutation(len(fs))
        fs = [fs[k] for k in order]
        xss = [rng.uniform(-20.0, 60.0, int(rng.integers(0, 41))) for _ in fs]
        calls = self.counted_blocks(monkeypatch)
        scaled_rows(fs, xss)
        # One pass per _BLOCK // 63 points, fewer than one per term count.
        points = sum(len(xs) for xs in xss)
        counts = {f.n_terms for f, xs in zip(fs, xss) if len(xs) and not f.is_zero}
        assert calls[0] == -(-points // (_BLOCK // 63)) < len(counts)


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


def recorded_pattern(f):
    """sign_pattern(f) and every point it evaluated, sorted by x, as
    (x, sign, logmag) arrays with the certainty rule restated: a sign
    only where |f| clears both the rounding bound and the sign floor."""
    evaluate, seen = expsum.scaled_rows, []

    def recording(fs, xss):
        s, m, err = evaluate(fs, xss)
        seen.append((np.concatenate(xss, dtype=float), s, m, err))
        return s, m, err

    with mock.patch.object(expsum, "scaled_rows", recording):
        p = sign_pattern(f)
    x, s, m, err = (np.concatenate(col) for col in zip(*seen))
    order = np.argsort(x, kind="stable")
    x, s, m, err = x[order], s[order], m[order], err[order]
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(s)) + m
    certain = (np.abs(s) > err) & (logmag > math.log(ScanOptions().sign_floor))
    return p, x, np.where(certain, np.sign(s), 0), logmag


def assert_witnesses_are_first_maxima(f):
    """Each witnessed region's x is the first-by-x largest |f| among the
    certain points of its sign between its neighbouring transitions."""
    p, x, sign, logmag = recorded_pattern(f)
    bounds = [0.0, *p.transitions, math.inf]
    for k, region in enumerate(p.regions):
        if not region.certain:
            continue
        mine = (sign == (1 if region.sign == "+" else -1))
        mine &= (bounds[k] <= x) & (x <= bounds[k + 1])
        candidates = np.flatnonzero(mine)
        assert region.x == x[candidates[np.argmax(logmag[candidates])]], (f, k)


@pytest.mark.parametrize("lam, theta, a, b, signs", [
    ((2, 3), (1.5, 3.5), 0.749, 0.0125, ("+", "-", "+", "-")),
    # The "-" region's largest certain |f| is a flip-bisection point.
    ((2.296431200415683, 3.3794176154013753), (2.291154516410702, 2.5378911743064947),
     0.890189887167487, 0.8644769313151992, ("+", "-")),
], ids=["classic-witness", "bisection-witness"])
def test_witness_rule_on_fixed_gaps(lam, theta, a, b, signs):
    gap = survival(HazardVector(theta)) - survival(HazardVector(lam)).shift_scale(a, b)
    p = sign_pattern(gap)
    assert p.signs() == signs and p.certified
    assert_witnesses_are_first_maxima(gap)


@settings(max_examples=40, deadline=None)
@given(gap_sums())
def test_witness_rule_on_certified_gaps(f):
    assume(not f.is_zero and sign_pattern(f).certified)
    assert_witnesses_are_first_maxima(f)


# -- dip passes -------------------------------------------------------------

CLASSIC_WITNESS_GAP = (
    survival(HazardVector((1.5, 3.5))) - survival(HazardVector((2, 3))).shift_scale(0.749, 0.0125)
)
# Linspace-rate n = 6 systems at a = 0.5: 63-term survivals.
N6_GAP = survival(HazardVector(tuple(np.linspace(1.5, 3.5, 6)))) - survival(
    HazardVector(tuple(np.linspace(2.0, 3.0, 6)))
).shift_scale(0.5)
# Two near-degenerate gaps from narrow-strip convex scans (bench
# majorized-n2, seed 4): the smallest rate's coefficient, 3e-9 to 4e-9,
# leaves the "+" tail uncertain, and the "+" at 0+ is cancellation noise.
NEAR_DEGENERATE_GAPS = [
    ExpSum(
        (0.777560926086392, 0.778035886370497, 1.555596812456889, 1.7590074489300815,
         2.536568375016474),
        (4.318594259977715e-09, -0.9999999956787679, 0.9999999913601736, 1.0, -1.0),
    ),
    ExpSum(
        (2.752562017424994, 2.775233275528073, 3.0819756435019263, 5.527795292953067,
         5.83453766092692),
        (3.0011426677134523e-09, -0.9999999969741387, 1.0, 0.9999999939729959, -1.0),
    ),
]


def split_every_uncertain_end(pts):
    """The reference split rule: every interval at an |f| valley or with an
    uncertain end, the end bands included."""
    logs, inner = pts.logmag, pts.logmag[1:-1]
    split = (pts.sign[:-1] == 0) | (pts.sign[1:] == 0)
    split[1:] |= (inner < logs[:-2]) & (inner <= logs[2:])
    split[:-1] |= (inner <= logs[:-2]) & (inner < logs[2:])
    return split


def reference_pattern(f):
    with mock.patch.object(expsum, "_dip_split", split_every_uncertain_end):
        return sign_pattern(f)


@pytest.mark.parametrize("signs, want", [
    # Bands of two uncertain ends before the first and after the last
    # certain point stay whole; one uncertain end, or a gap between
    # certain points, is still split.
    ([0, 0, 0, 1, 0, 0, -1, 0, 0], [0, 0, 1, 1, 1, 1, 1, 0]),
    ([1, 0, 0, 1], [1, 1, 1]),
    ([1, -1, 1], [0, 0]),
    # With no certain point there is no band.
    ([0, 0, 0], [1, 1]),
], ids=["bands", "inner-gap", "all-certain", "none-certain"])
def test_dip_split_leaves_end_bands_whole(signs, want):
    n = len(signs)
    flat = np.zeros(n)  # equal |f| everywhere: no valley
    pts = expsum._Pts(np.arange(1.0, n + 1), flat, flat, flat, np.array(signs, dtype=np.int8))
    assert expsum._dip_split(pts).tolist() == [bool(w) for w in want]


@pytest.mark.parametrize("f, budget", [
    (CLASSIC_WITNESS_GAP, 400),  # 722 points when the end bands are split
    (N6_GAP, 300),  # 1,469 points when the end bands are split
], ids=["classic-witness", "n6-linspace"])
def test_sign_pattern_point_budget(f, budget):
    _, x, _, _ = recorded_pattern(f)
    assert x.size <= budget


@pytest.mark.parametrize("f", [CLASSIC_WITNESS_GAP, N6_GAP], ids=["classic-witness", "n6-linspace"])
def test_end_bands_keep_fixed_patterns(f):
    assert_same_pattern(sign_pattern(f), reference_pattern(f))


@settings(max_examples=60, deadline=None)
@given(gap_sums())
def test_end_bands_keep_certified_patterns(f):
    ref = reference_pattern(f)
    assume(ref.certified)
    assert_same_pattern(sign_pattern(f), ref)


@pytest.mark.parametrize("f", NEAR_DEGENERATE_GAPS, ids=["rates-0.78-2.54", "rates-2.75-5.83"])
def test_end_bands_move_only_uncertified_patterns(f):
    # The reference places the uncertain 0+ region at another x; the signs
    # and every certain region agree, and neither pattern is certified.
    ref, got = reference_pattern(f), sign_pattern(f)
    assert not ref.certified and not got.certified
    assert got.signs() == ref.signs()
    assert [r for r in got.regions if r.certain] == [r for r in ref.regions if r.certain]


# -- two-phase scans ----------------------------------------------------------


def decision(p):
    return p.signs(), p.certified, p.complete


@settings(max_examples=30, deadline=None)
@given(st.lists(gap_sums(), min_size=1, max_size=16))
def test_unrefined_scans_keep_decisions(fs):
    # Flip bisection only places transitions and may move witnesses.
    assert [decision(p) for p in sign_patterns(fs, refine=False)] == [
        decision(p) for p in sign_patterns(fs)
    ]


# f(0) = -1e-12 is below ZERO_TOL, so sign_at_zero reads "+" from f'(0) and
# puts a "+" region in front of the certain "-" and "+" runs: three regions
# against a zero bound of 1, so the weakest is dropped and certified cleared.
DROPPED_REGION_GAP = ExpSum((1.0, 1.0 + 1e-10), (1.0, -(1.0 + 1e-12)))


def test_unrefined_scan_keeps_decision_after_a_dropped_region():
    f = DROPPED_REGION_GAP
    assert f.sign_at_zero() == (1, 1) and f.sign_change_bound() == 1
    p = sign_pattern(f)
    # Every region is witnessed, so only the drop can have cleared certified.
    assert p.signs() == ("-", "+") and all(r.certain for r in p.regions)
    assert not p.certified and not p.complete
    (q,) = sign_patterns([f], refine=False)
    assert decision(q) == decision(p)


def test_transition_after_a_dropped_region_lies_between_its_regions():
    # The dropped "+" at 0+ took the first transition with it: the one left
    # is the sign change between the certain "-" and "+" runs.
    f = DROPPED_REGION_GAP
    p = sign_pattern(f)
    minus, plus = p.regions
    (t,) = p.transitions
    assert minus.x < t < plus.x
    (signs,) = expsum.certain_signs([f], [[t / 1.5, 1.5 * t]], ScanOptions())
    assert signs.tolist() == [-1, 1]


# t(t - 0.5)(t - 0.49)(t - 0.1) with t = exp(-x): "+,-,+,-" with the narrow
# "-" on (ln 2, ln(1/0.49)) the weakest region, and three sign changes.
NARROW_SECOND_REGION_SUM = ExpSum((1.0, 2.0, 3.0, 4.0), (-0.0245, 0.344, -1.09, 1.0))


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
def test_interior_drop_merges_its_neighbours(refine):
    # No sum found so far has an interior region dropped, so the repair is
    # forced here by lowering the zero bound to 2: the weakest "-" goes,
    # and its neighbours merge into one "+" that spans both.
    f = NARROW_SECOND_REGION_SUM
    (full,) = sign_patterns([f], refine=refine)
    assert full.signs() == ("+", "-", "+", "-") and full.certified
    with mock.patch.object(ExpSum, "sign_change_bound", lambda self: 2):
        (p,) = sign_patterns([f], refine=refine)
    assert p.regions == (full.regions[0], full.regions[3])
    assert p.transitions == full.transitions[2:]
    assert not p.certified and not p.complete


def assert_transitions_between_certain_witnesses(p):
    for left, right, t in zip(p.regions, p.regions[1:], p.transitions):
        if left.certain and right.certain:
            assert left.x < t < right.x, p


@settings(max_examples=60, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
@example(DROPPED_REGION_GAP)
def test_transitions_lie_between_certain_witnesses(f):
    assert_transitions_between_certain_witnesses(sign_pattern(f))
    (q,) = sign_patterns([f], refine=False)
    assert_transitions_between_certain_witnesses(q)


# -- possible_signs ---------------------------------------------------------


def assert_certified_signs_possible(f):
    p = sign_pattern(f)
    if p.certified:
        assert p.signs() in possible_signs(f), (f, p.signs())


@pytest.mark.parametrize("f, want", [
    (ExpSum((), ()), [()]),
    (canonicalize([(2.0, -3.0)]), [("-",)]),
    # Rates 1.498 (-), 1.5 (+), 2.247 (-), 3.5 (+), 3.745 (+), 5 (-): four
    # coefficient sign changes, "+" at 0 and "-" at infinity, so 1 or 3.
    (survival(HazardVector((1.5, 3.5))) - survival(HazardVector((2, 3))).shift_scale(0.749, 0.0125),
     [("+", "-"), ("+", "-", "+", "-")]),
    # Every derivative sum at 0 is below the ZERO_TOL threshold: both starts.
    (ExpSum((1.0, 1.0 + 1e-13), (1.0, -1.0)), [("+",), ("-", "+")]),
], ids=["zero-sum", "one-term", "classic-witness-gap", "zero-at-origin"])
def test_possible_signs_on_fixed_sums(f, want):
    assert possible_signs(f) == want
    assert_certified_signs_possible(f)


@settings(max_examples=60, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
def test_certified_signs_are_possible(f):
    assert_certified_signs_possible(f)


def test_certified_signs_of_random_sums_are_possible():
    rng = np.random.default_rng(23)
    for _ in range(150):
        assert_certified_signs_possible(random_expsum(rng))


def test_scan_options_floor_scaling():
    opts = ScanOptions()
    assert opts.scaled_floor(100.0).sign_floor == 100.0 * opts.sign_floor
