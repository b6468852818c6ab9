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
from transform_orders import expsum, systems
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

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, r):
        # inf - 1 <= tol * max(1, inf) holds, so an infinite rate would be
        # merged into the term before it.
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {r}"):
            canonicalize([(1.0, 1.0), (r, 2.0)])

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

    @staticmethod
    def kahan_loop(f, xs):
        """The plain compensated loop over the terms: the reference that
        eval_many reproduces bit for bit without its dead passes."""
        xs = np.asarray(xs, dtype=float)
        s = np.zeros_like(xs)
        comp = np.zeros_like(xs)
        for r, c in zip(f.rates, f.coeffs):
            y = c * np.exp(-r * xs) - comp
            tot = s + y
            comp = (tot - s) - y
            s = tot
        return s

    @pytest.mark.parametrize("n", [0, 1, 3, 41])
    def test_eval_many_is_the_kahan_loop_bit_for_bit(self, n):
        # Signed zeros, subnormals, overflow at x < 0 (inf - inf gives
        # nan), nan and +-inf: every bit, the sign bit of zeros and nans
        # included.  With every coefficient negative, each term that
        # underflows is -0, and the sum that starts at +0 must stay +0.
        rng = np.random.default_rng(n)
        f = TestScaledRows.random_sum(rng, n)
        negative = ExpSum(f.rates, tuple(-abs(c) for c in f.coeffs))
        special = [0.0, -0.0, 5e-324, 1e-300, 1e300, -50.0, -800.0, math.nan, math.inf, -math.inf]
        xs = np.concatenate([special, rng.uniform(0.0, 30.0, 200), rng.uniform(-60.0, 0.0, 20)])
        for g in (f, negative):
            with np.errstate(all="ignore"):
                got, want = g.eval_many(xs), self.kahan_loop(g, xs)
            assert got.tobytes() == want.tobytes()

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


def cumsum_scaled_block(exps, coeffs, xs):
    """expsum._scaled_block with both in-order sums taken as the last row of
    a cumsum over the terms: the reference for its reductions."""
    m = np.where(xs >= 0.0, exps[0], exps[-1])
    bounds = (2.0 * (np.abs(exps) + np.abs(m)) + 4.0)
    terms = np.exp(exps - m) * coeffs
    mags = np.abs(terms)
    bounds *= mags
    bounds *= expsum._EPS
    abs_sum = np.cumsum(mags, axis=0)[-1]
    err = np.cumsum(bounds, axis=0)[-1] + 2.0 * expsum._EPS * abs_sum
    s, comp = np.zeros(xs.shape), np.zeros(xs.shape)
    for t in terms:
        y = t - comp
        tot = s + y
        comp = (tot - s) - y
        s = tot
    return s, m, err


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
    def block_of_one_sum(f, xs):
        """_scaled_block at xs on the layout of f alone, and the reference."""
        sums = expsum._PaddedSums([f])
        owner = np.zeros(xs.size, dtype=np.intp)
        got = expsum._scaled_block(sums.neg_rates, sums.coeffs, owner, xs)
        exps = -np.outer(f.rates, xs)
        coeffs = np.repeat(np.array(f.coeffs)[:, None], xs.size, axis=1)
        return got, cumsum_scaled_block(exps, coeffs, xs)

    @pytest.mark.parametrize("points", [1, 2, 3, 300, 2000])
    @pytest.mark.parametrize("n", [1, 6, 63])
    def test_in_order_sums_match_cumsum(self, n, points):
        # _scaled_block reduces over the terms for two or more points; the
        # reference takes the last row of a cumsum, which adds in term order
        # for any number of points.  Near x = 0 every term counts, so a sum
        # in another order (pairwise, for 63 terms at one point) differs.
        rng = np.random.default_rng(n * 1000 + points)
        f = self.random_sum(rng, n)
        got, want = self.block_of_one_sum(f, rng.uniform(-0.05, 0.05, points))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("points", [1, 2, 3, 300])
    def test_row_wider_than_block_goes_one_point_a_block(self, monkeypatch, points):
        # With a 16-entry block and a 16-entry budget for wide rows, a
        # 63-term row goes one point to a block, each summed over all of
        # its terms: the bytes of one pass over all, the one-point cumsum
        # included.
        monkeypatch.setattr(expsum, "_BLOCK", 16)
        monkeypatch.setattr(expsum, "_WIDE_BLOCK", 16)
        rng = np.random.default_rng(points)
        f = self.random_sum(rng, 63)
        xs = rng.uniform(-0.05, 0.05, points)
        calls = self.counted_blocks(monkeypatch)
        got = scaled_rows([f], [xs])
        assert calls[0] == points
        want = cumsum_scaled_block(-np.outer(f.rates, xs), np.array(f.coeffs)[:, None], xs)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_rates", [11, 12])
    def test_row_wider_than_block_shares_blocks_of_16_points(self, monkeypatch, n_rates):
        # Survivals of 2,047 and 4,095 terms, for which _BLOCK // terms is
        # 8 and 4: blocks of 16 points, with the bytes of one point a block.
        rng = np.random.default_rng(n_rates)
        f = survival(HazardVector(tuple(rng.uniform(1.0, 3.0, n_rates).tolist())))
        assert f.n_terms == 2**n_rates - 1
        xs = rng.uniform(0.0, 5.0, 50)
        calls = self.counted_blocks(monkeypatch)
        got = scaled_rows([f], [xs])
        assert calls[0] == 4  # 16 + 16 + 16 + 2 points
        one_point = [scaled_rows([f], [xs[i : i + 1]]) for i in range(xs.size)]
        assert calls[0] == 4 + xs.size
        for a, b in zip(got, zip(*one_point)):
            assert a.tobytes() == np.concatenate(b).tobytes()

    def test_long_row_in_point_blocks_matches_cumsum(self, monkeypatch):
        # One 63-term row on more than _BLOCK points: blocks of _BLOCK // 63
        # points give the bytes of one pass over all.
        rng = np.random.default_rng(17)
        f = self.random_sum(rng, 63)
        xs = rng.uniform(-0.05, 0.05, _BLOCK + 500)
        calls = self.counted_blocks(monkeypatch)
        got = scaled_rows([f], [xs])
        assert calls[0] == -(-xs.size // (_BLOCK // 63))
        want = cumsum_scaled_block(-np.outer(f.rates, xs), np.array(f.coeffs)[:, None], xs)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

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

    @staticmethod
    def mixed_batch():
        """The batch of test_mixed_batch_matches_rows_alone: term counts 0..63."""
        rng = np.random.default_rng(3)
        fs = [ExpSum((), ())]
        fs += [TestScaledRows.random_sum(rng, n) for n in list(range(1, 64)) + [2, 6, 6, 15, 15, 63]]
        order = rng.permutation(len(fs))
        fs = [fs[k] for k in order]
        xss = [rng.uniform(-20.0, 60.0, int(rng.integers(0, 41))) for _ in fs]
        return fs, xss

    def test_mixed_batch_passes_fewer_than_term_counts(self, monkeypatch):
        fs, xss = self.mixed_batch()
        calls = self.counted_blocks(monkeypatch)
        scaled_rows(fs, xss)
        # One pass per block of _BLOCK // 63 points, fewer than one per
        # term count.
        points = sum(len(xs) for xs in xss)
        counts = {f.n_terms for f, xs in zip(fs, xss) if len(xs) and not f.is_zero}
        assert calls[0] == -(-points // (_BLOCK // 63)) < len(counts)

    def test_cached_layout_and_its_columns_match_a_fresh_list(self):
        # A scan block lays its sums out once and hands column takes of that
        # layout to its later rounds; the 63-term sums pad every other row.
        fs, xss = self.mixed_batch()
        sums = expsum._PaddedSums(fs)
        for got, want in zip(scaled_rows(sums, xss), scaled_rows(list(fs), xss)):
            assert got.tobytes() == want.tobytes()
        rng = np.random.default_rng(23)
        for size in (1, 5, 40):
            ks = np.sort(rng.choice(len(fs), size, replace=False)).tolist()
            sub = sums.take(ks)
            assert list(sub) == [fs[k] for k in ks]
            got = scaled_rows(sub, [xss[k] for k in ks])
            want = scaled_rows([fs[k] for k in ks], [xss[k] for k in ks])
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.2, 5.0), min_size=2, max_size=4),
    st.lists(st.floats(0.2, 5.0), min_size=2, max_size=4),
    st.floats(1e-3, 3.0),
    st.floats(0.0, 40.0),
)
# Rates 0.2 and 0.2 + 2e-11 are kept apart, but at a = 0.01 they merge.
@example([0.2, 0.2 + 2e-11], [1.5, 3.5], 0.01, 0.0)
@example([2.0, 3.0], [1.5, 3.5], 1.0, 6.0)  # every shifted term with e^-30 or less
def test_gap_from_one_canonicalize_is_bit_identical(lam, theta, a, b):
    # One canonicalization of Y's terms and X's negated, shifted terms: no
    # shifted term is merged or dropped before it meets Y's terms.
    surv_x, surv_y = survival(HazardVector(tuple(lam))), survival(HazardVector(tuple(theta)))
    raw = [*surv_y.terms(), *((r * a, -(c * math.exp(-r * b))) for r, c in surv_x.terms())]
    assert surv_y.minus_shift_scale(surv_x, a, b) == canonicalize(raw)


def test_gap_keeps_a_shifted_term_below_the_merge_tolerance():
    # X's term at rate 5 is shifted to e^-30, below the merge tolerance, but
    # it meets Y's -1 at the same rate, so the true gap has -1 + e^-30 there.
    surv_x, surv_y = survival(HazardVector((2, 3))), survival(HazardVector((1.5, 3.5)))
    gap = surv_y.minus_shift_scale(surv_x, 1.0, 6.0)
    assert gap.rates[-1] == 5.0
    assert gap.coeffs[-1] == -1.0 + math.exp(-30.0) == -0.9999999999999064


def test_gap_from_one_canonicalize_when_shifted_terms_merge():
    # At a = 0.05 the two terms of x and y's term share one rate, so their
    # sum keeps x's 1e-13, which x.shift_scale(0.05) alone would drop.
    x = ExpSum((1.0, 1.0 + 1e-11), (1.0, -1.0 + 1e-13))
    y = ExpSum((0.05,), (0.5,))
    gap = y.minus_shift_scale(x, 0.05)
    assert gap == ExpSum((0.05,), (math.fsum([0.5, -1.0, 1.0 - 1e-13]),))
    assert gap.coeffs[0] != 0.5 and y - x.shift_scale(0.05) == y


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (1.0, -0.1),
                                  (1.0, math.inf), (1.0, math.nan)])
def test_gap_from_one_canonicalize_keeps_shift_scale_errors(a, b):
    f = canonicalize([(2, 1), (3, 1), (5, -1)])
    with pytest.raises(ValueError) as want:
        f - f.shift_scale(a, b)
    with pytest.raises(ValueError) as got:
        f.minus_shift_scale(f, a, b)
    assert str(got.value) == str(want.value)


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

    def test_guessed_region_at_infinity_lies_past_the_last_run(self):
        # The narrow pair's gap at its first b-halving shift: the '-' run's
        # largest |f| is near x = 1.46 but the run reaches x = 66, so a
        # guessed '+' at twice the peak would sit inside the '-' run.
        surv_x = survival(HazardVector((1.6702, 1.6707)))
        surv_y = survival(HazardVector((0.6158, 2.7251)))
        p = sign_pattern(surv_y - surv_x.shift_scale(0.36869835947790686, 0.05432356369406743))
        assert p.signs() == ("+", "-", "+") and not p.regions[-1].certain
        assert p.regions[-1].x > p.transitions[-1] > 10.0 * p.regions[1].x


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


# -- fixed sums -------------------------------------------------------------

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
# f(0) = -1e-12 is below ZERO_TOL, so sign_at_zero reads "+" from f'(0) and
# puts a "+" region in front of the certain "-" and "+" runs: three regions
# against a zero bound of 1, so the weakest is dropped and certified cleared.
DROPPED_REGION_GAP = ExpSum((1.0, 1.0 + 1e-10), (1.0, -(1.0 + 1e-12)))


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
@example([
    CLASSIC_WITNESS_GAP, N6_GAP, DROPPED_REGION_GAP, *NEAR_DEGENERATE_GAPS,
    canonicalize([(2.0, -3.0)]), ExpSum((), ()),
])
def test_sign_patterns_match_one_at_a_time(fs):
    batch = sign_patterns(fs)
    assert len(batch) == len(fs)
    for f, p in zip(fs, batch):
        assert_same_pattern(p, sign_pattern(f))


def recording_evaluator(seen):
    """scaled_rows, appending (x, s, m, err) of each call to seen."""
    evaluate = expsum.scaled_rows

    def recording(fs, xss):
        s, m, err = evaluate(fs, xss)
        seen.append((np.concatenate(xss, dtype=float), s, m, err))
        return s, m, err

    return recording


def recorded_pattern(f):
    """sign_pattern(f) and every point it evaluated, sorted by x, as
    (x, sign, logmag) arrays with the certainty rule restated: a sign
    only where |f| clears both the rounding bound and the sign floor.

    The scan is recorded with one bisection level per round, where every
    bisection point it evaluates is on a flip's path; the default levels
    also evaluate off-path points, which never enter the pattern, so the
    pattern must be the same."""
    seen = []
    with mock.patch.object(expsum, "scaled_rows", recording_evaluator(seen)):
        with mock.patch.object(expsum, "BISECT_LEVELS", 1):
            p = sign_pattern(f)
    assert_same_pattern(sign_pattern(f), p)
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


def split_every_uncertain_end(pts, owner=None):
    """The reference split rule for one sum (owner is ignored): every
    interval at an |f| valley or with an uncertain end, the end bands
    included."""
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


def test_dip_split_of_a_block_splits_each_sum_alone():
    # Valleys and end bands never reach across two sums, and the interval
    # between the last point of one sum and the first of the next is kept.
    rng = np.random.default_rng(5)
    for _ in range(200):
        sums = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 9))
            logmag = rng.choice([-3.0, -1.0, 0.0, 2.0], n)
            sign = rng.choice(np.array([-1, 0, 0, 1], dtype=np.int8), n)
            sums.append(expsum._Pts(np.arange(1.0, n + 1), logmag, logmag, logmag, sign))
        block = expsum._Pts(*(np.concatenate(col) for col in zip(*sums)))
        owner = np.repeat(np.arange(len(sums)), [len(p.x) for p in sums])
        alone = [np.append(expsum._dip_split(p), False) for p in sums]
        assert expsum._dip_split(block, owner).tolist() == np.concatenate(alone)[:-1].tolist()


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


@pytest.mark.parametrize("f, points, reference_points", [
    (CLASSIC_WITNESS_GAP, 351, 722),
    (N6_GAP, 262, 1469),
], ids=["classic-witness", "n6-linspace"])
def test_reference_rule_reaches_the_scan(f, points, reference_points):
    # The reference_pattern tests compare the scan with the reference rule
    # only if patching _dip_split changes the points the scan evaluates.
    assert recorded_pattern(f)[1].size == points
    with mock.patch.object(expsum, "_dip_split", split_every_uncertain_end):
        assert recorded_pattern(f)[1].size == reference_points


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
def test_block_takes_one_split_per_dip_pass(refine):
    # The grid phase splits the points of the whole block at once.
    lam, theta = HazardVector((2, 3)), HazardVector((1.5, 3.5))
    fs = [
        survival(theta) - survival(lam).shift_scale(a, b)
        for a in np.geomspace(0.3, 3.0, 8).tolist()
        for b in (0.0, 0.05)
    ]
    calls, split = [0], expsum._dip_split

    def counted(pts, owner=None):
        calls[0] += 1
        return split(pts, owner)

    with mock.patch.object(expsum, "_dip_split", counted):
        got = sign_patterns(fs, refine=refine)
    assert 0 < calls[0] <= expsum.DIP_PASSES
    for f, p in zip(fs, got):
        (q,) = sign_patterns([f], refine=refine)
        assert_same_pattern(p, q)


# -- speculative bisection ----------------------------------------------------


def test_default_levels_cut_the_rounds_of_the_classic_scan():
    # 32 evaluator calls of 351 points at one level per round, 11 of 571
    # with the trees alone; the default levels also evaluate the off-path
    # points of each round's trees and the chains past the predicted roots.
    seen = []
    with mock.patch.object(expsum, "scaled_rows", recording_evaluator(seen)):
        sign_pattern(CLASSIC_WITNESS_GAP)
    assert len(seen) <= 8
    assert sum(x.size for x, *_ in seen) <= 500


def scan_results(f):
    try:
        roots = count_roots(f, -5.0, 10.0)
    except expsum.RootScanInconclusive as exc:
        roots = (str(exc), exc.brackets)
    return sign_pattern(f), sign_patterns([f], refine=False)[0], roots


@settings(max_examples=40, deadline=None)
@given(gap_sums())
@example(CLASSIC_WITNESS_GAP)
def test_bisection_levels_keep_every_result(f):
    got = scan_results(f)
    with mock.patch.object(expsum, "BISECT_LEVELS", 1):
        want = scan_results(f)
    for p, q in zip(got[:2], want[:2]):
        assert_same_pattern(p, q)
    assert got[2] == want[2]


def drive_refine_flips(steps, answer):
    """Run the _refine_flips step generator steps, sending answer(xs) back
    for each requested x-array.  Returns lo, hi, the kept points and the
    evaluator calls."""
    calls, xs = 0, next(steps)
    try:
        while True:
            calls += 1
            xs = steps.send(answer(xs))
    except StopIteration as done:
        lo, hi, kept = done.value
    return lo, hi, kept, calls


def run_refine_flips(brackets, left_sign, sign_at):
    """_refine_flips driven by hand: each requested x gets sign_at(x) and
    mantissa x.  Returns lo, hi, the kept points and the evaluator calls."""
    def answer(xs):
        sign = np.array([sign_at(x) for x in xs.tolist()], dtype=np.int8)
        return expsum._Pts(xs, xs.copy(), np.zeros_like(xs), np.zeros_like(xs), sign)

    steps = expsum._refine_flips([a for a, _ in brackets], [b for _, b in brackets], left_sign)
    return drive_refine_flips(steps, answer)


def run_refine_flips_on_roots(brackets, left_sign, root):
    """_refine_flips driven by hand on a function with one root root[k] in
    bracket k, linear in what its midpoints bisect: log(x / root[k]) for
    a bracket of positive x (geometric midpoints), x - root[k] for one of
    negative x, times -left_sign[k].  Each requested x gets its sign and
    log|f|, and the ends' log|f| are passed in.  Returns lo, hi, the kept
    points and the evaluator calls."""
    def gap(x, k):
        return -left_sign[k] * (math.log(x / root[k]) if x > 0 else x - root[k])

    def owner(x):
        return next(k for k, (a, b) in enumerate(brackets) if a < x < b)

    def answer(xs):
        values = np.array([gap(x, owner(x)) for x in xs.tolist()])
        return expsum._Pts(
            xs, values, np.zeros_like(xs), np.log(np.abs(values)), np.sign(values).astype(np.int8)
        )

    lo, hi = [a for a, _ in brackets], [b for _, b in brackets]
    steps = expsum._refine_flips(
        list(lo), list(hi), left_sign,
        [math.log(abs(gap(a, k))) for k, a in enumerate(lo)],
        [math.log(abs(gap(b, k))) for k, b in enumerate(hi)],
    )
    return drive_refine_flips(steps, answer)


def test_refine_flips_chains_toward_predicted_roots():
    # With magnitudes that the secant through the ends predicts well, the
    # chains below the trees walk most of the way to X_RTOL: at most 3
    # rounds, with the same brackets and paths as one level a round.
    rng = np.random.default_rng(27)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        side = rng.choice([-1.0, 1.0])
        ends = np.sort(side * rng.uniform(0.1, 10.0, 2 * n)).reshape(n, 2)
        brackets = [tuple(e) for e in ends.tolist()]
        root = [a + rng.uniform(0.1, 0.9) * (b - a) for a, b in brackets]
        left = rng.choice([-1, 1], n).tolist()
        got = run_refine_flips_on_roots(brackets, left, root)
        with mock.patch.object(expsum, "BISECT_LEVELS", 1):
            want = run_refine_flips_on_roots(brackets, left, root)
        assert got[:2] == want[:2]
        for col_got, col_want in zip(got[2], want[2]):
            assert np.array_equal(col_got, col_want)
        assert got[3] <= 3 < want[3]


@pytest.mark.parametrize("budget", [80, 10], ids=["full-budget", "truncated-budget"])
def test_refine_flips_levels_keep_brackets_and_path(budget):
    # Disjoint brackets, some across 0 (the arithmetic rule), each with one
    # sign change at root[k] and a band of sign 0 around it; a budget not
    # divisible by BISECT_LEVELS truncates the last round's trees.
    rng = np.random.default_rng(15)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        ends = np.sort(rng.uniform(-2.0, 10.0, 2 * n)).reshape(n, 2)
        brackets = [tuple(e) for e in ends.tolist()]
        root = [a + rng.uniform(0.1, 0.9) * (b - a) for a, b in brackets]
        band = [w * (b - a) for w, (a, b) in zip(rng.choice([0.0, 1e-6, 0.05], n), brackets)]
        left = rng.choice([-1, 1], n).tolist()

        def sign_at(x):
            k = next(k for k, (a, b) in enumerate(brackets) if a < x < b)
            if abs(x - root[k]) < band[k]:
                return 0
            return left[k] if x < root[k] else -left[k]

        with mock.patch.object(expsum, "MAX_REFINEMENTS", budget):
            got = run_refine_flips(brackets, left, sign_at)
            with mock.patch.object(expsum, "BISECT_LEVELS", 1):
                want = run_refine_flips(brackets, left, sign_at)
        assert got[:2] == want[:2]
        for col_got, col_want in zip(got[2], want[2]):
            assert np.array_equal(col_got, col_want)
        assert got[3] <= -(-want[3] // expsum.BISECT_LEVELS)
        assert want[2].x.size <= n * budget


def test_refine_flips_stops_a_bracket_on_a_sign_of_zero():
    # On [1, 2] the path is sqrt(2) (sign +), sqrt(2 sqrt 2) (sign -), then
    # a point within 0.05 of the root 1.5: sign 0 ends the bracket there.
    def sign_at(x):
        return 0 if abs(x - 1.5) < 0.05 else (1 if x < 1.5 else -1)

    (lo,), (hi,), kept, calls = run_refine_flips([(1.0, 2.0)], [1], sign_at)
    assert (lo, hi) == (math.sqrt(2.0), math.sqrt(2.0 * math.sqrt(2.0)))
    assert kept.sign.tolist() == [1, -1, 0] and calls == 1
    assert kept.x[-1] == math.sqrt(lo * hi)


def stepwise_round(a, b, depth, links, guess, split, side):
    """One step at a time bisection of [a, b] for as long as a round of
    bisection_round(a, b, depth, links, guess, split) plans: every step of
    the first depth, then up to links more while each step so far went
    toward guess (none for a nan guess).  side(x) says whether the root is
    right of x, or None where the bracket stops.  Returns a, b, the
    midpoints in step order, the midpoint now at a and at b (None for an
    end not moved) and whether the bracket can go on."""
    path, at_a, at_b, toward = [], None, None, guess == guess
    while len(path) < depth or (toward and links and len(path) < depth + links):
        mid = split(a, b)
        if mid is None:
            return a, b, path, at_a, at_b, False
        path.append(mid)
        right = side(mid)
        if right is None:
            return a, b, path, at_a, at_b, False
        toward &= right == (guess >= mid)
        if right:
            a, at_a = mid, mid
        else:
            b, at_b = mid, mid
    return a, b, path, at_a, at_b, True


def random_bracket(rng):
    """A bracket of either sign, wide, near X_RTOL, a few ulps or one ulp
    wide, or of equal ends."""
    a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
    kind = int(rng.integers(5))
    if kind == 0:
        return a, a + abs(a) * float(rng.uniform(0.01, 10.0))
    if kind == 1:
        return a, a + abs(a) * expsum.X_RTOL * float(2.0 ** rng.uniform(0.0, 6.0))
    if kind == 2:
        return a, a + abs(a) * float(np.spacing(1.0)) * float(rng.integers(2, 9))
    return (a, float(np.nextafter(a, np.inf))) if kind == 3 else (a, a)


@pytest.mark.parametrize("split", [expsum._flip_split, systems._half], ids=["flip", "quantile"])
def test_walk_round_takes_the_steps_of_one_at_a_time_bisection(split):
    rng = np.random.default_rng(30)
    stopped = went_on = long_walks = 0
    for _ in range(3000):
        a, b = random_bracket(rng)
        depth, links = int(rng.integers(1, 6)), int(rng.integers(0, 13))
        guess = float(rng.choice([math.nan, rng.uniform(a, b), a, b]))
        root = guess if rng.random() < 0.5 else float(rng.uniform(a, b))
        mids = []
        index = expsum.bisection_round(a, b, depth, links, guess, split, mids)
        zero = {m for m in mids if rng.random() < 0.03}  # sign 0 there

        def side(x):
            return None if x in zero else root >= x

        got = expsum.walk_round(index, a, b, lambda i: side(mids[i]))
        want = stepwise_round(a, b, depth, links, guess, split, side)
        lo, hi, path, at_a, at_b, goes_on = got
        assert (lo, hi, [mids[i] for i in path], goes_on) == (want[0], want[1], want[2], want[5])
        assert [mids[i] if i >= 0 else None for i in (at_a, at_b)] == list(want[3:5])
        assert len(set(path)) == len(path) and len(set(mids)) == len(mids)
        stopped += not goes_on
        went_on += goes_on
        long_walks += len(path) > depth
    assert stopped > 100 and went_on > 100 and long_walks > 100


def test_midpoints_stay_in_their_interval():
    # lo * hi underflows near 1e-310 and overflows near 1e300; elsewhere
    # the geometric (lo > 0) or arithmetic midpoint is kept unchanged.
    lo = np.array([3.3e-310, 1e-200, 1e200, 1e300, 0.5, -3.0, 0.0])
    hi = np.array([6.6e-310, 2e-200, 3e200, 1.5e300, 2.0, 1.0, 4.0])
    mids = expsum._mids(lo, hi)
    assert ((lo < mids) & (mids < hi)).all()
    assert mids[4:].tolist() == [1.0, -1.0, 2.0]
    assert mids.tolist() == [expsum._mid(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def test_scan_of_huge_rates_stays_right_of_zero():
    # Rates near 1e300 start the grid at a subnormal x, where a geometric
    # midpoint underflows to 0.
    f = canonicalize([(1e300, 1.0), (2e300, -1.0), (3e300, 0.5)])
    seen = []
    with mock.patch.object(expsum, "scaled_rows", recording_evaluator(seen)):
        p = sign_pattern(f)
    assert p.regions and all(r.x > 0.0 for r in p.regions)
    assert all((x > 0.0).all() for x, *_ in seen)


def traced_points(x):
    """Points whose every column is a function of x, so that a splice that
    moves a row's x without the rest of it shows."""
    x = np.asarray(x, dtype=float)
    return expsum._Pts(x, -x, 2.0 * x, x + 1.0, np.sign(x).astype(np.int8))


def assert_dip_splice_is_lexsort(pts, owner, left, new, got=None):
    """The splice of _grid_phase (_with_dips, unless got is its result)
    gives, value for value, the points and owners of a stable lexsort by
    (owner, x) of the old points, then the new ones.  Returns how many new
    points equal their interval's right end."""
    new_owner = owner[left]
    got_pts, got_owner = got or expsum._with_dips(pts, owner, left, new, new_owner)
    cols = [np.concatenate(pair) for pair in zip(pts, new)]
    owners = np.concatenate((owner, new_owner))
    order = np.lexsort((cols[0], owners))
    assert got_owner.tolist() == owners[order].tolist()
    for col, want in zip(got_pts, cols):
        np.testing.assert_array_equal(col, want[order])
    return int(np.count_nonzero(new.x == pts.x[left + 1]))


def test_dip_slots_match_lexsort_on_random_blocks():
    # Sorted points per sum with repeated values, some intervals of zero
    # width, and both midpoint rules (points of both signs).
    rng = np.random.default_rng(29)
    at_end = 0
    for _ in range(200):
        sizes = rng.integers(1, 12, int(rng.integers(1, 6)))
        owner = np.repeat(np.arange(sizes.size), sizes)
        x = np.concatenate([np.sort(rng.choice(rng.uniform(-2.0, 5.0, 6), k)) for k in sizes])
        inside = np.flatnonzero(owner[1:] == owner[:-1])
        left = np.sort(rng.choice(inside, rng.integers(0, inside.size + 1), replace=False))
        mids = traced_points(expsum._mids(x[left], x[left + 1]))
        at_end += assert_dip_splice_is_lexsort(traced_points(x), owner, left, mids)
    assert at_end > 0


def test_dip_slots_at_adjacent_floats():
    # The midpoint of two adjacent floats is one of them: the arithmetic
    # rule rounds to even, and so does the fallback where lo * hi
    # underflows, as at the subnormal grid start of a huge-rate sum.  Each
    # midpoint of a repeated point equals both ends.
    lo = np.array([-3.0, np.nextafter(-3.0, 0.0), -5e-324, 5e-324, 1e-323, 2.0**-1070, 1.0, 7.0])
    x = np.sort(np.concatenate((lo, np.nextafter(lo, np.inf), [7.0 + 2.0**-50] * 2)))
    left = np.flatnonzero(np.diff(x) <= np.spacing(np.abs(x[1:])))  # adjacent or equal ends
    mids = expsum._mids(x[left], x[left + 1])
    assert ((mids == x[left]) | (mids == x[left + 1])).all()
    strict = x[left] < x[left + 1]
    assert np.count_nonzero(strict & (mids == x[left])) >= 3
    assert np.count_nonzero(strict & (mids == x[left + 1])) >= 3
    owner = np.zeros(x.size, dtype=np.intp)
    assert assert_dip_splice_is_lexsort(traced_points(x), owner, left, traced_points(mids)) >= 5


def test_dip_slots_in_the_scan_of_huge_rates():
    # Every dip pass of the scan of a 1e300-rate sum, whose grid starts at
    # a subnormal x, in a block that also holds the classic witness gap.
    f = canonicalize([(1e300, 1.0), (2e300, -1.0), (3e300, 0.5)])
    splice, passes = expsum._with_dips, [0]

    def checked(pts, owner, left, new, new_owner):
        got = splice(pts, owner, left, new, new_owner)
        assert_dip_splice_is_lexsort(pts, owner, left, new, got)
        passes[0] += 1
        return got

    with mock.patch.object(expsum, "_with_dips", checked):
        got = sign_patterns([f, CLASSIC_WITNESS_GAP, f])
    assert passes[0] == expsum.DIP_PASSES
    for p, g in zip(got, [f, CLASSIC_WITNESS_GAP, f]):
        assert_same_pattern(p, sign_pattern(g))


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


@settings(max_examples=30, deadline=None)
@given(st.lists(gap_sums(), min_size=1, max_size=16))
def test_finished_patterns_equal_refined_scans(fs):
    # Each sum of two or more terms leaves its finishing state, and the
    # pattern finished from it alone is that of the refined block scan.
    unfinished = {}
    sign_patterns(fs, refine=False, unfinished=unfinished)
    assert sorted(unfinished) == [k for k, f in enumerate(fs) if f.n_terms > 1]
    refined = sign_patterns(fs)
    for k, state in unfinished.items():
        assert repr(expsum.finished_pattern([fs[k]], state)) == repr(refined[k])
    unfinished.clear()
    sign_patterns(fs, unfinished=unfinished)
    assert unfinished == {}  # a refined scan's patterns are final


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


# e^-x - 0.5 e^-2x + 0.2 e^-3x - 0.1 e^-4x.
SHARPER_PREFIX_SUM = ExpSum((1.0, 2.0, 3.0, 4.0), (1.0, -0.5, 0.2, -0.1))


@pytest.mark.parametrize("f, want", [
    (ExpSum((), ()), [()]),
    (canonicalize([(2.0, -3.0)]), [("-",)]),
    # Rates 1.498 (-), 1.5 (+), 2.247 (-), 3.5 (+), 3.745 (+), 5 (-): four
    # coefficient sign changes, "+" at 0 and "-" at infinity, so 1 or 3.
    (survival(HazardVector((1.5, 3.5))) - survival(HazardVector((2, 3))).shift_scale(0.749, 0.0125),
     [("+", "-"), ("+", "-", "+", "-")]),
    # Every derivative sum at 0 is below the ZERO_TOL threshold, so both
    # starts are open, but the prefix sums (1, 0) have no sign change: f > 0.
    (ExpSum((1.0, 1.0 + 1e-13), (1.0, -1.0)), [("+",)]),
    # Three coefficient sign changes, but the prefix sums 1, 0.5, 0.7, 0.6
    # have none: f > 0 on (0, infinity).
    (SHARPER_PREFIX_SUM, [("+",)]),
], ids=["zero-sum", "one-term", "classic-witness-gap", "zero-at-origin", "prefix-sums"])
def test_possible_signs_on_fixed_sums(f, want):
    assert possible_signs(f) == want
    assert_certified_signs_possible(f)


# y * (y - 1) * (y - 2) at y = exp(-x): the coefficients sum to exactly 0,
# f'(0) = 1, and the other zero (y = 2) lies on the negative axis.
ZERO_AT_ORIGIN_SUM = canonicalize([(1, 2.0), (2, -3.0), (3, 1.0)])
# f(0) = 1e-13 is below ZERO_TOL, so sign_at_zero still reads (+1, 1).
NEAR_ZERO_AT_ORIGIN_SUM = canonicalize([(1, 2.0), (2, -3.0), (3, 1.0 + 1e-13)])


# The prefix sums are 2, -1, 0 and 2, -1, 1e-13: only an exact zero at 0
# saves Laguerre's rule a change.  The near-zero sum's zeros, at y just
# above 1 and near 2 (y = exp(-x)), lie at x < 0, and the Rolle step at
# pivot 1 bounds its zeros in (0, infinity) by 1, which the two '+' ends
# round down to 0.
@pytest.mark.parametrize("f, prefix_changes, want", [
    (ZERO_AT_ORIGIN_SUM, 1, [("+",)]),
    (NEAR_ZERO_AT_ORIGIN_SUM, 2, [("+",)]),
], ids=["exact-zero", "zero-below-tolerance"])
def test_possible_signs_count_only_an_exact_zero_at_origin(f, prefix_changes, want):
    assert f.sign_at_zero() == (1, 1)
    assert f.prefix_sign_changes() == prefix_changes
    assert possible_signs(f) == want
    assert_certified_signs_possible(f)


@settings(max_examples=60, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
@example(ZERO_AT_ORIGIN_SUM)
@example(NEAR_ZERO_AT_ORIGIN_SUM)
def test_certified_signs_are_possible(f):
    assert_certified_signs_possible(f)


def exact_prefix_sign_changes(f):
    """ExpSum.prefix_sign_changes from prefix sums in exact rationals."""
    prefixes = [sum(map(Fraction, f.coeffs[: k + 1])) for k in range(f.n_terms)]
    signs = [1 if p > 0 else -1 for p in prefixes if p]
    return sum(s0 != s1 for s0, s1 in zip(signs, signs[1:]))


def sign_changes_at_40_digits(f, points=150):
    """Sign changes of f on a log grid, from 40-digit values; a value
    within 1e-30 of the sum of its terms' magnitudes is skipped."""
    changes, last = 0, 0
    with mpmath.workdps(40):
        terms = [(mpmath.mpf(r), mpmath.mpf(c)) for r, c in f.terms()]
        for x in np.geomspace(1e-6 / f.rates[-1], 100.0 / max(f.rates[0], 0.01), points).tolist():
            values = [c * mpmath.exp(-r * mpmath.mpf(x)) for r, c in terms]
            v = mpmath.fsum(values)
            if abs(v) > mpmath.mpf(1e-30) * mpmath.fsum(map(abs, values)):
                sign = 1 if v > 0 else -1
                changes += sign == -last
                last = sign
    return changes


def assert_prefix_bound_holds(f):
    bound = f.prefix_sign_changes()
    assert bound == exact_prefix_sign_changes(f), f
    # Never above the Descartes bound less the exact zero at 0.
    assert bound <= f.sign_change_bound() - (f.derivative_sum(0) == 0.0), f
    assert sign_changes_at_40_digits(f) <= bound, f


@settings(max_examples=25, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
@example(SHARPER_PREFIX_SUM)
@example(ZERO_AT_ORIGIN_SUM)
@example(NARROW_SECOND_REGION_SUM)
@example(ExpSum((1.0, 2.0, 3.0), (1.0, -1.0, 1e-300)))  # the float run reaches 0 exactly
@example(ExpSum((1.0, 2.0, 3.0), (1e16, 1.0, -1e16)))  # the float run loses the 1
# Exact prefixes 1, 2**53 + 1, -1, 1: two changes; the float run reads
# 1, 2**53, -2, 0 and would count one.
@example(ExpSum((1.0, 2.0, 3.0, 4.0), (1.0, 2.0**53, -(2.0**53) - 2.0, 2.0)))
def test_prefix_sum_bound_holds_at_40_digits(f):
    assert_prefix_bound_holds(f)


def test_prefix_sum_bound_of_random_sums_holds_at_40_digits():
    rng = np.random.default_rng(29)
    sharper = 0
    for _ in range(60):
        f = random_expsum(rng)
        assert_prefix_bound_holds(f)
        sharper += f.prefix_sign_changes() < f.sign_change_bound()
    assert sharper > 0


def scalar_prefix_sign_changes(coeffs):
    """The prefix-sum sign changes from one float running sum, term by
    term: the scalar form of expsum.prefix_sign_changes_rows."""
    changes, last = 0, 0
    run = mags = 0.0
    for k, c in enumerate(coeffs):
        run += c
        mags += abs(c)
        total = run if abs(run) > k * expsum._EPS * mags else math.fsum(coeffs[: k + 1])
        sign = (total > 0.0) - (total < 0.0)
        if sign:
            changes += sign == -last
            last = sign
    return changes


def test_prefix_sign_changes_rows_equal_the_scalar_loop():
    rng = np.random.default_rng(41)
    sums = [random_expsum(rng) for _ in range(150)]
    # Each survival is 1 at 0, so every b = 0 gap's last prefix is exactly 0.
    zero_ends = []
    for n in (2, 2, 3, 3, 4) * 8:
        lam, theta = (HazardVector(tuple(rng.uniform(0.2, 8.0, n).tolist())) for _ in "xy")
        zero_ends.append(survival(theta) - survival(lam).shift_scale(rng.uniform(0.1, 3.0)))
    assert all(f.derivative_sum(0) == 0.0 for f in zero_ends)
    fixed = [ExpSum((), ()), SHARPER_PREFIX_SUM, ZERO_AT_ORIGIN_SUM,
             ExpSum((1.0, 2.0, 3.0), (1.0, -1.0, 1e-300)),
             ExpSum((1.0, 2.0, 3.0), (1e16, 1.0, -1e16)),
             ExpSum((1.0, 2.0, 3.0, 4.0), (1.0, 2.0**53, -(2.0**53) - 2.0, 2.0))]
    fs = sums + zero_ends + fixed
    want = [scalar_prefix_sign_changes(f.coeffs) for f in fs]
    assert [f.prefix_sign_changes() for f in fs] == want
    # All rows at once, each padded behind with zeros, which repeat its
    # last prefix and so add no change.
    width = max(f.n_terms for f in fs)
    rows = np.array([f.coeffs + (0.0,) * (width - f.n_terms) for f in fs])
    assert expsum.prefix_sign_changes_rows(rows).tolist() == want


# -- the Rolle step of the zero bound ----------------------------------------


def exact_rolle_bounds(f):
    """The Rolle-step bound of f at each pivot of expsum.rolle_bounds_rows,
    from exact rationals: the sign changes of the prefix sums of
    c_i (r - r_i), plus 1 unless the coefficients sum to exactly 0."""
    at_origin = sum(map(Fraction, f.coeffs)) != 0
    out = []
    for k in range(expsum.ROLLE_PIVOTS):
        r = Fraction(f.rates[min(k, f.n_terms - 1)])
        run, signs = Fraction(0), []
        for ri, c in f.terms():
            run += Fraction(c) * (r - Fraction(ri))
            if run:
                signs.append(run > 0)
        out.append(sum(s0 != s1 for s0, s1 in zip(signs, signs[1:])) + at_origin)
    return out


def rolle_rows(f):
    coeffs = np.array([f.coeffs])
    bounds, unsure = expsum.rolle_bounds_rows(np.array([f.rates]), coeffs,
                                              expsum._exact_prefix_sums(coeffs))
    return bounds[:, 0].tolist(), unsure[:, 0].any(axis=1).tolist()


def assert_rolle_bounds_hold(f):
    exact = exact_rolle_bounds(f)
    bounds, unsure = rolle_rows(f)
    for got, want, open_prefix in zip(bounds, exact, unsure):
        assert got >= want, f
        assert open_prefix or got == want, f
    zero_bound = f.zero_bound()
    assert zero_bound == min(f.prefix_sign_changes(), *bounds), f
    assert zero_bound >= min(exact_prefix_sign_changes(f), *exact), f
    assert sign_changes_at_40_digits(f) <= zero_bound, f


# The reversed classic pair's convex-grid gap at a = 0.58138, b = 0.002:
# Laguerre's rule allows 3 zeros, the Rolle step 2.
REVERSED_CLASSIC_GAP = (survival(HazardVector((2.0, 3.0)))
                        - survival(HazardVector((1.5, 3.5))).shift_scale(0.5813796304732954, 0.002))


@settings(max_examples=40, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
@example(SHARPER_PREFIX_SUM)
@example(ZERO_AT_ORIGIN_SUM)
@example(NEAR_ZERO_AT_ORIGIN_SUM)
@example(NARROW_SECOND_REGION_SUM)
@example(REVERSED_CLASSIC_GAP)
@example(ExpSum((2.0,), (3.0,)))  # every pivot gives g' = 0
@example(ExpSum((1.0, 2.0, 3.0), (1e16, 1.0, -1e16)))
@example(ExpSum((1.0, 2.0, 3.0, 4.0), (1.0, 2.0**53, -(2.0**53) - 2.0, 2.0)))
def test_rolle_bounds_hold_against_exact_rationals(f):
    assert_rolle_bounds_hold(f)


def test_rolle_bounds_of_random_sums_hold_against_exact_rationals():
    rng = np.random.default_rng(53)
    sharper = 0
    for _ in range(60):
        f = random_expsum(rng)
        assert_rolle_bounds_hold(f)
        sharper += f.zero_bound() < f.prefix_sign_changes()
    assert sharper > 0


@pytest.mark.parametrize("f, laguerre, zero_bound, want", [
    (REVERSED_CLASSIC_GAP, 3, 2, [("+", "-")]),
    (NEAR_ZERO_AT_ORIGIN_SUM, 2, 1, [("+",)]),
    # The Laguerre prefixes 1, 0.5, 0.7, 0.6 leave nothing to sharpen.
    (SHARPER_PREFIX_SUM, 0, 0, [("+",)]),
], ids=["reversed-classic-gap", "zero-below-tolerance", "prefix-sums"])
def test_zero_bound_on_fixed_sums(f, laguerre, zero_bound, want):
    assert f.prefix_sign_changes() == laguerre
    assert f.zero_bound() == zero_bound
    assert possible_signs(f) == want
    assert_certified_signs_possible(f)


def test_zero_bound_without_finite_products_is_laguerre():
    # c_i (r - r_i) overflows at every pivot.
    f = ExpSum((1.0, 2.0, 1e10), (1e300, -2e300, 1e300))
    bounds, _ = rolle_rows(f)
    assert bounds == [f.n_terms] * expsum.ROLLE_PIVOTS
    assert f.zero_bound() == f.prefix_sign_changes() == 1


def test_underflowing_products_leave_their_prefixes_unsure():
    # Each c_i (r - r_i) is subnormal or 0; at the first pivot the second
    # one, -2^-1079, rounds to 0, so that prefix is unsure, not a zero.
    f = ExpSum((1.0, 1.0 + 2.0**-40, 3.0), (2.0**-1040, -(2.0**-1039), 2.0**-1040))
    bounds, unsure = rolle_rows(f)
    assert unsure[0]
    assert all(b >= e for b, e in zip(bounds, exact_rolle_bounds(f)))
    assert f.zero_bound() == f.prefix_sign_changes() == 1


def test_zero_bound_rows_of_front_padded_rows_equal_the_scalar_bound():
    rng = np.random.default_rng(59)
    fs = [random_expsum(rng) for _ in range(120)]
    fs += [ExpSum((), ()), ZERO_AT_ORIGIN_SUM, NEAR_ZERO_AT_ORIGIN_SUM, REVERSED_CLASSIC_GAP]
    width = max(f.n_terms for f in fs) + 2
    # Padded in front at the row's first rate, as orders._Gaps.rows pads.
    rates = np.array([(f.rates[:1] or (0.0,)) * (width - f.n_terms) + f.rates for f in fs])
    coeffs = np.array([(0.0,) * (width - f.n_terms) + f.coeffs for f in fs])
    want = [f.zero_bound() for f in fs]
    assert expsum.zero_bound_rows(rates, coeffs).tolist() == want
    assert sum(w < f.prefix_sign_changes() for w, f in zip(want, fs)) > 0


def test_canonical_rows_mark_the_rows_canonicalize_keeps():
    rng = np.random.default_rng(43)
    rates = rng.uniform(0.5, 3.0, (200, 4))
    rates[::5, 1] = rates[::5, 0] * (1.0 + 1e-13)  # merged
    rates[1::9, 3] = rates[1::9, 2]  # merged
    coeffs = rng.uniform(-2.0, 2.0, (200, 4))
    coeffs[::7, 2] = -1e-13  # dropped
    sorted_coeffs, exact = expsum.canonical_rows(rates, coeffs)
    assert 0 < exact.sum() < 150
    for r, c, row, kept in zip(rates.tolist(), coeffs.tolist(), sorted_coeffs.tolist(),
                               exact.tolist()):
        f = canonicalize(zip(r, c))
        assert kept == (f.n_terms == 4)
        if kept:
            assert f.coeffs == tuple(row)


def test_certified_signs_of_random_sums_are_possible():
    rng = np.random.default_rng(23)
    for _ in range(150):
        assert_certified_signs_possible(random_expsum(rng))


def separate_sums_sign_at_zero(f):
    """ExpSum.sign_at_zero with the derivative sum and its scale read from
    two product lists, c * (-r)**k and |c| * r**k."""
    if f.is_zero:
        return 0, 0
    max_order = max(4, f.n_terms)
    for k in range(max_order):
        d = f.derivative_sum(k)
        scale = math.fsum(abs(c) * r**k for r, c in f.terms())
        if abs(d) > expsum.ZERO_TOL * max(scale, 1e-300):
            return (1 if d > 0 else -1), k
    return 0, max_order


@settings(max_examples=100, deadline=None)
@given(st.one_of(gap_sums(), expsum_strategy()))
@example(ZERO_AT_ORIGIN_SUM)
@example(NEAR_ZERO_AT_ORIGIN_SUM)
@example(DROPPED_REGION_GAP)
@example(ExpSum((1.0, 1.0 + 1e-13), (1.0, -1.0)))
@example(ExpSum((0.0, 1.0), (1.0, -1.0)))
def test_sign_at_zero_matches_separate_sums(f):
    assert f.sign_at_zero() == separate_sums_sign_at_zero(f)


# -- batch sign at 0+ and dominance point ------------------------------------


@st.composite
def a_grid_gaps(draw):
    """The b = 0 gaps of random n = 2..6 systems at up to eight a, each
    with a zero of multiplicity n at 0."""
    n = draw(st.integers(2, 6))
    rates = st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n).map(tuple)
    lam, theta = HazardVector(draw(rates)), HazardVector(draw(rates))
    scales = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=8))
    return [survival(theta).minus_shift_scale(survival(lam), a) for a in scales]


def as_rows(fs):
    """The rates and coefficients of equal-length sums as (rows x terms) arrays."""
    return np.array([f.rates for f in fs]), np.array([f.coeffs for f in fs])


def assert_rows_match_the_scalar_methods(fs):
    groups = {}
    for f in fs:
        if not f.is_zero:
            groups.setdefault(f.n_terms, []).append(f)
    for group in groups.values():
        rates, coeffs = as_rows(group)
        assert expsum.sign_at_zero_rows(rates, coeffs) == [f.sign_at_zero() for f in group]
        assert expsum.dominance_point_rows(rates, coeffs) == [f.dominance_point() for f in group]


@settings(max_examples=60, deadline=None)
@given(st.one_of(gap_sums().map(lambda f: [f]), a_grid_gaps()))
@example([ZERO_AT_ORIGIN_SUM, NEAR_ZERO_AT_ORIGIN_SUM, SHARPER_PREFIX_SUM])
@example([DROPPED_REGION_GAP, ExpSum((1.0, 1.0 + 1e-13), (1.0, -1.0)), ExpSum((0.0, 1.0), (1.0, -1.0))])
@example([N6_GAP, CLASSIC_WITNESS_GAP])
def test_batch_sign_at_zero_and_dominance_point_equal_the_scalar_ones(fs):
    assert_rows_match_the_scalar_methods(fs)


def test_batch_helpers_on_random_sums():
    rng = np.random.default_rng(47)
    assert_rows_match_the_scalar_methods([random_expsum(rng) for _ in range(300)])


def scalar_calls(method, run):
    """run()'s result and how often it called the scalar ExpSum.method."""
    with mock.patch.object(ExpSum, method, autospec=True,
                           side_effect=getattr(ExpSum, method)) as spy:
        return run(), spy.call_count


# Each row leaves the array pass to the scalar method: f(0) lies at
# ZERO_TOL times its scale within rounding; r**2 overflows (b = 0 gap of
# the 1e200-rate pair at a = 1, with a zero of multiplicity 2 at 0); the
# scale of f(0) is below 1e-280.
SIGN_FALLBACK_SUMS = [
    ExpSum((1.0, 2.0), (1.0, -(1.0 - 2e-12))),
    survival(HazardVector((0.5e200, 2.5e200))).minus_shift_scale(
        survival(HazardVector((1e200, 2e200))), 1.0),
    ExpSum((1.0, 2.0), (1e-290, -2e-290)),
]
# A tie of log((n - 1) |c_i| / |c_0|) / (r_i - r_0) between two terms, and
# a ratio that overflows.
DOMINANCE_FALLBACK_SUMS = [
    ExpSum((0.0, 1.0, 2.0), (1.0, 1.0, 2.0)),
    ExpSum((1.0, 2.0), (1e-300, 1e300)),
]


@pytest.mark.parametrize("f", SIGN_FALLBACK_SUMS, ids=["at-zero-tol", "power-overflows",
                                                       "scale-below-1e-280"])
def test_sign_at_zero_rows_fall_back_to_the_scalar_method(f):
    want = ExpSum(f.rates, f.coeffs).sign_at_zero()
    got, calls = scalar_calls("sign_at_zero", lambda: expsum.sign_at_zero_rows(*as_rows([f])))
    assert got == [want] and calls == 1


@pytest.mark.parametrize("f", DOMINANCE_FALLBACK_SUMS, ids=["tie", "ratio-overflows"])
def test_dominance_point_rows_fall_back_to_the_scalar_method(f):
    want = ExpSum(f.rates, f.coeffs).dominance_point()
    got, calls = scalar_calls("dominance_point",
                              lambda: expsum.dominance_point_rows(*as_rows([f])))
    assert got == [want] and calls == 1


def test_a_grid_rows_need_no_scalar_method():
    x, y = survival(HazardVector((2.0, 2.5, 3.0))), survival(HazardVector((1.5, 2.6, 3.5)))
    fs = [y.minus_shift_scale(x, a) for a in np.geomspace(0.2, 2.0, 40).tolist()]
    rates, coeffs = as_rows([f for f in fs if f.n_terms == 14])
    assert len(rates) > 30
    for method, rows in (("sign_at_zero", expsum.sign_at_zero_rows),
                         ("dominance_point", expsum.dominance_point_rows)):
        _, calls = scalar_calls(method, lambda: rows(rates, coeffs))
        assert calls == 0, method


def test_sign_at_zero_survives_overflowing_powers():
    # (1e200)**2 overflows; the sums over r / r_max keep sign and order.
    unit_x, unit_y = survival(HazardVector((1.0, 2.0))), survival(HazardVector((0.5, 2.5)))
    big_x, big_y = survival(HazardVector((1e200, 2e200))), survival(HazardVector((0.5e200, 2.5e200)))
    for a in (0.3, 0.9, 1.5):
        want = unit_y.minus_shift_scale(unit_x, a).sign_at_zero()
        assert want[1] == 2
        assert big_y.minus_shift_scale(big_x, a).sign_at_zero() == want
