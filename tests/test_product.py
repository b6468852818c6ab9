"""The product-form evaluator of the gaps of n >= 3 systems: its rounding
bound against 60-digit mpmath, its sign near 0, its independence of the
batch, and its agreement with the coefficient form."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transform_orders import (
    HazardVector,
    ScanOptions,
    convex_check_at,
    orders,
    sign_pattern,
    survival_gap,
    violation_search,
)
from transform_orders.expsum import _certify, scaled_rows
from transform_orders.orders import _a_grid, _Gaps
from transform_orders.product import ProductGaps, product_block


def true_scaled_gap(lam, theta, a, b, x, m):
    """V(x; a, b) * exp(-m) at 60 digits, for the float inputs exactly.

    Each survival is taken both as S = sum_i q_i prod_{j<i} (1 - q_j) and
    as F = 1 - S = prod_j (1 - q_j), from positive numbers only; the gap
    is S_Y - S_X or F_X - F_Y, whichever subtracts the smaller numbers,
    so at 60 digits it is exact far below the float bound."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        t = mpmath.mpf(a) * x + mpmath.mpf(b)

        def forms(rates, t):
            q = [mpmath.exp(-mpmath.mpf(r) * t) for r in rates]
            rest = [-mpmath.expm1(-mpmath.mpf(r) * t) for r in rates]
            s = mpmath.fsum(qi * mpmath.fprod(rest[:i]) for i, qi in enumerate(q))
            return s, mpmath.fprod(rest)

        s_y, f_y = forms(theta, x)
        s_x, f_x = forms(lam, t)
        v = s_y - s_x if max(s_y, s_x) < max(f_y, f_x) else f_x - f_y
        return v * mpmath.exp(-mpmath.mpf(m))


def assert_product_bound_holds(lam, theta, a, b, xs):
    lam, theta = np.array(sorted(lam)), np.array(sorted(theta))
    xs = np.asarray(xs, dtype=float)
    s, m, err = product_block(lam, theta, np.full(xs.size, a), np.full(xs.size, b), xs)
    for x, si, mi, ei in zip(xs.tolist(), s.tolist(), m.tolist(), err.tolist()):
        if ei == math.inf:  # only where a product may be subnormal: uncertain, which is sound
            assert si == 0.0
            assert min(a * x, theta[0] * x, lam[0] * (a * x + b)) < 2.0**-1000
            continue
        exact = true_scaled_gap(lam.tolist(), theta.tolist(), a, b, x, mi)
        assert abs(mpmath.mpf(si) - exact) <= ei, (lam, theta, a, b, x, si, ei)


class TestRoundingBound:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 6).flatmap(lambda n: st.tuples(
            st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n),
            st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n),
        )),
        st.floats(0.05, 5.0),
        st.one_of(st.just(0.0), st.floats(1e-6, 3.0)),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_bound_holds_against_mpmath(self, pair, a, b, spots):
        # x from 1e-300 to twice past the dominance point of the gap's
        # coefficient form, log-uniform, and as many points log-uniform
        # over the last six decades, where the gap changes sign.
        lam, theta = pair
        gap = survival_gap(HazardVector(lam), HazardVector(theta), a, b)
        top = 2.0 * max(gap.dominance_point(), 40.0 / min(theta), 1.0)
        xs = [1e-300] + [10.0 ** (-300.0 + u * (300.0 + math.log10(top))) for u in spots]
        xs += [top * 10.0 ** (-6.0 * u) for u in spots]
        assert_product_bound_holds(lam, theta, a, b, xs)

    @pytest.mark.parametrize("lam, theta, a, b", [
        ((2, 3, 4), (1, 3, 5), 0.4990234375, 0.02689616759781851),  # the n = 3 convex witness
        ((2, 3, 4), (1, 3, 5), 1.5, 0.0),
        ((2, 2.2, 2.4, 2.6, 2.8, 3), (1.5, 2, 2.4, 2.6, 3, 3.5), 0.8, 0.0),
        ((2e-11, 3e-11, 4e-11), (1e-11, 3e-11, 5e-11), 0.75, 0.0),  # rates near 1e-11
        ((1e155, 2e155, 3e155), (0.5e155, 2.5e155, 3e155), 1.2, 0.0),  # and near 1e155
    ], ids=["n3-witness", "n3-b0", "n6", "tiny-rates", "huge-rates"])
    def test_bound_holds_on_gaps(self, lam, theta, a, b):
        scale = 1.0 / min(theta)
        xs = np.concatenate([[1e-300, 1e-200, 1e-30], np.geomspace(1e-9, 300.0, 60)]) * scale
        assert np.isfinite(product_block(np.array(lam), np.array(theta), a, b, xs)[2]).sum() >= 61
        assert_product_bound_holds(lam, theta, a, b, xs)


class TestNearZero:
    @pytest.mark.parametrize("a", [0.5, 0.7, 1.2])
    def test_sign_kept_at_1e_300(self, a):
        # At b = 0 the gap is (a^n prod lam - prod theta) x^n + O(x^(n+1))
        # near 0: about 1e-900 at x = 1e-300, far below the float range,
        # yet the F form keeps its sign and clears its bound.
        lam, theta = np.array([2.0, 3.0, 4.0]), np.array([1.0, 3.0, 5.0])
        s, m, err = product_block(lam, theta, np.array([a]), np.array([0.0]), np.array([1e-300]))
        assert abs(s[0]) > 1e6 * err[0]
        assert np.sign(s[0]) == np.sign(a**3 * lam.prod() - theta.prod())
        assert -2100.0 < m[0] < -2000.0  # log(1e-900) is about -2072

    def test_subnormal_products_stay_uncertain(self):
        lam = theta = np.array([1.0, 2.0, 3.0])
        x = np.array([0.0, 1e-310, 1e-295])
        s, m, err = product_block(lam, theta, np.ones(3), np.zeros(3), x)
        assert err.tolist()[:2] == [math.inf, math.inf] and s.tolist()[:2] == [0.0, 0.0]
        assert math.isfinite(err[2])


@pytest.mark.parametrize("n", [3, 8])
def test_points_do_not_depend_on_the_batch(n):
    # Every sum over the rates adds whole rows in order, also for one
    # point (numpy would reduce 8 or more terms of one point pairwise).
    lam = np.linspace(2.0, 3.0, n)
    theta = np.linspace(1.5, 3.5, n)
    gaps = _Gaps(HazardVector(tuple(lam)), HazardVector(tuple(theta)))
    probes = [(0.9, 0.0), (0.75, 0.02), (1.1, 0.0)]
    block = ProductGaps([gaps(a, b) for a, b in probes], lam, theta, probes)
    xss = [np.geomspace(1e-12, 60.0, 1500 + 7 * k) for k in range(3)]
    together = np.stack(block.evaluate(xss))
    alone = np.concatenate([
        np.stack(block.take([k]).evaluate([xs[i : i + 1]]))
        for k, xs in enumerate(xss) for i in range(0, xs.size, 97)
    ], axis=1)
    starts = np.cumsum([0] + [xs.size for xs in xss])
    picked = np.concatenate([np.arange(0, xs.size, 97) + start for xs, start in zip(xss, starts)])
    assert np.array_equal(together[:, picked], alone)


CORPUS_N3 = [
    ((2, 3, 4), (1, 3, 5)),
    ((1, 3, 5), (2, 3, 4)),
    ((2, 2.5, 3, 3.5), (1.5, 2.5, 3, 4)),
    ((2, 2.2, 2.4, 2.6, 2.8, 3), (1.5, 2, 2.4, 2.6, 3, 3.5)),
]


@pytest.mark.parametrize("lam, theta", CORPUS_N3, ids=["n3", "n3-reversed", "n4", "n6"])
def test_evaluators_never_certify_opposite_signs(lam, theta):
    lam, theta = HazardVector(lam), HazardVector(theta)
    gaps = _Gaps(lam, theta)
    b_scale = 1.0 / (theta.rates[0] + theta.rates[-1])
    probes = [(a, f * b_scale) for a in _a_grid(lam, theta)[::3] for f in (0.0, 0.05, 1.0)]
    xs = np.geomspace(1e-9, 80.0, 300)
    block = gaps.block(probes)
    opts = ScanOptions()
    product_signs = _certify(*block.evaluate([xs] * len(probes)), opts)[0]
    coefficient_signs = _certify(*scaled_rows(list(block), [xs] * len(probes)), opts)[0]
    assert not np.any(product_signs * coefficient_signs < 0)
    # The product form certifies at least as many of these points.
    assert np.count_nonzero(product_signs) >= np.count_nonzero(coefficient_signs)


def test_n3_witness_reverified_with_the_scan_evaluator(monkeypatch):
    # violation_search re-checks its witness regions with the evaluator
    # that certified them, so no region fails only on the other's bound.
    seen = []
    real = orders.certain_signs

    def recording(fs, xss, opts):
        seen.append(type(fs))
        return real(fs, xss, opts)

    monkeypatch.setattr(orders, "certain_signs", recording)
    report = violation_search(HazardVector((2, 3, 4)), HazardVector((1, 3, 5)))
    assert report.pattern.text() == "+,-,+,-" and seen == [ProductGaps]


@pytest.mark.parametrize("theta", [(2.0,), (1.0, 2.0)], ids=["n1", "n2"])
@pytest.mark.parametrize("a, b", [(0.5, 0.0), (0.9, 0.1), (1.0, 0.0), (1.6, 0.3)])
def test_systems_of_different_sizes_stay_on_the_coefficient_form(theta, a, b):
    # The product form takes two systems of one size; a scan of a pair of
    # different sizes gives the pattern of the gap's own sum.
    lam, theta = HazardVector((1.0, 2.0, 3.0)), HazardVector(theta)
    verdict = convex_check_at(lam, theta, a, b)
    pattern = verdict.witness.pattern if verdict.witness else verdict.evidence[0][1]
    assert pattern == sign_pattern(survival_gap(lam, theta, a, b))
    assert isinstance(_Gaps(lam, theta).block([(a, b)]), list)


def test_product_form_refuses_systems_of_different_sizes():
    with pytest.raises(ValueError, match="same size"):
        ProductGaps([], (1.0, 2.0, 3.0), (2.0,), [])
