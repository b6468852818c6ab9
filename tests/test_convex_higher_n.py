"""Convex-order verdicts for three components, re-checked at 50 digits.

The paper settles the convex order only for two components.  For n = 3
the same strip search certifies '+,-,+,-' witnesses; every region of them
is evaluated again here with mpmath, from the inclusion-exclusion survival
written out below rather than from the package's sums.
"""

from itertools import combinations

import mpmath
import pytest

from transform_orders import HazardVector, Status, convex_check, convex_check_at

N3_MAJORIZED = [
    ((2.0, 3.0, 4.0), (1.0, 3.0, 5.0)),
    ((2.0, 2.5, 3.0), (1.5, 2.5, 3.5)),
]


def mp_survival(rates, t):
    """Survival of a parallel system at t by inclusion-exclusion over the
    nonempty subsets S of components: sum (-1)^(|S|+1) exp(-sum(S) t)."""
    rates = [mpmath.mpf(r) for r in rates]
    return mpmath.fsum(
        (-1) ** (k + 1) * mpmath.exp(-mpmath.fsum(s) * t)
        for k in range(1, len(rates) + 1)
        for s in combinations(rates, k)
    )


def mp_gap(lam, theta, a, b, x):
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return mp_survival(theta, x) - mp_survival(lam, mpmath.mpf(a) * x + mpmath.mpf(b))


@pytest.mark.parametrize("lam, theta", N3_MAJORIZED,
                         ids=["(2,3,4)-(1,3,5)", "(2,2.5,3)-(1.5,2.5,3.5)"])
def test_witness_regions_hold_at_50_digits(lam, theta):
    verdict = convex_check(HazardVector(lam), HazardVector(theta))
    assert verdict.status is Status.FAILS and verdict.certificate is None
    w = verdict.witness
    assert theta[0] / lam[-1] < w.a < theta[0] / lam[0]  # inside the strip
    assert w.pattern.signs() == ("+", "-", "+", "-")
    for region in w.pattern.regions:
        value = mp_gap(lam, theta, w.a, w.b, region.x)
        assert value != 0 and (value > 0) == (region.sign == "+"), (region, value)


def test_point_check_at_the_witness_fails():
    lam, theta = (HazardVector(r) for r in N3_MAJORIZED[0])
    w = convex_check(lam, theta).witness
    verdict = convex_check_at(lam, theta, w.a, w.b)
    assert verdict.status is Status.FAILS
    assert verdict.witness.pattern.signs() == ("+", "-", "+", "-")


def test_homogeneous_base_gets_no_certificate_beyond_two_components():
    # The empty-strip certificate is proved for n = 2 only; at n = 3 the
    # pair goes to the (a, b) grid, which cannot certify HOLDS.
    verdict = convex_check(HazardVector((2.0, 2.0, 2.0)), HazardVector((1.0, 2.0, 3.0)))
    assert verdict.status is not Status.FAILS
    assert verdict.certificate is None
