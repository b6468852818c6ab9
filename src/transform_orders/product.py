"""The gap of two parallel systems of the same three or more components,
evaluated in product form with a certified rounding bound.

A parallel system with rates r_1 <= ... <= r_n has

    F(t) = prod_j (1 - q_j),    S(t) = 1 - F(t) = sum_i q_i prod_{j<i} (1 - q_j),

with q_j = exp(-r_j t): both are products and sums of positive numbers, so
neither cancels.  The gap V(x; a, b) = S_Y(x) - S_X(a x + b), which is also
F_X(a x + b) - F_Y(x), takes 2n exponentials per point this way, against
the 2^(n+1) - 2 terms of its coefficient form, and is the true gap of the
float rates and (a, b): no merged or dropped term stands in for it.

Everything is computed in log scale.  With L_j = log(-expm1(-r_j t)) =
log(1 - q_j) and its prefix sums P_i = L_1 + ... + L_i (P_0 = 0):

- S form (the tail): the terms of S are exp(P_{i-1} - r_i t), taken on the
  shared exponent m = max(-theta_1 x, -lam_1 t), as in ``scaled_rows``;
- F form (near 0): F = exp(P_n), taken on m = max(P_n of X, P_n of Y), so a
  gap of size x^n at x = 1e-300 neither underflows nor loses its sign.

Each returns (s, m, err) with V = s * exp(m) and |rounding| <= err, like
``expsum.scaled_rows``, and each point keeps the form whose bound err *
exp(m) is smaller.  The bound is first order in the unit roundoff u
(eps = 2u), with every source counted once:

- the exp arguments: t = fl(fl(a x) + b) and y = fl(r t) carry a relative
  error eta of 3u on X's side (u on Y's, where t = x), so the term
  exp(-y_i) is off by eta y_i in log scale, and each L_j by at most eta,
  since |dL/dy| y = y / (e^y - 1) <= 1;
- ``expm1``, ``log`` and ``exp``, each within 4 eps of its result:
  4 eps + 4 eps |L_j| for each L_j, and 4 eps for each term;
- the sums in log scale: (k - 1) u |P_k| for the prefix sum of k logs
  (all of one sign), and u times the magnitude of P - y and of the
  argument less m, at most 2u (y_i + |P_{i-1}|) as m <= 0;
- the sum of each survival's n positive terms ((n - 1) u of it), the
  final subtraction (u |s|), and 4n subnormal units for results that
  underflow.

So term i (from 1) is off by at most rho_i = (eta + 2u) y_i
+ (i - 1)(eta + 4 eps) + 4 eps + (5 + (i - 1)/2) eps |P_{i-1}| in log scale,
with eta = 3u on both sides in the second term, and the F form's exp(P_n)
by n (eta + 4 eps) + 4 eps + (5 + n/2) eps |P_n|.  A log-scale error rho
is a relative error e^rho - 1 <= rho e^rho, so each sum of rho-weighted
terms is multiplied by exp(max rho), and a factor 1 + 2^-40 covers the
rounding of the bound's own arithmetic.  A point whose a x or smallest
argument is below 2^-1000, where a product may be subnormal and lose its
relative precision, or whose largest argument overflows, gets err = inf:
its sign stays uncertain.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from .expsum import _EPS, ExpSum, SumBlock, in_blocks

_U = _EPS / 2.0  # unit roundoff
_FN = 4.0 * _EPS  # relative error of numpy's exp, expm1 and log
_NORMAL = 2.0**-1000  # below this, a product of floats may be subnormal
_SUBNORMAL = 2.0**-1074
_SLACK = 1.0 + 2.0**-40  # covers the rounding of the bound's own arithmetic


class ProductGaps(SumBlock):
    """The gaps V(.; a, b) of one pair of systems at a list of (a, b)
    probes: the sums fs[k] (the coefficient form, which still gives each
    scan its structure) evaluated in product form at probes[k].  The
    evaluation reads only the rates and the probes, so a block that is
    only evaluated (a sign map's) passes no sums."""

    def __init__(self, fs: Sequence[ExpSum], lam, theta, probes):
        super().__init__(fs)
        self.lam = np.asarray(lam, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        if self.lam.size != self.theta.size:
            raise ValueError("the product form takes two systems of the same size")
        self.probes = np.asarray(probes, dtype=float).reshape(-1, 2)

    def take(self, ks: Sequence[int]) -> "ProductGaps":
        return ProductGaps([self.fs[k] for k in ks], self.lam, self.theta, self.probes[ks])

    def evaluate(self, xss) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, m, err) of each gap k at its own points xss[k], the rows
        concatenated in order, in blocks of at most _BLOCK (rate, point)
        pairs at the sizes the verdicts take (:func:`expsum.in_blocks`)."""
        a, b = self.probes.T
        return in_blocks(
            lambda k, x: product_block(self.lam, self.theta, a[k], b[k], x), 2 * self.lam.size, xss
        )


def product_block(lam, theta, a, b, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, m, err) of V(x; a, b) = S_Y(x) - S_X(a x + b) at the points x,
    each with its own a and b, for the sorted rate arrays lam (X) and
    theta (Y) of equal length; see the module docstring for both forms and
    the bound.

    The arrays are (rates x 2 points): Y's points, then X's, so each step
    is one operation for both survivals; every sum over the rates adds
    whole rows in order, so no point's result depends on the others."""
    n, p = lam.size, x.size
    with np.errstate(all="ignore"):
        ax = a * x
        y = np.empty((n, 2 * p))
        np.multiply(theta[:, None], x, out=y[:, :p])
        np.multiply(lam[:, None], ax + b, out=y[:, p:])
        ok = None  # every point's products are normal, as almost always
        if not (ax.min() >= _NORMAL and y[0].min() >= _NORMAL and y[-1].max() < np.inf):
            ok = (ax >= _NORMAL) & (np.minimum(y[0, :p], y[0, p:]) >= _NORMAL)
            ok &= np.maximum(y[-1, :p], y[-1, p:]) < np.inf
        logs = np.expm1(-y)
        np.negative(logs, out=logs)
        np.log(logs, out=logs)  # L_j = log(1 - q_j) <= 0

        # S form: the terms exp(g_i - m), g_i = P_{i-1} - y_i, on m = the
        # larger first term; rho_i (row i counted from 0) as in the module
        # docstring.
        g = np.negative(y)
        rho = y
        rho[:, :p] *= 3.0 * _U  # (eta + 2u) y on Y's side
        rho[:, p:] *= 5.0 * _U  # and on X's
        rho += _s_const(n)
        pre = logs[0].copy()
        for i in range(1, n):  # P_i, in order
            g[i] += pre
            rho[i] -= (5.0 + 0.5 * i) * _EPS * pre
            pre += logs[i]
        m_s = np.maximum(g[0, :p], g[0, p:])
        g[:, :p] -= m_s
        g[:, p:] -= m_s
        terms = np.exp(g, out=g)
        rho_max = np.maximum(rho[-1, :p], rho[-1, p:])  # rho_i grows with i
        rho *= terms
        sums = np.add.reduce(terms, axis=0)
        err_s = np.add.reduce(rho, axis=0)
        err_s += (n - 1) * _U * sums
        v_s = sums[:p] - sums[p:]
        err_s = (err_s[:p] + err_s[p:]) * np.exp(rho_max)
        err_s += _U * np.abs(v_s)

        # F form: exp(P_n) of each side on m = the larger of the two.
        m_f = np.maximum(pre[:p], pre[p:])
        rho_f = pre * (-(5.0 + 0.5 * n) * _EPS)
        rho_f[:p] += n * (_U + _FN) + _FN
        rho_f[p:] += n * (3.0 * _U + _FN) + _FN
        pre[:p] -= m_f
        pre[p:] -= m_f
        f = np.exp(pre, out=pre)
        v_f = f[p:] - f[:p]
        rho_max = np.maximum(rho_f[:p], rho_f[p:])
        rho_f *= f
        err_f = (rho_f[:p] + rho_f[p:]) * np.exp(rho_max)
        err_f += _U * np.abs(v_f)

        use_f = err_f * np.exp(m_f - m_s) < err_s
        s, m = np.where(use_f, v_f, v_s), np.where(use_f, m_f, m_s)
        err = np.where(use_f, err_f, err_s)
    err *= _SLACK
    err += 4 * n * _SUBNORMAL
    if ok is not None:  # the points to leave uncertain
        s[~ok], m[~ok], err[~ok] = 0.0, 0.0, np.inf
    return s, m, err


@cache
def _s_const(n: int) -> np.ndarray:
    """The constant part of rho for the rows of an n-rate survival:
    i (eta + 4 eps) + 4 eps for row i from 0, with eta = 3u."""
    return (np.arange(n) * (3.0 * _U + _FN) + _FN)[:, None]

