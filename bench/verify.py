"""Correctness check of op outputs, independent of the float64 scanner.

Each distinct op's record is judged once, after the timed loop:

* every FAILS witness region is re-evaluated with mpmath at 50 digits and
  must show the reported sign, and the pattern must refute the order;
* a fixed sample of certain sign-map cells must show the mpmath sign;
* every oracle value must be finite, and a fixed sample of them must
  invert the survival;
* the workload's truth table must hold (see ``truth_violation``).
"""

from __future__ import annotations

from itertools import combinations

import mpmath
import numpy as np

DIGITS = 50
SIGN_MAP_SAMPLES = 16
ORACLE_SAMPLES = 8
ORACLE_RESIDUAL = 1e-12


def _survival(rates, x):
    """Exact-input survival of a parallel system by inclusion-exclusion."""
    x = mpmath.mpf(x)
    total = mpmath.mpf(0)
    for k in range(1, len(rates) + 1):
        for subset in combinations(rates, k):
            term = mpmath.exp(-mpmath.fsum(mpmath.mpf(r) for r in subset) * x)
            total += term if k % 2 else -term
    return total


def gap(lam, theta, a, b, x):
    """V(x; a, b) = survival_theta(x) - survival_lam(a*x + b) at 50 digits."""
    with mpmath.workdps(DIGITS):
        ax_b = mpmath.mpf(a) * mpmath.mpf(x) + mpmath.mpf(b)
        return _survival(theta, x) - _survival(lam, ax_b)


def _refutes(kind: str, signs: list[str]) -> bool:
    if kind == "convex_check":
        return len(signs) >= 4 or (len(signs) == 3 and signs[0] == "-")
    return ("+", "-") in zip(signs, signs[1:])  # star order


def check_witness(rec: dict) -> str | None:
    w = rec["witness"]
    signs = [r[0] for r in w["regions"]]
    if not _refutes(rec["op"], signs):
        return f"witness pattern {w['pattern']} does not refute the order"
    for sign, x, _, _ in w["regions"]:
        v = gap(rec["lam"], rec["theta"], w["a"], w["b"], x)
        if not mpmath.isfinite(v) or v == 0 or (v > 0) != (sign == "+"):
            return f"mpmath gap at x={x!r} is {mpmath.nstr(v, 8)}, reported {sign}"
    return None


def _sample(n: int, k: int) -> list[int]:
    return sorted(set(np.linspace(0, n - 1, min(n, k)).round().astype(int).tolist()))


def check_sign_map(rec: dict, smap) -> str | None:
    cells = [(i, j) for i, row in enumerate(smap.signs)
             for j, s in enumerate(row) if s != 0]
    for idx in _sample(len(cells), SIGN_MAP_SAMPLES):
        i, j = cells[idx]
        a, x = smap.a_values[i], smap.x_values[j]
        v = gap(rec["lam"], rec["theta"], a, smap.b, x)
        if not mpmath.isfinite(v) or v == 0 or (1 if v > 0 else -1) != smap.signs[i][j]:
            return f"sign-map cell a={a!r}, x={x!r} has mpmath gap {mpmath.nstr(v, 8)}"
    return None


def check_oracle(rec: dict, report) -> str | None:
    xs, vals = report.grid_x, report.values
    if not np.all(np.isfinite(vals)):
        return "oracle has non-finite transform values"
    for idx in _sample(len(xs), ORACLE_SAMPLES):
        x = xs[idx]
        t = vals[idx] * x if rec["op"] == "star_ratio_oracle" else vals[idx]
        with mpmath.workdps(DIGITS):
            resid = abs(_survival(rec["theta"], t) - _survival(rec["lam"], x))
        if not resid <= ORACLE_RESIDUAL:  # also rejects NaN
            return f"transform at x={x!r} misses the survival by {mpmath.nstr(resid, 5)}"
    return None


def truth_violation(workload: str, rec: dict) -> str | None:
    """The verdicts each workload's inputs admit, from PAPER.md and the
    scale invariance of both orders."""
    op, group, status = rec["op"], rec["group"], rec.get("status")
    if op == "star_ratio_oracle" and not rec["clean"]:
        return "star-ratio oracle flags a majorized pair"
    if status is None:
        return None
    if workload == "majorized-n2" or group == "rescaled":
        if op == "star_check" and status == "FAILS":
            return "star order refuted for a majorized pair"
        if op == "star_check" and workload == "majorized-n2" and status != "HOLDS":
            return "majorized pair lacks the star-order certificate"
        if op == "convex_check" and group == "homogeneous" and status != "HOLDS":
            return "homogeneous base lacks the convex-order certificate"
        if op == "convex_check" and group != "homogeneous" and status == "HOLDS":
            return "convex order claimed for a strictly heterogeneous pair"
    if group == "reversed" and status == "HOLDS":
        return "order claimed for a reversed majorized pair"
    return None


def check(workload: str, rec: dict, result) -> str | None:
    """None when the op's output passes every check, else the first failure."""
    if "error" in rec:
        return rec["error"]
    problem = truth_violation(workload, rec)
    if problem is None and rec.get("status") == "FAILS":
        problem = check_witness(rec)
    if problem is None and rec["op"] == "sign_map":
        problem = check_sign_map(rec, result)
    if problem is None and rec["op"].endswith("_oracle"):
        problem = check_oracle(rec, result)
    return problem
