"""Independent brute-force validators for the order checkers.

These deliberately avoid the sign-pattern machinery: they work straight
from the defining properties.  The star order X <= Y means the ratio
R(x) = survival_Y^{-1}(survival_X(x)) / x is increasing; the convex order
means T(x) = survival_Y^{-1}(survival_X(x)) is convex.  Both are checked
on explicit grids via the quantile inversion of the Y system.  Survival
functions themselves are validated against seeded Monte Carlo samples of
the maximum of independent exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import HazardVector, inverse_survival_many, survival

RATIO_DROP_TOL = 1e-9
CONCAVITY_TOL = 1e-9
MIN_SAMPLES = 1000  # fewest Monte Carlo draws mc_survival accepts
MC_GRID_POINTS = 256  # x points at which mc_survival compares the tails


@dataclass(frozen=True)
class GridReport:
    """Grid evaluation of a transform plus the violations it exposes.

    ``monotone_violations`` lists (index, drop) for adjacent decreases of
    the star ratio; ``convexity_violations`` lists (index, dip) for
    negative second differences of the composed transform.  The recorded
    magnitude is the raw drop, resp. |second difference|, at that index.
    """

    grid_x: tuple[float, ...]
    values: tuple[float, ...]
    monotone_violations: tuple[tuple[int, float], ...] = ()
    convexity_violations: tuple[tuple[int, float], ...] = ()

    @property
    def clean(self) -> bool:
        return not self.monotone_violations and not self.convexity_violations


@dataclass(frozen=True)
class McSurvivalReport:
    """Seeded Monte Carlo tail estimate against the analytic survival."""

    rates: tuple[float, ...]
    n_samples: int
    seed: int
    grid_x: tuple[float, ...]
    empirical: tuple[float, ...]
    analytic: tuple[float, ...]
    sup_distance: float


def transform_values(
    lam: HazardVector, theta: HazardVector, grid: np.ndarray
) -> np.ndarray:
    """T(x) = survival_theta^{-1}(survival_lam(x)) on the grid."""
    grid = np.asarray(grid, dtype=float)
    u = survival(lam).eval_many(grid)
    u = np.clip(u, None, 1.0)  # rounding can push survival a hair above 1
    return inverse_survival_many(survival(theta), u)


def star_ratio_oracle(lam: HazardVector, theta: HazardVector, grid: np.ndarray) -> GridReport:
    """Check the star-shape ratio T(x)/x for decreasing stretches.

    Reports every adjacent pair where the ratio falls by more than
    RATIO_DROP_TOL; an increasing ratio is exactly the star order.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    if not (grid[0] > 0.0):
        raise ValueError("star ratio grid must stay strictly positive")
    ratio = transform_values(lam, theta, grid) / grid
    drops = ratio[:-1] - ratio[1:]
    bad = np.nonzero(drops > RATIO_DROP_TOL)[0]
    return GridReport(
        grid_x=tuple(float(x) for x in grid),
        values=tuple(float(v) for v in ratio),
        monotone_violations=tuple((int(i), float(drops[i])) for i in bad),
    )


def convexity_oracle(
    lam: HazardVector,
    theta: HazardVector,
    grid: np.ndarray,
    concavity_tol: float = CONCAVITY_TOL,
) -> GridReport:
    """Check the composed transform for concave stretches.

    Requires a uniform grid; reports every interior point whose second
    difference of T is below ``-concavity_tol``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    steps = np.diff(grid)
    h = steps[0]
    if h <= 0.0 or not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("second differences need a uniform, increasing grid")
    values = transform_values(lam, theta, grid)
    d2 = values[2:] - 2.0 * values[1:-1] + values[:-2]
    bad = np.nonzero(d2 < -concavity_tol)[0]
    return GridReport(
        grid_x=tuple(float(x) for x in grid),
        values=tuple(float(v) for v in values),
        convexity_violations=tuple((int(i) + 1, float(-d2[i])) for i in bad),
    )


def mc_survival(h: HazardVector, n_samples: int, seed: int) -> McSurvivalReport:
    """Monte Carlo validation of the analytic survival function.

    Samples the system lifetime as the maximum of inverse-CDF exponential
    draws from a seeded generator, then returns the sup over a grid of
    MC_GRID_POINTS points of |empirical tail - analytic survival|.
    Identical inputs give an identical report.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, h.n))
    draws = -np.log1p(-u) / np.asarray(h.rates)  # inverse CDF per component
    lifetimes = np.sort(draws.max(axis=1))

    surv = survival(h)
    x_hi = -np.log(1e-4) / h.rates[0]  # past this both tails are < 1e-4-ish
    grid = np.linspace(0.0, float(x_hi), MC_GRID_POINTS)
    analytic = surv.eval_many(grid)
    empirical = 1.0 - np.searchsorted(lifetimes, grid, side="right") / n_samples
    sup = float(np.max(np.abs(empirical - analytic)))
    return McSurvivalReport(
        rates=h.rates,
        n_samples=n_samples,
        seed=seed,
        grid_x=tuple(float(x) for x in grid),
        empirical=tuple(float(v) for v in empirical),
        analytic=tuple(float(v) for v in analytic),
        sup_distance=sup,
    )


def zoomed_concavity_grid(window: tuple[float, float], points: int = 10_000) -> np.ndarray:
    """Uniform grid over a reported concavity window."""
    lo, hi = window
    if not (0.0 <= lo < hi):
        raise ValueError("window must satisfy 0 <= lo < hi")
    return np.linspace(lo, hi, points)
