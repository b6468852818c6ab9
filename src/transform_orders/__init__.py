"""Transform-order comparison of parallel exponential systems.

Decides, numerically and with analytic certificates where available,
whether the lifetimes of parallel systems of independent exponential
components are ordered in the star or convex transform sense, and
constructs certified convex-order violations where they exist.
"""

from .expsum import (
    ExpSum,
    RootScan,
    RootScanInconclusive,
    ScanOptions,
    SignPattern,
    SignRegion,
    canonicalize,
    count_roots,
    sign_pattern,
    sign_patterns,
)
from .oracle import (
    GridReport,
    McSurvivalReport,
    convexity_oracle,
    mc_survival,
    star_ratio_oracle,
    transform_values,
    zoomed_concavity_grid,
)
from .orders import (
    CounterexampleReport,
    OrderOptions,
    OrderVerdict,
    RegionLabel,
    SignMap,
    Status,
    ViolationSearchError,
    Witness,
    convex_check,
    convex_check_at,
    dVda,
    region_classify,
    sign_map,
    star_check,
    star_check_n,
    survival_gap,
    violation_search,
)
from .systems import (
    HazardVector,
    SurvivalUnderflow,
    failure_rate,
    inverse_survival,
    inverse_survival_many,
    majorizes,
    survival,
)

__version__ = "0.1.0"

__all__ = [
    "ExpSum",
    "RootScan",
    "RootScanInconclusive",
    "ScanOptions",
    "SignPattern",
    "SignRegion",
    "canonicalize",
    "count_roots",
    "sign_pattern",
    "sign_patterns",
    "GridReport",
    "McSurvivalReport",
    "convexity_oracle",
    "mc_survival",
    "star_ratio_oracle",
    "transform_values",
    "zoomed_concavity_grid",
    "CounterexampleReport",
    "OrderOptions",
    "OrderVerdict",
    "RegionLabel",
    "SignMap",
    "Status",
    "ViolationSearchError",
    "Witness",
    "convex_check",
    "convex_check_at",
    "dVda",
    "region_classify",
    "sign_map",
    "star_check",
    "star_check_n",
    "survival_gap",
    "violation_search",
    "HazardVector",
    "SurvivalUnderflow",
    "failure_rate",
    "inverse_survival",
    "inverse_survival_many",
    "majorizes",
    "survival",
]
