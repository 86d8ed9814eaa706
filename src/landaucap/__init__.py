"""Spectral tails of weighted Landau-level compressions, monic orthogonal
polynomials, and logarithmic capacity, cross-checked against each other.

Three quantity families that share one n-th root limit:

* eigenvalues s_n of the compression of a compactly supported weight onto a
  Landau level (``landau``),
* minimal L^2 norms M_n of monic polynomials against the weight
  (``orthopoly``),
* the logarithmic capacity of the support, from Symm's integral equation
  for its equilibrium measure (``chebyshev``).

``verify`` bundles the cross-check suites, ``cli`` the batch front end.
"""

from .chebyshev import CapacityEstimate, capacity_estimate
from .errors import DegenerateMomentError, NonConvergenceError
from .landau import (
    LandauBasisSpec,
    LevelBlock,
    ToeplitzSpectrum,
    level_q_matrix,
    radial_oracle,
    spectrum,
    theorem_predictions,
    toeplitz_spectrum,
)
from .orthopoly import (
    MonicOrthoBasis,
    RhoEstimate,
    monic_orthogonalize,
    rho_estimates,
)
from .region import (
    Annulus,
    Disc,
    Polygon,
    UnionRegion,
    affine,
    bounding_radius,
    capacity_known,
    contains,
    region_from_config,
    region_key,
)
from .verify import CheckResult, SUITE_NAMES, run_suite
from .weight import (
    Chord,
    Constant,
    MomentTable,
    Power,
    Weight,
    ball_reduction_weight,
    mixed_moments,
    weight_from_config,
    weight_key,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "CapacityEstimate",
    "CheckResult",
    "Chord",
    "Constant",
    "DegenerateMomentError",
    "Disc",
    "LandauBasisSpec",
    "LevelBlock",
    "MomentTable",
    "MonicOrthoBasis",
    "NonConvergenceError",
    "Polygon",
    "Power",
    "RhoEstimate",
    "SUITE_NAMES",
    "ToeplitzSpectrum",
    "UnionRegion",
    "Weight",
    "affine",
    "ball_reduction_weight",
    "bounding_radius",
    "capacity_estimate",
    "capacity_known",
    "contains",
    "level_q_matrix",
    "mixed_moments",
    "monic_orthogonalize",
    "radial_oracle",
    "region_from_config",
    "region_key",
    "rho_estimates",
    "run_suite",
    "spectrum",
    "theorem_predictions",
    "toeplitz_spectrum",
    "weight_from_config",
    "weight_key",
    "__version__",
]
