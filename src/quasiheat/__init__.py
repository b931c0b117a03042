"""quasiheat: simulate a quasilinear stochastic heat equation driven by
white-in-time, spatially colored noise, and verify numerically that the
gradient of the solution is modelled -- to twice the Hoelder order -- by
basepoint-frozen anisotropic heat equations plus an affine correction."""

from .grid import (
    GridSpec,
    Mollifier,
    ParabolicCylinder,
    SpaceTimeField,
    cc_distance,
    cylinder_samples,
    increment,
    mollify,
    mollify_deriv,
    spectral_gradient,
)
from .noise import NoisePath, NoiseSpec, build_spectrum, covariance_diagnostics
from .nonlinearity import (
    FrozenCoefficient,
    Nonlinearity,
    builtin_family,
    freeze,
    increment_averaged_coefficient,
    linear_family,
    sine_family,
    validate,
)
from .fitting import AffineModel, ScalarAffine, chebyshev_center, fit_affine_gradient, fit_affine_scalar
from .regularity import (
    ModellingReport,
    RegularityParams,
    flux_mismatch,
    holder_seminorm,
    increment_affine_pair,
    increment_constant,
    modelling_remainder,
    time_term_constant,
)
from .solver import (
    Trajectory,
    solve_anisotropic_batch,
    solve_linear_constant,
    solve_nonlinear,
)
from .harness import ExperimentConfig, RunReport, run_experiment

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "Mollifier", "ParabolicCylinder", "SpaceTimeField",
    "cc_distance", "cylinder_samples", "increment", "mollify", "mollify_deriv",
    "spectral_gradient",
    "NoisePath", "NoiseSpec", "build_spectrum", "covariance_diagnostics",
    "FrozenCoefficient", "Nonlinearity", "builtin_family", "freeze",
    "increment_averaged_coefficient", "linear_family", "sine_family", "validate",
    "AffineModel", "ScalarAffine", "chebyshev_center", "fit_affine_gradient",
    "fit_affine_scalar",
    "ModellingReport", "RegularityParams", "flux_mismatch",
    "holder_seminorm", "increment_affine_pair", "increment_constant",
    "modelling_remainder", "time_term_constant",
    "Trajectory", "solve_anisotropic_batch",
    "solve_linear_constant", "solve_nonlinear",
    "ExperimentConfig", "RunReport", "run_experiment",
]
