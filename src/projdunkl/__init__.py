"""Projection-difference derivative operators on orthogonal root subsystems.

Exact rational operator calculus (divided differences against wall
projections), the intertwining map and its inverses, the confluent kernel,
and the deformed Fourier transform, plus seeded verification suites.
"""

from .rootgeom import (
    OrthogonalSubsystem,
    RationalVector,
    build_subsystem_A,
    build_subsystem_B,
    build_subsystem_coordinate,
    project,
    reflect,
)
from .polycore import (
    MPoly,
    directional_derivative,
    partial_derivative,
    poly_eval,
)
from .gammaratio import GammaRatio, pochhammer
from .functions import TestFunction, catalog, get_function
from .opengine import (
    apply_T_numeric,
    apply_T_poly,
    commutator_poly,
    laplacian_expanded,
    laplacian_sum_sq,
    one_var_T,
    one_var_T_squared,
    rho_poly,
)
from .intertwine import (
    GPoly,
    chi_inverse_numeric,
    chi_inverse_one_var,
    chi_numeric,
    chi_one_var,
    chi_poly_scaled,
    dual_chi,
    ek_left_inverse_D,
    erdelyi_kober_I,
    erdelyi_kober_I_numeric,
    h_map,
)
from .kummer import (
    MultivarEigenfunction,
    bold_M,
    bold_M_array,
    bold_M_derivative,
    bold_M_jet,
    bold_M_on_imaginary,
    eigen_multivar,
    eigen_rank_one,
    generalized_ode_residual,
    kummer_M,
)
from .transform import (
    TransformRequest,
    kummer_transform,
    l1_norm,
    transform_csv,
    transform_grid,
    transform_through_dual,
)
from .prng import SplitMix64
from .suites import SUITE_NAMES, SuiteConfig, VerificationReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "OrthogonalSubsystem", "RationalVector",
    "build_subsystem_A", "build_subsystem_B", "build_subsystem_coordinate",
    "project", "reflect",
    "MPoly", "directional_derivative", "partial_derivative", "poly_eval",
    "GammaRatio", "pochhammer",
    "TestFunction", "catalog", "get_function",
    "apply_T_numeric", "apply_T_poly", "commutator_poly", "laplacian_expanded",
    "laplacian_sum_sq", "one_var_T", "one_var_T_squared", "rho_poly",
    "GPoly", "chi_inverse_numeric", "chi_inverse_one_var", "chi_numeric",
    "chi_one_var", "chi_poly_scaled", "dual_chi", "ek_left_inverse_D",
    "erdelyi_kober_I", "erdelyi_kober_I_numeric", "h_map",
    "MultivarEigenfunction", "bold_M", "bold_M_array", "bold_M_derivative",
    "bold_M_jet", "bold_M_on_imaginary", "eigen_multivar", "eigen_rank_one",
    "generalized_ode_residual", "kummer_M",
    "TransformRequest", "kummer_transform", "l1_norm", "transform_csv",
    "transform_grid", "transform_through_dual",
    "SplitMix64",
    "SUITE_NAMES", "SuiteConfig", "VerificationReport", "run_suites",
    "__version__",
]
