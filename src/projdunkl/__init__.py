"""Projection-difference derivative operators on orthogonal root subsystems.

Exact rational operator calculus (divided differences against wall
projections), the intertwining map and its inverses, the confluent kernel,
and the deformed Fourier transform, plus seeded verification suites.

Importing the package loads none of its modules. The first read of a public
name or a submodule (`projdunkl.MPoly`, `projdunkl.kummer`) imports the
module behind it and binds the result here. The exact layer (`rootgeom`,
`polycore`, `gammaratio`, `opengine`, `intertwine`) needs only the standard
library; numpy loads on the first numeric call. The `projdunkl` command still
loads every module: `cli.build_parser` takes its `--suite` choices from
`suites.SUITE_NAMES`.
"""

import sys

__version__ = "0.1.0"

# module -> the public names it defines; quadrature and cli export none
_EXPORTS = {
    "rootgeom": ("OrthogonalSubsystem", "RationalVector", "build_subsystem_A",
                 "build_subsystem_B", "build_subsystem_coordinate", "project",
                 "reflect"),
    "polycore": ("MPoly", "directional_derivative", "partial_derivative"),
    "gammaratio": ("GammaRatio", "pochhammer"),
    "functions": ("TestFunction", "catalog", "get_function"),
    "opengine": ("apply_T_numeric", "apply_T_poly", "commutator_poly",
                 "laplacian_expanded", "laplacian_sum_sq", "one_var_T",
                 "one_var_T_squared", "rho_poly"),
    "intertwine": ("GPoly", "chi_inverse_numeric", "chi_inverse_one_var",
                   "chi_numeric", "chi_one_var", "chi_poly_scaled", "dual_chi",
                   "ek_left_inverse_D", "erdelyi_kober_I",
                   "erdelyi_kober_I_numeric", "h_map"),
    "kummer": ("MultivarEigenfunction", "bold_M", "bold_M_array",
               "bold_M_derivative", "bold_M_jet", "bold_M_on_imaginary",
               "eigen_multivar", "eigen_rank_one", "generalized_ode_residual",
               "kummer_M"),
    "transform": ("TransformRequest", "kummer_transform", "l1_norm",
                  "transform_csv", "transform_grid", "transform_through_dual"),
    "prng": ("SplitMix64",),
    "suites": ("SUITE_NAMES", "SuiteConfig", "VerificationReport", "run_suites"),
    "quadrature": (),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, so that
    # `python -X importtime` lists the module it loads
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
