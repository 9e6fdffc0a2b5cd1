"""The public API: every exported name resolves, every name of the
package namespace is exported by the module that defines it, and the
package's public names are the pinned list."""

import importlib
import pkgutil
import types

import pytest

import xop

# every module but __main__, which runs the command line when imported
MODULES = sorted(f"xop.{info.name}" for info in pkgutil.iter_modules(xop.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES + ["xop"])
def test_every_name_in_all_resolves(name):
    """A star import fails on a name in `__all__` that the module lacks."""
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    exec(f"from {name} import *", {})


def exported(module) -> set:
    """`__all__`, or every public name of a module without one."""
    names = getattr(module, "__all__", None)
    return set(names) if names is not None else {n for n in vars(module) if not n.startswith("_")}


def test_package_names_are_exported_by_their_modules():
    modules = [importlib.import_module(name) for name in MODULES]
    unexported = [
        attr for attr, value in vars(xop).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
        and not any(attr in exported(m) and getattr(m, attr) is value for m in modules)
    ]
    assert not unexported, f"package names no module exports: {unexported}"


# xop's public names, sorted; the surface grows or shrinks only by an edit here
PUBLIC_NAMES = [
    "AccuracyError", "ClassicalJacobi", "ClassicalLaguerre", "ConsistencyError",
    "DEFAULT_TOLERANCES", "DiracOscillator", "DomainError", "EigenPair", "FamilySpec",
    "Grid", "HartmannAngularI", "HartmannAngularII", "HartmannRadial", "HydrogenLike",
    "Jet2", "NumericError", "ParameterError", "Polynomial", "QuadratureRule",
    "ReducedSystem", "SingularityError", "SpectrumResult", "SystemParams", "Tolerances",
    "TridiagonalOperator", "UsageError", "VerificationReport", "X1Jacobi", "X1Laguerre",
    "XopError", "analytic_energy", "degree0_eigenfunction_exists", "discretize",
    "eigen_lowest", "extrapolate", "family_eigenvalue", "family_from_dict",
    "family_members", "family_to_dict", "gauss_jacobi_rule", "gram_matrix",
    "isospectral_compare", "max_offdiag_ratio", "ode_residual", "reduce_system",
    "refine_lowest", "residual_on_operator", "solve_variants", "system_from_dict",
    "system_from_json", "system_to_dict", "wavefunction", "weight", "x1_eigenpairs",
    "x1_jacobi_alpha_beta", "x1_members_and_gram", "x1_polynomial",
]


def test_public_names_are_pinned():
    public = sorted(attr for attr, value in vars(xop).items()
                    if not attr.startswith("_") and not isinstance(value, types.ModuleType))
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert public == PUBLIC_NAMES
