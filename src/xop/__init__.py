"""xop: exceptional (X1) orthogonal polynomials, rationally extended
isospectral potentials, and the numerical machinery to verify both."""

from .calculus import Jet2
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    ParameterError,
    SingularityError,
    UsageError,
    XopError,
)
from .exceptional import (
    ClassicalJacobi,
    ClassicalLaguerre,
    EigenPair,
    FamilySpec,
    X1Jacobi,
    X1Laguerre,
    degree0_eigenfunction_exists,
    family_eigenvalue,
    family_from_dict,
    family_members,
    family_to_dict,
    gram_matrix,
    max_offdiag_ratio,
    ode_residual,
    weight,
    x1_eigenpairs,
    x1_jacobi_alpha_beta,
    x1_members_and_gram,
    x1_polynomial,
)
from .polynomials import Polynomial
from .quadrature import QuadratureRule, gauss_jacobi_rule
from .spectral import (
    Grid,
    SpectrumResult,
    TridiagonalOperator,
    discretize,
    eigen_lowest,
    extrapolate,
    refine_lowest,
    residual_on_operator,
)
from .systems import (
    DiracOscillator,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    ReducedSystem,
    SystemParams,
    analytic_energy,
    reduce_system,
    system_from_dict,
    system_from_json,
    system_to_dict,
    wavefunction,
)
from .verify import (
    DEFAULT_TOLERANCES,
    Tolerances,
    VerificationReport,
    isospectral_compare,
    solve_variants,
)

__version__ = "0.1.0"
