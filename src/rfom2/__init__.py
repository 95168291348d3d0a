"""Recycled/augmented Krylov subspace approximation of f(A) b."""

from .arnoldi import ArnoldiDecomposition, LinearOperator, arnoldi, as_operator
from .core import (
    FunctionUndefined,
    IllConditionedEigenbasis,
    NoConvergence,
    NoSeparatingContour,
    ParseError,
    RFOMError,
    RankDeficient,
    SingularMatrix,
    SingularPencil,
    SingularProjector,
    SingularShift,
    SingularSystem,
    UnknownFunction,
    UnsupportedFormat,
    ZeroRhs,
    eig_dense,
    generalized_eig,
    lu_solve,
    svd_values,
)
from .engines import (
    FunctionSpec,
    RecycleSubspace,
    arnoldi_direct,
    arnoldi_quad,
    augmented_basis,
    rfom_v1,
    rfom_v2,
    rfom_v3,
)
from .problems import (
    ProblemSequence,
    function_catalog,
    gen_convection_diffusion_2d,
    gen_graded_hermitian,
    gen_laplacian_2d,
    gen_perturbation_sequence,
    load_matrix_market,
    oracle_funm,
    save_matrix_market,
)
from .quadrature import CircleContour, QuadratureRule, guarded_contour, \
    stieltjes_invsqrt, suggest_contour, trapezoid_contour
from .recycling import harmonic_ritz_pencil, harmonic_ritz_update, subspace_angle

__version__ = "0.1.0"
