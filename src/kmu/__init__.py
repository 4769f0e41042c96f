"""Exact-arithmetic models of non-Sasakian (kappa,mu)-spaces.

Builds the Lie-group model family on rational parameters, derives its
connection, curvature and contact tensors exactly, and certifies the
structural identities, deformation behavior and Legendrian submanifold
classifications as zero-residual assertions.
"""

from .connection import (
    ConnectionTable,
    CurvatureTable,
    levi_civita,
    riemann,
    sectional_curvature,
)
from .contact import (
    ClosedFormRows,
    ContactStructure,
    ModelInvariants,
    attach_h,
    build_contact_structure,
    closed_form_plane,
    extract_kappa_mu,
    verify_identities,
)
from .deformation import d_homothetic, predicted_invariants
from .errors import KmuError
from .liealg import LieAlgebraModel, bracket, build_boeckx_model, check_jacobi
from .linalg import Mat, Vec, inner, rat, rat_str, solve_diagonal_metric
from .pipeline import StructureAnalysis, analyze_structure
from .submanifold import (
    DistributionSpec,
    SubmanifoldGeometry,
    analyze_submanifold,
    build_distribution,
    second_fundamental_form,
    split_h,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedFormRows",
    "ConnectionTable",
    "ContactStructure",
    "CurvatureTable",
    "DistributionSpec",
    "KmuError",
    "LieAlgebraModel",
    "Mat",
    "ModelInvariants",
    "StructureAnalysis",
    "SubmanifoldGeometry",
    "Vec",
    "analyze_structure",
    "analyze_submanifold",
    "attach_h",
    "bracket",
    "build_boeckx_model",
    "build_contact_structure",
    "build_distribution",
    "check_jacobi",
    "closed_form_plane",
    "d_homothetic",
    "extract_kappa_mu",
    "inner",
    "levi_civita",
    "predicted_invariants",
    "rat",
    "rat_str",
    "riemann",
    "second_fundamental_form",
    "sectional_curvature",
    "solve_diagonal_metric",
    "split_h",
    "verify_identities",
]
