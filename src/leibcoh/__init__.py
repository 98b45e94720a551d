"""Exact cohomology and deformation calculus for finite-dimensional
Leibniz and Lie algebras, over the Gaussian rationals.

Everything here computes with exact arithmetic; no floats are involved
anywhere, so every dimension and every basis vector reported is provable.
"""

from .algebras import (
    AlgebraSpec,
    StructureReport,
    catalog,
    catalog_names,
    change_basis,
    validate,
)
from .cochains import (
    ClassCoordinates,
    CochainScheme,
    CohomologySpace,
    cocycle_basis,
    graded_cohomology,
)
from .deformations import (
    Deformation,
    MasseyReport,
    ObstructionClass,
    ObstructionContext,
    ProductRecord,
    VersalReport,
    bracket2,
    classify3,
    comp2,
    family_deformation,
    massey_products,
    mu0_cochain,
    verify_versal,
)
from .families import (
    ParamAlgebra,
    family_catalog,
    family_names,
    jacobi_defect,
    leibniz_defect_sym,
    specialize,
)
from .formats import (
    FormatError,
    algebra_to_document,
    cochain_entries,
    dumps_canonical,
    family_to_document,
    parse_document,
)
from .koszul import (
    Degree2Decomposition,
    KoszulData,
    UncouplingReport,
    decompose_degree2,
    invariant_forms,
    koszul_data,
    koszul_matrix,
    uncoupling_report,
)
from .linalg import Matrix, Subspace, kernel, image
from .polynomials import Poly, format_poly, parse_poly
from .scalars import ONE, Scalar, format_scalar, parse_scalar, scalar

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "StructureReport",
    "catalog",
    "catalog_names",
    "change_basis",
    "validate",
    "ClassCoordinates",
    "CochainScheme",
    "CohomologySpace",
    "cocycle_basis",
    "graded_cohomology",
    "Deformation",
    "MasseyReport",
    "ObstructionClass",
    "ObstructionContext",
    "ProductRecord",
    "VersalReport",
    "bracket2",
    "classify3",
    "comp2",
    "family_deformation",
    "massey_products",
    "mu0_cochain",
    "verify_versal",
    "ParamAlgebra",
    "family_catalog",
    "family_names",
    "jacobi_defect",
    "leibniz_defect_sym",
    "specialize",
    "FormatError",
    "algebra_to_document",
    "cochain_entries",
    "dumps_canonical",
    "family_to_document",
    "parse_document",
    "Degree2Decomposition",
    "KoszulData",
    "UncouplingReport",
    "decompose_degree2",
    "invariant_forms",
    "koszul_data",
    "koszul_matrix",
    "uncoupling_report",
    "Matrix",
    "Subspace",
    "kernel",
    "image",
    "Poly",
    "format_poly",
    "parse_poly",
    "ONE",
    "Scalar",
    "format_scalar",
    "parse_scalar",
    "scalar",
    "__version__",
]
