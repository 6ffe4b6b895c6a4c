"""Exact arithmetic for second-order homogeneous Hamiltonian operators.

The package constructs the operators from a constant fully skew tensor and a
constant skew matrix, relates them to constant 3-forms one dimension up,
generates the compatible quasilinear conservative systems, and verifies the
structural identities of that family (compatibility, Pfaffian flux
denominators, perfect-square characteristic polynomials, torsion tensors,
pointwise eigenstructure).  All core computations run over the rationals.
"""

from .poly import MultiPoly, lowest_terms, poly_gcd, rat
from .linalg import (
    PolyMatrix,
    det_bareiss,
    pfaffian,
    pfaffian_adjugate,
)
from .threeform import (
    LinearMapN1,
    ThreeForm,
    chart_restrict,
    embed,
    pullback,
)
from .operators import (
    Hho2,
    ValidationReport,
    conformal_check,
    conformal_determinant_check,
    transform,
    validate,
)
from .systems import (
    CompatReport,
    ConservativeSystem,
    DegenerateOperatorError,
    FluxParams,
    casimir_check,
    check_compat,
    check_compat_rational,
    euler_check,
    family_parameter_count,
    generate_flux,
    hamiltonian_density,
    linearity_report,
    pluecker_relations,
    random_flux_params,
)
from .diagnostics import (
    DiagnosticsReport,
    charpoly_at,
    charpoly_square_at,
    charpoly_square_symbolic,
    diag_check,
    factor_univariate,
    haantjes,
    nijenhuis,
    nijenhuis_closed_form,
    run_diagnostics,
    sample_points,
    sqrt_charpoly_at,
    tensor_is_zero,
    tensor_nonzero_count,
)
from .catalog import N8_CLASS_COUNT, CatalogEntry, build, get_entry, list_entries

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "lowest_terms",
    "poly_gcd",
    "rat",
    "PolyMatrix",
    "det_bareiss",
    "pfaffian",
    "pfaffian_adjugate",
    "LinearMapN1",
    "ThreeForm",
    "chart_restrict",
    "embed",
    "pullback",
    "Hho2",
    "ValidationReport",
    "conformal_check",
    "conformal_determinant_check",
    "transform",
    "validate",
    "CompatReport",
    "ConservativeSystem",
    "DegenerateOperatorError",
    "FluxParams",
    "casimir_check",
    "check_compat",
    "check_compat_rational",
    "euler_check",
    "family_parameter_count",
    "generate_flux",
    "hamiltonian_density",
    "linearity_report",
    "pluecker_relations",
    "random_flux_params",
    "DiagnosticsReport",
    "charpoly_at",
    "charpoly_square_at",
    "charpoly_square_symbolic",
    "diag_check",
    "factor_univariate",
    "haantjes",
    "nijenhuis",
    "nijenhuis_closed_form",
    "run_diagnostics",
    "sample_points",
    "sqrt_charpoly_at",
    "tensor_is_zero",
    "tensor_nonzero_count",
    "N8_CLASS_COUNT",
    "CatalogEntry",
    "build",
    "get_entry",
    "list_entries",
    "__version__",
]
