"""Exact computation of higher Jacobian matrices and ideals of hypersurface
germs, their Nash blowup and Tjurina algebras, and verification harnesses
for their behaviour under contact equivalence."""

from .algebras import (
    InvariantReport,
    check_inclusions,
    gp_bound,
    invariant_report,
    nash_ideal_m,
    nash_ideal_t,
    tjurina_ideal,
    tjurina_number,
)
from .equivalence import (
    ContactTransform,
    HarnessConfig,
    LocalAutomorphism,
    UnitElement,
    apply_to_ideal,
    check_contact_invariance,
    check_right_covariance,
    check_unit_stability,
    random_automorphism,
    random_unit,
    run_invariance_harness,
    samuel_hypothesis,
)
from .fields import GF, QQ, CoefficientField
from .ideals import (
    INFINITE,
    Ideal,
    MembershipUndecided,
    ReducedStandardBasis,
    maximal_ideal_power,
    weak_normal_form,
)
from .jacobian import (
    JacobianMatrix,
    higher_jacobian_ideal,
    j2_plane_closed_form,
    jac_matrix,
    jacobian_ideal,
)
from .parsing import PolynomialSyntaxError, format_polynomial, parse_polynomial
from .polynomials import (
    Polynomial,
    RingContext,
    multi_indices_in_range,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientField",
    "ContactTransform",
    "GF",
    "HarnessConfig",
    "INFINITE",
    "Ideal",
    "InvariantReport",
    "JacobianMatrix",
    "LocalAutomorphism",
    "MembershipUndecided",
    "Polynomial",
    "PolynomialSyntaxError",
    "QQ",
    "ReducedStandardBasis",
    "RingContext",
    "UnitElement",
    "apply_to_ideal",
    "check_contact_invariance",
    "check_inclusions",
    "check_right_covariance",
    "check_unit_stability",
    "format_polynomial",
    "gp_bound",
    "higher_jacobian_ideal",
    "invariant_report",
    "j2_plane_closed_form",
    "jac_matrix",
    "jacobian_ideal",
    "maximal_ideal_power",
    "multi_indices_in_range",
    "nash_ideal_m",
    "nash_ideal_t",
    "parse_polynomial",
    "random_automorphism",
    "random_unit",
    "run_invariance_harness",
    "samuel_hypothesis",
    "tjurina_ideal",
    "tjurina_number",
    "weak_normal_form",
]
