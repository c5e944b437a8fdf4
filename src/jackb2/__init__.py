"""Jack polynomials, a two-variable integral product identity, and the
generalized Bessel function of type B2.

The package provides exact (rational-arithmetic) construction of Jack
polynomials, numerical quadrature for the symmetric Jacobi weight, the
eigenvalue-split product identity with its rotation-average cross-check,
Dunkl operators of type B2, and three independent representations of the
generalized Bessel function, together with a verification CLI (``jackb2``).
"""

from .bessel import (
    Multiplicity,
    OrderResolutionError,
    PoleError,
    Poly2,
    bessel_b2_double_integral,
    bessel_b2_series,
    bessel_b2_series_trunc,
    bessel_i_norm,
    bessel_product_identity,
    bessel_rotation_symmetry,
    check_rotation_intertwining,
    dunkl_apply,
    hyp0f1_single_integral,
    hyp0f1_two,
    limit_transition,
    resolve_double_integral_order,
    verify_derived_route,
    verify_limit_transition,
    verify_series_vs_double_integral,
    verify_single_integral,
)
from .jack import (
    JackPolynomial,
    jack_p,
    jack_p_at_ones,
    jack_p_two_var,
    jack_recursion_lift,
)
from .partitions import (
    Partition,
    eigenvalue_e,
    parse_partition,
    parse_scalar,
    partitions_of_weight,
    rising_factorial,
)
from .product import (
    SplitPair,
    VerificationReport,
    eigen_split,
    make_report,
    product_lhs,
    product_rhs,
    rotation_conjugate_eigs,
    verify_product,
    verify_zonal,
    zonal_so2_average,
)
from .quadrature import (
    QuadratureRule,
    gauss_jacobi_rule,
    normalization_c,
)
from .sympoly import (
    MonomialExpansion,
    apply_lb_operator,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "JackPolynomial",
    "MonomialExpansion",
    "Multiplicity",
    "OrderResolutionError",
    "Partition",
    "PoleError",
    "Poly2",
    "QuadratureRule",
    "SplitPair",
    "VerificationReport",
    "apply_lb_operator",
    "bessel_b2_double_integral",
    "bessel_b2_series",
    "bessel_b2_series_trunc",
    "bessel_i_norm",
    "bessel_product_identity",
    "bessel_rotation_symmetry",
    "check_rotation_intertwining",
    "dunkl_apply",
    "eigen_split",
    "eigenvalue_e",
    "evaluate",
    "gauss_jacobi_rule",
    "hyp0f1_single_integral",
    "hyp0f1_two",
    "jack_p",
    "jack_p_at_ones",
    "jack_p_two_var",
    "jack_recursion_lift",
    "limit_transition",
    "make_report",
    "normalization_c",
    "parse_partition",
    "parse_scalar",
    "partitions_of_weight",
    "product_lhs",
    "product_rhs",
    "resolve_double_integral_order",
    "rising_factorial",
    "rotation_conjugate_eigs",
    "verify_derived_route",
    "verify_limit_transition",
    "verify_product",
    "verify_series_vs_double_integral",
    "verify_single_integral",
    "verify_zonal",
    "zonal_so2_average",
]
