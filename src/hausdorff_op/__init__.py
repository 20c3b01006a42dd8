"""Hausdorff-type operators over Euclidean domains.

Build an operator from a discretized measure, a kernel on its nodes, and a
family of rigid motions; apply it to scalar fields; check the L^p, Sobolev,
gradient, measure-preservation, and divergence properties numerically.
"""

from .field import (
    NormReport,
    ScalarField,
    custom_field,
    gaussian,
    gaussian_times_poly,
    hajlasz_defect,
    lp_norm,
    lp_norm_of_values,
    polynomial,
    sobolev_norm,
    sobolev_norm_of_arrays,
)
from .geometry import (
    Domain,
    DomainQuadrature,
    ball,
    box,
    build_grid_quadrature,
    gauss_legendre_rule,
    truncated_space,
)
from .isometry import (
    DomainEscapeError,
    Isometry,
    IsometryFamily,
    check_domain_preserving,
    finite_group_family,
    finite_group_size,
    haar_orthogonal,
    haar_orthogonal_sample,
    isometry_defect,
    make_family,
    make_isometry,
    motion_family,
    orthogonality_defect,
    rotation_family,
    shift_family,
)
from .measure_kernel import (
    DiscretizedMeasure,
    Kernel,
    KernelForm,
    discretize,
    explicit_measure,
    finite_group_uniform_measure,
    gauss_legendre_measure,
    gauss_legendre_panels,
    kernel_form,
    kernel_from_values,
    kernel_l1_norm,
    kernel_on_measure,
    monte_carlo_measure,
    truncation_sequence,
)
from .operator import HausdorffOperator, averaging_operator
from .experiments import (
    TOLERANCES,
    DivergenceReport,
    ExperimentReport,
    FieldEvaluation,
    evaluate_field,
    margins_non_worsening,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
)
from .summation import pairwise_sum

__version__ = "0.1.0"
