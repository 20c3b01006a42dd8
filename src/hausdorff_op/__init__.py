"""Hausdorff-type operators over Euclidean domains.

Build an operator from a discretized measure, a kernel on its nodes, and a
family of rigid motions; apply it to scalar fields; check the L^p, Sobolev,
gradient, measure-preservation, and divergence properties numerically.

The package root holds the builders a run config names: domains, fields,
motion families, the measure, the kernel, the operator and its quadrature.
Everything else is imported from its module, e.g.
``from hausdorff_op.experiments import run_lp_bound``.
"""

from .field import gaussian, gaussian_times_poly, polynomial
from .geometry import ball, box, build_grid_quadrature, truncated_space
from .isometry import finite_group_family, motion_family, rotation_family, shift_family
from .measure_kernel import discretize, kernel_form, kernel_on_measure
from .operator import HausdorffOperator

__version__ = "0.1.0"
