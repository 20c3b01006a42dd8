"""Numerical experiments checking the operator against its proved bounds.

Each runner produces an :class:`ExperimentReport` with the observed left and
right side of one inequality, the constant that entered the right side, and a
pass flag at the experiment's named tolerance.  All tolerances live in the
TOLERANCES table below, one audit point for every piece of numerical slack
in the package.

The two bound checks read a :class:`FieldEvaluation`: f and Hf (and their
gradients when a Sobolev check needs them) on the nodes of one quadrature,
built by :func:`evaluate_field` with one operator pass.  Every exponent p,
and both checks, reduce those stored arrays, so a field is evaluated once
per (operator, field, quadrature).  The reductions are the ones
:func:`~.field.lp_norm` and :func:`~.field.sobolev_norm` use, so each side
is bitwise equal to ``lp_norm(operator.push(f), p, quad)`` and its kin.
A bound row passes only when both of its sides are finite.
The gradient check takes central differences of ``operator.push(f)``.

The divergence experiment is the odd one out: it reports a sequence (one
value per truncation endpoint) and checks growth rather than a bound, so it
returns a :class:`DivergenceReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
# lp_norm and sobolev_norm are not called here but stay importable from this
# module: bench/tracing.py wraps them under this module's name
from .field import (
    ScalarField,
    gaussian,
    lp_norm,  # noqa: F401
    lp_norm_of_values,
    sobolev_norm,  # noqa: F401
    sobolev_norm_of_arrays,
)
from .geometry import Domain, DomainQuadrature
from .isometry import GROUP_SIZE_CAP, IsometryFamily, shift_family
from .measure_kernel import (
    Kernel,
    KernelForm,
    gauss_legendre_panels,
    kernel_l1_norm,
    kernel_on_measure,
)
from .operator import HausdorffOperator, _rows_times
from .summation import PairwiseStack

# rows per block of the streamed measure-preservation samples
_SAMPLE_BLOCK = 1 << 13
# members per block of a streamed necessity truncation; a power of two, so
# that each block is one subtree of the pairwise sum over all members
_WITNESS_BLOCK = 1 << 12

TOLERANCES = {
    # relative slack on ||Hf||_p <= ||phi||_1 ||f||_p
    "lp_bound": 5e-3,
    # relative slack on the W^{1,p} bound with constant (C n + 1) ||phi||_1
    "sobolev_bound": 5e-3,
    # max relative defect between analytic and finite-difference gradients
    "gradient_check": 1e-5,
    # central finite-difference step for the gradient check
    "gradient_step": 1e-5,
    # sigma multiplier for the Monte Carlo volume comparison
    "preservation_sigma": 3.0,
    # | |det V| - 1 | ceiling for rigid motions
    "determinant": 1e-12,
    # additive slack under the pointwise ratio lower bound
    "necessity_ratio_slack": 1e-9,
    # required growth of the operator value, last endpoint over first; this is
    # the CLI verdict for necessity_divergence and cannot be reached when the
    # kernel mass grows logarithmically (README "Known failure")
    "necessity_growth_factor": 10.0,
    # |S_k - closed form| ceiling for the truncated kernel norms
    "necessity_l1_match": 1e-6,
    # cushion when comparing margins across grid refinement; sized to absorb
    # the boundary-cut noise of tensor-grid quadrature on balls (~1e-7)
    "refinement_slack": 1e-6,
    # exact-identity budget (group invariance, identity operator)
    "exact": 1e-12,
    # agreement with dense trapezoid oracles
    "oracle_match": 1e-6,
}


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one bound check.

    ``resolution`` is nodes per axis for grid experiments and the sample
    count for Monte Carlo ones.  ``p`` is None for experiments that p does
    not parametrize.
    """

    name: str
    p: float | None
    lhs: float
    rhs: float
    bound_constant: float
    margin: float
    resolution: int
    seed: int
    passed: bool
    notes: str = ""


@dataclass(frozen=True)
class DivergenceReport:
    """Truncated kernel norms and operator values for a divergence witness."""

    truncation_points: np.ndarray
    l1_norms: np.ndarray
    operator_values_at_x0: np.ndarray
    lower_bound_constant: float
    ratios: np.ndarray
    growth_factor: float
    passed: bool
    notes: str = ""


@dataclass(frozen=True)
class FieldEvaluation:
    """f and Hf on the nodes of one quadrature, from one operator pass.

    The gradient arrays are None unless the evaluation was built with
    ``gradients=True``.
    """

    operator: HausdorffOperator
    quad: DomainQuadrature
    f_values: np.ndarray
    hf_values: np.ndarray
    f_gradients: np.ndarray | None = None
    hf_gradients: np.ndarray | None = None


def evaluate_field(
    operator: HausdorffOperator, f: ScalarField, quad: DomainQuadrature, gradients: bool = False
) -> FieldEvaluation:
    """Evaluate f and Hf on ``quad.nodes``, with gradients if asked, in one pass each."""
    if not gradients:
        return FieldEvaluation(
            operator, quad, f.values(quad.nodes), operator.apply_many(f, quad.nodes)
        )
    f_values, f_gradients = f.values_and_gradients(quad.nodes)
    hf_values, hf_gradients = operator.apply_and_gradient_many(f, quad.nodes)
    return FieldEvaluation(operator, quad, f_values, hf_values, f_gradients, hf_gradients)


def run_lp_bound(evaluation: FieldEvaluation, p: float, seed: int = 0) -> ExperimentReport:
    """Check ||Hf||_p <= ||phi||_1 * ||f||_p on the evaluation's quadrature."""
    ev = evaluation
    constant = ev.operator.kernel_l1()
    lhs = lp_norm_of_values(ev.hf_values, p, ev.quad)
    rhs = constant * lp_norm_of_values(ev.f_values, p, ev.quad)
    tol = TOLERANCES["lp_bound"]
    return ExperimentReport(
        name="lp_bound",
        p=float(p),
        lhs=lhs,
        rhs=rhs,
        bound_constant=constant,
        margin=rhs - lhs,
        resolution=ev.quad.resolution,
        seed=seed,
        # inf <= inf holds, but an overflowed side proves nothing
        passed=bool(math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * (1.0 + tol)),
    )


def run_sobolev_bound(evaluation: FieldEvaluation, p: float, seed: int = 0) -> ExperimentReport:
    """Check ||Hf||_{W^{1,p}} <= (C n + 1) ||phi||_1 ||f||_{W^{1,p}}.

    The evaluation must carry gradients.  The constant is proved for p = 1;
    for p > 1 the experiment still runs but is informational (the sharp
    constant there is not explicit).
    """
    ev = evaluation
    if ev.f_gradients is None:
        raise ValueError("run_sobolev_bound needs an evaluation built with gradients=True")
    n = ev.operator.dimension
    jac = ev.operator.family.jacobian_bound
    constant = (jac * n + 1.0) * ev.operator.kernel_l1()
    lhs = sobolev_norm_of_arrays(ev.hf_values, ev.hf_gradients, p, ev.quad).sobolev
    rhs = constant * sobolev_norm_of_arrays(ev.f_values, ev.f_gradients, p, ev.quad).sobolev
    tol = TOLERANCES["sobolev_bound"]
    notes = "" if p == 1 else "informative for p > 1; the proved constant applies at p = 1"
    return ExperimentReport(
        name="sobolev_bound",
        p=float(p),
        lhs=lhs,
        rhs=rhs,
        bound_constant=constant,
        margin=rhs - lhs,
        resolution=ev.quad.resolution,
        seed=seed,
        passed=bool(math.isfinite(lhs) and math.isfinite(rhs) and lhs <= rhs * (1.0 + tol)),
        notes=notes,
    )


def interior_points(domain: Domain, count: int, seed: int, margin: float) -> np.ndarray:
    """Seeded uniform points at least ``margin`` inside the domain."""
    return domain.shrink(margin).sample_uniform(count, seed)


def _fd_gradient(f: ScalarField, points: np.ndarray, step: float) -> np.ndarray:
    m, n = points.shape
    out = np.empty((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        out[:, j] = (f.values(points + e) - f.values(points - e)) / (2.0 * step)
    return out


def run_gradient_check(
    operator: HausdorffOperator,
    f: ScalarField,
    points: np.ndarray,
    step: float | None = None,
    seed: int = 0,
) -> ExperimentReport:
    """Compare the analytic gradient of Hf with central finite differences.

    Points within twice the step of the boundary are skipped (noted in the
    report); the defect is |analytic - fd| / (1 + |fd|), maxed over the
    surviving points and axes.
    """
    if step is None:
        step = TOLERANCES["gradient_step"]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    safe = operator.domain.shrink(2.0 * step).contains_many(pts)
    skipped = int((~safe).sum())
    pts = pts[safe]
    if len(pts) == 0:
        raise ValueError("no points remain after skipping near-boundary ones")
    analytic = operator.apply_gradient_many(f, pts)
    fd = _fd_gradient(operator.push(f), pts, step)
    defect = np.abs(analytic - fd) / (1.0 + np.abs(fd))
    lhs = float(defect.max())
    rhs = TOLERANCES["gradient_check"]
    notes = f"{skipped} near-boundary points skipped" if skipped else ""
    return ExperimentReport(
        name="gradient_check",
        p=None,
        lhs=lhs,
        rhs=rhs,
        bound_constant=float("nan"),
        margin=rhs - lhs,
        resolution=len(pts),
        seed=seed,
        passed=bool(lhs <= rhs),
        notes=notes,
    )


def run_measure_preservation(
    family: IsometryFamily, member: int, region: Domain, samples: int, seed: int
) -> ExperimentReport:
    """Monte Carlo check that one member of a family preserves a region's volume.

    The motion is ``family.matrices()[member]`` and ``family.offsets()[member]``:
    taken from a family, V has passed the family's orthogonality check.

    Uniform samples are drawn on the window, the bounding box of the region
    and its image padded by 0.5 on every side; the two hit frequencies must
    agree within the binomial 3 sigma band, and |det V| must equal 1 to
    roundoff.  The samples are ``window.sample_uniform(samples, seed)``,
    drawn and tested in blocks of ``_SAMPLE_BLOCK`` rows that keep only hit
    counts, so memory stays flat in ``samples`` and every count is the one
    the whole array would give.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if region.shape == geometry.TRUNCATED:
        raise ValueError("region must be a bounded ball or box")
    v, b = family.matrices()[member], family.offsets()[member]
    lo_r, hi_r = region.bounding_box()
    (lo_i,), (hi_i,) = region.image_bounds(v[None], b[None])
    window = geometry.box(np.minimum(lo_r, lo_i) - 0.5, np.maximum(hi_r, hi_i) + 0.5)
    volume = window.volume()
    region_hits = image_hits = 0
    for pts in window.sample_blocks(samples, seed, _SAMPLE_BLOCK):
        region_hits += int(np.count_nonzero(region.contains_many(pts)))
        # pts -= b by column, skipping zeros: x - 0 is x up to a zero's sign
        for k in np.flatnonzero(b):
            column = pts[:, k]
            column -= b[k]
        # the preimages (pts - b) V; a lone row keeps the bits it has in a block
        image_hits += int(np.count_nonzero(region.contains_many(_rows_times(pts, v))))
    # a count over samples is bitwise the mean of the boolean array
    frequency = region_hits / samples
    sigma = math.sqrt(frequency * (1.0 - frequency) / samples)
    lhs = abs(image_hits / samples - frequency) * volume
    rhs = TOLERANCES["preservation_sigma"] * sigma * volume
    det = float(np.linalg.det(v))
    det_defect = abs(abs(det) - 1.0)
    det_ok = det_defect <= TOLERANCES["determinant"]
    return ExperimentReport(
        name="measure_preservation",
        p=None,
        lhs=lhs,
        rhs=rhs,
        bound_constant=det,
        margin=rhs - lhs,
        resolution=samples,
        seed=seed,
        passed=bool(lhs <= rhs and det_ok),
        notes=f"det defect {det_defect:.3e}",
    )


def witness_member_count(endpoints, points_per_panel: int) -> int:
    """Shift members of the necessity witness over finite endpoints: one per
    node of the unit panels over [0, e], summed over the endpoints e."""
    return sum(math.ceil(e) * points_per_panel for e in endpoints)


def run_necessity_divergence(
    form: KernelForm,
    endpoints,
    x0: float = 0.0,
    points_per_panel: int = 8,
) -> DivergenceReport:
    """Watch the operator value diverge alongside a non-integrable kernel.

    The kernel is truncated to [0, endpoint_k]; shifts are folded into [0, 1)
    (so the translation bound is 1), and the witness field is the unit
    gaussian.  Because the folded integrand is pointwise at least
    L = exp(-2 (x0^2 + 1)) times |phi|, and H_k is the operator built on
    |phi|, every ratio H_k / S_k must clear L.
    For integer endpoints the unit panels are nested, so every increment of
    kernel mass raises the operator value by at least L times that increment:
    H_{k+1} - H_k >= L (S_{k+1} - S_k), and S_k -> inf drives H_k -> inf.
    Kernels with a finite half-line integral are rejected: truncating them
    proves nothing.  So are non-finite endpoints, and endpoints whose
    truncations have more than ``GROUP_SIZE_CAP`` members in all
    (:func:`witness_member_count`), before any member is built.

    Each truncation streams its members in aligned blocks of
    ``_WITNESS_BLOCK``: a block's panel nodes, kernel, shifts and operator
    are built, its S_k and H_k terms are pushed onto a
    :class:`~.summation.PairwiseStack`, and the block is dropped, so memory
    stays flat in the endpoints and both sums are bitwise those over the
    whole truncation at once.
    """
    if form.integrable_on_halfline:
        raise ValueError(
            f"kernel form {form.description} has a finite L1 norm on [0, inf) "
            f"and is not a necessity witness"
        )
    ends = np.asarray([float(e) for e in endpoints])
    if ends.ndim != 1 or len(ends) < 2:
        raise ValueError("need at least two endpoints")
    # written so that NaN fails
    if not (np.all(np.isfinite(ends) & (ends > 0)) and np.all(np.diff(ends) > 0)):
        raise ValueError(f"endpoints must be finite, positive and increasing, got {ends}")
    points_per_panel = geometry._rule_count(points_per_panel, name="points_per_panel")
    members = witness_member_count(ends, points_per_panel)
    if members > GROUP_SIZE_CAP:
        raise ValueError(
            f"endpoints {ends} with points_per_panel {points_per_panel} give "
            f"{members} witness members, more than the cap of {GROUP_SIZE_CAP}"
        )
    x0 = float(x0)
    translation_bound = 1.0
    lower_bound = math.exp(-2.0 * (x0 * x0 + translation_bound**2))
    witness = gaussian(center=[0.0], width=1.0)
    domain = geometry.truncated_space(max(2.0, abs(x0) + 2.0), 1)
    l1_norms = np.empty(len(ends))
    values = np.empty(len(ends))
    for k, end in enumerate(ends):
        # one shift member per node of the unit panels over [0, end]
        count = math.ceil(end) * points_per_panel
        l1_sum, value_sum = PairwiseStack(), PairwiseStack()
        for start in range(0, count, _WITNESS_BLOCK):
            members = range(start, min(start + _WITNESS_BLOCK, count))
            measure = gauss_legendre_panels((0.0, end), points_per_panel, members)
            kernel = kernel_on_measure(form, measure)
            operator = HausdorffOperator(
                measure=measure,
                kernel=Kernel(values=np.abs(kernel.values)),
                family=shift_family(measure.nodes - np.floor(measure.nodes)),
                domain=domain,
            )
            l1_sum.push(len(members), kernel_l1_norm(kernel, measure))
            value_sum.push(len(members), operator.apply_many(witness, [[x0]])[0])
        l1_norms[k] = l1_sum.total()
        values[k] = value_sum.total()
    ratios = values / l1_norms
    ratio_ok = bool(np.all(ratios >= lower_bound - TOLERANCES["necessity_ratio_slack"]))
    increasing = bool(np.all(np.diff(values) > 0))
    growth = float(values[-1] / values[0])
    growth_ok = growth >= TOLERANCES["necessity_growth_factor"]
    notes = []
    if not ratio_ok:
        notes.append("a ratio fell below the pointwise lower bound")
    if not increasing:
        notes.append("operator values are not strictly increasing")
    if not growth_ok:
        notes.append(
            f"growth factor {growth:.3f} below required "
            f"{TOLERANCES['necessity_growth_factor']:g}"
        )
    return DivergenceReport(
        truncation_points=ends,
        l1_norms=l1_norms,
        operator_values_at_x0=values,
        lower_bound_constant=lower_bound,
        ratios=ratios,
        growth_factor=growth,
        passed=bool(ratio_ok and increasing and growth_ok),
        notes="; ".join(notes),
    )


def margins_non_worsening(reports) -> bool:
    """Whether margins never degrade across a coarse-to-fine report list.

    Allows the refinement_slack roundoff cushion, scaled by the larger of 1
    and the right-hand side.
    """
    reports = list(reports)
    slack = TOLERANCES["refinement_slack"]
    for previous, current in zip(reports, reports[1:]):
        if current.margin < previous.margin - slack * max(1.0, abs(previous.rhs)):
            return False
    return True
