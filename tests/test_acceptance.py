"""End-to-end gate: one test per advertised guarantee, in order.

The 20-config bound suite is frozen here: 7 shift configs on the 1-D
truncated window and 13 Haar rotation configs (n = 2, 3) on balls of
radius 3, covering every kernel form and measure scheme.  Field widths
and centers sit in the band where resolution 32 is already converged
(narrower fields alias the coarse grid; centers past norm 0.3 push mass
into the ball's boundary-cut noise).
"""
import json
import math
import time

import numpy as np
import pytest

from hausdorff_op.cli import main
from hausdorff_op.experiments import (
    TOLERANCES,
    ExperimentReport,
    evaluate_field,
    interior_points,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
)
from hausdorff_op.field import (
    gaussian,
    gaussian_times_poly,
    lp_norm,
    polynomial,
    sobolev_norm,
)
from hausdorff_op.geometry import ball, build_grid_quadrature, truncated_space
from hausdorff_op.isometry import (
    finite_group_family,
    haar_orthogonal_sample,
    motion_family,
    rotation_family,
    shift_family,
)
from hausdorff_op.measure_kernel import (
    explicit_measure,
    finite_group_uniform_measure,
    gauss_legendre_measure,
    kernel_form,
    kernel_from_values,
    kernel_l1_norm,
    kernel_on_measure,
    monte_carlo_measure,
)
from hausdorff_op.operator import HausdorffOperator

LINE = truncated_space(8.0, 1)
BALL2 = ball([0.0, 0.0], 3.0)
BALL3 = ball([0.0, 0.0, 0.0], 3.0)

SHIFT_CONFIGS = [
    # label, measure spec, kernel form, field center, field width
    ("s1", ("gl", 0.0, 1.0, 12), ("exp_decay", {"a": 1.0}), [0.0], 2.4),
    ("s2", ("gl", 0.0, 1.0, 16), ("power", {"a": 1.0}), [0.5], 2.6),
    ("s3", ("gl", 0.0, 2.0, 12), ("constant", {"c": 0.7}), [-0.5], 3.0),
    ("s4", ("gl", 0.0, 1.0, 8), ("indicator", {"lo": 0.0, "hi": 1.0}), [1.0], 2.4),
    ("s5", ("mc", 0.0, 1.0, 16, 21), ("exp_decay", {"a": 2.0}), [0.0], 2.5),
    ("s6", ("gl", 0.0, 1.0, 12), ("power", {"a": 1.5}), [-0.8], 2.8),
    ("s7", ("gl", 0.0, 4.0, 10), ("power", {"a": 2.0}), [0.3], 2.4),
]

ROTATION_CONFIGS = [
    # label, n, family seed, measure spec, kernel form, center, width
    ("r1", 2, 101, ("uniform", 64), ("constant", {"c": 1.0}), [0.0, 0.0], 0.8),
    ("r2", 2, 102, ("gl", 0.0, 1.0, 64), ("exp_decay", {"a": 1.0}), [0.2, -0.2], 0.85),
    ("r3", 2, 103, ("gl", 0.0, 1.0, 64), ("power", {"a": 1.0}), [0.0, 0.0], 0.7),
    ("r4", 2, 104, ("gl", 0.0, 2.0, 64), ("exp_decay", {"a": 0.5}), [0.25, 0.1], 0.9),
    ("r5", 2, 105, ("gl", 0.0, 1.0, 64), ("indicator", {"lo": 0.2, "hi": 0.8}), [-0.2, 0.2], 0.85),
    ("r6", 2, 106, ("gl", 0.0, 1.0, 64), ("constant", {"c": 0.3}), [0.1, 0.25], 0.92),
    ("r7", 2, 107, ("mc", 0.0, 1.0, 64, 33), ("exp_decay", {"a": 1.0}), [-0.2, 0.2], 0.88),
    ("t1", 3, 201, ("uniform", 64), ("constant", {"c": 1.0}), [0.0, 0.0, 0.0], 0.8),
    ("t2", 3, 202, ("gl", 0.0, 1.0, 64), ("exp_decay", {"a": 1.0}), [0.2, -0.1, 0.1], 0.85),
    ("t3", 3, 203, ("gl", 0.0, 1.0, 64), ("power", {"a": 1.0}), [0.0, 0.2, 0.0], 0.8),
    ("t4", 3, 204, ("gl", 0.0, 2.0, 64), ("exp_decay", {"a": 2.0}), [0.15, 0.15, -0.1], 0.9),
    ("t5", 3, 205, ("gl", 0.0, 1.0, 64), ("constant", {"c": 0.6}), [-0.2, 0.0, 0.2], 0.85),
    ("t6", 3, 206, ("mc", 0.0, 1.0, 64, 44), ("power", {"a": 1.5}), [0.1, -0.2, 0.15], 0.88),
]


def _measure(spec):
    kind = spec[0]
    if kind == "uniform":
        return finite_group_uniform_measure(spec[1])
    if kind == "gl":
        return gauss_legendre_measure((spec[1], spec[2]), spec[3])
    return monte_carlo_measure((spec[1], spec[2]), spec[3], seed=spec[4])


@pytest.fixture(scope="module")
def bound_suite():
    suite = []
    for label, mspec, (kname, kargs), center, width in SHIFT_CONFIGS:
        measure = _measure(mspec)
        op = HausdorffOperator(
            measure=measure,
            kernel=kernel_on_measure(kernel_form(kname, **kargs), measure),
            family=shift_family(measure.nodes),
            domain=LINE,
        )
        suite.append((label, 1, op, gaussian(center, width)))
    for label, n, fseed, mspec, (kname, kargs), center, width in ROTATION_CONFIGS:
        measure = _measure(mspec)
        op = HausdorffOperator(
            measure=measure,
            kernel=kernel_on_measure(kernel_form(kname, **kargs), measure),
            family=rotation_family(n, 64, seed=fseed),
            domain=BALL2 if n == 2 else BALL3,
        )
        suite.append((label, n, op, gaussian(center, width)))
    return suite


@pytest.fixture(scope="module")
def grid():
    cache = {}

    def get(domain, resolution):
        key = (id(domain), resolution)
        if key not in cache:
            cache[key] = build_grid_quadrature(domain, resolution)
        return cache[key]

    return get


def test_single_node_identity_reproduces_fields():
    start = time.perf_counter()
    domain = truncated_space(4.0, 2)
    quad = build_grid_quadrature(domain, 48)
    pts = interior_points(domain, 100, seed=11, margin=1e-6)
    measure = explicit_measure([0.0], [1.0])
    op = HausdorffOperator(
        measure=measure,
        kernel=kernel_from_values([1.0]),
        family=motion_family([(np.eye(2), None)]),
        domain=domain,
    )
    fields = [
        gaussian([0.4, -0.2], 0.9),
        polynomial([[1.0, 3.0], [2.0, 4.0]]),
        gaussian_times_poly([0.1, 0.2], 1.1, [[0.5, 1.0], [1.5, 0.0]]),
    ]
    exact = TOLERANCES["exact"]
    for f in fields:
        assert np.abs(op.apply_many(f, pts) - f.values(pts)).max() <= exact
        assert np.abs(op.apply_gradient_many(f, pts) - f.gradients(pts)).max() <= exact
        hf = op.push(f)
        for p in (1.0, 2.0):
            direct = lp_norm(f, p, quad)
            assert abs(lp_norm(hf, p, quad) - direct) <= exact * max(1.0, direct)
        pushed = sobolev_norm(hf, 1.0, quad).sobolev
        direct = sobolev_norm(f, 1.0, quad).sobolev
        assert abs(pushed - direct) <= exact * max(1.0, direct)
    assert time.perf_counter() - start < 1.0


def _margins_non_worsening(reports) -> bool:
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


def test_lp_contraction_holds_across_config_suite(bound_suite, grid):
    start = time.perf_counter()
    for label, _, op, f in bound_suite:
        evaluations = [evaluate_field(op, f, grid(op.domain, res)) for res in (32, 64, 128)]
        for p in (1.0, 2.0, 4.0):
            reports = [run_lp_bound(evaluation, p) for evaluation in evaluations]
            assert reports[1].passed, f"{label} p={p}: lhs {reports[1].lhs:.6e} rhs {reports[1].rhs:.6e}"
            margins = [r.margin for r in reports]
            assert _margins_non_worsening(reports), f"{label} p={p}: margins {margins}"
    assert time.perf_counter() - start < 120.0


def test_w11_bound_holds_at_p1_across_config_suite(bound_suite, grid):
    start = time.perf_counter()
    rel = TOLERANCES["sobolev_bound"]
    for label, n, op, f in bound_suite:
        quad = grid(op.domain, 64)
        report = run_sobolev_bound(evaluate_field(op, f, quad, gradients=True), 1.0)
        assert report.passed, f"{label}: lhs {report.lhs:.6e} rhs {report.rhs:.6e}"
        budget = (n + 1) * kernel_l1_norm(op.kernel, op.measure) * sobolev_norm(f, 1.0, quad).sobolev
        assert report.lhs <= budget * (1.0 + rel), label
    assert time.perf_counter() - start < 120.0


def test_analytic_gradient_matches_finite_differences(bound_suite):
    start = time.perf_counter()
    for i, (label, _, op, f) in enumerate(bound_suite):
        pts = interior_points(op.domain, 50, seed=7000 + i, margin=1e-3)
        report = run_gradient_check(op, f, pts)
        assert report.resolution == 50, label
        assert report.passed, f"{label}: defect {report.lhs:.3e}"
    assert time.perf_counter() - start < 30.0


def test_rigid_motions_preserve_region_volume():
    start = time.perf_counter()
    mc_passes = 0
    det_passes = 0
    for i in range(10):
        n = 2 if i < 5 else 3
        matrix = haar_orthogonal_sample(n, 1, seed=900 + i)[0]
        offset = 0.1 * np.arange(1.0, n + 1) * (-1.0) ** i
        region = ball([0.3, -0.2] if n == 2 else [0.2, 0.0, -0.1], 1.0 if n == 2 else 0.8)
        report = run_measure_preservation(
            motion_family([(matrix, offset)]), 0, region, samples=1_000_000, seed=3000 + i
        )
        mc_passes += int(report.passed)
        det_passes += int(abs(abs(report.bound_constant) - 1.0) <= TOLERANCES["determinant"])
    assert mc_passes >= 8, f"{mc_passes}/10 volume matches"
    assert det_passes == 10
    assert time.perf_counter() - start < 60.0


def test_group_averaging_is_invariant_and_bounded():
    start = time.perf_counter()
    domain = ball([0.0, 0.0], 2.0)
    f = gaussian_times_poly([0.2, -0.1], 1.0, [[0.0, 1.0], [1.0, 0.5]])
    pts = interior_points(domain, 40, seed=19, margin=1e-6)
    # only the cyclic group takes an order
    for kind, order in (("sign_flips", None), ("cyclic_rotation_2d", 8),
                        ("signed_permutations", None)):
        family, measure = finite_group_family(kind, 2, order)
        avg = HausdorffOperator(measure, kernel_from_values(np.ones(len(family))), family, domain)
        base = avg.apply_many(f, pts)
        for matrix, offset in zip(avg.family.matrices(), avg.family.offsets()):
            moved = pts @ matrix.T + offset
            shifted = avg.apply_many(f, moved)
            assert np.abs(shifted - base).max() <= TOLERANCES["exact"], kind
    avg = HausdorffOperator(finite_group_uniform_measure(4096), kernel_from_values(np.ones(4096)),
                            rotation_family(2, 4096, 5), domain)
    coordinate = polynomial([[0.0, 0.0], [1.0, 0.0]])
    for x in pts[:5]:
        # averaging the first coordinate over random rotations: mean 0,
        # per-sample variance ||x||^2 / 2
        sigma = float(np.linalg.norm(x)) / math.sqrt(2.0 * 4096.0)
        assert abs(avg.apply_many(coordinate, [x])[0]) <= 3.0 * sigma
    quad = build_grid_quadrature(domain, 64)
    report = run_sobolev_bound(evaluate_field(avg, f, quad, gradients=True), 1.0)
    assert report.passed
    budget = 3.0 * sobolev_norm(f, 1.0, quad).sobolev
    assert report.lhs <= budget * (1.0 + TOLERANCES["sobolev_bound"])
    assert time.perf_counter() - start < 30.0


def test_nonintegrable_kernel_drives_operator_growth():
    start = time.perf_counter()
    report = run_necessity_divergence(kernel_form("power", a=1.0), [10.0, 1e2, 1e3, 1e4])
    ends = report.truncation_points
    assert np.abs(report.l1_norms - np.log1p(ends)).max() <= TOLERANCES["necessity_l1_match"]
    lower = math.exp(-2.0)
    assert report.lower_bound_constant == pytest.approx(lower)
    # the library's relative rule: ratios >= lower * (1 - slack)
    assert np.all(report.ratios >= lower * (1.0 - TOLERANCES["necessity_ratio_slack"]))
    assert np.all(np.diff(report.operator_values_at_x0) > 0.0)
    assert time.perf_counter() - start < 30.0
    # the unit panels of consecutive endpoints are nested, so each increment of
    # H is the sum of w phi f over the added nodes, where f >= exp(-2): every
    # increment of kernel mass raises H by at least exp(-2) times that
    # increment, and S_k -> inf drives H_k -> inf. The tenfold
    # necessity_growth_factor is not asserted here: H_k is sandwiched between
    # e^-1 S_k and S_k, and S_k = ln(1+k) itself grows only 3.84x from 10 to
    # 10^4, so that gate stays the CLI verdict (README "Known failure")
    increments = np.diff(report.operator_values_at_x0)
    floor = report.lower_bound_constant * (1.0 - TOLERANCES["necessity_ratio_slack"])
    required = floor * np.diff(report.l1_norms)
    assert np.all(increments >= required), (
        f"operator increments {increments} below the kernel-mass bound {required}"
    )


def test_shift_apply_matches_dense_trapezoid_oracle():
    start = time.perf_counter()
    pairs = [
        ((0.0, 2.0), ("exp_decay", {"a": 1.0}), lambda u: np.exp(-u), gaussian([0.0], 1.0), 0.3),
        ((0.0, 1.0), ("power", {"a": 1.0}), lambda u: 1.0 / (1.0 + u), gaussian([0.5], 0.8), -0.2),
        ((0.0, 3.0), ("constant", {"c": 0.7}), lambda u: np.full_like(u, 0.7), gaussian([-0.3], 1.2), 0.1),
        ((0.2, 0.8), ("indicator", {"lo": 0.2, "hi": 0.8}), lambda u: np.ones_like(u), gaussian([0.2], 0.9), 0.4),
        ((0.0, 4.0), ("power", {"a": 2.0}), lambda u: (1.0 + u) ** -2.0, gaussian([1.0], 1.5), -0.5),
    ]
    for (lo, hi), (kname, kargs), phi, f, x in pairs:
        measure = gauss_legendre_measure((lo, hi), 64)
        op = HausdorffOperator(
            measure=measure,
            kernel=kernel_on_measure(kernel_form(kname, **kargs), measure),
            family=shift_family(measure.nodes),
            domain=LINE,
        )
        u = np.linspace(lo, hi, 1_000_001)
        oracle = np.trapezoid(phi(u) * f.values((x + u).reshape(-1, 1)), u)
        assert abs(op.apply_many(f, [[x]])[0] - oracle) <= TOLERANCES["oracle_match"], kname
    assert time.perf_counter() - start < 30.0


def test_cli_reruns_produce_byte_identical_output(tmp_path):
    config = {
        "dimension": 2,
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 3.0},
        "family": {"kind": "rotations_haar", "count": 64, "seed": 7},
        "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 64},
        "kernel": {"name": "exp_decay", "a": 1.0},
        "fields": [
            {"kind": "gaussian", "center": [0.2, -0.2], "width": 0.85},
            {"kind": "gaussian", "center": [0.0, 0.0], "width": 0.8},
        ],
        "p": [1.0, 2.0],
        "resolution": 32,
        "seed": 9,
        "experiments": [
            "lp_bound",
            "sobolev_bound",
            "gradient_check",
            "measure_preservation",
            "necessity_divergence",
        ],
        "experiment_options": {
            "preservation_samples": 50000,
            "preservation_members": 4,
            "necessity": {
                "kernel": {"name": "power", "a": 1.0},
                "endpoints": [10.0, 100.0],
                "points_per_panel": 8,
            },
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    outs = [tmp_path / "a", tmp_path / "b"]
    codes = [main(["run", str(path), "--out", str(out)]) for out in outs]
    # the truncated-growth gate fails by design, so both runs exit 1
    assert codes == [1, 1]
    for name in ("results.csv", "divergence.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# the margin check of test_lp_contraction_holds_across_config_suite


def _report(margin, rhs=1.0):
    return ExperimentReport(
        name="lp_bound",
        p=1.0,
        lhs=rhs - margin,
        rhs=rhs,
        bound_constant=1.0,
        margin=margin,
        resolution=32,
        seed=0,
        passed=True,
    )


def test_margins_non_worsening_accepts_roundoff():
    assert _margins_non_worsening([_report(0.5), _report(0.5 - 1e-10), _report(0.7)])


def test_margins_non_worsening_rejects_degradation():
    assert not _margins_non_worsening([_report(0.5), _report(0.4)])


def test_margins_non_worsening_scales_slack_with_rhs():
    big = 1e6
    reports = [_report(0.5, rhs=big), _report(0.5 - 1e-4, rhs=big)]
    assert _margins_non_worsening(reports)
