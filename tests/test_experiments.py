import math

import numpy as np
import pytest

from hausdorff_op.experiments import (
    TOLERANCES,
    ExperimentReport,
    evaluate_field,
    interior_points,
    margins_non_worsening,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
)
from hausdorff_op.field import ScalarField, gaussian, gaussian_times_poly, lp_norm, sobolev_norm
from hausdorff_op.geometry import ball, box, build_grid_quadrature, truncated_space
from hausdorff_op.isometry import (
    finite_group_family,
    make_isometry,
    motion_family,
    rotation_family,
)
from hausdorff_op.measure_kernel import (
    explicit_measure,
    kernel_form,
    kernel_from_values,
)
from hausdorff_op.operator import HausdorffOperator


def _identity_operator(dimension, domain):
    return HausdorffOperator(
        measure=explicit_measure([0.0], [1.0]),
        kernel=kernel_from_values([1.0]),
        family=motion_family([make_isometry(np.eye(dimension))]),
        domain=domain,
    )


def _sign_flip_operator(domain):
    family, measure = finite_group_family("sign_flips", domain.dimension)
    return HausdorffOperator(
        measure=measure,
        kernel=kernel_from_values(np.ones(len(measure))),
        family=family,
        domain=domain,
    )


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# lp bound


def test_lp_bound_identity_operator_is_tight():
    dom = ball([0.0, 0.0], 2.0)
    op = _identity_operator(2, dom)
    quad = build_grid_quadrature(dom, 24)
    report = run_lp_bound(evaluate_field(op, gaussian([0.2, 0.0], 0.8), quad), 2.0)
    assert report.passed
    assert report.bound_constant == 1.0
    assert abs(report.margin) <= 1e-12
    assert report.margin == report.rhs - report.lhs
    assert report.name == "lp_bound"
    assert report.p == 2.0
    assert report.resolution == 24


def test_lp_bound_scales_with_kernel_mass():
    dom = ball([0.0, 0.0], 2.0)
    quad = build_grid_quadrature(dom, 24)
    f = gaussian([0.2, 0.0], 0.8)
    base = run_lp_bound(evaluate_field(_identity_operator(2, dom), f, quad), 1.0)
    scaled_op = HausdorffOperator(
        measure=explicit_measure([0.0], [1.0]),
        kernel=kernel_from_values([7.0]),
        family=motion_family([make_isometry(np.eye(2))]),
        domain=dom,
    )
    scaled = run_lp_bound(evaluate_field(scaled_op, f, quad), 1.0)
    assert scaled.lhs == pytest.approx(7.0 * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(7.0 * base.rhs, rel=1e-12)
    assert scaled.bound_constant == 7.0


def test_lp_bound_rotation_family_passes():
    dom = ball([0.0, 0.0], 3.0)
    op = HausdorffOperator(
        measure=explicit_measure(np.arange(8.0), np.full(8, 1.0 / 8)),
        kernel=kernel_from_values(np.linspace(0.5, 1.5, 8)),
        family=rotation_family(2, 8, seed=5),
        domain=dom,
    )
    quad = build_grid_quadrature(dom, 48)
    for p in (1.0, 2.0, 4.0):
        report = run_lp_bound(evaluate_field(op, gaussian([0.2, -0.1], 0.5), quad), p)
        assert report.passed, (p, report.margin)


def test_lp_bound_odd_field_maps_to_zero():
    dom = truncated_space(8.0, 1)
    op = _sign_flip_operator(dom)
    quad = build_grid_quadrature(dom, 64)
    f = gaussian_times_poly([0.0], 1.0, [0.0, 1.0])
    report = run_lp_bound(evaluate_field(op, f, quad), 1.0)
    assert report.lhs == 0.0
    assert report.passed


# sobolev bound


def test_sobolev_identity_margin_is_n_times_norm():
    dom = ball([0.0, 0.0], 2.0)
    op = _identity_operator(2, dom)
    quad = build_grid_quadrature(dom, 24)
    f = gaussian([0.1, 0.2], 0.9)
    report = run_sobolev_bound(evaluate_field(op, f, quad, gradients=True), 1.0)
    norm = sobolev_norm(f, 1.0, quad).sobolev
    assert report.bound_constant == pytest.approx(3.0, abs=1e-12)
    assert report.margin == pytest.approx(2.0 * norm, rel=1e-12)
    assert report.notes == ""
    assert report.passed


def test_sobolev_p_above_one_is_flagged_informative():
    dom = ball([0.0, 0.0], 2.0)
    op = _identity_operator(2, dom)
    quad = build_grid_quadrature(dom, 16)
    f = gaussian([0.0, 0.0], 1.0)
    report = run_sobolev_bound(evaluate_field(op, f, quad, gradients=True), 2.0)
    assert "informative" in report.notes
    assert "p = 1" in report.notes


def test_sobolev_rotation_family_respects_constant():
    dom = ball([0.0, 0.0], 3.0)
    op = HausdorffOperator(
        measure=explicit_measure(np.arange(8.0), np.full(8, 1.0 / 8)),
        kernel=kernel_from_values(np.ones(8)),
        family=rotation_family(2, 8, seed=5),
        domain=dom,
    )
    quad = build_grid_quadrature(dom, 48)
    f = gaussian([0.2, -0.1], 0.5)
    report = run_sobolev_bound(evaluate_field(op, f, quad, gradients=True), 1.0)
    jac = op.family.jacobian_bound
    assert report.bound_constant == pytest.approx((2 * jac + 1) * 1.0, rel=1e-12)
    assert report.bound_constant <= 3.0 + 1e-9
    assert report.passed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evaluation_sides_equal_the_norms_bitwise(n):
    dom = ball([0.0] * n, 2.0)
    op = HausdorffOperator(
        measure=explicit_measure(np.arange(6.0), np.full(6, 1.0 / 6)),
        kernel=kernel_from_values(np.linspace(0.5, 1.5, 6)),
        family=rotation_family(n, 6, seed=9),
        domain=dom,
    )
    quad = build_grid_quadrature(dom, 12)
    f = gaussian_times_poly([0.1] * n, 0.8, np.full((2,) * n, 0.3))
    values_only = evaluate_field(op, f, quad)
    assert values_only.f_gradients is None and values_only.hf_gradients is None
    with pytest.raises(ValueError, match="gradients=True"):
        run_sobolev_bound(values_only, 1.0)
    evaluation = evaluate_field(op, f, quad, gradients=True)
    constant = op.kernel_l1()
    sobolev_constant = (op.family.jacobian_bound * n + 1.0) * constant
    for p in (1.0, 2.0, 4.0):
        for ev in (values_only, evaluation):
            report = run_lp_bound(ev, p)
            assert report.lhs == lp_norm(op.push(f), p, quad)
            assert report.rhs == constant * lp_norm(f, p, quad)
        report = run_sobolev_bound(evaluation, p)
        assert report.lhs == sobolev_norm(op.push(f), p, quad).sobolev
        assert report.rhs == sobolev_constant * sobolev_norm(f, p, quad).sobolev


# gradient check


def test_gradient_check_identity_operator():
    dom = ball([0.0, 0.0], 2.0)
    op = _identity_operator(2, dom)
    pts = interior_points(dom, 50, seed=3, margin=0.05)
    report = run_gradient_check(op, gaussian([0.3, -0.2], 1.1), pts)
    assert report.lhs <= 1e-6
    assert report.passed
    assert report.notes == ""
    assert report.resolution == 50
    assert math.isnan(report.bound_constant)


def test_gradient_check_reflection_pair():
    dom = truncated_space(8.0, 1)
    op = _sign_flip_operator(dom)
    pts = np.linspace(-1.5, 1.5, 40)[:, None]
    report = run_gradient_check(op, gaussian_times_poly([0.2], 1.0, [1.0, 1.0]), pts)
    assert report.passed
    assert report.lhs <= 1e-6


def test_gradient_check_skips_near_boundary_points():
    dom = ball([0.0, 0.0], 1.0)
    op = _identity_operator(2, dom)
    pts = np.array([[0.0, 0.0], [0.999999, 0.0], [0.3, 0.3]])
    report = run_gradient_check(op, gaussian([0.0, 0.0], 1.0), pts)
    assert report.notes == "1 near-boundary points skipped"
    assert report.resolution == 2
    assert report.passed


def test_gradient_check_requires_surviving_points():
    dom = ball([0.0, 0.0], 1.0)
    op = _identity_operator(2, dom)
    pts = np.array([[0.9999999, 0.0]])
    with pytest.raises(ValueError, match="no points remain"):
        run_gradient_check(op, gaussian([0.0, 0.0], 1.0), pts)


# measure preservation


def test_preservation_identity_is_exact():
    region = box([0.0, 0.0], [1.0, 1.0])
    report = run_measure_preservation(make_isometry(np.eye(2)), region, 10**4, seed=0)
    assert report.lhs == 0.0
    assert report.bound_constant == 1.0
    assert report.passed
    assert "det defect 0.000e+00" in report.notes


def test_preservation_rotation_in_given_window():
    region = box([-0.5, -0.5], [0.5, 0.5])
    window = box([-3.0, -3.0], [3.0, 3.0])
    iso = make_isometry(_rotation(1.0))
    report = run_measure_preservation(iso, region, 10**6, seed=1, window=window)
    assert report.passed
    assert report.resolution == 10**6


def test_preservation_reflection_passes():
    region = box([-0.5, -0.5], [0.5, 0.5])
    iso = make_isometry(np.diag([1.0, -1.0]))
    report = run_measure_preservation(iso, region, 10**5, seed=2)
    assert report.passed
    assert report.bound_constant == -1.0


def test_preservation_ball_region():
    region = ball([0.3, 0.0], 0.8)
    iso = make_isometry(_rotation(0.5), [0.2, -0.1])
    report = run_measure_preservation(iso, region, 10**5, seed=3)
    assert report.passed


def test_preservation_window_must_cover_image():
    region = box([0.0, 0.0], [1.0, 1.0])
    window = box([0.0, 0.0], [1.0, 1.0])
    iso = make_isometry(np.eye(2), [2.0, 0.0])
    with pytest.raises(ValueError, match="escapes the window"):
        run_measure_preservation(iso, region, 100, seed=0, window=window)


def test_preservation_rejects_unbounded_region():
    with pytest.raises(ValueError, match="bounded ball or box"):
        run_measure_preservation(
            make_isometry(np.eye(2)), truncated_space(2.0, 2), 100, seed=0
        )


def test_preservation_rejects_empty_sample():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_measure_preservation(
            make_isometry(np.eye(2)), box([0.0, 0.0], [1.0, 1.0]), 0, seed=0
        )


# necessity divergence


def test_necessity_rejects_integrable_kernels():
    for form in (kernel_form("exp_decay", a=1.0), kernel_form("indicator", lo=0.0, hi=2.0)):
        with pytest.raises(ValueError, match="not a necessity witness"):
            run_necessity_divergence(form, [10.0, 100.0])


def test_necessity_endpoint_validation():
    form = kernel_form("power", a=1.0)
    with pytest.raises(ValueError, match="at least two endpoints"):
        run_necessity_divergence(form, [10.0])
    with pytest.raises(ValueError, match="positive and increasing"):
        run_necessity_divergence(form, [10.0, 5.0])
    with pytest.raises(ValueError, match="positive and increasing"):
        run_necessity_divergence(form, [-1.0, 10.0])


def test_necessity_power_kernel_tracks_log():
    report = run_necessity_divergence(kernel_form("power", a=1.0), [10.0, 100.0, 1000.0])
    want = np.log1p([10.0, 100.0, 1000.0])
    assert np.abs(report.l1_norms - want).max() <= TOLERANCES["necessity_l1_match"]
    assert report.lower_bound_constant == pytest.approx(math.exp(-2.0))
    assert np.all(report.ratios >= report.lower_bound_constant - 1e-9)
    assert np.all(report.ratios <= 1.0 + 1e-9)
    assert np.all(np.diff(report.operator_values_at_x0) > 0)
    assert report.growth_factor == pytest.approx(
        report.operator_values_at_x0[-1] / report.operator_values_at_x0[0]
    )
    # the truncated value grows like log(endpoint): slower than the tenfold
    # growth gate, which therefore reports a failure by design
    assert report.growth_factor < 10.0
    assert not report.passed
    assert "growth factor" in report.notes


def test_necessity_calls_the_field_once_per_member_block(monkeypatch):
    # counts work, not wall time: each truncation evaluates the witness in
    # blocks of at most 2^14 images, not once per member
    calls_per_apply = []
    apply_many = HausdorffOperator.apply_many
    values = ScalarField.values

    def counted_apply(self, *args, **kwargs):
        calls_per_apply.append(0)
        try:
            return apply_many(self, *args, **kwargs)
        finally:
            calls_per_apply.append(calls_per_apply.pop())

    def counted_values(self, points):
        if calls_per_apply:
            calls_per_apply[-1] += 1
        return values(self, points)

    monkeypatch.setattr(HausdorffOperator, "apply_many", counted_apply)
    monkeypatch.setattr(ScalarField, "values", counted_values)
    ends = [10.0, 100.0, 1000.0, 10000.0]
    run_necessity_divergence(kernel_form("power", a=1.0), ends)
    members = [math.ceil(e) * 8 for e in ends]
    assert sum(members) == 88_880
    assert calls_per_apply == [math.ceil(m / 2**14) for m in members] == [1, 1, 1, 5]


def test_necessity_offcenter_base_point_lowers_the_bound():
    report = run_necessity_divergence(
        kernel_form("power", a=1.0), [10.0, 100.0], x0=0.5
    )
    assert report.lower_bound_constant == pytest.approx(math.exp(-2.0 * 1.25))
    assert np.all(report.ratios >= report.lower_bound_constant - 1e-9)


# report helpers


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
    assert margins_non_worsening([_report(0.5), _report(0.5 - 1e-10), _report(0.7)])


def test_margins_non_worsening_rejects_degradation():
    assert not margins_non_worsening([_report(0.5), _report(0.4)])


def test_margins_non_worsening_scales_slack_with_rhs():
    big = 1e6
    reports = [_report(0.5, rhs=big), _report(0.5 - 1e-4, rhs=big)]
    assert margins_non_worsening(reports)


def test_interior_points_stay_inside():
    dom = ball([0.0, 0.0], 2.0)
    pts = interior_points(dom, 200, seed=9, margin=0.25)
    assert dom.shrink(0.25).contains_many(pts).all()
    assert np.array_equal(pts, interior_points(dom, 200, seed=9, margin=0.25))


def test_tolerance_table_is_complete():
    assert set(TOLERANCES) == {
        "lp_bound",
        "sobolev_bound",
        "gradient_check",
        "gradient_step",
        "preservation_sigma",
        "determinant",
        "necessity_ratio_slack",
        "necessity_growth_factor",
        "necessity_l1_match",
        "refinement_slack",
        "exact",
        "oracle_match",
    }
