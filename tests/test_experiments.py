import math
import tracemalloc

import numpy as np
import pytest

from hausdorff_op import experiments, geometry
from hausdorff_op.experiments import (
    TOLERANCES,
    evaluate_field,
    interior_points,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
)
from hausdorff_op.field import (
    ScalarField,
    gaussian,
    gaussian_times_poly,
    lp_norm,
    polynomial,
    sobolev_norm,
)
from hausdorff_op.geometry import ball, box, build_grid_quadrature, truncated_space
from hausdorff_op.isometry import (
    IsometryFamily,
    finite_group_family,
    haar_orthogonal_sample,
    motion_family,
    rotation_family,
    shift_family,
)
from hausdorff_op.measure_kernel import (
    Kernel,
    explicit_measure,
    gauss_legendre_panels,
    kernel_form,
    kernel_from_values,
    kernel_l1_norm,
    kernel_on_measure,
)
from hausdorff_op.operator import HausdorffOperator


def _identity_operator(dimension, domain):
    return HausdorffOperator(
        measure=explicit_measure([0.0], [1.0]),
        kernel=kernel_from_values([1.0]),
        family=motion_family([(np.eye(dimension), None)]),
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
        family=motion_family([(np.eye(2), None)]),
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


def test_bound_rows_with_a_non_finite_side_fail():
    # 1e306 x^2 is finite on [-3, 3], but its square is not: inf <= inf
    # proves nothing.  Under numpy's default error state the overflow is a
    # warning; the CLI stops at it instead
    dom = box([-3.0], [3.0])
    quad = build_grid_quadrature(dom, 64)
    f = polynomial([0.0, 0.0, 1e306])
    with np.errstate(over="ignore"):
        ev = evaluate_field(_sign_flip_operator(dom), f, quad, gradients=True)
        reports = [run(ev, p) for run in (run_lp_bound, run_sobolev_bound) for p in (1.0, 2.0)]
    finite = [math.isfinite(r.lhs) and math.isfinite(r.rhs) for r in reports]
    assert finite == [True, False, True, False]
    assert [r.passed for r in reports] == [True, False, True, False]


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
    constant = kernel_l1_norm(op.kernel, op.measure)
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


def test_gradient_check_skips_near_boundary_points(monkeypatch):
    # a point nearer the boundary than twice the step is never evaluated: the whole
    # check is refused before any operator call, naming that point
    dom = ball([0.0, 0.0], 1.0)
    op = _identity_operator(2, dom)
    f = gaussian([0.0, 0.0], 1.0)
    # a point exactly twice the step inside passes
    report = run_gradient_check(op, f, [[0.0, 0.0], [0.5, 0.0]], step=0.25)
    assert report.resolution == 2
    assert report.notes == ""

    def called(*args, **kwargs):
        raise AssertionError("the operator was called")

    monkeypatch.setattr(HausdorffOperator, "apply_gradient_many", called)
    monkeypatch.setattr(HausdorffOperator, "push", called)
    # the second point lies 1e-6 inside the unit ball, nearer than twice the step
    pts = np.array([[0.0, 0.0], [0.999999, 0.0], [0.3, 0.3]])
    with pytest.raises(ValueError, match=r"gradient point 1, \[0\.999999, 0\.0\], lies within "
                                         r"twice the step 1e-05 of the domain's boundary"):
        run_gradient_check(op, f, pts)


def test_gradient_check_requires_surviving_points():
    # every point must survive the boundary rule; a lone point 1e-7 inside does not
    dom = ball([0.0, 0.0], 1.0)
    op = _identity_operator(2, dom)
    pts = np.array([[0.9999999, 0.0]])
    with pytest.raises(ValueError, match=r"gradient point 0, \[0\.9999999, 0\.0\], lies within "):
        run_gradient_check(op, gaussian([0.0, 0.0], 1.0), pts)


# measure preservation


def test_preservation_identity_is_exact():
    region = box([0.0, 0.0], [1.0, 1.0])
    family = motion_family([(np.eye(2), None)])
    report = run_measure_preservation(family, 0, region, 10**4, seed=0)
    assert report.lhs == 0.0
    assert report.bound_constant == 1.0
    assert report.passed
    assert "det defect 0.000e+00" in report.notes


def test_preservation_reflection_passes():
    region = box([-0.5, -0.5], [0.5, 0.5])
    family = motion_family([(np.diag([1.0, -1.0]), None)])
    report = run_measure_preservation(family, 0, region, 10**5, seed=2)
    assert report.passed
    assert report.bound_constant == -1.0
    assert report.resolution == 10**5


def test_preservation_ball_region():
    region = ball([0.3, 0.0], 0.8)
    family = motion_family([(_rotation(0.5), [0.2, -0.1])])
    report = run_measure_preservation(family, 0, region, 10**5, seed=3)
    assert report.passed


def test_preservation_rejects_unbounded_region():
    with pytest.raises(ValueError, match="bounded ball or box"):
        run_measure_preservation(
            motion_family([(np.eye(2), None)]), 0, truncated_space(2.0, 2), 100, seed=0
        )


def test_preservation_rejects_empty_sample():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_measure_preservation(
            motion_family([(np.eye(2), None)]), 0, box([0.0, 0.0], [1.0, 1.0]), 0, seed=0
        )


def _motion(family, member):
    return family.matrices()[member], family.offsets()[member]


def _padded_window(v, b, region):
    """The box around the region and its image, padded by 0.5 on every side."""
    lo_r, hi_r = region.bounding_box()
    (lo_i,), (hi_i,) = region.image_bounds(v[None], b[None])
    return box(np.minimum(lo_r, lo_i) - 0.5, np.maximum(hi_r, hi_i) + 0.5)


def _unchunked_preservation(v, b, region, samples, seed):
    """lhs, rhs and verdict of the Monte Carlo check from whole sample arrays."""
    window = _padded_window(v, b, region)
    pts = window.sample_uniform(samples, seed)
    in_region = _inside(region, pts)
    in_image = _inside(region, (pts - b) @ v)
    frequency = float(in_region.mean())
    sigma = math.sqrt(frequency * (1.0 - frequency) / samples)
    volume = window.volume()
    lhs = abs(float(in_image.mean()) - frequency) * volume
    rhs = TOLERANCES["preservation_sigma"] * sigma * volume
    return lhs, rhs, lhs <= rhs


def _inside(region, pts):
    """Closed membership of whole-array rows, by the row reduction for balls."""
    if region.shape == geometry.BALL:
        return ((pts - region.center) ** 2).sum(axis=1) <= region.radius * region.radius
    lo, hi = region.bounding_box()
    return np.all((lo <= pts) & (pts <= hi), axis=1)


_STREAM_BLOCK = 7


def _preservation_case(n, shape):
    """A region, a 3-member family and the member under test: member 1, with
    a nonzero offset, between two other motions."""
    center = np.linspace(0.2, -0.1, n)
    if shape == "ball":
        region = ball(center, 0.8)
    else:
        region = box(center - 0.6, center + np.linspace(0.4, 0.7, n))
    matrix = haar_orthogonal_sample(n, 1, seed=50 + n)[0]
    offset = 0.1 * np.arange(1.0, n + 1)
    family = IsometryFamily([np.eye(n), matrix, -matrix], [np.zeros(n), offset, -offset])
    return family, 1, region


def _centred_preservation_case(n, shape):
    """An origin-centred region and a rotation with a zero offset."""
    if shape == "ball":
        region = ball(np.zeros(n), 0.8)
    else:
        half = np.linspace(0.4, 0.7, n)
        region = box(-half, half)
    return motion_family([(haar_orthogonal_sample(n, 1, seed=60 + n)[0], None)]), 0, region


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", ["ball", "box"])
@pytest.mark.parametrize("samples", [1, _STREAM_BLOCK, 2 * _STREAM_BLOCK,
                                     2 * _STREAM_BLOCK + 1, 1000])
def test_streamed_preservation_matches_unchunked_reference(monkeypatch, n, shape, samples):
    monkeypatch.setattr(experiments, "_SAMPLE_BLOCK", _STREAM_BLOCK)
    # the centred case skips its zero offset and, for a ball, its zero centre
    for family, member, region in (_preservation_case(n, shape),
                                   _centred_preservation_case(n, shape)):
        report = run_measure_preservation(family, member, region, samples, seed=n)
        assert (report.lhs, report.rhs, report.passed) == _unchunked_preservation(
            *_motion(family, member), region, samples, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", ["ball", "box"])
def test_member_report_is_the_report_of_its_one_member_family(n, shape):
    family, _, region = _preservation_case(n, shape)
    for member in range(len(family)):
        alone = motion_family([_motion(family, member)])
        assert (run_measure_preservation(family, member, region, 1000, seed=member)
                == run_measure_preservation(alone, 0, region, 1000, seed=member))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_streamed_preimages_keep_the_bits_of_the_whole_product(monkeypatch, n):
    # A lone row must not take the matrix-vector kernel: at n = 4 that moves
    # the last bit of about half the preimages.  2 blocks + 1 samples end in
    # a lone row.
    monkeypatch.setattr(experiments, "_SAMPLE_BLOCK", _STREAM_BLOCK)
    tested = []
    contains_many = geometry.Domain.contains_many

    def recording(self, points):
        if self is region:
            tested.append(np.array(points))
        return contains_many(self, points)

    monkeypatch.setattr(geometry.Domain, "contains_many", recording)
    family, member, region = _preservation_case(n, "ball")
    v, b = _motion(family, member)
    samples = 2 * _STREAM_BLOCK + 1
    for seed in range(6):
        tested.clear()
        run_measure_preservation(family, member, region, samples, seed=seed)
        pts = _padded_window(v, b, region).sample_uniform(samples, seed=seed)
        assert [len(t) for t in tested[0::2]] == [len(t) for t in tested[1::2]]
        assert np.array_equal(np.concatenate(tested[0::2]), pts)
        preimages = (pts - b) @ v
        assert np.array_equal(np.concatenate(tested[1::2]).view(np.uint64),
                              preimages.view(np.uint64)), seed


# necessity divergence


def test_necessity_rejects_integrable_kernels():
    for form in (kernel_form("exp_decay", a=1.0), kernel_form("indicator", lo=0.0, hi=2.0)):
        with pytest.raises(ValueError, match="not a necessity witness"):
            run_necessity_divergence(form, [10.0, 100.0])


def test_necessity_refuses_an_x0_whose_lower_bound_underflows():
    # exp(-2 (x0^2 + 1)) is a positive double for |x0| up to 19.276
    form = kernel_form("power", a=1.0)
    report = run_necessity_divergence(form, [10.0, 100.0], x0=19.0)
    assert report.lower_bound_constant > 0.0
    assert np.all(report.operator_values_at_x0 > 0.0)
    assert math.isfinite(report.growth_factor)
    for x0 in (20.0, -30.0, math.nan):
        with pytest.raises(ValueError, match="underflow to 0"):
            run_necessity_divergence(form, [10.0, 100.0], x0=x0)


def test_necessity_endpoint_validation():
    form = kernel_form("power", a=1.0)
    with pytest.raises(ValueError, match="at least two endpoints"):
        run_necessity_divergence(form, [10.0])
    with pytest.raises(ValueError, match="positive and increasing"):
        run_necessity_divergence(form, [10.0, 5.0])
    with pytest.raises(ValueError, match="positive and increasing"):
        run_necessity_divergence(form, [-1.0, 10.0])


@pytest.mark.parametrize("end, match", [
    (math.inf, "finite"),
    (math.nan, "finite"),
    # streamed, these members would run for days
    (1e13, "80000000000008 witness members, more than the cap of 1000000"),
], ids=["inf", "nan", "past_cap"])
def test_necessity_rejects_unbuildable_endpoints_before_any_work(monkeypatch, end, match):
    def refuse(*args, **kwargs):
        raise AssertionError("a witness block was built")

    monkeypatch.setattr(experiments, "gauss_legendre_panels", refuse)
    with pytest.raises(ValueError, match=match):
        run_necessity_divergence(kernel_form("power", a=1.0), [1.0, end])


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


def test_necessity_operator_carries_the_unsigned_kernel():
    # the lower bound holds for |phi|: a negative kernel gives, bit for bit,
    # the operator values and norms of its absolute value
    ends = [10.0, 100.0, 1000.0]
    negative = run_necessity_divergence(kernel_form("constant", c=-1.0), ends)
    positive = run_necessity_divergence(kernel_form("constant", c=1.0), ends)
    assert np.all(negative.operator_values_at_x0 > 0)
    assert np.array_equal(negative.operator_values_at_x0, positive.operator_values_at_x0)
    assert np.array_equal(negative.l1_norms, positive.l1_norms)


def test_necessity_calls_the_field_once_per_member_block(monkeypatch):
    # counts work, not wall time: each truncation streams its members in
    # blocks of 2^12, one operator and one field call each, not once per member
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
    blocks = [math.ceil(m / 2**12) for m in members]
    assert blocks == [1, 1, 2, 20]
    assert calls_per_apply == [1] * sum(blocks)


def _monolithic_necessity(form, ends, x0, points_per_panel):
    """S_k and H_k with each truncation built whole, from public calls."""
    witness = gaussian(center=[0.0], width=1.0)
    domain = truncated_space(max(2.0, abs(x0) + 2.0), 1)
    norms, values = [], []
    for e in ends:
        measure = gauss_legendre_panels((0.0, e), points_per_panel=points_per_panel)
        kernel = kernel_on_measure(form, measure)
        operator = HausdorffOperator(
            measure=measure,
            kernel=Kernel(values=np.abs(kernel.values)),
            family=shift_family(measure.nodes - np.floor(measure.nodes)),
            domain=domain,
        )
        norms.append(kernel_l1_norm(kernel, measure))
        values.append(operator.apply_many(witness, [[x0]])[0])
    return np.array(norms), np.array(values)


@pytest.mark.parametrize("points_per_panel", [3, 5, 8])
@pytest.mark.parametrize("form, ends, x0", [
    (kernel_form("power", a=1.0), [10.0, 100.0, 1000.0, 10000.0], 0.0),
    # non-integer endpoints, and member counts off the 2^12 block
    (kernel_form("power", a=0.7), [0.25, 7.5, 1234.7, 4097.3], 0.3),
    (kernel_form("constant", c=-2.5), [1.0, 512.0, 513.0], 0.3),
])
def test_necessity_streams_the_bits_of_the_whole_truncations(form, ends, x0, points_per_panel):
    report = run_necessity_divergence(form, ends, x0=x0, points_per_panel=points_per_panel)
    norms, values = _monolithic_necessity(form, ends, x0, points_per_panel)
    assert np.array_equal(report.l1_norms.view(np.uint64), norms.view(np.uint64))
    assert np.array_equal(report.operator_values_at_x0.view(np.uint64), values.view(np.uint64))
    # more of a non-integrable kernel's mass at each endpoint
    assert np.all(np.diff(report.l1_norms) > 0)


def test_necessity_memory_is_flat_in_the_endpoints():
    # 800,080 members: built whole, the truncations peaked at about 60 MiB
    tracemalloc.start()
    try:
        run_necessity_divergence(kernel_form("power", a=1.0), [10.0, 1e5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_necessity_offcenter_base_point_lowers_the_bound():
    report = run_necessity_divergence(
        kernel_form("power", a=1.0), [10.0, 100.0], x0=0.5
    )
    assert report.lower_bound_constant == pytest.approx(math.exp(-2.0 * 1.25))
    assert np.all(report.ratios >= report.lower_bound_constant - 1e-9)


def test_necessity_ratio_check_holds_far_from_the_origin(monkeypatch):
    # at x0 = 5 the bound L = exp(-52) is far below 1e-9, so an absolute
    # slack would pass any ratio; an operator a trillion times too small
    # must still be caught
    form, ends = kernel_form("power", a=1.0), [10.0, 100.0]
    assert run_necessity_divergence(form, ends, x0=5.0).notes.count("ratio") == 0
    apply_many = HausdorffOperator.apply_many
    monkeypatch.setattr(HausdorffOperator, "apply_many",
                        lambda self, *args, **kwargs: apply_many(self, *args, **kwargs) * 1e-12)
    report = run_necessity_divergence(form, ends, x0=5.0)
    assert report.lower_bound_constant == pytest.approx(math.exp(-52.0))
    assert "a ratio fell below the pointwise lower bound" in report.notes


# report helpers


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
