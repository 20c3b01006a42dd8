import math
import tracemalloc

import numpy as np
import pytest

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
    DomainEscapeError,
    finite_group_family,
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
)
from hausdorff_op import operator as operator_module
from hausdorff_op.operator import HausdorffOperator
from hausdorff_op.summation import pairwise_sum


def _dirac(dimension, domain=None):
    if domain is None:
        domain = truncated_space(50.0, dimension)
    return HausdorffOperator(
        measure=explicit_measure([0.0], [1.0]),
        kernel=kernel_from_values([1.0]),
        family=motion_family([(np.eye(dimension), None)]),
        domain=domain,
    )


def _reflection_pair():
    # (f(x) + f(-x)) / 2 on the line
    return HausdorffOperator(
        measure=explicit_measure([0.0, 1.0], [0.5, 0.5]),
        kernel=kernel_from_values([1.0, 1.0]),
        family=motion_family([([[1.0]], None), ([[-1.0]], None)]),
        domain=truncated_space(20.0, 1),
    )


def _averaging(family, domain):
    # uniform averaging over the family: each member weighs 1 / len(family)
    return HausdorffOperator(
        measure=finite_group_uniform_measure(len(family)),
        kernel=kernel_from_values(np.ones(len(family))),
        family=family,
        domain=domain,
    )


BUILTIN_FIELDS = [
    gaussian([0.1, -0.2], 1.3),
    polynomial([[1.0, 2.0], [0.5, 0.0]]),
    gaussian_times_poly([0.0, 0.0], 1.0, [[0.0, 1.0], [1.0, 0.0]]),
]


# identity behaviour


@pytest.mark.parametrize("f", BUILTIN_FIELDS, ids=lambda f: f.kind)
def test_dirac_identity_is_bitwise(f):
    op = _dirac(2)
    pts = np.random.default_rng(7).normal(size=(100, 2))
    assert np.array_equal(op.apply_many(f, pts), f.values(pts))
    assert np.array_equal(op.apply_gradient_many(f, pts), f.gradients(pts))


def test_dirac_identity_preserves_norms():
    op = _dirac(2, domain=ball([0.0, 0.0], 2.0))
    f = gaussian([0.2, 0.1], 0.9)
    quad = build_grid_quadrature(ball([0.0, 0.0], 2.0), 24)
    for p in (1.0, 2.0):
        assert lp_norm(op.push(f), p, quad) == pytest.approx(
            lp_norm(f, p, quad), abs=1e-12
        )
        got = sobolev_norm(op.push(f), p, quad).sobolev
        assert got == pytest.approx(sobolev_norm(f, p, quad).sobolev, abs=1e-12)


# small closed forms


def test_two_shift_operator_closed_form():
    # H f(x) = 2 f(x) + 3 f(x + 1) = 5x + 3 for f(x) = x
    op = HausdorffOperator(
        measure=explicit_measure([0.0, 1.0], [1.0, 1.0]),
        kernel=kernel_from_values([2.0, 3.0]),
        family=shift_family([[0.0], [1.0]]),
        domain=truncated_space(10.0, 1),
    )
    f = polynomial([0.0, 1.0])
    for x in (0.0, 0.5, 1.0, -2.0, 0.25):
        assert op.apply_many(f, [[x]])[0] == 5.0 * x + 3.0


def test_reflection_pair_closed_forms():
    op = _reflection_pair()
    f = gaussian_times_poly([0.3], 1.0, [0.0, 1.0])
    xs = np.linspace(-1.5, 1.5, 9)[:, None]
    want = 0.5 * (f.values(xs) + f.values(-xs))
    assert op.apply_many(f, xs) == pytest.approx(want, abs=1e-15)
    want_grad = 0.5 * (f.gradients(xs) - f.gradients(-xs))
    assert np.abs(op.apply_gradient_many(f, xs) - want_grad).max() <= 1e-15


def test_exp_kernel_shift_matches_dense_trapezoid():
    # H f(0) = sum w_i e^{-u_i} f(u_i) ~ integral_0^20 e^{-u} e^{-u^2} du
    measure = gauss_legendre_measure((0.0, 20.0), 64)
    op = HausdorffOperator(
        measure=measure,
        kernel=kernel_on_measure(kernel_form("exp_decay", a=1.0), measure),
        family=shift_family(measure.nodes[:, None]),
        domain=truncated_space(25.0, 1),
    )
    value = op.apply_many(gaussian([0.0], 1.0), [[0.0]])[0]
    x = np.linspace(0.0, 20.0, 10**6 + 1)
    y = np.exp(-x) * np.exp(-(x**2))
    oracle = float((0.5 * (y[1:] + y[:-1]) * np.diff(x)).sum())
    assert value == pytest.approx(oracle, abs=1e-6)


# gradients


def test_gradient_matches_finite_differences():
    dom = ball([0.0, 0.0], 3.0)
    op = HausdorffOperator(
        measure=explicit_measure(np.arange(8.0), np.full(8, 1.0 / 8)),
        kernel=kernel_from_values(np.linspace(0.5, 2.0, 8)),
        family=rotation_family(2, 8, seed=31),
        domain=dom,
    )
    f = gaussian([0.3, -0.1], 1.1)
    pts = dom.shrink(0.5).sample_uniform(20, seed=12)
    analytic = op.apply_gradient_many(f, pts)
    step = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (op.apply_many(f, pts + e) - op.apply_many(f, pts - e)) / (2 * step)
        defect = np.abs(analytic[:, j] - fd) / (1.0 + np.abs(fd))
        assert defect.max() <= 1e-5


# push


def test_push_zero_field_has_zero_norm():
    op = _reflection_pair()
    f = 0.0 * gaussian([0.0], 1.0)
    quad = build_grid_quadrature(box([-2.0], [2.0]), 32)
    assert lp_norm(op.push(f), 1.0, quad) == 0.0


def test_push_is_additive():
    op = _reflection_pair()
    f = gaussian([0.4], 0.8)
    g = polynomial([0.0, 0.0, 1.0])
    pts = np.random.default_rng(9).uniform(-2.0, 2.0, (100, 1))
    combined = op.push(f + g).values(pts)
    split = op.push(f).values(pts) + op.push(g).values(pts)
    assert np.abs(combined - split).max() <= 1e-12


def test_push_without_gradient_stays_gradient_free():
    op = _reflection_pair()
    f = 0.0 * gaussian([0.0], 1.0)
    assert op.push(f).has_gradient
    raw = ScalarField(1, lambda pts, gradients: (np.abs(pts[:, 0]), None), has_gradient=False)
    assert not op.push(raw).has_gradient


# linearity and bounds


def test_linearity():
    op = _reflection_pair()
    f = gaussian([0.2], 1.0)
    g = gaussian_times_poly([0.0], 1.5, [1.0, -1.0])
    pts = np.random.default_rng(3).uniform(-1.5, 1.5, (60, 1))
    lhs = op.apply_many(2.5 * f + (-4.0) * g, pts)
    rhs = 2.5 * op.apply_many(f, pts) - 4.0 * op.apply_many(g, pts)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_pointwise_bound_by_kernel_mass():
    measure = explicit_measure([0.0, 1.0, 2.0], [0.5, 1.0, 0.25])
    op = HausdorffOperator(
        measure=measure,
        kernel=kernel_from_values([2.0, -3.0, 1.0]),
        family=shift_family([[0.0], [0.7], [-0.4]]),
        domain=truncated_space(10.0, 1),
    )
    l1 = kernel_l1_norm(op.kernel, op.measure)
    f = gaussian_times_poly([0.1], 0.9, [0.0, 1.0, 0.5])
    rng = np.random.default_rng(17)
    for x in rng.uniform(-2.0, 2.0, 50):
        images = np.array([[x + 0.0], [x + 0.7], [x - 0.4]])
        assert abs(op.apply_many(f, [[x]])[0]) <= l1 * np.abs(f.values(images)).max()


def test_batch_matches_scalar_bitwise():
    op = _reflection_pair()
    f = gaussian([0.3], 1.2)
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, (100, 1))
    batched = op.apply_many(f, pts)
    assert all(batched[k] == op.apply_many(f, [pts[k]])[0] for k in range(len(pts)))


def _rotation_operator(n, count=6, seed=12):
    measure = gauss_legendre_measure((0.0, 1.0), count)
    return HausdorffOperator(
        measure=measure,
        kernel=kernel_on_measure(kernel_form("exp_decay", a=1.0), measure),
        family=rotation_family(n, count, seed=seed),
        domain=ball([0.0] * n, 2.0),
    )


def test_batch_matches_scalar_bitwise_in_three_dimensions():
    op = _rotation_operator(3)
    coeffs = [[[1.0, 0.2], [0.3, 0.0]], [[-0.4, 0.0], [0.0, 0.1]]]
    f = gaussian_times_poly([0.1, -0.2, 0.0], 0.9, coeffs)
    pts = op.domain.shrink(0.1).sample_uniform(40, 6)
    values = op.apply_many(f, pts)
    grads = op.apply_gradient_many(f, pts)
    for k in range(len(pts)):
        assert values[k] == op.apply_many(f, [pts[k]])[0]
        assert np.array_equal(grads[k], op.apply_gradient_many(f, [pts[k]])[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_pass_matches_one_output_views_bitwise(n, monkeypatch):
    op = _rotation_operator(n)
    f = gaussian_times_poly([0.1] * n, 0.9, np.full((3,) * n, 0.2))
    pts = op.domain.shrink(0.05).sample_uniform(101, 8)
    values = op.apply_many(f, pts)
    grads = op.apply_gradient_many(f, pts)
    # blocks of 7 points, the last one holding 3, in the fused and one-output passes
    monkeypatch.setattr(operator_module, "_FIELD_ROWS", 7)
    fused_values, fused_grads = op.apply_and_gradient_many(f, pts)
    assert np.array_equal(fused_values, values)
    assert np.array_equal(fused_grads, grads)
    assert np.array_equal(op.apply_many(f, pts), values)
    assert np.array_equal(op.apply_gradient_many(f, pts), grads)
    pushed = op.push(f).values_and_gradients(pts)
    assert np.array_equal(pushed[0], values)
    assert np.array_equal(pushed[1], grads)


def test_fused_pass_memory_does_not_grow_with_the_members():
    op = _rotation_operator(3, count=64)
    f = gaussian_times_poly([0.1, -0.2, 0.0], 0.9, np.full((3, 3, 3), 0.2))
    pts = op.domain.shrink(0.05).sample_uniform(1 << 14, 3)
    tracemalloc.start()
    try:
        op.apply_and_gradient_many(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the member sum holds log2(64) + 1 partial sums per output, not the
    # 64 x 2^14 x 4 terms (33.5 MB)
    assert peak < 16e6, peak


def _per_member_reference(op, f, pts, coeff):
    """Hf and its gradient by the per-member loop: one product and one field call per member."""

    def times(x, matrix):
        # a lone row is doubled: numpy's matrix-vector kernel rounds differently
        if len(x) == 1 and len(matrix) > 1:
            return (np.concatenate([x, x]) @ matrix)[:1]
        return x @ matrix

    mats, offsets = op.family.matrices(), op.family.offsets()
    value_terms = np.empty((len(op), len(pts)))
    grad_terms = np.empty((len(op), len(pts), op.dimension))
    for i in range(len(op)):
        images = times(pts, mats[i].T) + offsets[i]
        value_terms[i] = coeff[i] * f.values(images)
        grad_terms[i] = coeff[i] * times(f.gradients(images), mats[i])
    return pairwise_sum(value_terms), pairwise_sum(grad_terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_member_blocks_match_the_per_member_loop_bitwise(n, monkeypatch):
    op = _rotation_operator(n, count=7)
    f = gaussian_times_poly([0.1] * n, 0.9, np.full((3,) * n, 0.2))
    pts = op.domain.shrink(0.05).sample_uniform(101, 9)
    coeff = op.measure.weights * op.kernel.values
    want_values, want_grads = _per_member_reference(op, f, pts, coeff)
    # point blocks of 7, the last holding 3, whose 7 members go to 7-row
    # field calls one at a time and two at a time (2, 2, 2, 1) in the last
    monkeypatch.setattr(operator_module, "_FIELD_ROWS", 7)
    rows = []
    values_fn = type(f).values

    def counted(self, points):
        if self is f:  # not the factors' own calls
            rows.append(len(points))
        return values_fn(self, points)

    monkeypatch.setattr(type(f), "values", counted)
    assert np.array_equal(op.apply_many(f, pts), want_values)
    assert max(rows) <= 7 and sum(rows) == len(op) * len(pts)
    assert rows[-4:] == [6, 6, 6, 3]
    assert np.array_equal(op.apply_gradient_many(f, pts), want_grads)
    fused_values, fused_grads = op.apply_and_gradient_many(f, pts)
    assert np.array_equal(fused_values, want_values)
    assert np.array_equal(fused_grads, want_grads)
    # one point at a time: lone rows in every member block
    for k in (0, 50, 100):
        assert op.apply_many(f, [pts[k]])[0] == want_values[k]
        assert np.array_equal(op.apply_gradient_many(f, [pts[k]])[0], want_grads[k])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_contiguous_transposed_stack_keeps_the_bits_of_the_view(n):
    # the operator multiplies points by a C-contiguous V^T stack, which numpy
    # does about 3x faster than by the transposed view of the V stack
    matrices = rotation_family(n, 6, n).matrices() if n > 1 else np.array([[[1.0]], [[-1.0]]])
    view = matrices.transpose(0, 2, 1)
    stack = np.ascontiguousarray(view)
    rng = np.random.default_rng(n)
    for rows in (1, 2, 3, 17, 4096, 16384):
        x = rng.uniform(-2.0, 2.0, (rows, n))
        want = operator_module._rows_times(x, view)
        got = operator_module._rows_times(x, stack)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), rows


def test_one_point_under_many_shifts_matches_the_per_member_loop_bitwise():
    shifts = np.random.default_rng(21).uniform(0.0, 1.0, 10**5)
    measure = explicit_measure(np.linspace(0.0, 50.0, len(shifts)), np.full(len(shifts), 5e-4))
    op = HausdorffOperator(
        measure=measure,
        kernel=kernel_on_measure(kernel_form("power", a=1.0), measure),
        family=shift_family(shifts),
        domain=truncated_space(3.0, 1),
    )
    f = gaussian([0.0], 1.0)
    x0 = np.array([[0.3]])
    coeff = op.measure.weights * op.kernel.values
    want_values, want_grads = _per_member_reference(op, f, x0, coeff)
    assert op.apply_many(f, x0)[0] == want_values[0]
    fused_values, fused_grads = op.apply_and_gradient_many(f, x0)
    assert fused_values[0] == want_values[0]
    assert np.array_equal(fused_grads, want_grads)


# averaging operators


def test_cyclic_averaging_of_x_squared():
    family, _ = finite_group_family("cyclic_rotation_2d", 2, order=4)
    op = _averaging(family, ball([0.0, 0.0], 2.0))
    f = polynomial([[0.0], [0.0], [1.0]])  # x^2
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, (50, 2))
    want = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.abs(op.apply_many(f, pts) - want).max() <= 1e-12


def test_sign_flip_averaging_on_the_line():
    op = _averaging(finite_group_family("sign_flips", 1)[0], truncated_space(10.0, 1))
    f = gaussian_times_poly([0.2], 1.0, [1.0, 1.0])
    xs = np.linspace(-2.0, 2.0, 11)[:, None]
    want = 0.5 * (f.values(xs) + f.values(-xs))
    assert np.abs(op.apply_many(f, xs) - want).max() <= 1e-12


def test_haar_averaging_kills_linear_fields():
    op = _averaging(rotation_family(2, 4096, 11), ball([0.0, 0.0], 2.0))
    f = polynomial([[0.0], [1.0]])  # x_1
    for x in ([1.0, 0.5], [-1.5, 0.3], [0.0, 1.9]):
        sigma = np.linalg.norm(x) / math.sqrt(2 * 4096)
        assert abs(op.apply_many(f, [x])[0]) <= 3.0 * sigma


def test_averaging_measure_is_the_finite_group_measure():
    family, measure = finite_group_family("signed_permutations", 3)
    op = _averaging(family, ball([0.0] * 3, 1.0))
    assert np.array_equal(op.measure.nodes, measure.nodes)
    assert np.array_equal(op.measure.weights, measure.weights)
    assert np.array_equal(op.kernel.values, np.ones(len(family)))


@pytest.mark.parametrize("kind, order", [("sign_flips", None), ("cyclic_rotation_2d", 6)],
                         ids=["sign_flips", "cyclic_rotation_2d"])
def test_finite_group_averaging_is_invariant(kind, order):
    dom = ball([0.0, 0.0], 3.0)
    family, _ = finite_group_family(kind, 2, order)
    op = _averaging(family, dom)
    f = gaussian([0.4, 0.2], 1.0)
    x = np.array([0.7, -0.3])
    base = op.apply_many(f, [x])[0]
    for matrix, offset in zip(family.matrices(), family.offsets()):
        moved = matrix @ x + offset
        assert op.apply_many(f, [moved])[0] == pytest.approx(base, abs=1e-12)


def test_averaging_preserves_sobolev_budget():
    dom = ball([0.0, 0.0], 3.0)
    op = _averaging(finite_group_family("sign_flips", 2)[0], dom)
    f = gaussian([0.3, 0.1], 0.8)
    quad = build_grid_quadrature(dom, 32)
    lhs = sobolev_norm(op.push(f), 1.0, quad).sobolev
    rhs = (2 + 1) * sobolev_norm(f, 1.0, quad).sobolev
    assert lhs <= rhs


# validation


def test_mismatched_kernel_and_measure():
    with pytest.raises(ValueError, match="kernel has 1 values"):
        HausdorffOperator(
            measure=explicit_measure([0.0, 1.0], [1.0, 1.0]),
            kernel=kernel_from_values([1.0]),
            family=shift_family([[0.0], [1.0]]),
            domain=truncated_space(5.0, 1),
        )


def test_mismatched_family_and_measure():
    with pytest.raises(ValueError, match="family has 1 members"):
        HausdorffOperator(
            measure=explicit_measure([0.0, 1.0], [1.0, 1.0]),
            kernel=kernel_from_values([1.0, 1.0]),
            family=shift_family([[0.0]]),
            domain=truncated_space(5.0, 1),
        )


def test_mismatched_family_and_domain_dimension():
    with pytest.raises(ValueError, match="dimension"):
        HausdorffOperator(
            measure=explicit_measure([0.0], [1.0]),
            kernel=kernel_from_values([1.0]),
            family=motion_family([(np.eye(2), None)]),
            domain=truncated_space(5.0, 1),
        )


def test_coefficient_overflow_names_the_node():
    # 1e308 * 10 is past the double range; the error comes without a numpy warning
    with pytest.raises(ValueError, match="not finite at measure node 2.0"):
        HausdorffOperator(
            measure=explicit_measure([1.0, 2.0], [1.0, 1e308]),
            kernel=kernel_from_values([10.0, 10.0]),
            family=shift_family([[0.0], [0.0]]),
            domain=truncated_space(5.0, 1),
        )


def test_point_outside_domain_is_named():
    op = _dirac(2, domain=ball([0.0, 0.0], 1.0))
    f = gaussian([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="lies outside the domain"):
        op.apply_many(f, [[2.0, 0.0]])


def test_field_dimension_mismatch():
    op = _dirac(2)
    with pytest.raises(ValueError, match="field dimension 1"):
        op.apply_many(gaussian([0.0], 1.0), [[0.0, 0.0]])


def test_escape_names_the_member():
    # a 1e-6 shift moves the box's right end out; the exact check sees it
    # without any evaluation point landing there
    with pytest.raises(DomainEscapeError, match="family member 1 leaves the domain"):
        HausdorffOperator(
            measure=explicit_measure([0.0, 1.0], [1.0, 1.0]),
            kernel=kernel_from_values([1.0, 1.0]),
            family=shift_family([[0.0], [1e-6]]),
            domain=box([0.0], [1.0]),
        )


def test_non_preserving_family_rejected_at_construction():
    with pytest.raises(ValueError, match="leaves the domain"):
        HausdorffOperator(
            measure=explicit_measure([0.0], [1.0]),
            kernel=kernel_from_values([1.0]),
            family=shift_family([[0.5]]),
            domain=box([0.0], [1.0]),
        )


def test_averaging_needs_centered_domain():
    # diag(-1, 1) moves the ball's centre; diag(1, -1) flips the box to y <= 0
    sign_flips, _ = finite_group_family("sign_flips", 2)
    with pytest.raises(DomainEscapeError, match="family member 2 leaves the domain"):
        _averaging(sign_flips, ball([1.0, 0.0], 2.0))
    with pytest.raises(DomainEscapeError, match="family member 1 leaves the domain"):
        _averaging(sign_flips, box([0.0, 0.0], [1.0, 1.0]))


def test_operator_metadata():
    op = _reflection_pair()
    assert len(op) == 2
    assert op.dimension == 1
    assert kernel_l1_norm(op.kernel, op.measure) == 1.0
