import math

import numpy as np
import pytest

from hausdorff_op.field import (
    custom_field,
    gaussian,
    gaussian_times_poly,
    hajlasz_defect,
    lp_norm,
    polynomial,
    sobolev_norm,
)
from hausdorff_op.geometry import ball, box, build_grid_quadrature, truncated_space
from hausdorff_op.isometry import motion_family, rotation_family
from hausdorff_op.measure_kernel import explicit_measure, kernel_from_values
from hausdorff_op.operator import HausdorffOperator, averaging_operator
from hausdorff_op.summation import pairwise_sum


def _dense_trapezoid(fn, lo, hi, steps=10**6):
    x = np.linspace(lo, hi, steps + 1)
    y = fn(x)
    return float((0.5 * (y[1:] + y[:-1]) * np.diff(x)).sum())


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _pullback(f, matrix, offset, domain):
    """x -> f(V x + b) on ``domain``: the operator of one member with weight 1."""
    op = HausdorffOperator(
        measure=explicit_measure([0.0], [1.0]),
        kernel=kernel_from_values([1.0]),
        family=motion_family([(matrix, offset)]),
        domain=domain,
    )
    return op.push(f)


# field evaluation


def test_gaussian_values_and_gradient():
    f = gaussian([0.5, -0.5], 2.0)
    pts = np.random.default_rng(0).normal(size=(40, 2))
    d2 = ((pts - [0.5, -0.5]) ** 2).sum(axis=1)
    want = np.exp(-d2 / 4.0)
    assert f.values(pts) == pytest.approx(want, rel=1e-14)
    want_grad = (-2.0 / 4.0) * (pts - [0.5, -0.5]) * want[:, None]
    assert np.abs(f.gradients(pts) - want_grad).max() <= 1e-14


def test_polynomial_multi_index():
    # 1 + 2x + 3y + 4xy
    f = polynomial([[1.0, 3.0], [2.0, 4.0]])
    pts = np.random.default_rng(1).uniform(-1, 1, (30, 2))
    x, y = pts[:, 0], pts[:, 1]
    assert f.values(pts) == pytest.approx(1 + 2 * x + 3 * y + 4 * x * y, rel=1e-13)
    grads = f.gradients(pts)
    assert grads[:, 0] == pytest.approx(2 + 4 * y, rel=1e-13)
    assert grads[:, 1] == pytest.approx(3 + 4 * x, rel=1e-13)


def test_gaussian_times_poly_product_rule():
    f = gaussian_times_poly([0.0], 1.0, [0.0, 1.0])  # x * exp(-x^2)
    pts = np.linspace(-1.5, 1.5, 11)[:, None]
    x = pts[:, 0]
    assert f.values(pts) == pytest.approx(x * np.exp(-(x**2)), rel=1e-13)
    want = (1.0 - 2.0 * x * x) * np.exp(-(x**2))
    assert f.gradients(pts)[:, 0] == pytest.approx(want, rel=1e-12)


def test_field_algebra():
    f = gaussian([0.0], 1.0)
    g = polynomial([1.0, 1.0])
    pts = np.linspace(-0.9, 0.9, 7)[:, None]
    assert (f + g).values(pts) == pytest.approx(f.values(pts) + g.values(pts))
    assert (3.0 * f).values(pts) == pytest.approx(3.0 * f.values(pts))
    assert (f + (-1.0) * g).values(pts) == pytest.approx(f.values(pts) - g.values(pts))
    assert (f + g).gradients(pts) == pytest.approx(f.gradients(pts) + g.gradients(pts))


def test_compose_with_motion_chain_rule():
    f = gaussian([0.3, 0.1], 0.8)
    v, b = _rotation(0.7), np.array([0.05, -0.1])
    fa = _pullback(f, v, b, truncated_space(4.0, 2))
    pts = np.random.default_rng(2).normal(scale=0.5, size=(25, 2))
    assert fa.values(pts) == pytest.approx(f.values(pts @ v.T + b), rel=1e-14)
    step = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (fa.values(pts + e) - fa.values(pts - e)) / (2 * step)
        assert np.abs(fa.gradients(pts)[:, j] - fd).max() <= 1e-8


def test_custom_field_without_gradient():
    f = custom_field(1, lambda pts: np.abs(pts[:, 0]))
    assert not f.has_gradient
    quad = build_grid_quadrature(box([-1.0], [1.0]), 64)
    assert lp_norm(f, 1.0, quad) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError, match="gradient"):
        sobolev_norm(f, 1.0, quad)


def _assert_values_and_gradients_bitwise(f, pts):
    values, grads = f.values_and_gradients(pts)
    assert np.array_equal(values, f.values(pts)), f.kind
    assert np.array_equal(grads, f.gradients(pts)), f.kind


def _pow_formula(coeffs, pts):
    """sum_a c_a prod_k x_k ** a_k in multi-index order, with pow for every power."""
    tables = [pts[:, k][:, None] ** np.arange(coeffs.shape[k]) for k in range(coeffs.ndim)]
    out = np.zeros(len(pts))
    for alpha in np.ndindex(coeffs.shape):
        if coeffs[alpha] != 0.0:
            term = np.full(len(pts), coeffs[alpha])
            for k, power in enumerate(alpha):
                term = term * tables[k][:, power]
            out += term
    return out


@pytest.mark.parametrize("axes", [1, 2, 3])
@pytest.mark.parametrize("degree", range(6))
def test_polynomial_values_and_gradients_bitwise(axes, degree):
    rng = np.random.default_rng(10 * axes + degree)
    coeffs = rng.uniform(-1.0, 1.0, (degree + 1,) * axes)
    coeffs[(0,) * axes] = 0.0  # a zero coefficient is skipped in both outputs
    f = polynomial(coeffs)
    point_sets = [rng.uniform(-1.5, 1.5, (257, axes))]
    if degree >= 2:
        # a block-scale set, about half of it negative, with rows of +-0 and
        # subnormals, where pow's paths and numpy's loops could differ
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
        rows = rng.uniform(-1.5, 1.5, ((1 << 14) + 3 - len(special), axes))
        point_sets.append(np.vstack([rows, np.repeat(np.array(special)[:, None], axes, axis=1)]))
    for pts in point_sets:
        _assert_values_and_gradients_bitwise(f, pts)
        assert np.array_equal(f.values(pts), _pow_formula(coeffs, pts))


def test_builtin_and_composite_values_and_gradients_bitwise():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 2))
    g = gaussian([0.3, -0.2], 0.9)
    gp = gaussian_times_poly([0.1, 0.0], 1.1, [[1.0, 0.3, -0.2], [0.5, 0.0, 0.1]])
    custom = custom_field(2, lambda p: np.sin(p[:, 0]) * p[:, 1],
                          lambda p: np.stack([np.cos(p[:, 0]) * p[:, 1], np.sin(p[:, 0])], axis=1))
    # a pushforward is the operator's one pass, with or without gradients
    op = averaging_operator(rotation_family(2, 5, 0), ball([0.0, 0.0], 10.0))
    for f in (g, gp, g + gp, 2.5 * gp, gp + (-1.0) * g, custom, custom + g,
              op.push(g), op.push(gp)):
        _assert_values_and_gradients_bitwise(f, pts)
    # one point alone gets the bits it gets inside a batch
    values, grads = gp.values_and_gradients(pts)
    for k in (0, 7, 299):
        one_value, one_grad = gp.values_and_gradients(pts[k])
        assert one_value[0] == values[k]
        assert np.array_equal(one_grad[0], grads[k])
    # from 8 axes on the gaussian's distance is numpy's row reduction
    for n in (2, 8, 9):
        pts = rng.normal(size=(300, n))
        center = rng.uniform(-0.3, 0.3, n)
        coeffs = np.zeros((2,) * n)
        coeffs[(0,) * n], coeffs[(1,) + (0,) * (n - 1)], coeffs[(1,) * n] = 1.0, 0.5, -0.2
        g = gaussian(center, 0.9)
        gp = gaussian_times_poly(center, 0.9, coeffs)
        for f in (g, gp, g + gp, 2.5 * gp):
            _assert_values_and_gradients_bitwise(f, pts)
        # the product rule, column by column, has the bits of the broadcast form
        pv, pg = polynomial(coeffs).values_and_gradients(pts)
        gv, gg = g.values_and_gradients(pts)
        assert np.array_equal(gp.gradients(pts), pg * gv[:, None] + pv[:, None] * gg)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_gaussian_keeps_the_bits_of_the_row_reduction(n):
    rng = np.random.default_rng(60 + n)
    center = rng.uniform(-0.5, 0.5, n)
    width = 0.8
    pts = rng.normal(size=(4099, n))
    values = np.exp(-((pts - center) ** 2).sum(axis=1) / (width * width))
    grads = (-2.0 / (width * width)) * (pts - center) * values[:, None]
    f = gaussian(center, width)
    both = f.values_and_gradients(pts)
    for got, want in ((f.values(pts), values), (f.gradients(pts), grads),
                      (both[0], values), (both[1], grads)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_values_and_gradients_needs_a_gradient():
    f = custom_field(1, lambda pts: np.abs(pts[:, 0]))
    with pytest.raises(ValueError, match="has no gradient"):
        f.values_and_gradients(np.zeros((3, 1)))


def test_degree_five_polynomial_matches_polyval():
    coeffs = [0.7, -1.3, 0.45, 2.2, -0.8, 0.35]
    f = polynomial(coeffs)
    x = np.linspace(-2.0, 2.0, 401)
    want = np.polynomial.polynomial.polyval(x, coeffs)
    got = f.values(x[:, None])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    dwant = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(coeffs))
    dgot = f.gradients(x[:, None])[:, 0]
    assert np.abs(dgot - dwant).max() <= 1e-13 * np.abs(dwant).max()


# lp norms


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ValueError, match="coefficients must be finite"):
        polynomial([1.0, bad])
    with pytest.raises(ValueError, match="coefficients must be finite"):
        gaussian_times_poly([0.0], 1.0, [1.0, bad])


def test_self_check_fails_on_nan_defect():
    # 2 * 1e308 overflows, so the analytic derivative is inf where the finite
    # difference is finite or inf too, and the defect is NaN, which no
    # comparison with the tolerance may let through
    with pytest.raises(ValueError, match="relative defect nan"), np.errstate(all="ignore"):
        polynomial([0.0, 0.0, 1e308])


@pytest.mark.parametrize("center, width, message", [
    ([math.nan, 0.0], 1.0, "center must be finite"),
    ([0.0, -math.inf], 1.0, "center must be finite"),
    ([0.0, 0.0], math.nan, "width must be finite and > 0"),
    ([0.0, 0.0], math.inf, "width must be finite and > 0"),
    ([0.0, 0.0], 0.0, "width must be finite and > 0"),
    # the exponent and the gradient divide by a square of 0 or inf
    ([0.0, 0.0], 1e-300, "width must be finite and > 0 with a finite nonzero square"),
    ([0.0, 0.0], 1e200, "width must be finite and > 0 with a finite nonzero square"),
])
def test_gaussian_rejects_non_finite_center_and_width(center, width, message):
    with pytest.raises(ValueError, match=message):
        gaussian(center, width)
    with pytest.raises(ValueError, match=message):
        gaussian_times_poly(center, width, [[1.0, 0.5], [0.2, 0.0]])


def test_lp_constant_field_unit_box():
    f = polynomial([1.0])
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f, p, quad) == pytest.approx(1.0, abs=1e-13)


def test_lp_linear_field_exact():
    f = polynomial([0.0, 1.0])
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    assert lp_norm(f, 2.0, quad) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def test_lp_gaussian_truncated_space_against_trapezoid():
    f = gaussian([0.0], 1.0)
    quad = build_grid_quadrature(truncated_space(8.0, 1), 64)
    value = lp_norm(f, 2.0, quad)
    assert value == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-6)
    oracle = _dense_trapezoid(lambda x: np.exp(-2.0 * x**2), -8.0, 8.0) ** 0.5
    assert value == pytest.approx(oracle, abs=1e-6)


def test_lp_p_equals_one_matches_direct_weighted_sum():
    f = gaussian([0.2], 0.9)
    quad = build_grid_quadrature(box([-2.0], [2.0]), 24)
    direct = float(pairwise_sum(quad.weights * np.abs(f.values(quad.nodes))))
    assert lp_norm(f, 1.0, quad) == direct


def test_lp_homogeneity_power_of_two_bitwise():
    f = gaussian([0.0], 1.0)
    quad = build_grid_quadrature(box([-2.0], [2.0]), 32)
    assert lp_norm(8.0 * f, 1.0, quad) == 8.0 * lp_norm(f, 1.0, quad)


def test_lp_homogeneity_general_scale():
    f = gaussian([0.0, 0.0], 1.0)
    quad = build_grid_quadrature(ball([0.0, 0.0], 2.0), 24)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(-7.0 * f, p, quad) == pytest.approx(
            7.0 * lp_norm(f, p, quad), rel=1e-12
        )


def test_lp_minkowski():
    quad = build_grid_quadrature(ball([0.0, 0.0], 1.5), 24)
    f = gaussian([0.3, 0.0], 0.7)
    g = polynomial([[0.5, 1.0], [1.0, 0.0]])
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(f + g, p, quad) <= lp_norm(f, p, quad) + lp_norm(g, p, quad) + 1e-12


def test_lp_p_range_validation():
    f = gaussian([0.0], 1.0)
    quad = build_grid_quadrature(box([-1.0], [1.0]), 8)
    with pytest.raises(ValueError, match="p must be >="):
        lp_norm(f, 0.5, quad)
    with pytest.raises(ValueError, match="p must be <="):
        lp_norm(f, 17.0, quad)


def test_lp_composition_invariance_under_refinement():
    f = gaussian([0.4, 0.0], 0.8)
    domain = ball([0.0, 0.0], 2.0)
    rotated = _pullback(f, _rotation(1.0), None, domain)
    gaps = []
    for res in (16, 32, 64):
        quad = build_grid_quadrature(domain, res)
        gaps.append(abs(lp_norm(rotated, 2.0, quad) - lp_norm(f, 2.0, quad)))
    assert gaps[0] > gaps[1] > gaps[2]


# sobolev norms


def test_sobolev_constant_field():
    f = polynomial([-3.0])
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    report = sobolev_norm(f, 2.0, quad)
    assert report.sobolev == pytest.approx(3.0, abs=1e-13)
    assert report.per_axis_derivative_lp == pytest.approx([0.0], abs=1e-15)


def test_sobolev_linear_field():
    f = polynomial([0.0, 1.0])
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    report = sobolev_norm(f, 1.0, quad)
    assert report.sobolev == pytest.approx(1.5, abs=1e-12)


def test_sobolev_report_identity():
    f = gaussian([0.1, -0.2], 1.1)
    quad = build_grid_quadrature(ball([0.0, 0.0], 2.0), 20)
    report = sobolev_norm(f, 2.0, quad)
    assert report.sobolev == report.lp + float(report.per_axis_derivative_lp.sum())


def test_sobolev_gaussian_needs_fine_grid_for_derivative_kink():
    # |f'| has a kink at 0, so the global rule converges slowly; the closed
    # form sqrt(pi) + 2 is hit at 1e-6 only with a very fine grid
    f = gaussian([0.0], 1.0)
    quad = build_grid_quadrature(truncated_space(8.0, 1), 16384)
    report = sobolev_norm(f, 1.0, quad)
    assert report.sobolev == pytest.approx(math.sqrt(math.pi) + 2.0, abs=1e-6)


# hajlasz defect


def test_hajlasz_linear_field_with_constant_witness():
    a = np.array([0.6, -0.8])
    f = polynomial([[0.0, a[1]], [a[0], 0.0]])
    g = polynomial([[float(np.linalg.norm(a)) / 2.0]])
    pairs = np.random.default_rng(3).uniform(-1, 1, (500, 2, 2))
    assert hajlasz_defect(f, g, pairs) <= 1e-12


def test_hajlasz_zero_fields():
    f = polynomial([0.0])
    pairs = np.random.default_rng(4).uniform(-1, 1, (50, 2, 1))
    assert hajlasz_defect(f, f, pairs) == 0.0


def test_hajlasz_square_field_with_identity_witness():
    f = polynomial([0.0, 0.0, 1.0])  # x^2
    g = polynomial([0.0, 1.0])  # x
    pairs = np.random.default_rng(5).uniform(0.0, 1.0, (10**4, 2, 1))
    assert hajlasz_defect(f, g, pairs) <= 1e-12


def test_hajlasz_witness_transport_under_motion():
    f = gaussian([0.2, 0.0], 1.0)
    g = polynomial([[2.0]])  # generous constant witness
    v, b = _rotation(0.9), np.array([0.1, -0.3])
    window = truncated_space(4.0, 2)
    pairs = np.random.default_rng(6).uniform(-1, 1, (200, 2, 2))
    original = hajlasz_defect(f, g, pairs)
    # x -> V^T (x - b) inverts the motion; the row form of V^T y is y @ V
    pulled = (pairs - b) @ v
    transported = hajlasz_defect(_pullback(f, v, b, window), _pullback(g, v, b, window), pulled)
    assert abs(transported - original) <= 1e-12
