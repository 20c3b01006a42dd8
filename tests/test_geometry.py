import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre, roots_legendre

from hausdorff_op import geometry
from hausdorff_op.geometry import (
    ball,
    box,
    build_grid_quadrature,
    gauss_legendre_rule,
    squared_distances,
    truncated_space,
)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_contains_ball_center_boundary_outside():
    b = ball([0.0, 0.0], 1.0)
    assert b.contains_many([[0.0, 0.0]])[0]
    assert b.contains_many([[1.0, 0.0]])[0]
    assert not b.contains_many([[1.0001, 0.0]])[0]


def test_contains_box():
    d = box([0.0, 0.0], [1.0, 1.0])
    assert d.contains_many([[0.5, 0.5]])[0]
    assert not d.contains_many([[0.5, 2.0]])[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_box_contains_many_matches_the_broadcast_test(n):
    rng = np.random.default_rng(30 + n)
    lo, hi = -rng.uniform(0.5, 1.0, n), rng.uniform(0.5, 1.0, n)
    pts = rng.uniform(-1.2, 1.2, (5000, n))
    pts[:50] = np.where(rng.random((50, n)) < 0.5, lo, hi)  # corners: closed
    pts[50, 0] = np.nan
    for d in (box(lo, hi), truncated_space(0.75, n)):
        lower, upper = d.bounding_box()
        want = np.logical_and(pts >= lower, pts <= upper).all(axis=1)
        assert np.array_equal(d.contains_many(pts), want)
    assert box(lo, hi).contains_many(pts[:50]).all()


def test_contains_dimension_mismatch():
    b = ball([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="dimension"):
        b.contains_many([[0.0, 0.0, 0.0]])


def test_constructor_validation():
    with pytest.raises(ValueError):
        ball([0.0], -1.0)
    with pytest.raises(ValueError):
        box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        truncated_space(0.0, 1)
    with pytest.raises(ValueError):
        truncated_space(1.0, 0)
    # a NaN centre would make a ball's rejection sampling loop forever
    for build, args, message in [
        (ball, ([math.nan, 0.0], 1.0), "center must be finite"),
        (ball, ([0.0, math.inf], 1.0), "center must be finite"),
        (ball, ([0.0], math.inf), "radius must be finite"),
        (ball, ([0.0], math.nan), "radius must be finite"),
        (box, ([0.0], [math.inf]), "corners must be finite"),
        (box, ([-math.inf], [0.0]), "corners must be finite"),
        (box, ([0.0], [math.nan]), "corners must be finite"),
        (truncated_space, (math.inf, 1), "halfwidth must be finite"),
        (truncated_space, (math.nan, 1), "halfwidth must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            build(*args)


def test_gauss_legendre_two_point_rule():
    nodes, weights = gauss_legendre_rule(-1.0, 1.0, 2)
    assert nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], abs=1e-15)


def _reference_node_and_weight(n, node):
    """The exact Gauss-Legendre node next to ``node`` and its weight, from a
    34-digit three-term recurrence at ``node`` and one Newton step.

    ``node`` is within a few ulp of the root, so the step's own error is
    below 1e-30; the derivative at the root comes from the second derivative
    by Legendre's equation.
    """
    with mpmath.workdps(34):
        x = mpmath.mpf(float(node))
        prev, p = mpmath.mpf(1), x
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
        one_minus = 1 - x * x
        slope = n * (prev - x * p) / one_minus
        curvature = (2 * x * slope - n * (n + 1) * p) / one_minus
        step = p / slope
        root = x - step
        weight = 2 / ((1 - root * root) * (slope - curvature * step) ** 2)
        return root, weight


def test_bessel_tables_match_mpmath_bitwise():
    with mpmath.workdps(40):
        zeros = [mpmath.besseljzero(0, k) for k in range(1, 21)]
        squares = [mpmath.besselj(1, z) ** 2 for z in zeros]
    assert geometry._BESSEL_J0_ZEROS == tuple(float(z) for z in zeros)
    assert geometry._BESSEL_J1_SQUARED == tuple(float(v) for v in squares)


@pytest.mark.parametrize("n", [257, 1000])
def test_large_rule_is_accurate_to_round_off(n):
    nodes, weights = geometry._legendre_rule(n)
    # both ends, the last tabled Bessel zero and the first from McMahon's
    # expansion (19, 20), and a spread through the middle
    sampled = set(range(12)) | set(range(n - 12, n)) | {19, 20}
    sampled |= set(np.linspace(12, n - 13, 30).astype(int).tolist())
    for i in sorted(sampled):
        root, weight = _reference_node_and_weight(n, nodes[i])
        assert abs(float(nodes[i] - root)) <= 2 * np.spacing(1.0), i
        assert abs(float(weights[i] / weight - 1)) <= 1e-15, i


@pytest.mark.parametrize("n", [257, 1000, 8192, 20000])
def test_large_rule_matches_a_34_digit_recurrence(n):
    nodes, weights = geometry._legendre_rule(n)
    # end nodes from the tabled Bessel zeros (0, 1, 9, 10, 11), one from
    # McMahon's expansion of the zeros (49), and the middle
    sampled = [0, 1, 9, 10, 11, 49, n // 2 - 1, n // 2]
    scipy_nodes, scipy_weights = roots_legendre(n) if n <= 8192 else (None, None)
    for i in sampled:
        root, weight = _reference_node_and_weight(n, nodes[i])
        # within 2 ulp of 0.5, the spacing of every node past +-0.5
        assert abs(float(nodes[i] - root)) <= 2 * np.spacing(0.5), i
        error = abs(float(weights[i] / weight - 1))
        assert error <= 1e-9, i
        if scipy_nodes is not None:
            assert error <= max(abs(float(scipy_weights[i] / weight - 1)), 1e-15), i


@pytest.mark.parametrize("n", [257, 258, 1000, 1001, 8192, 8193, 20000, 32768])
def test_large_rule_is_ascending_symmetric_and_sums_to_two(n):
    nodes, weights = geometry._legendre_rule(n)
    assert len(nodes) == len(weights) == n
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0
    half = n // 2
    assert _same_bits(nodes[:half], -nodes[::-1][:half])
    assert _same_bits(weights, weights[::-1])
    if n % 2:
        assert _same_bits(nodes[half:half + 1], np.zeros(1))
    assert abs(weights.sum() - 2.0) <= 1e-14
    assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("n", [257, 1000, 4097])
def test_large_rule_is_exact_to_degree_2n_minus_1(n):
    nodes, weights = geometry._legendre_rule(n)
    # the integral of P_k over [-1, 1] is 0 for k >= 1
    for k in (1, 2, 3, n, 2 * n - 2, 2 * n - 1):
        assert abs(weights @ eval_legendre(k, nodes)) <= 1e-13, k
    # and P_2n is where exactness ends: P_n^2 integrates to 2 / (2n + 1)
    assert abs(weights @ eval_legendre(2 * n, nodes)) > 1e-3


def test_small_rules_are_scipy_bitwise():
    # odd weights move by round-off (at most 16 eps seen), because scipy takes
    # P_{n-1} at the middle node from its gamma function; their accuracy is
    # checked below
    for n in range(1, geometry.LEGENDRE_GOLUB_WELSCH_MAX_NODES + 1):
        nodes, weights = geometry._legendre_rule(n)
        scipy_nodes, scipy_weights = roots_legendre(n)
        assert _same_bits(nodes, scipy_nodes), n
        if n % 2:
            assert np.all(np.abs(weights / scipy_weights - 1) <= 32 * np.finfo(float).eps), n
        else:
            assert _same_bits(weights, scipy_weights), n


@pytest.mark.parametrize("n", [3, 9, 23, 63, 101, 255])
def test_odd_small_rules_are_as_accurate_as_scipy(n):
    # Both rules carry a normalisation error of tens of ulp (up to 1e-10 at
    # the end weights), so a single weight may land up to 31 ulp farther from
    # the reference than scipy's, or nearer; the mean relative error over the
    # rule is the fair comparison.  Over all odd n <= 255 the port's mean
    # exceeded scipy's by at most 0.68 eps.
    nodes, weights = geometry._legendre_rule(n)
    scipy_weights = roots_legendre(n)[1]
    port_errors, scipy_errors = [], []
    for i in range((n + 1) // 2):  # both rules are symmetric
        weight = _reference_node_and_weight(n, nodes[i])[1]
        port_errors.append(abs(float(weights[i] / weight - 1)))
        scipy_errors.append(abs(float(scipy_weights[i] / weight - 1)))
    assert np.mean(port_errors) <= np.mean(scipy_errors) + np.finfo(float).eps


def test_small_rules_do_not_depend_on_the_thread_count():
    # the eigenvalues come from LAPACK, which may split work across threads
    script = (
        "import hashlib\n"
        "from hausdorff_op import geometry\n"
        "digest = hashlib.sha256()\n"
        "for n in range(1, geometry.LEGENDRE_GOLUB_WELSCH_MAX_NODES + 1):\n"
        "    for part in geometry._legendre_rule(n):\n"
        "        digest.update(part.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_large_rule_builds_in_linear_time():
    # scipy's quadratic roots_legendre took about 40 s at this size
    start = time.perf_counter()
    geometry._asymptotic_legendre_rule(1 << 15)
    assert time.perf_counter() - start < 1.0


def test_rule_arguments_are_checked():
    with pytest.raises(TypeError, match="count must be an integer"):
        gauss_legendre_rule(0.0, 1.0, 2.5)
    with pytest.raises(TypeError, match="count must be an integer"):
        gauss_legendre_rule(0.0, 1.0, 4.0)
    for lower, upper in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            gauss_legendre_rule(lower, upper, 4)
    nodes, weights = gauss_legendre_rule(0.0, 1.0, np.int64(3))
    assert np.array_equal(nodes, gauss_legendre_rule(0.0, 1.0, 3)[0])
    with pytest.raises(TypeError, match="resolution must be an integer"):
        build_grid_quadrature(truncated_space(1.0, 1), 7.9)
    with pytest.raises(ValueError, match="must be finite"):
        build_grid_quadrature(box([0.0], [math.inf]), 4)
    quad = build_grid_quadrature(truncated_space(1.0, 1), np.int32(7))
    assert quad.resolution == 7 and type(quad.resolution) is int


@pytest.mark.parametrize("dimension, resolution", [(4, 2), (9, 4)])
def test_ball_grid_with_no_node_inside_is_refused(dimension, resolution):
    # an even rule has no node at the center, and in high dimension its
    # innermost node lies outside the inscribed ball
    with pytest.raises(ValueError, match=(
            f"no node of the {resolution}-point grid in dimension {dimension} lies in the "
            "ball; raise the resolution")):
        build_grid_quadrature(ball([0.0] * dimension, 1.0), resolution)
    assert len(build_grid_quadrature(ball([0.0] * dimension, 1.0), resolution + 1).nodes) >= 1


def test_box_weight_sum_exact():
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    assert quad.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_box_integrates_x_squared():
    quad = build_grid_quadrature(box([0.0], [1.0]), 16)
    value = float((quad.weights * quad.nodes[:, 0] ** 2).sum())
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_polynomial_exactness_up_to_degree():
    # per-axis degree 2*resolution - 1 is integrated exactly over a box
    resolution = 4
    quad = build_grid_quadrature(box([0.0, 0.0], [1.0, 1.0]), resolution)
    deg = 2 * resolution - 1
    value = float((quad.weights * quad.nodes[:, 0] ** deg * quad.nodes[:, 1] ** deg).sum())
    exact = (1.0 / (deg + 1)) ** 2
    assert value == pytest.approx(exact, rel=1e-12)


def test_ball_weight_sum_near_area():
    quad = build_grid_quadrature(ball([0.0, 0.0], 1.0), 64)
    assert quad.weights.sum() == pytest.approx(math.pi, rel=1e-2)


def test_ball_weight_sum_error_shrinks_with_refinement():
    b = ball([0.0, 0.0], 1.0)
    errors = [
        abs(build_grid_quadrature(b, res).weights.sum() - b.volume())
        for res in (32, 64, 128)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_quadrature_nodes_inside_domain():
    b = ball([0.5, -0.5], 2.0)
    quad = build_grid_quadrature(b, 24)
    assert b.contains_many(quad.nodes).all()
    assert (quad.weights > 0).all()


def test_truncated_space_quadrature_is_box_quadrature():
    t = build_grid_quadrature(truncated_space(2.0, 1), 16)
    d = build_grid_quadrature(box([-2.0], [2.0]), 16)
    assert np.array_equal(t.nodes, d.nodes)
    assert np.array_equal(t.weights, d.weights)


def test_sample_uniform_box_mean():
    d = box([0.0], [1.0])
    pts = d.sample_uniform(10**6, seed=5)
    sigma = (1.0 / math.sqrt(12.0)) / 1e3
    assert abs(pts.mean() - 0.5) <= 3.0 * sigma


def test_sample_uniform_ball_area_ratio():
    b = ball([0.0, 0.0], 1.0)
    pts = b.sample_uniform(10**6, seed=9)
    inner = ball([0.0, 0.0], 1.0 / math.sqrt(2.0))
    frac = inner.contains_many(pts).mean()
    sigma = math.sqrt(0.25 / 1e6)
    assert abs(frac - 0.5) <= 3.0 * sigma


def test_sample_uniform_deterministic_and_contained():
    for domain in (ball([1.0, 2.0], 1.5), box([0.0, -1.0], [2.0, 1.0]), truncated_space(3.0, 2)):
        a = domain.sample_uniform(500, seed=77)
        b = domain.sample_uniform(500, seed=77)
        assert np.array_equal(a, b)
        assert domain.contains_many(a).all()


def test_sampling_a_ball_that_would_not_finish_is_refused_at_once():
    # a 30-D ball takes 2.0e-14 of its bounding-box draws
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"ball in dimension 30 expects 4\.90e13 "
                                         "rejection-sampling draws, more than the cap of "
                                         f"{geometry.MAX_BALL_DRAWS}"):
        ball(np.zeros(30), 1.0).sample_uniform(1, 0)
    assert time.perf_counter() - start < 0.05
    # the refusal comes before the stream's first draw
    blocks = ball(np.zeros(30), 1.0).sample_blocks(1, 0, 1)
    with pytest.raises(ValueError, match="4.90e13"):
        next(blocks)
    for domain in (ball([0.0], 1.0), box([0.0], [1.0]), truncated_space(1.0, 1)):
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            domain.sample_uniform(0, 0)


@pytest.mark.parametrize("n", range(1, 10))
def test_squared_distances_match_the_row_reduction_bitwise(n):
    rng = np.random.default_rng(40 + n)
    pts = 3.0 * rng.standard_normal((10**5, n))
    center = rng.standard_normal(n)
    # signed zeros in the centre skip a subtraction, signed zeros in the
    # points meet both the skipped and the kept one
    signed_zeros = rng.standard_normal(n)
    signed_zeros[::3] = 0.0
    signed_zeros[1::3] = -0.0
    zero_points = pts.copy()
    zero_points[rng.random(pts.shape) < 0.1] = 0.0
    zero_points[rng.random(pts.shape) < 0.1] = -0.0
    for points, c in ((pts, center), (zero_points, center), (zero_points, signed_zeros),
                      (zero_points, np.zeros(n)), (zero_points, -np.zeros(n))):
        expected = ((points - c) ** 2).sum(axis=1)
        assert _same_bits(squared_distances(points, c), expected)
        differences = np.empty_like(points)
        assert _same_bits(squared_distances(points, c, differences), expected)
        assert _same_bits(differences, points - c)


@pytest.mark.parametrize("domain", [
    box([-1.0, 0.5, 2.0], [0.5, 3.0, 2.25]),
    ball([0.2, -0.1, 0.3], 0.7),
], ids=["box", "ball"])
@pytest.mark.parametrize("tile", [1, 3])
def test_samples_keep_their_bits_when_scaled_tile_by_tile(monkeypatch, domain, tile):
    # blocks longer than the tiles are scaled one tile of rows at a time
    monkeypatch.setattr(geometry, "_TILE_ROWS", tile)
    for count in (1, 7, 1000):
        whole = domain.sample_uniform(count, seed=33)
        assert _same_bits(whole, _whole_array_sample(domain, count, 33))
        assert _same_bits(np.concatenate(list(domain.sample_blocks(count, 33, 5))), whole)


@pytest.mark.parametrize("domain", [
    box([-1.0, 0.5, 2.0], [0.5, 3.0, 2.25]),
    ball([0.2, -0.1, 0.3], 0.7),
    truncated_space(1.5, 1),
], ids=["box", "ball", "truncated"])
@pytest.mark.parametrize("count", [1, 7, 8, 1000])
def test_sample_blocks_concatenate_to_sample_uniform(domain, count):
    whole = domain.sample_uniform(count, seed=21)
    for block in (1, 2, 7, count):
        blocks = list(domain.sample_blocks(count, 21, block))
        assert all(1 <= len(b) <= block for b in blocks)
        assert _same_bits(np.concatenate(blocks), whole)
    assert _same_bits(whole, _whole_array_sample(domain, count, 21))


def _whole_array_sample(domain, count, seed):
    """rng.uniform over the bounding box, with rejection for balls, in whole arrays."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    if domain.shape != geometry.BALL:
        return rng.uniform(lo, hi, size=(count, domain.dimension))
    out = np.empty((count, domain.dimension))
    got = 0
    while got < count:
        batch = rng.uniform(lo, hi, size=(2 * (count - got) + 16, domain.dimension))
        keep = batch[((batch - domain.center) ** 2).sum(axis=1) <= domain.radius * domain.radius]
        take = min(len(keep), count - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


def test_escape_distance():
    b = ball([0.0, 0.0], 1.0)
    assert b.escape_distance(np.array([[2.0, 0.0]]))[0] == pytest.approx(1.0)
    assert b.escape_distance(np.array([[0.3, 0.0]]))[0] == 0.0
    d = box([0.0], [1.0])
    assert d.escape_distance(np.array([[1.25]]))[0] == pytest.approx(0.25)
    t = truncated_space(1.0, 1)
    assert t.escape_distance(np.array([[100.0]]))[0] == 0.0


def _motions(n, count, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((count, n, n)))
    return q, 0.3 * rng.standard_normal((count, n))


def test_image_escape_box_matches_corner_images():
    # escape_distance is convex, so its supremum over the image of a box is
    # attained at the image of a corner
    d = box([-1.0, 0.0, 2.0], [0.5, 3.0, 2.5])
    v, b = _motions(3, 20, seed=4)
    corners = np.array(list(itertools.product(*zip(d.lower, d.upper))))
    want = [d.escape_distance(corners @ v[i].T + b[i]).max() for i in range(len(v))]
    assert d.image_escape(v, b) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_image_escape_ball_matches_dense_boundary():
    d = ball([0.4, -0.2], 1.3)
    v, b = _motions(2, 20, seed=5)
    t = np.linspace(0.0, 2.0 * math.pi, 200_001)
    rim = d.center + d.radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    want = [d.escape_distance(rim @ v[i].T + b[i]).max() for i in range(len(v))]
    assert d.image_escape(v, b) == pytest.approx(want, rel=1e-8)


def test_image_escape_of_truncated_space_is_zero():
    v, b = _motions(2, 5, seed=6)
    assert np.array_equal(truncated_space(1.0, 2).image_escape(v, 100.0 * b), np.zeros(5))


def test_volume():
    assert ball([0.0, 0.0], 2.0).volume() == pytest.approx(math.pi * 4.0)
    assert ball([0.0, 0.0, 0.0], 1.0).volume() == pytest.approx(4.0 * math.pi / 3.0)
    assert box([0.0, 0.0], [2.0, 3.0]).volume() == pytest.approx(6.0)


def test_volume_past_the_double_range_is_inf():
    assert ball([0.0, 0.0], 1e300).volume() == math.inf
    assert box([-1e200] * 2, [1e200] * 2).volume() == math.inf
    assert truncated_space(10.0, 400).volume() == math.inf
    # gamma(n/2 + 1) overflows from n = 341 on, but the volume does not
    n = 400
    log_volume = n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1)
    assert ball([0.0] * n, 1.0).volume() == pytest.approx(math.exp(log_volume), rel=1e-12)
    assert 0.0 < ball([0.0] * n, 1.0).volume() < 1e-270


def test_shrink():
    b = ball([0.0, 0.0], 1.0).shrink(0.25)
    assert b.radius == pytest.approx(0.75)
    d = box([0.0], [1.0]).shrink(0.1)
    lo, hi = d.bounding_box()
    assert lo[0] == pytest.approx(0.1) and hi[0] == pytest.approx(0.9)
    with pytest.raises(ValueError):
        ball([0.0], 1.0).shrink(1.0)
    with pytest.raises(ValueError):
        box([0.0], [1.0]).shrink(0.5)


def test_resolution_lower_bound():
    with pytest.raises(ValueError):
        build_grid_quadrature(box([0.0], [1.0]), 1)


def test_domain_shape_tags():
    assert ball([0.0], 1.0).shape == geometry.BALL
    assert box([0.0], [1.0]).shape == geometry.BOX
    assert truncated_space(1.0, 1).shape == geometry.TRUNCATED
