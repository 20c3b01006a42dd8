import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff_op.geometry import gauss_legendre_rule
from hausdorff_op.measure_kernel import (
    DiscretizedMeasure,
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
)
from hausdorff_op.summation import pairwise_sum


def _dense_trapezoid(fn, lo, hi, steps=10**6):
    """Independent oracle: trapezoid rule on a uniform grid."""
    x = np.linspace(lo, hi, steps + 1)
    y = fn(x)
    return float((0.5 * (y[1:] + y[:-1]) * np.diff(x)).sum())


# measures


def test_explicit_measure_roundtrip():
    m = explicit_measure([0.0, 1.5], [0.25, 0.75])
    assert len(m) == 2
    assert pairwise_sum(m.weights) == pytest.approx(1.0)


def test_measure_validation_errors():
    with pytest.raises(ValueError):
        explicit_measure([0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        explicit_measure([], [])
    with pytest.raises(ValueError, match="index 1"):
        explicit_measure([0.0, 1.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        explicit_measure([0.0], [math.inf])


def test_gauss_legendre_two_point():
    m = gauss_legendre_measure((-1.0, 1.0), 2)
    assert m.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], abs=1e-15)
    assert m.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_cubic_exactness():
    m = gauss_legendre_measure((0.0, 1.0), 16)
    assert float((m.weights * m.nodes**3).sum()) == pytest.approx(0.25, abs=1e-14)


def test_gauss_legendre_empty_interval():
    with pytest.raises(ValueError):
        gauss_legendre_measure((1.0, 1.0), 4)
    with pytest.raises(ValueError):
        gauss_legendre_measure((0.0, 1.0), 0)


def test_legendre_measures_check_their_arguments():
    with pytest.raises(TypeError, match="count must be an integer"):
        gauss_legendre_measure((0.0, 1.0), 3.7)
    with pytest.raises(TypeError, match="points_per_panel must be an integer"):
        gauss_legendre_panels((0.0, 2.0), points_per_panel=2.5)
    for interval in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            gauss_legendre_panels(interval, points_per_panel=4)
        with pytest.raises(ValueError, match="must be finite"):
            gauss_legendre_measure(interval, 4)
    m = gauss_legendre_panels((0.0, 2.0), points_per_panel=np.int64(4))
    assert np.array_equal(m.nodes, gauss_legendre_panels((0.0, 2.0), points_per_panel=4).nodes)


def test_monte_carlo_measure():
    m = monte_carlo_measure((0.0, 1.0), 4, seed=3)
    assert len(m) == 4
    assert np.all((m.nodes >= 0.0) & (m.nodes <= 1.0))
    assert m.weights == pytest.approx([0.25] * 4)
    again = monte_carlo_measure((0.0, 1.0), 4, seed=3)
    assert np.array_equal(m.nodes, again.nodes)


def test_finite_group_uniform():
    m = finite_group_uniform_measure(8)
    assert pairwise_sum(m.weights) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(m.nodes, np.arange(8.0))


def test_panels_cover_interval():
    m = gauss_legendre_panels((0.0, 7.5), points_per_panel=8)
    assert pairwise_sum(m.weights) == pytest.approx(7.5, abs=1e-12)
    assert np.all(np.diff(m.nodes) > 0)


@pytest.mark.parametrize("panels", [1, 10, 10_000])
def test_panels_equal_the_per_panel_rules(panels):
    lo, hi = -0.25, -0.25 + panels
    m = gauss_legendre_panels((lo, hi), points_per_panel=5)
    edges = lo + (hi - lo) * np.arange(panels + 1) / panels
    rules = [gauss_legendre_rule(edges[k], edges[k + 1], 5) for k in range(panels)]
    assert np.array_equal(m.nodes, np.concatenate([nodes for nodes, _ in rules]))
    assert np.array_equal(m.weights, np.concatenate([weights for _, weights in rules]))


def test_discretize_dispatch_and_errors():
    m = discretize({"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 4})
    assert len(m) == 4
    m = discretize({"scheme": "explicit", "nodes": [1.0], "weights": [2.0]})
    assert pairwise_sum(m.weights) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="scheme"):
        discretize({"scheme": "spectral"})
    with pytest.raises(ValueError):
        discretize({})


# kernel forms


def test_kernel_form_values():
    u = np.array([0.0, 1.0, 3.0])
    assert kernel_form("exp_decay", a=2.0)(u) == pytest.approx(np.exp(-2.0 * u))
    assert kernel_form("power", a=1.0)(u) == pytest.approx(1.0 / (1.0 + u))
    assert kernel_form("constant", c=0.5)(u) == pytest.approx([0.5] * 3)
    assert kernel_form("indicator", lo=0.5, hi=2.0)(u) == pytest.approx([0.0, 1.0, 0.0])


def test_kernel_form_integrability_flags():
    assert kernel_form("exp_decay", a=1.0).integrable_on_halfline
    assert kernel_form("power", a=2.0).integrable_on_halfline
    assert not kernel_form("power", a=1.0).integrable_on_halfline
    assert not kernel_form("constant", c=1.0).integrable_on_halfline
    assert kernel_form("indicator", lo=0.0, hi=1.0).integrable_on_halfline


def test_kernel_form_validation():
    with pytest.raises(ValueError, match="unknown kernel form"):
        kernel_form("gauss", a=1.0)
    with pytest.raises(ValueError):
        kernel_form("exp_decay", b=1.0)
    with pytest.raises(ValueError):
        kernel_form("power", a=-1.0)
    with pytest.raises(ValueError):
        kernel_form("indicator", lo=1.0, hi=0.0)


@pytest.mark.parametrize("name, params, key", [
    ("indicator", {"lo": 0.0, "hi": math.inf}, "hi"),
    ("indicator", {"lo": -math.inf, "hi": 1.0}, "lo"),
    ("power", {"a": math.nan}, "a"),
    ("exp_decay", {"a": math.inf}, "a"),
    ("constant", {"c": math.nan}, "c"),
])
def test_kernel_form_rejects_non_finite_parameters(name, params, key):
    with pytest.raises(ValueError, match=f"kernel form '{name}' needs a finite {key}"):
        kernel_form(name, **params)


def test_kernel_values_validation():
    with pytest.raises(ValueError):
        kernel_from_values([])
    with pytest.raises(ValueError):
        kernel_from_values([1.0, math.nan])


# L1 norm


def test_l1_norm_probability_measure():
    m = finite_group_uniform_measure(10)
    k = kernel_from_values(np.ones(10))
    assert kernel_l1_norm(k, m) == pytest.approx(1.0, abs=1e-15)


def test_l1_norm_signed_values():
    m = explicit_measure([0.0, 1.0], [1.0, 1.0])
    k = kernel_from_values([2.0, -3.0])
    assert kernel_l1_norm(k, m) == 5.0


def test_l1_norm_exp_decay_against_closed_form_and_trapezoid():
    m = gauss_legendre_measure((0.0, 20.0), 64)
    k = kernel_on_measure(kernel_form("exp_decay", a=1.0), m)
    value = kernel_l1_norm(k, m)
    assert value == pytest.approx(1.0, abs=1e-8)
    oracle = _dense_trapezoid(lambda u: np.exp(-u), 0.0, 20.0)
    assert value == pytest.approx(oracle, abs=1e-8)


def test_kernel_overflow_names_the_form_and_node():
    # exp(-u) overflows for u below about -709.78, without a numpy warning
    m = explicit_measure([0.0, -700.0, -710.0, -800.0], [1.0] * 4)
    with pytest.raises(ValueError, match=r"^kernel exp_decay\(a=1\) is not finite at "
                                         r"measure node -710\.0$"):
        kernel_on_measure(kernel_form("exp_decay", a=1.0), m)


def test_l1_norm_misaligned_lengths():
    m = explicit_measure([0.0, 1.0], [1.0, 1.0])
    k = kernel_from_values([1.0])
    with pytest.raises(ValueError, match="2"):
        kernel_l1_norm(k, m)


def test_l1_norm_absolute_homogeneity():
    m = gauss_legendre_measure((0.0, 5.0), 32)
    base = kernel_on_measure(kernel_form("exp_decay", a=1.0), m)
    scaled = kernel_from_values(-4.0 * base.values)
    assert kernel_l1_norm(scaled, m) == pytest.approx(4.0 * kernel_l1_norm(base, m), rel=1e-15)


def test_l1_norm_refinement_cauchy():
    def norm_at(count):
        m = gauss_legendre_measure((0.0, 10.0), count)
        k = kernel_on_measure(kernel_form("exp_decay", a=0.7), m)
        return kernel_l1_norm(k, m)

    a, b, c = norm_at(8), norm_at(16), norm_at(32)
    assert abs(c - b) < abs(b - a)


# truncations: the panels over [0, endpoint]


def _truncated_norms(form, endpoints, points_per_panel=8):
    norms = []
    for e in endpoints:
        measure = gauss_legendre_panels((0.0, e), points_per_panel=points_per_panel)
        norms.append(kernel_l1_norm(kernel_on_measure(form, measure), measure))
    return norms


def test_truncation_power_kernel_log_growth():
    norms = _truncated_norms(kernel_form("power", a=1.0), [1.0, 10.0, 100.0])
    assert norms == pytest.approx(
        [math.log(2.0), math.log(11.0), math.log(101.0)], abs=1e-6
    )


def test_truncation_exp_kernel_closed_form():
    norms = _truncated_norms(kernel_form("exp_decay", a=1.0), [5.0, 10.0])
    assert norms == pytest.approx([1.0 - math.exp(-5.0), 1.0 - math.exp(-10.0)], abs=1e-6)


def test_truncation_single_endpoint_matches_direct_rule():
    measure = gauss_legendre_panels((0.0, 1.0), points_per_panel=8)
    direct = discretize({"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 8})
    assert np.array_equal(measure.nodes, direct.nodes)
    assert np.array_equal(measure.weights, direct.weights)


def test_truncation_norms_nondecreasing():
    norms = _truncated_norms(kernel_form("power", a=1.5), [0.5, 2.0, 4.0, 16.0])
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_truncation_endpoint_validation():
    # a truncation [0, e] needs e > 0; increasing endpoints are checked by
    # run_necessity_divergence (test_necessity_endpoint_validation)
    for endpoint in (-1.0, 0.0, -0.5):
        with pytest.raises(ValueError, match="empty interval"):
            gauss_legendre_panels((0.0, endpoint), points_per_panel=8)


def test_panels_of_integer_endpoints_nest():
    # [0, e] with integer e shares its unit panels with every longer one
    ends = [1.0, 3.0, 10.0, 64.0]
    rules = [gauss_legendre_panels((0.0, e), points_per_panel=5) for e in ends]
    for short, long in zip(rules, rules[1:]):
        assert np.array_equal(short.nodes, long.nodes[: len(short)])
        assert np.array_equal(short.weights, long.weights[: len(short)])


@pytest.mark.parametrize("interval", [(0.0, 7.5), (-0.25, 99.75), (0.0, 1234.7)])
@pytest.mark.parametrize("points_per_panel", [3, 5, 8])
def test_panel_member_blocks_are_slices_of_the_whole_rule(interval, points_per_panel):
    whole = gauss_legendre_panels(interval, points_per_panel)
    size = len(whole)
    blocks = ((0, size), (0, 1), (size - 1, size), (2, size - 3), (4, 4 + 2 * points_per_panel))
    for start, stop in blocks:
        block = gauss_legendre_panels(interval, points_per_panel, range(start, stop))
        assert np.array_equal(block.nodes.view(np.uint64), whole.nodes[start:stop].view(np.uint64))
        assert np.array_equal(block.weights.view(np.uint64),
                              whole.weights[start:stop].view(np.uint64))


def test_panel_member_blocks_are_checked():
    size = 8 * 3
    for members in (range(0), range(5, 5), range(-1, 4), range(0, size + 1), range(0, 8, 2)):
        with pytest.raises(ValueError, match="is not a nonempty run"):
            gauss_legendre_panels((0.0, 2.5), 8, members)


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=40),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_l1_norm_scaling_property(values, scale):
    m = finite_group_uniform_measure(len(values))
    base = kernel_from_values(values)
    scaled = kernel_from_values(scale * base.values)
    assert kernel_l1_norm(scaled, m) == pytest.approx(
        abs(scale) * kernel_l1_norm(base, m), rel=1e-12, abs=1e-15
    )
