"""A 40-digit oracle for Hf and the left side of the L^p bound.

Three small configs are parsed and run as ``hausdorff-op run`` would: the
grid, the operator, ``evaluate_field`` and ``run_lp_bound``.  From the same
doubles (grid nodes and weights, measure nodes and weights, motion matrices
and offsets, kernel and field parameters) mpmath at 40 digits recomputes Hf
at every grid node and the ``lp_bound`` left side at p = 1 and 2.  Each
float result must lie within an a-priori, first-order bound on its rounding
error, the sum of three terms (u = 2^-53, gamma_k = k u / (1 - k u)):

* image: each component of the image V x + b is rounded by at most
  gamma_(n+1) (|V| |x| + |b|) (n products and n adds), which moves f by at
  most that times |df/dy_k|;
* ufunc: every ufunc of the field and kernel evaluations (exp, pow, and each
  arithmetic step) adds at most ``ULP`` = 4u relative to its result;
* sum: a pairwise sum of m terms, each formed by c roundings, is off by at
  most gamma_(ceil(log2 m) + c) sum |terms| (Higham, Accuracy and Stability
  of Numerical Algorithms, 2nd ed., section 4.2).

The Gauss-Legendre doubles themselves are checked against the 40-digit rule:
the float rule is not correctly rounded (Golub-Welsch weights are off by up
to 57u at 8 nodes), so they must agree within ``RULE`` = 2^10 u relative,
far inside the moves that a wrong weight makes.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from hausdorff_op.cli import parse_config
from hausdorff_op.experiments import evaluate_field, run_lp_bound
from hausdorff_op.geometry import build_grid_quadrature

U = 2.0**-53
ULP = 4 * U
RULE = 2**10 * U
DIGITS = 40


def _gamma(k):
    return k * U / (1 - k * U)


_HAAR3 = {
    "dimension": 3,
    "domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.5},
    "family": {"kind": "rotations_haar", "count": 4, "seed": 5},
    "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 4},
    "kernel": {"name": "exp_decay", "a": 0.75},
    "fields": [
        {"kind": "gaussian", "center": [0.1, -0.2, 0.3], "width": 0.8},
        {"kind": "gaussian_times_poly", "center": [-0.25, 0.0, 0.2], "width": 1.1,
         "coeffs": [[[1.0, -0.5], [0.25, 0.0]], [[0.3, 0.0], [0.0, 0.7]]]},
    ],
}
CONFIGS = {
    "window-1d-gauss-legendre-shifts": {
        "dimension": 1,
        "domain": {"shape": "truncated_space", "halfwidth": 2.5},
        "family": {"kind": "shifts", "from_measure": True},
        "measure": {"scheme": "gauss_legendre", "interval": [-0.5, 0.5], "count": 6},
        "kernel": {"name": "exp_decay", "a": 1.5},
        "fields": [
            {"kind": "gaussian", "center": [0.3], "width": 0.7},
            {"kind": "gaussian_times_poly", "center": [-0.2], "width": 1.1,
             "coeffs": [1.0, -0.5, 0.25, 0.125]},
        ],
    },
    "ball-2d-cyclic-rotations": {
        "dimension": 2,
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "family": {"kind": "finite_group", "group": "cyclic_rotation_2d", "order": 5},
        "kernel": {"name": "exp_decay", "a": 0.25},
        "fields": [
            {"kind": "gaussian", "center": [0.2, -0.1], "width": 0.6},
            {"kind": "gaussian_times_poly", "center": [0.0, 0.3], "width": 0.9,
             "coeffs": [[0.5, -1.0, 0.0], [2.0, 0.0, 0.75]]},
        ],
    },
    "ball-3d-haar-rotations": _HAAR3,
}


def _mp(x):
    """A double as an mpf, exactly."""
    return mpmath.mpf(float(x))


# the fields and the kernel in mpmath: each returns the exact value from the
# doubles of the config and the first-order bound of the ufunc term


def _gaussian(center, width):
    c, w = [_mp(v) for v in center], _mp(width)

    def evaluate(y):
        n = len(y)
        t = sum((yk - ck) ** 2 for yk, ck in zip(y, c)) / (w * w)
        value = mpmath.exp(-t)
        grad = [-2 * (yk - ck) / (w * w) * value for yk, ck in zip(y, c)]
        # t passes n subtractions, n squares, n - 1 adds, w * w and a
        # division; exp turns a relative error e of t into t e of f
        return value, grad, value * ULP * ((n + 4) * t + 1)

    return evaluate


def _polynomial(coeffs):
    c = np.asarray(coeffs, dtype=float)
    terms = [(alpha, _mp(c[alpha])) for alpha in np.ndindex(c.shape) if c[alpha] != 0.0]

    def evaluate(y):
        n = len(y)
        value, grad, error = mpmath.mpf(0), [mpmath.mpf(0)] * n, mpmath.mpf(0)
        for alpha, coefficient in terms:
            monomial = coefficient * mpmath.fprod(yk**d for yk, d in zip(y, alpha))
            value += monomial
            for j in range(n):
                if alpha[j]:
                    powers = [d - (k == j) for k, d in enumerate(alpha)]
                    grad[j] += coefficient * alpha[j] * mpmath.fprod(
                        yk**e for yk, e in zip(y, powers))
            # one product per factor, one pow per power above 1, and up to
            # len(terms) - 1 adds into the running sum
            ops = sum(d >= 1 for d in alpha) + sum(d >= 2 for d in alpha) + len(terms) - 1
            error += abs(monomial) * ops * ULP
        return value, grad, error

    return evaluate


def _gaussian_times_poly(center, width, coeffs):
    g, p = _gaussian(center, width), _polynomial(coeffs)

    def evaluate(y):
        gv, gg, ge = g(y)
        pv, pg, pe = p(y)
        grad = [a * gv + pv * b for a, b in zip(pg, gg)]
        return pv * gv, grad, abs(gv) * pe + abs(pv) * ge + abs(pv * gv) * ULP

    return evaluate


def _field(node):
    if node["kind"] == "gaussian":
        return _gaussian(node["center"], node["width"])
    return _gaussian_times_poly(node["center"], node["width"], node["coeffs"])


def _exp_decay(a):
    a = _mp(a)

    def evaluate(node):
        value = mpmath.exp(-a * node)
        # a product, then exp
        return value, value * ULP * (abs(a * node) + 1)

    return evaluate


def _hf(x, members, f):
    """Hf at the double node x, and the bound on the float value's error."""
    n = len(x)
    value = image = ufunc = absolute = mpmath.mpf(0)
    for matrix, offset, weight, (phi, phi_error) in members:
        y = [mpmath.fsum(matrix[k][j] * x[j] for j in range(n)) + offset[k] for k in range(n)]
        fy, grad, f_error = f(y)
        coefficient = weight * phi
        value += coefficient * fy
        absolute += abs(coefficient * fy)
        image += abs(coefficient) * sum(
            abs(g) * _gamma(n + 1) * (mpmath.fsum(abs(matrix[k][j] * x[j]) for j in range(n))
                                      + abs(offset[k]))
            for k, g in enumerate(grad))
        ufunc += abs(coefficient) * f_error + abs(weight * fy) * phi_error
    # each term is w phi, then times f: two roundings before the sum
    total = _gamma(math.ceil(math.log2(len(members))) + 2) * absolute
    return value, image + ufunc + total


def _lp(values, bounds, weights, p):
    """The L^p left side from the exact Hf, and the bound on the float one's error."""
    powered = [w * abs(v) ** p for v, w in zip(values, weights)]
    s = mpmath.fsum(powered)
    # each |Hf|^p moves by p |Hf|^(p-1) times the error of Hf; a power ufunc
    # when p != 1, a product by the weight, then the pairwise sum
    error = mpmath.fsum(p * w * abs(v) ** (p - 1) * b
                        for v, b, w in zip(values, bounds, weights))
    error += (_gamma(math.ceil(math.log2(len(values))) + 1) + (p != 1) * ULP) * s
    if p == 1:
        return s, error
    lhs = s ** (mpmath.mpf(1) / p)
    return lhs, lhs * (error / (p * s) + ULP)


def _legendre_and_derivative(count, x):
    """P_count(x) and its derivative, by the three-term recurrence."""
    prev, p = mpmath.mpf(1), x
    for j in range(1, count):
        prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
    return p, count * (prev - x * p) / (1 - x * x)


def _legendre_rule(count, lower, upper):
    """The count-node Gauss-Legendre rule on [lower, upper] at 40 digits,
    ascending, by Newton's method from an asymptotic guess of each node."""
    lo, hi = _mp(lower), _mp(upper)
    nodes, weights = [], []
    for k in range(count):
        x = mpmath.cos(mpmath.pi * (k + mpmath.mpf(3) / 4) / (count + mpmath.mpf(1) / 2))
        for _ in range(8):  # quadratic convergence: 40 digits well within 8 steps
            p, dp = _legendre_and_derivative(count, x)
            x -= p / dp
        p, dp = _legendre_and_derivative(count, x)
        nodes.append((lo + hi) / 2 + (hi - lo) / 2 * x)
        weights.append((hi - lo) / (1 - x * x) / dp**2)
    return nodes[::-1], weights[::-1]


def _check_rule(nodes, weights, lower, upper, count):
    """The largest ratio to the tolerance of the distance of an (m, n) tensor
    rule's nodes and weights from the 40-digit count-node rule on the box
    [lower, upper]: each node must be a tensor node of the axis rules, and
    its weight the product of theirs (the n - 1 float products are far
    inside the tolerance)."""
    axes = [_legendre_rule(count, lo, hi) for lo, hi in zip(lower, upper)]
    worst = 0.0
    for node, weight in zip(nodes, weights):
        product = mpmath.mpf(1)
        for x, lo, hi, (rule_nodes, rule_weights) in zip(node, lower, upper, axes):
            i = min(range(count), key=lambda i: abs(_mp(x) - rule_nodes[i]))
            scale = abs(_mp(lo)) + abs(_mp(hi))
            worst = max(worst, float(abs(_mp(x) - rule_nodes[i]) / (RULE * scale)))
            product *= rule_weights[i]
        worst = max(worst, float(abs(_mp(weight) - product) / (RULE * product)))
    return worst


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_hf_and_lp_left_side_match_a_40_digit_oracle(name):
    config = {**CONFIGS[name], "experiments": ["lp_bound"], "resolution": 8}
    inputs = parse_config(json.dumps(config)).inputs
    op = inputs.operator
    quad = build_grid_quadrature(inputs.domain, config["resolution"])
    with mpmath.workdps(DIGITS):
        worst = [_check_rule(quad.nodes, quad.weights, *inputs.domain.bounding_box(),
                             quad.resolution)]
        measure = config.get("measure")
        if measure is not None:
            (lo, hi), count = measure["interval"], measure["count"]
            worst.append(_check_rule(op.measure.nodes[:, None], op.measure.weights,
                                     [lo], [hi], count))
        phi = _exp_decay(config["kernel"]["a"])
        members = [([[_mp(v) for v in row] for row in matrix], [_mp(b) for b in offset],
                    _mp(weight), phi(_mp(node)))
                   for matrix, offset, weight, node in zip(
                       op.family.matrices(), op.family.offsets(),
                       op.measure.weights, op.measure.nodes)]
        for (_, f), node in zip(inputs.fields, config["fields"]):
            evaluation = evaluate_field(op, f, quad)
            exact = [_hf([_mp(v) for v in x], members, _field(node)) for x in quad.nodes]
            values = [value for value, _ in exact]
            for got, (value, bound) in zip(evaluation.hf_values, exact):
                worst.append(float(abs(_mp(got) - value) / bound))
            for p in (1, 2):
                lhs, bound = _lp(values, [b for _, b in exact], [_mp(w) for w in quad.weights], p)
                got = run_lp_bound(evaluation, p).lhs
                worst.append(float(abs(_mp(got) - lhs) / bound))
    assert max(worst) <= 1.0, max(worst)
