"""Scalar fields on R^n with analytic gradients, plus discrete norms.

Built-in field kinds (gaussian, polynomial, gaussian_times_poly) carry
analytic gradients that are cross-checked against central finite differences
at construction, so a typo in a derivative formula fails immediately rather
than surfacing as a loose bound three modules later.  Custom fields skip the
check and may omit the gradient entirely; Sobolev norms then refuse them.

A field is one evaluation function, ``evaluate(pts, gradients)``, that
returns the values and, when asked, the gradients, computing the values the
same way in both modes: :meth:`ScalarField.values`,
:meth:`~ScalarField.gradients` and :meth:`~ScalarField.values_and_gradients`
are views of one checked call, so they agree bitwise.  Built-in kinds share
their factors between the two outputs (one ``exp`` per gaussian point, one
set of power tables and one pass over the multi-indices per polynomial
point), sums, scalar multiples and products evaluate each part once, and a
custom field calls its gradient callable only when gradients are asked for.
Built-in kernels work one coordinate column at a time, because numpy is slow
to broadcast over a short last axis, with the same operations per element as
the row formulas: the gaussian forms each ``x_k - c_k`` once for its
distance and its gradient, the product rule goes column by column, and
polynomial power tables hold, per axis, the coordinate itself as power 1
and ``pow`` for each power from 2 to the axis degree.

All norms integrate with a supplied :class:`~.geometry.DomainQuadrature` and
reduce in deterministic pairwise order; :func:`lp_norm_of_values` and
:func:`sobolev_norm_of_arrays` reduce arrays that were evaluated already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainQuadrature, check_points, squared_distances
from .summation import pairwise_sum

P_MIN = 1.0
P_MAX = 16.0

FD_CHECK_POINTS = 100
FD_CHECK_STEP = 1e-5
FD_CHECK_TOL = 1e-6
FD_CHECK_SEED = 1812


class ScalarField:
    """A scalar function with vectorized evaluation and optional gradient.

    ``evaluate(pts, gradients)`` maps an (m, n) point array to the (m,)
    values and, when ``gradients`` is true, the (m, n) gradients, else None.
    It computes the values the same way in both modes, so ``values`` and
    ``values_and_gradients(...)[0]`` agree bitwise.  ``has_gradient`` is
    False for a field that has values only.  Fields form a vector space
    under + and scalar *.
    """

    def __init__(self, dimension: int, evaluate, has_gradient: bool = True, kind: str = "custom"):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.kind = kind
        self.has_gradient = bool(has_gradient)
        self._evaluate = evaluate

    def _call(self, points, gradients: bool) -> tuple[np.ndarray, np.ndarray | None]:
        if gradients and not self.has_gradient:
            raise ValueError(f"field kind {self.kind!r} has no gradient")
        pts = check_points(points, self.dimension, "field")
        values, grads = self._evaluate(pts, gradients)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(pts),):
            raise ValueError(
                f"field evaluation returned shape {values.shape}, expected ({len(pts)},)"
            )
        if gradients:
            grads = np.asarray(grads, dtype=float)
            if grads.shape != pts.shape:
                raise ValueError(
                    f"field gradient returned shape {grads.shape}, expected {pts.shape}"
                )
        return values, grads

    def values(self, points) -> np.ndarray:
        return self._call(points, False)[0]

    def gradients(self, points) -> np.ndarray:
        """The (m, n) gradients: ``values_and_gradients(points)[1]``."""
        return self.values_and_gradients(points)[1]

    def values_and_gradients(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``(values(points), gradients(points))`` from one evaluation."""
        return self._call(points, True)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if not isinstance(other, ScalarField):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError(
                f"cannot add fields of dimension {self.dimension} and {other.dimension}"
            )

        def evaluate(pts, gradients):
            v1, g1 = self._call(pts, gradients)
            v2, g2 = other._call(pts, gradients)
            return v1 + v2, (g1 + g2 if gradients else None)

        return ScalarField(
            self.dimension, evaluate, self.has_gradient and other.has_gradient, kind="sum"
        )

    def __mul__(self, scalar) -> "ScalarField":
        c = float(scalar)

        def evaluate(pts, gradients):
            v, g = self._call(pts, gradients)
            return c * v, (c * g if gradients else None)

        return ScalarField(self.dimension, evaluate, self.has_gradient, kind="scaled")

    __rmul__ = __mul__


def _fd_gradient(f: ScalarField, points: np.ndarray, step: float) -> np.ndarray:
    m, n = points.shape
    out = np.empty((m, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        out[:, j] = (f.values(points + e) - f.values(points - e)) / (2.0 * step)
    return out


def _self_check(f: ScalarField, points: np.ndarray):
    fd = _fd_gradient(f, points, FD_CHECK_STEP)
    an = f.gradients(points)
    defect = np.abs(an - fd) / (1.0 + np.abs(an))
    worst = float(defect.max())
    if not worst <= FD_CHECK_TOL:  # a NaN defect fails too
        raise ValueError(
            f"analytic gradient of {f.kind!r} disagrees with finite differences: "
            f"relative defect {worst:.3e} exceeds {FD_CHECK_TOL:.0e}"
        )


def gaussian(center, width: float) -> ScalarField:
    """f(x) = exp(-||x - center||^2 / width^2)."""
    c = np.asarray(center, dtype=float).reshape(-1).copy()
    if not np.isfinite(c).all():
        raise ValueError(f"center must be finite, got {c}")
    w = float(width)
    # written so that NaN fails; w * w divides the exponent and the gradient
    if not (w > 0.0 and 0.0 < w * w < math.inf):
        raise ValueError(f"width must be finite and > 0 with a finite nonzero square, got {width}")
    n = len(c)

    def evaluate(pts, gradients):
        # with gradients, the differences x_k - c_k serve the distance and,
        # scaled in place column by column, the gradient; the distance has
        # the same bits with or without them
        grads = np.empty_like(pts) if gradients else None
        v = np.exp(-squared_distances(pts, c, grads) / (w * w))
        if gradients:
            for k in range(n):
                column = grads[:, k]
                column *= -2.0 / (w * w)
                column *= v
        return v, grads

    f = ScalarField(n, evaluate, kind="gaussian")
    rng = np.random.default_rng(FD_CHECK_SEED)
    _self_check(f, c + w * rng.standard_normal((FD_CHECK_POINTS, n)))
    return f


def polynomial(coeffs, dimension: int | None = None) -> ScalarField:
    """Multivariate polynomial sum_a coeffs[a] * x^a.

    ``coeffs`` is an n-dimensional array whose index along axis k is the
    power of x_k; a 1-D array gives a univariate polynomial.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("polynomial coefficients must be finite")
    if dimension is None:
        dimension = c.ndim
    if c.ndim != dimension:
        raise ValueError(
            f"coefficient array has {c.ndim} axes but dimension is {dimension}"
        )
    n = dimension
    degrees = [s - 1 for s in c.shape]

    def _power_tables(pts):
        # tables[k][d] = x_k ** d for d >= 1 (power 0 is never read): x
        # itself, then pow with a full-length exponent, which keeps numpy's
        # pow loop; a scalar exponent of 2 takes its x * x path, whose last
        # bit differs
        tables = []
        for k in range(n):
            x = pts[:, k]
            tables.append([None, x] + [np.power(x, np.full(len(x), float(d)))
                                       for d in range(2, degrees[k] + 1)])
        return tables

    def _monomial(tables, scale, powers):
        # a factor x ** 0 = 1 changes nothing, and a constant stays a scalar
        factors = [tables[k][d] for k, d in enumerate(powers) if d]
        if not factors:
            return scale
        term = scale * factors[0]
        for factor in factors[1:]:
            term *= factor
        return term

    def evaluate(pts, gradients):
        # one pass over the multi-indices; each output accumulates its terms
        # in multi-index order
        tables = _power_tables(pts)
        values = np.zeros(len(pts))
        grads = np.zeros(pts.shape) if gradients else None
        for alpha in np.ndindex(c.shape):
            if c[alpha] == 0.0:
                continue
            values += _monomial(tables, c[alpha], alpha)
            if not gradients:
                continue
            for j in range(n):
                if alpha[j]:
                    powers = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                    grads[:, j] += _monomial(tables, c[alpha] * alpha[j], powers)
        return values, grads

    f = ScalarField(n, evaluate, kind="polynomial")
    rng = np.random.default_rng(FD_CHECK_SEED + 1)
    _self_check(f, rng.uniform(-1.0, 1.0, (FD_CHECK_POINTS, n)))
    return f


def gaussian_times_poly(center, width: float, coeffs) -> ScalarField:
    """Product of a gaussian envelope and a polynomial factor."""
    g = gaussian(center, width)
    c = np.asarray(coeffs, dtype=float)
    p = polynomial(c, dimension=c.ndim if c.ndim > 0 else 1)
    if p.dimension != g.dimension:
        raise ValueError(
            f"polynomial dimension {p.dimension} vs gaussian dimension {g.dimension}"
        )

    def evaluate(pts, gradients):
        pv, pg = p._call(pts, gradients)
        gv, gg = g._call(pts, gradients)
        if gradients:
            # the product rule one column at a time, into the polynomial's gradients
            for k in range(g.dimension):
                column = pg[:, k]
                column *= gv
                column += pv * gg[:, k]
        return pv * gv, pg

    f = ScalarField(g.dimension, evaluate, kind="gaussian_times_poly")
    rng = np.random.default_rng(FD_CHECK_SEED + 2)
    _self_check(
        f, np.asarray(center, dtype=float) + width * rng.standard_normal((FD_CHECK_POINTS, g.dimension))
    )
    return f


def custom_field(dimension: int, values_fn, gradients_fn=None) -> ScalarField:
    """Wrap caller-supplied vectorized callables; no construction check."""
    return ScalarField(
        dimension,
        lambda pts, gradients: (values_fn(pts), gradients_fn(pts) if gradients else None),
        gradients_fn is not None,
    )


@dataclass(frozen=True)
class NormReport:
    """L^p and Sobolev W^{1,p} norms of one field on one quadrature.

    sobolev is exactly lp + sum(per_axis_derivative_lp).
    """

    lp: float
    per_axis_derivative_lp: np.ndarray
    sobolev: float


def _check_p(p: float) -> float:
    p = float(p)
    if p < P_MIN:
        raise ValueError(f"p must be >= {P_MIN}, got {p}")
    if p > P_MAX:
        raise ValueError(f"p must be <= {P_MAX} at desk scale, got {p}")
    return p


def _weighted_lp(values: np.ndarray, quad: DomainQuadrature, p: float) -> float:
    powered = np.abs(values) if p == 1.0 else np.abs(values) ** p
    total = float(pairwise_sum(quad.weights * powered))
    return total if p == 1.0 else total ** (1.0 / p)


def lp_norm_of_values(values: np.ndarray, p: float, quad: DomainQuadrature) -> float:
    """Discrete L^p norm of field values already evaluated on ``quad.nodes``."""
    return _weighted_lp(values, quad, _check_p(p))


def sobolev_norm_of_arrays(
    values: np.ndarray, grads: np.ndarray, p: float, quad: DomainQuadrature
) -> NormReport:
    """W^{1,p} norm of values and (m, n) gradients already evaluated on ``quad.nodes``."""
    p = _check_p(p)
    lp = _weighted_lp(values, quad, p)
    per_axis = np.array(
        [_weighted_lp(grads[:, k], quad, p) for k in range(grads.shape[1])]
    )
    return NormReport(
        lp=lp, per_axis_derivative_lp=per_axis, sobolev=lp + float(per_axis.sum())
    )


def lp_norm(f: ScalarField, p: float, quad: DomainQuadrature) -> float:
    """Discrete L^p norm (sum of w * |f|^p) ** (1/p) over the quadrature."""
    return lp_norm_of_values(f.values(quad.nodes), p, quad)


def sobolev_norm(f: ScalarField, p: float, quad: DomainQuadrature) -> NormReport:
    """W^{1,p} norm: ||f||_p plus the sum of per-axis derivative L^p norms."""
    _check_p(p)
    return sobolev_norm_of_arrays(*f.values_and_gradients(quad.nodes), p, quad)


def hajlasz_defect(f: ScalarField, witness: ScalarField, pairs: np.ndarray) -> float:
    """Worst |f(x)-f(y)| - ||x-y|| (g(x)+g(y)) over an (m, 2, n) pair array.

    Nonpositive (up to roundoff) when ``witness`` is a valid metric upper
    gradient for f on the sampled pairs.
    """
    pts = np.asarray(pairs, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != 2:
        raise ValueError(f"pairs must have shape (m, 2, n), got {pts.shape}")
    x, y = pts[:, 0, :], pts[:, 1, :]
    rho = np.sqrt(((x - y) ** 2).sum(axis=1))
    lhs = np.abs(f.values(x) - f.values(y))
    rhs = rho * (witness.values(x) + witness.values(y))
    return float((lhs - rhs).max())
