"""Scalar fields on R^n with analytic gradients, plus discrete norms.

Built-in field kinds (gaussian, polynomial, gaussian_times_poly) carry
analytic gradients that are cross-checked against central finite differences
at construction, so a typo in a derivative formula fails immediately rather
than surfacing as a loose bound three modules later.  Custom fields skip the
check and may omit the gradient entirely; Sobolev norms then refuse them.

:meth:`ScalarField.values_and_gradients` returns both arrays from one
evaluation, and :meth:`ScalarField.gradients` is its second output: built-in
kinds share their factors (one ``exp`` per gaussian point, one set of power
tables per polynomial point), sums and scalar multiples combine their parts'
single evaluations, and a custom field pairs its two callables.  Built-in
kernels work one coordinate column at a time, because numpy is slow to
broadcast over a short last axis, with the same operations per element as
the row formulas: the gaussian forms each ``x_k - c_k`` once for its
distance and its gradient, the product rule goes column by column, and
polynomial power tables are column views, power 1 being the coordinate
itself, without a float ``pow``.

All norms integrate with a supplied :class:`~.geometry.DomainQuadrature` and
reduce in deterministic pairwise order; :func:`lp_norm_of_values` and
:func:`sobolev_norm_of_arrays` reduce arrays that were evaluated already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainQuadrature, squared_distances
from .summation import pairwise_sum

P_MIN = 1.0
P_MAX = 16.0

FD_CHECK_POINTS = 100
FD_CHECK_STEP = 1e-5
FD_CHECK_TOL = 1e-6
FD_CHECK_SEED = 1812


class ScalarField:
    """A scalar function with vectorized evaluation and optional gradient.

    ``values_fn`` maps an (m, n) point array to an (m,) array.  ``both_fn``,
    when given, maps it to the values and the (m, n) gradients from one
    evaluation; its values must agree with ``values_fn`` bitwise.  Fields form
    a vector space under + and scalar *.
    """

    def __init__(self, dimension: int, values_fn, both_fn=None, kind: str = "custom"):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.kind = kind
        self._values_fn = values_fn
        self._both_fn = both_fn

    @property
    def has_gradient(self) -> bool:
        return self._both_fn is not None

    def _check_points(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, field has dimension {self.dimension}"
            )
        return pts

    @staticmethod
    def _checked_values(out, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != (len(pts),):
            raise ValueError(
                f"field evaluation returned shape {out.shape}, expected ({len(pts)},)"
            )
        return out

    @staticmethod
    def _checked_gradients(out, pts: np.ndarray) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape != pts.shape:
            raise ValueError(
                f"field gradient returned shape {out.shape}, expected {pts.shape}"
            )
        return out

    def values(self, points) -> np.ndarray:
        pts = self._check_points(points)
        return self._checked_values(self._values_fn(pts), pts)

    def gradients(self, points) -> np.ndarray:
        """The (m, n) gradients: ``values_and_gradients(points)[1]``."""
        return self.values_and_gradients(points)[1]

    def values_and_gradients(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``(values(points), gradients(points))`` from one evaluation."""
        if self._both_fn is None:
            raise ValueError(f"field kind {self.kind!r} has no gradient")
        pts = self._check_points(points)
        values, grads = self._both_fn(pts)
        return self._checked_values(values, pts), self._checked_gradients(grads, pts)

    def __call__(self, x) -> float:
        return float(self.values(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if not isinstance(other, ScalarField):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError(
                f"cannot add fields of dimension {self.dimension} and {other.dimension}"
            )

        def both(pts):
            v1, g1 = self.values_and_gradients(pts)
            v2, g2 = other.values_and_gradients(pts)
            return v1 + v2, g1 + g2

        return ScalarField(
            self.dimension,
            lambda pts: self.values(pts) + other.values(pts),
            both if self.has_gradient and other.has_gradient else None,
            kind="sum",
        )

    def __mul__(self, scalar) -> "ScalarField":
        c = float(scalar)

        def both(pts):
            v, g = self.values_and_gradients(pts)
            return c * v, c * g

        return ScalarField(
            self.dimension,
            lambda pts: c * self.values(pts),
            both if self.has_gradient else None,
            kind="scaled",
        )

    __rmul__ = __mul__

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-1.0) * other


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
    # written so that NaN fails
    if not 0.0 < w < math.inf:
        raise ValueError(f"width must be finite and > 0, got {width}")
    n = len(c)

    def values(pts):
        return np.exp(-squared_distances(pts, c) / (w * w))

    def both(pts):
        # the differences x_k - c_k serve the distance and, scaled in place
        # column by column, the gradient
        grads = np.empty_like(pts)
        v = np.exp(-squared_distances(pts, c, grads) / (w * w))
        for k in range(n):
            column = grads[:, k]
            column *= -2.0 / (w * w)
            column *= v
        return v, grads

    f = ScalarField(n, values, both, kind="gaussian")
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
        # tables[k][d] = x_k ** d for d >= 1, as column views (power 0 is
        # never read).  Degree 1 needs no float pow, which makes it cheap.
        # Higher degrees keep the pow table: x * x differs from pow(x, 2) in
        # the last bit for a few percent of x, and those bits move the
        # round-off-sized gradient-check defect that bench/reference.json
        # records to 1e-9.  The exponents stay one array from 0: numpy takes
        # its x * x fast path for an exponent array of one element.
        tables = []
        for k in range(n):
            x = pts[:, k]
            if degrees[k] <= 1:
                tables.append((None, x))
            else:
                tables.append((x[:, None] ** np.arange(degrees[k] + 1)).T)
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

    def _values(tables, m):
        out = np.zeros(m)
        for alpha in np.ndindex(c.shape):
            if c[alpha] != 0.0:
                out += _monomial(tables, c[alpha], alpha)
        return out

    def _gradients(tables, m):
        out = np.zeros((m, n))
        for alpha in np.ndindex(c.shape):
            if c[alpha] == 0.0:
                continue
            for j in range(n):
                if alpha[j]:
                    powers = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
                    out[:, j] += _monomial(tables, c[alpha] * alpha[j], powers)
        return out

    def both(pts):
        tables = _power_tables(pts)
        return _values(tables, len(pts)), _gradients(tables, len(pts))

    f = ScalarField(
        n, lambda pts: _values(_power_tables(pts), len(pts)), both, kind="polynomial"
    )
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

    def values(pts):
        return p.values(pts) * g.values(pts)

    def both(pts):
        pv, pg = p.values_and_gradients(pts)
        gv, gg = g.values_and_gradients(pts)
        # the product rule one column at a time, into the polynomial's gradients
        for k in range(g.dimension):
            column = pg[:, k]
            column *= gv
            column += pv * gg[:, k]
        return pv * gv, pg

    f = ScalarField(g.dimension, values, both, kind="gaussian_times_poly")
    rng = np.random.default_rng(FD_CHECK_SEED + 2)
    _self_check(
        f, np.asarray(center, dtype=float) + width * rng.standard_normal((FD_CHECK_POINTS, g.dimension))
    )
    return f


def custom_field(dimension: int, values_fn, gradients_fn=None) -> ScalarField:
    """Wrap caller-supplied vectorized callables; no construction check."""
    both = None
    if gradients_fn is not None:
        both = lambda pts: (values_fn(pts), gradients_fn(pts))
    return ScalarField(dimension, values_fn, both, kind="custom")


@dataclass(frozen=True)
class NormReport:
    """L^p and Sobolev W^{1,p} norms of one field on one quadrature.

    sobolev is exactly lp + sum(per_axis_derivative_lp).
    """

    p: float
    lp: float
    per_axis_derivative_lp: np.ndarray
    sobolev: float
    resolution: int


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
        p=p,
        lp=lp,
        per_axis_derivative_lp=per_axis,
        sobolev=lp + float(per_axis.sum()),
        resolution=quad.resolution,
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
