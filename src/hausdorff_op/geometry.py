"""Euclidean integration domains and tensor-product quadrature.

Three domain shapes are supported: balls, axis-aligned boxes, and truncated
spaces.  A truncated space is the box ``[-h, h]^n`` used as a finite window
onto all of R^n: quadrature and sampling treat it exactly like the box, but
membership of transformed points is unrestricted (see
:meth:`Domain.escape_distance`), because the underlying domain is unbounded
and the window exists only to make integrals finite.

Grid quadrature is a tensor product of Gauss-Legendre rules over the bounding
box.  For balls, nodes outside the ball are dropped and their weights
discarded; the weight sum then converges to the ball volume from below as the
resolution grows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BALL = "ball"
BOX = "box"
TRUNCATED = "truncated_space"

_SHAPES = (BALL, BOX, TRUNCATED)

# from this many columns on, numpy's row reduction sums pairwise
_PAIRWISE_COLUMNS = 8


def squared_distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``((points - center) ** 2).sum(axis=1)`` for an ``(m, n)`` array, bitwise.

    Below eight columns numpy adds a row's squares in column order, so they
    are accumulated the same way, one column at a time through two buffers,
    which is faster than a reduction over a short axis.  From eight columns
    on numpy sums pairwise, and the reduction itself is kept.
    """
    n = points.shape[1]
    if n >= _PAIRWISE_COLUMNS:
        return ((points - center) ** 2).sum(axis=1)
    total = np.subtract(points[:, 0], center[0])
    total *= total
    term = np.empty_like(total)
    for k in range(1, n):
        np.subtract(points[:, k], center[k], out=term)
        term *= term
        total += term
    return total


# Rules of up to this many nodes come from the Golub-Welsch eigenvalue method
# (at most 12 ms), larger ones from the O(n) construction below.  The
# crossover only keeps the bits of small rules: the benchmark compares
# round-off-sized gradient_check rows at 1e-9 relative, and a 64-node measure
# rebuilt in O(n) moves them.  It goes once that check tolerates round-off
# (ROADMAP item 1).
LEGENDRE_GOLUB_WELSCH_MAX_NODES = 256

# terms of the Stieltjes expansion, valid to round-off where 2 n sin(theta)
# reaches _STIELTJES_MIN_ARG; nearer the ends (about 10 nodes each) the
# three-term recurrence is used
_STIELTJES_TERMS = 20
_STIELTJES_MIN_ARG = 60.0
_NEWTON_STEPS = 10


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(P_{n-1}(x), P_n(x))`` for ``n >= 1``, in one pass of the three-term
    recurrence.

    The recurrence runs in ``d = P_k - P_{k-1}``, as
    ``d = ((2k + 1) / (k + 1)) (x - 1) P_k + (k / (k + 1)) d``, in the order
    of scipy's ``eval_legendre``, so both values are bitwise scipy's wherever
    ``|x| >= 1e-5``.  Nearer 0 scipy sums a power series instead.
    """
    prev = np.ones_like(x)
    p = x.copy()
    x_minus_one = x - 1
    d = x - 1
    term = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x_minus_one, (2 * k + 1) / (k + 1), out=term)
        term *= p
        d *= k / (k + 1)
        d += term
        # P_{k+1} = P_k + d goes into the buffer of P_{k-1}
        np.add(p, d, out=prev)
        prev, p = p, prev
    return prev, p


def _golub_welsch_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule by Golub & Welsch (Math. Comp. 23,
    1969), ascending: scipy's ``roots_legendre`` step for step.

    The nodes are the eigenvalues of the Jacobi matrix, polished by one Newton
    step; the weights are ``1 / (P_{n-1} P_n')`` with both factors scaled by
    the geometric midpoint of their range, symmetrised and normalised to sum
    to 2.  ``eigvalsh`` reduces the (already tridiagonal) matrix with
    ``dsytrd``, which leaves it unchanged, and then calls ``dsterf`` as
    scipy's ``eigvals_banded`` does, so the nodes, and the weights of even
    rules, are bitwise scipy's.  Odd weights differ by up to 16 ulp, because
    scipy evaluates ``P_{n-1}`` at the middle node 0 from its gamma function.
    """
    k = np.arange(1, n, dtype=float)
    off_diagonal = k * np.sqrt(1.0 / (4 * k * k - 1))
    x = np.linalg.eigvalsh(np.diag(off_diagonal, -1))
    below, value = _legendre_pair(n, x)
    dy = (-n * x * value + n * below) / (1 - x**2)
    x -= value / dy
    fm = _legendre_pair(n, x)[0]
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _stieltjes_scale(n: int) -> float:
    """``C_n = (2 / sqrt(pi)) Gamma(n + 1) / Gamma(n + 3/2)`` to a few ulp.

    The series of log(Gamma(n + 1) / Gamma(n + 1/2)) - log(n) / 2 in odd
    powers of 1/n; its first omitted term is below 1e-22 for n > 256.
    scipy's beta and gammaln lose up to 1e-11 here.
    """
    series = 1 / (8 * n) - 1 / (192 * n**3) + 1 / (640 * n**5) - 17 / (14336 * n**7)
    return 2 / math.sqrt(math.pi) * math.sqrt(n) / (n + 0.5) * math.exp(series)


def _stieltjes(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(cos theta)`` and its theta-derivative, both over
    ``C_n (2 sin theta)^(-1/2)``, by the Stieltjes expansion (Szego 8.21.5)
    ``sum_m h_m cos(a_m) / (2 sin theta)^m`` with
    ``a_m = (n + m + 1/2) theta - (m + 1/2) pi / 2``.
    """
    sin, cos = np.sin(theta), np.cos(theta)
    cot = cos / sin
    two_sin = 2 * sin
    alpha = (n + 0.5) * theta - 0.25 * np.pi
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    term = np.ones_like(theta)  # h_m / (2 sin theta)^m
    value = np.zeros_like(theta)
    slope = np.zeros_like(theta)
    for m in range(_STIELTJES_TERMS):
        value += term * cos_a
        slope -= term * ((n + m + 0.5) * sin_a + (m + 0.5) * cot * cos_a)
        term *= (m + 0.5) ** 2 / ((m + 1) * (n + m + 1.5))
        term /= two_sin
        # a_{m+1} = a_m + theta - pi/2
        cos_a, sin_a = sin_a * cos + cos_a * sin, sin_a * sin - cos_a * cos
    return value, slope


def _recurrence(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P_n(cos theta)`` and its first two theta-derivatives by the
    three-term recurrence (:func:`_legendre_pair`).

    The recurrence sees ``x = cos theta`` rounded, which stands for the angle
    ``arccos(x)``, up to 1e-16 / sin(theta) away: near the ends that moves a
    weight by 1e-9.  Value and slope are carried back to ``theta`` by a
    Taylor step, with ``P'' = -cot(theta) P' - n (n + 1) P`` from Legendre's
    equation; that ``P''`` is the third result.
    """
    x = np.cos(theta)
    seen = np.arccos(x)
    below, value = _legendre_pair(n, x)
    slope = n * (x * value - below) / np.sin(seen)
    shift = theta - seen
    curvature = -slope / np.tan(seen) - n * (n + 1) * value
    return value + slope * shift, slope + curvature * shift, curvature


def _newton(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of ``P_n(cos .)`` by Newton in theta on :func:`_stieltjes`, and
    the slope there (scaled as there)."""
    for _ in range(_NEWTON_STEPS):
        value, slope = _stieltjes(n, theta)
        step = value / slope
        theta = theta - step
        # convergence is quadratic: what this step left is below 1e-20 theta
        if np.all(np.abs(step) <= 1e-10 * theta):
            return theta, _stieltjes(n, theta)[1]
    raise RuntimeError(f"Newton did not converge for the {n}-node Gauss-Legendre rule")


def _halley(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of ``P_n(cos .)`` near the ends by two Halley steps in theta on
    :func:`_recurrence`, and the slope there.

    Each step costs one O(n) pass of the recurrence, so the slope at the root
    comes from a Taylor step, not from a third pass.
    """
    for _ in range(2):
        value, slope, curvature = _recurrence(n, theta)
        step = value / slope
        step /= 1 - step * curvature / (2 * slope)
        theta = theta - step
    # convergence is cubic: Tricomi's guesses are within 7e-4 theta of the
    # roots here, the second step is near 3e-10 theta and leaves below 1e-20
    if not np.all(np.abs(step) <= 1e-7 * theta):
        raise RuntimeError(f"Halley did not converge for the {n}-node Gauss-Legendre rule")
    return theta, slope - curvature * step


def _asymptotic_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule in O(n) (Hale & Townsend, SIAM J. Sci.
    Comput. 35(2), 2013), ascending.

    Nodes ``x_k = cos theta_k`` with ``theta <= pi/2`` are found in theta
    from Tricomi's initial guesses, by Newton on the Stieltjes expansion and,
    near the ends, by Halley on the recurrence, and mirrored; an odd rule has an
    exact 0 in the middle.  Weights are ``2 / (dP_n/dtheta)^2``, which has no
    ``1 - x^2`` to cancel near the ends.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = (k - 0.25) * np.pi / (n + 0.5)
    # Tricomi: x_k ~ (1 - (n - 1) / 8n^3 - (39 - 28 / sin^2 phi) / 384n^4) cos phi
    scale = 1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(phi) ** 2) / (384 * n**4)
    theta = np.arccos(scale * np.cos(phi))
    slope = np.empty_like(theta)
    inner = 2 * n * np.sin(theta) >= _STIELTJES_MIN_ARG
    theta[inner], slope[inner] = _newton(n, theta[inner])
    slope[inner] *= _stieltjes_scale(n) / np.sqrt(2 * np.sin(theta[inner]))
    theta[~inner], slope[~inner] = _halley(n, theta[~inner])
    x = np.cos(theta)
    weights = 2 / slope**2
    if n % 2:
        x[-1] = 0.0
    m = n // 2
    return np.concatenate([-x[:m], x[::-1]]), np.concatenate([weights[:m], weights[::-1]])


@lru_cache(maxsize=64)
def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    if count <= LEGENDRE_GOLUB_WELSCH_MAX_NODES:
        nodes, weights = _golub_welsch_rule(count)
    else:
        nodes, weights = _asymptotic_legendre_rule(count)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _rule_count(count, *endpoints, name: str = "count") -> int:
    """``count`` as an int >= 1, checking that every endpoint is finite.

    Counts go through ``operator.index``, so numpy integers pass and floats
    such as 2.5 or 4.0 raise TypeError.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {count!r}") from None
    if count < 1:
        raise ValueError(f"need at least one node, got {name}={count}")
    for value in endpoints:
        if not math.isfinite(value):
            raise ValueError(f"interval endpoints must be finite, got {value}")
    return count


def gauss_legendre_rule(lower: float, upper: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[lower, upper]``.

    Exact for polynomials of degree ``2 * count - 1``.  ``count`` must be an
    integer and both ends finite.
    """
    count = _rule_count(count, lower, upper)
    if not upper > lower:
        raise ValueError(f"empty interval [{lower}, {upper}]")
    base_nodes, base_weights = _legendre_rule(count)
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    return mid + half * base_nodes, half * base_weights


@dataclass(frozen=True)
class Domain:
    """A closed integration region in R^n.

    Use the :func:`ball`, :func:`box` and :func:`truncated_space`
    constructors; the raw dataclass fields encode all three shapes.
    """

    dimension: int
    shape: str
    center: np.ndarray | None = None
    radius: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    halfwidth: float | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {_SHAPES}")

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, domain has dimension {self.dimension}"
            )
        return pts

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (lower, upper) corners of the quadrature window."""
        if self.shape == BALL:
            return self.center - self.radius, self.center + self.radius
        if self.shape == BOX:
            return self.lower.copy(), self.upper.copy()
        h = self.halfwidth
        return np.full(self.dimension, -h), np.full(self.dimension, h)

    def contains(self, x: np.ndarray) -> bool:
        """Closed membership of a single point in the quadrature region."""
        return bool(self.contains_many(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over an ``(m, n)`` array."""
        pts = self._check_points(points)
        if self.shape == BALL:
            return squared_distances(pts, self.center) <= self.radius * self.radius
        lo, hi = self.bounding_box()
        # by column: numpy's broadcast over a short last axis is slow
        inside = np.ones(len(pts), dtype=bool)
        for k in range(self.dimension):
            column = pts[:, k]
            inside &= column >= lo[k]
            inside &= column <= hi[k]
        return inside

    def escape_distance(self, points: np.ndarray) -> np.ndarray:
        """How far each point lies outside the domain (0 inside).

        Truncated spaces return 0 everywhere: the window is quadrature
        metadata and every point of R^n belongs to the underlying domain.
        Balls use the Euclidean excess, boxes the max componentwise excess.
        """
        pts = self._check_points(points)
        if self.shape == TRUNCATED:
            return np.zeros(len(pts))
        if self.shape == BALL:
            dist = np.sqrt(squared_distances(pts, self.center))
            return np.maximum(dist - self.radius, 0.0)
        excess_low = np.maximum(self.lower - pts, 0.0)
        excess_high = np.maximum(pts - self.upper, 0.0)
        return np.maximum(excess_low, excess_high).max(axis=1)

    def image_bounds(self, matrices: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (lower, upper) corners of the smallest box holding the
        image of the quadrature region under each motion x -> Vx + b.

        ``matrices`` is ``(m, n, n)`` and orthogonal, ``offsets`` ``(m, n)``;
        both corners are ``(m, n)``.  A ball B(c, r) maps onto B(Vc + b, r); a
        box with centre c and half-widths h spans (Vc + b)_k +- sum_j |V_kj| h_j
        along axis k, and both ends are attained.
        """
        if self.shape == BALL:
            moved = matrices @ self.center + offsets
            return moved - self.radius, moved + self.radius
        lo, hi = self.bounding_box()
        moved = matrices @ (0.5 * (lo + hi)) + offsets
        half = np.abs(matrices) @ (0.5 * (hi - lo))
        return moved - half, moved + half

    def image_escape(self, matrices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """The supremum of :meth:`escape_distance` over the image of the whole
        domain under each motion (see :meth:`image_bounds`), in closed form.

        A ball escapes by ||Vc + b - c||, a box by the excess of its image
        bounds over lower/upper; truncated spaces return 0.
        """
        if self.shape == TRUNCATED:
            return np.zeros(len(offsets))
        if self.shape == BALL:
            return np.sqrt(squared_distances(matrices @ self.center + offsets, self.center))
        lo, hi = self.image_bounds(matrices, offsets)
        return np.maximum(self.lower - lo, hi - self.upper).clip(min=0.0).max(axis=1)

    def max_distance(self, point) -> float:
        """The largest distance from ``point`` to the region (closed form).

        A ball B(c, r) reaches ``|c - point| + r``; a box or window reaches
        it at the corner farthest from ``point``.
        """
        q = np.asarray(point, dtype=float)
        if self.shape == BALL:
            return float(np.linalg.norm(self.center - q)) + self.radius
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(np.maximum(np.abs(lo - q), np.abs(hi - q))))

    def volume(self) -> float:
        """Lebesgue volume of the quadrature region (closed form)."""
        if self.shape == BALL:
            n = self.dimension
            return math.pi ** (n / 2) * self.radius**n / math.gamma(n / 2 + 1)
        lo, hi = self.bounding_box()
        return float(np.prod(hi - lo))

    def shrink(self, margin: float) -> "Domain":
        """The domain inset by ``margin`` on every side (for interior points)."""
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if self.shape == BALL:
            if margin >= self.radius:
                raise ValueError(f"margin {margin} swallows ball of radius {self.radius}")
            return ball(self.center, self.radius - margin)
        lo, hi = self.bounding_box()
        if np.any(hi - lo <= 2 * margin):
            raise ValueError(f"margin {margin} swallows box with extents {hi - lo}")
        return box(lo + margin, hi - margin)

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        """Uniform sample of ``count`` points, rejection sampling for balls.

        Deterministic for a fixed seed.  Returns an ``(count, n)`` array
        whose rows all satisfy :meth:`contains`.
        """
        return np.concatenate(list(self.sample_blocks(count, seed, count)))

    def sample_blocks(self, count: int, seed: int, block: int):
        """The rows of :meth:`sample_uniform` as a stream of fresh arrays.

        Yields arrays of at most ``block`` rows whose concatenation is
        bitwise ``sample_uniform(count, seed)``, so a caller that reduces each
        block holds O(block) memory.  Box windows give full blocks and a
        shorter last one; balls give the accepted rows of each block of
        draws.  The caller may modify each block in place.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = np.random.default_rng(seed)
        lo, hi = self.bounding_box()
        span = hi - lo

        def draws(rows):
            # rng.uniform(lo, hi, (rows, n)) in blocks: one double per entry,
            # in row-major order, scaled as lo + (hi - lo) * u.  Scaling by
            # column avoids numpy's slow broadcast over a short last axis.
            for start in range(0, rows, block):
                u = rng.random((min(block, rows - start), self.dimension))
                for k in range(self.dimension):
                    column = u[:, k]
                    column *= span[k]
                    column += lo[k]
                yield u

        if self.shape != BALL:
            yield from draws(count)
            return
        # acceptance ratio vol(ball)/vol(box) shrinks with dimension; fine at desk scale
        got = 0
        while got < count:
            for batch in draws(2 * (count - got) + 16):
                keep = batch[self.contains_many(batch)][: count - got]
                got += len(keep)
                if len(keep):
                    yield keep
                if got == count:
                    return


def ball(center, radius: float) -> Domain:
    """Closed Euclidean ball."""
    c = np.asarray(center, dtype=float).reshape(-1).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError(f"center must be finite, got {c}")
    # written so that NaN fails
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    c.setflags(write=False)
    return Domain(dimension=len(c), shape=BALL, center=c, radius=float(radius))


def box(lower, upper) -> Domain:
    """Axis-aligned closed box with componentwise corners."""
    lo = np.asarray(lower, dtype=float).reshape(-1).copy()
    hi = np.asarray(upper, dtype=float).reshape(-1).copy()
    if lo.shape != hi.shape:
        raise ValueError(f"corner shapes differ: {lo.shape} vs {hi.shape}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"box corners must be finite, got {lo} and {hi}")
    if np.any(hi <= lo):
        raise ValueError("box needs upper > lower componentwise")
    lo.setflags(write=False)
    hi.setflags(write=False)
    return Domain(dimension=len(lo), shape=BOX, lower=lo, upper=hi)


def truncated_space(halfwidth: float, dimension: int) -> Domain:
    """The box ``[-h, h]^n`` marking a finite window onto all of R^n."""
    if not 0 < halfwidth < math.inf:
        raise ValueError(f"halfwidth must be finite and > 0, got {halfwidth}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    h = float(halfwidth)
    lo = np.full(dimension, -h)
    hi = np.full(dimension, h)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return Domain(
        dimension=dimension, shape=TRUNCATED, lower=lo, upper=hi, halfwidth=h
    )


@dataclass(frozen=True)
class DomainQuadrature:
    """Nodes and weights of a grid rule over a domain.

    ``resolution`` is the Gauss-Legendre node count per axis before any
    ball masking.
    """

    nodes: np.ndarray
    weights: np.ndarray
    resolution: int

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError(
                f"{len(self.nodes)} nodes vs {len(self.weights)} weights"
            )
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def build_grid_quadrature(domain: Domain, resolution: int) -> DomainQuadrature:
    """Tensor-product Gauss-Legendre rule over the domain's bounding box.

    Parameters
    ----------
    domain : Domain
        Target region.  For balls, nodes outside the ball are dropped and
        their weights discarded, so the rule integrates over the ball with a
        boundary-cut error that vanishes under refinement.
    resolution : int
        Nodes per axis.  The raw grid has ``resolution ** n`` nodes.

    Returns
    -------
    DomainQuadrature
    """
    resolution = _rule_count(resolution, name="resolution")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    lo, hi = domain.bounding_box()
    n = domain.dimension
    axes = [gauss_legendre_rule(lo[k], hi[k], resolution) for k in range(n)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = axes[0][1]
    for k in range(1, n):
        weights = np.multiply.outer(weights, axes[k][1])
    weights = weights.ravel()
    if domain.shape == BALL:
        inside = domain.contains_many(nodes)
        nodes = nodes[inside]
        weights = weights[inside]
    return DomainQuadrature(
        nodes=np.ascontiguousarray(nodes),
        weights=np.ascontiguousarray(weights),
        resolution=resolution,
    )
