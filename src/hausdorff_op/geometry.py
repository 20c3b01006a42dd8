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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BALL = "ball"
BOX = "box"
TRUNCATED = "truncated_space"

_SHAPES = (BALL, BOX, TRUNCATED)

# from this many columns on, numpy's row reduction sums pairwise
_PAIRWISE_COLUMNS = 8

# rows of the tiles that Domain.sample_blocks scales its draws against
_TILE_ROWS = 1 << 14
# the natural log of the largest double
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def squared_distances(
    points: np.ndarray, center: np.ndarray, differences: np.ndarray | None = None
) -> np.ndarray:
    """``((points - center) ** 2).sum(axis=1)`` for an ``(m, n)`` array, bitwise.

    Below eight columns numpy adds a row's squares in column order, so they
    are accumulated the same way, one column at a time through two buffers,
    which is faster than a reduction over a short axis.  From eight columns
    on numpy sums pairwise, and the reduction itself is kept.  An ``(m, n)``
    array ``differences``, when given, receives ``points - center``.
    Without it, a column whose centre component is zero is squared as it
    stands: ``x - 0`` is ``x`` up to the sign of a zero, which squaring drops.
    """
    n = points.shape[1]
    if n >= _PAIRWISE_COLUMNS:
        return (np.subtract(points, center, out=differences) ** 2).sum(axis=1)
    term = np.empty(len(points))
    for k in range(n):
        if differences is not None:
            column = np.subtract(points[:, k], center[k], out=differences[:, k])
        elif center[k] == 0.0:
            column = points[:, k]
        else:
            column = np.subtract(points[:, k], center[k], out=term)
        if k == 0:
            total = column * column
        else:
            total += np.multiply(column, column, out=term)
    return total


def check_points(points, dimension: int, owner: str) -> np.ndarray:
    """``points`` as an ``(m, n)`` float array; a single point becomes one row.

    Raises ValueError unless ``n == dimension``, naming the ``owner`` (a
    field, domain or operator) whose dimension it is.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dimension:
        raise ValueError(
            f"points have dimension {pts.shape[1]}, {owner} has dimension {dimension}"
        )
    return pts


# Rules of up to this many nodes come from the Golub-Welsch eigenvalue method
# (at most 12 ms), larger ones from the closed form below (0.2 ms at 257
# nodes, 0.8 ms at 8192 and 4 ms at 2^15 on a 2-vCPU Xeon VM).  The closed
# form's omitted terms fall as n^-6 and are below 3e-16 relative from 257
# nodes on.  The crossover also keeps the bits of small rules: the benchmark
# compares round-off-sized gradient_check rows at 1e-9 relative, and a 64-node
# measure rebuilt another way moves them (ROADMAP item 1).
LEGENDRE_GOLUB_WELSCH_MAX_NODES = 256


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


# The first 20 zeros j_{0,k} of the Bessel function J_0 and J_1(j_{0,k})^2,
# from mpmath at 40 digits, rounded to double
_BESSEL_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
)
_BESSEL_J1_SQUARED = (
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822, 0.05403757319811628,
    0.04266142901724309, 0.0352421034909961, 0.030021070103054673, 0.02614739149530809,
    0.023159121824691393, 0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
    0.0158935181059236, 0.01473762609647219, 0.013738465145387117, 0.012866181737615133,
    0.012098051548626797, 0.011416471224491609, 0.010807592791180204, 0.010260372926280762,
)


def _bessel_zeros(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``j_{0,k}`` and ``J_1(j_{0,k})^2`` for ``k = 1 .. count``, ``count >= 20``.

    Past the tables, the zeros come from McMahon's expansion (DLMF 10.21.19)
    and ``J_1(j)^2 = 2 / (pi j S)`` from the Hankel expansion (DLMF 10.5.2,
    10.18.17); both are within 4e-16 relative from k = 21 on.
    """
    table = len(_BESSEL_J0_ZEROS)
    b = (np.arange(table + 1, count + 1) - 0.25) * np.pi
    r = 1 / (8 * b)
    r2 = r * r
    j = b + r * (1 - r2 * (124 / 3 - r2 * (120928 / 15 - r2 * (401743168 / 105))))
    jj = 1 / (j * j)
    s = 1 + jj * (-1 / 8 + jj * (27 / 128 + jj * (-1125 / 1024 + jj * (1157625 / 98304))))
    squares = 2 / (np.pi * j * s)
    return np.concatenate([_BESSEL_J0_ZEROS, j]), np.concatenate([_BESSEL_J1_SQUARED, squares])


def _asymptotic_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule in closed form, ascending: Bogaert's
    expansion (SIAM J. Sci. Comput. 36(3), 2014) in powers of
    ``nu = n + 1/2``.

    The k-th node from the right is ``cos theta_k`` with
    ``theta_k = a + F1/nu^2 + F2/nu^4 + F3/nu^6``, ``a = j_{0,k} / nu``; its
    weight is ``2 sin(a) / (nu^2 a J_1(j_{0,k})^2 (1 + W1/nu^2 + W2/nu^4))``.
    The F and W are polynomials in ``u = cot a`` and ``1/a``.  The right
    half is mirrored; an odd rule has an exact 0 in the middle.  For
    n > 256 the first omitted terms are below 3e-16 relative.
    """
    j, j1_squared = _bessel_zeros((n + 1) // 2)
    nu = n + 0.5
    v = 1 / (nu * nu)
    a = j / nu
    u = 1 / np.tan(a)
    u2 = u * u
    r = 1 / a
    f1 = (u - r) / 8
    f2 = (6 * (1 + u2) * r + 25 * r**3 - u * (31 * u2 + 33)) / 384
    f3 = (
        u * (2595 + 6350 * u2 + 3779 * u2 * u2) / 15360
        - 1073 / 5120 * r**5
        + (1 + u2) * (-(31 * u2 + 11) / 1024 * r + u / 512 * r**2 - 25 / 3072 * r**3)
    )
    w1 = (1 + (u * a - 1) * r * r) / 8
    w2 = (
        -27 - 84 * u2 - 56 * u2 * u2 + 6 * u * r + (6 * u2 - 3) * r**2
        - 31 * u * r**3 + 81 * r**4
    ) / 384
    x = np.cos(a + v * (f1 + v * (f2 + v * f3)))
    weights = 2 * np.sin(a) / (nu * nu * a * j1_squared * (1 + v * (w1 + v * w2)))
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
    """``count`` as an int >= 1, checking that every endpoint, and the span
    between two, is finite.

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
    if endpoints and not math.isfinite(endpoints[-1] - endpoints[0]):
        raise ValueError(f"interval {list(endpoints)} is longer than the largest double")
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

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {_SHAPES}")

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (lower, upper) corners of the quadrature window."""
        if self.shape == BALL:
            return self.center - self.radius, self.center + self.radius
        return self.lower.copy(), self.upper.copy()

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Closed membership in the quadrature region of each row of an ``(m, n)`` array."""
        pts = check_points(points, self.dimension, "domain")
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
        pts = check_points(points, self.dimension, "domain")
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

    def volume(self) -> float:
        """Lebesgue volume of the quadrature region (closed form); inf past
        the double range."""
        if self.shape == BALL:
            n = self.dimension
            try:
                return math.pi ** (n / 2) * self.radius**n / math.gamma(n / 2 + 1)
            except OverflowError:
                # a factor overflows; the volume may not, so take it in logs
                log_volume = (n / 2 * math.log(math.pi) + n * math.log(self.radius)
                              - math.lgamma(n / 2 + 1))
                return math.exp(log_volume) if log_volume < _LOG_DOUBLE_MAX else math.inf
        lo, hi = self.bounding_box()
        with np.errstate(over="ignore"):
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
        whose rows all lie in the domain (:meth:`contains_many`).
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
        tile = min(block, _TILE_ROWS)  # rows of lo and hi - lo, repeated
        span, lo = np.tile(hi - lo, tile), np.tile(lo, tile)

        def draws(rows):
            # rng.uniform(lo, hi, (rows, n)) in blocks: one double per entry,
            # in row-major order, scaled as lo + (hi - lo) * u.  Each block is
            # scaled flat, tile by tile, with the same two roundings but not
            # numpy's strided column ops or slow broadcast over a short axis.
            for start in range(0, rows, block):
                u = rng.random((min(block, rows - start), self.dimension))
                for first in range(0, u.size, span.size):
                    part = u.reshape(-1)[first : first + span.size]
                    part *= span[: part.size]
                    part += lo[: part.size]
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
    return Domain(dimension=dimension, shape=TRUNCATED, lower=lo, upper=hi)


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
