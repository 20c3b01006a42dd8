"""Euclidean motions x -> Vx + b and parametrized families of them.

V must be orthogonal to 1e-12 at construction, so every member preserves
distances and Lebesgue measure; families additionally carry the two constants
the Sobolev bound consumes (max |V entry| and max shift length).

:func:`check_domain_preserving` decides exactly, from V and b alone, whether
every member maps a domain into itself; operators run it once at
construction, so evaluation needs no per-point escape test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain
from .measure_kernel import DiscretizedMeasure, finite_group_uniform_measure

ORTHOGONALITY_TOL = 1e-12
DOMAIN_PRESERVATION_TOL = 1e-9
GROUP_SIZE_CAP = 1_000_000


@dataclass(frozen=True)
class Isometry:
    """One rigid motion: x -> matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        v = self.matrix
        b = self.offset
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"matrix must be square, got shape {v.shape}")
        if b.shape != (v.shape[0],):
            raise ValueError(
                f"offset shape {b.shape} does not match matrix shape {v.shape}"
            )
        defect = orthogonality_defect(v)
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(
                f"matrix is not orthogonal: max |V^T V - I| = {defect:.3e} "
                f"exceeds {ORTHOGONALITY_TOL:.0e}"
            )
        v.setflags(write=False)
        b.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.matrix.T + self.offset

    def inverse(self) -> "Isometry":
        return Isometry(matrix=self.matrix.T.copy(), offset=-(self.matrix.T @ self.offset))

    def compose(self, other: "Isometry") -> "Isometry":
        # self after other: x -> V1 (V2 x + b2) + b1
        return Isometry(
            matrix=self.matrix @ other.matrix,
            offset=self.matrix @ other.offset + self.offset,
        )


def make_isometry(matrix, offset=None) -> Isometry:
    v = np.asarray(matrix, dtype=float).copy()
    if offset is None:
        offset = np.zeros(v.shape[0])
    b = np.asarray(offset, dtype=float).reshape(-1).copy()
    return Isometry(matrix=v, offset=b)


def orthogonality_defect(matrix: np.ndarray) -> float:
    v = np.asarray(matrix, dtype=float)
    return float(np.abs(v.T @ v - np.eye(v.shape[0])).max())


def affine_map_defect(matrix, offset, pairs: np.ndarray) -> float:
    """Worst |d(Ax, Ay) - d(x, y)| of the affine map over an (m, 2, n) array.

    Operates on raw (V, b) so deliberately corrupted matrices can be
    measured; Isometry construction would reject them.
    """
    v = np.asarray(matrix, dtype=float)
    b = np.asarray(offset, dtype=float)
    pts = np.asarray(pairs, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != 2:
        raise ValueError(f"pairs must have shape (m, 2, n), got {pts.shape}")
    x, y = pts[:, 0, :], pts[:, 1, :]
    before = np.sqrt(((x - y) ** 2).sum(axis=1))
    ax = x @ v.T + b
    ay = y @ v.T + b
    after = np.sqrt(((ax - ay) ** 2).sum(axis=1))
    return float(np.abs(after - before).max())


def isometry_defect(iso: Isometry, pairs: np.ndarray) -> float:
    """Distance-preservation defect of a validated isometry (roundoff-level)."""
    return affine_map_defect(iso.matrix, iso.offset, pairs)


@dataclass(frozen=True)
class IsometryFamily:
    """A finite indexed family of motions, one per measure node.

    jacobian_bound is max |V[k][j]| over members (at most 1 for orthogonal
    matrices); translation_bound is max ||b||.
    """

    members: tuple[Isometry, ...]
    jacobian_bound: float
    translation_bound: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("family needs at least one member")
        dims = {m.dimension for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"members mix dimensions {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.members[0].dimension

    def __len__(self) -> int:
        return len(self.members)

    def matrices(self) -> np.ndarray:
        return np.stack([m.matrix for m in self.members])

    def offsets(self) -> np.ndarray:
        return np.stack([m.offset for m in self.members])


def make_family(members) -> IsometryFamily:
    members = tuple(members)
    jac = max(float(np.abs(m.matrix).max()) for m in members)
    if jac > 1.0 + ORTHOGONALITY_TOL:
        raise ValueError(f"orthogonal member has |entry| = {jac} > 1")
    trans = max(float(np.sqrt((m.offset**2).sum())) for m in members)
    return IsometryFamily(members=members, jacobian_bound=jac, translation_bound=trans)


def haar_orthogonal_sample(dimension: int, count: int, seed: int) -> np.ndarray:
    """Haar-uniform draws from O(n) as a (count, n, n) array.

    QR of a standard Gaussian matrix with sign(diag R) folded into the
    columns of Q; without the sign fix the draw is not Haar.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dimension, dimension))
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    signs = np.where(d < 0, -1.0, 1.0)
    return q * signs[:, None, :]


def haar_orthogonal(dimension: int, seed: int) -> np.ndarray:
    """One Haar-uniform orthogonal matrix."""
    return haar_orthogonal_sample(dimension, 1, seed)[0]


def rotation_family(dimension: int, count: int, seed: int) -> IsometryFamily:
    """Family of Haar-random orthogonal motions with zero offsets."""
    mats = haar_orthogonal_sample(dimension, count, seed)
    zero = np.zeros(dimension)
    return make_family(
        Isometry(matrix=np.ascontiguousarray(mats[i]), offset=zero.copy())
        for i in range(count)
    )


def shift_family(offsets) -> IsometryFamily:
    """1-D translations x -> x + u, one per offset."""
    u = np.asarray(offsets, dtype=float).reshape(-1)
    if len(u) == 0:
        raise ValueError("need at least one shift")
    eye = np.eye(1)
    return make_family(
        Isometry(matrix=eye.copy(), offset=np.array([ui])) for ui in u
    )


def motion_family(members) -> IsometryFamily:
    """Family from explicit (matrix, offset) pairs or Isometry objects."""
    out = []
    for m in members:
        if isinstance(m, Isometry):
            out.append(m)
        else:
            out.append(make_isometry(m[0], m[1]))
    return make_family(out)


# finite subgroups

SIGN_FLIPS = "sign_flips"
SIGNED_PERMUTATIONS = "signed_permutations"
CYCLIC_ROTATION_2D = "cyclic_rotation_2d"
FINITE_GROUP_KINDS = (SIGN_FLIPS, SIGNED_PERMUTATIONS, CYCLIC_ROTATION_2D)


def finite_group_family(
    kind: str, dimension: int, order: int | None = None
) -> tuple[IsometryFamily, DiscretizedMeasure]:
    """A finite orthogonal subgroup with its uniform probability measure.

    sign_flips enumerates all 2^n diagonal sign matrices,
    signed_permutations the full hyperoctahedral group (2^n * n!), and
    cyclic_rotation_2d the ``order`` rotations by multiples of 2*pi/order
    (dimension 2 only).  Groups larger than 1e6 members are refused.
    """
    if kind not in FINITE_GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}, expected one of {FINITE_GROUP_KINDS}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    mats: list[np.ndarray] = []
    if kind == CYCLIC_ROTATION_2D:
        if dimension != 2:
            raise ValueError(f"cyclic_rotation_2d needs dimension 2, got {dimension}")
        if order is None or order < 1:
            raise ValueError(f"cyclic_rotation_2d needs order >= 1, got {order}")
        if order > GROUP_SIZE_CAP:
            raise ValueError(f"group of size {order} exceeds cap {GROUP_SIZE_CAP}")
        for k in range(order):
            t = 2.0 * math.pi * k / order
            mats.append(np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]))
    elif kind == SIGN_FLIPS:
        size = 2**dimension
        if size > GROUP_SIZE_CAP:
            raise ValueError(f"group of size {size} exceeds cap {GROUP_SIZE_CAP}")
        for signs in itertools.product((1.0, -1.0), repeat=dimension):
            mats.append(np.diag(signs))
    else:
        size = 2**dimension * math.factorial(dimension)
        if size > GROUP_SIZE_CAP:
            raise ValueError(f"group of size {size} exceeds cap {GROUP_SIZE_CAP}")
        for perm in itertools.permutations(range(dimension)):
            for signs in itertools.product((1.0, -1.0), repeat=dimension):
                v = np.zeros((dimension, dimension))
                for row, col in enumerate(perm):
                    v[row, col] = signs[row]
                mats.append(v)
    zero = np.zeros(dimension)
    family = make_family(Isometry(matrix=v, offset=zero.copy()) for v in mats)
    return family, finite_group_uniform_measure(len(family))


class DomainEscapeError(ValueError):
    """A family member maps part of the domain out of it."""


def check_domain_preserving(family: IsometryFamily, domain: Domain) -> None:
    """Raise :class:`DomainEscapeError` unless every member maps the domain into itself.

    Exact, not sampled: :meth:`~.geometry.Domain.image_escape` gives the
    worst escape of the whole domain under each member, which may exceed
    DOMAIN_PRESERVATION_TOL only by round-off.  The error names the first
    offending member.  Truncated spaces accept every motion.
    """
    if family.dimension != domain.dimension:
        raise ValueError(
            f"family dimension {family.dimension} vs domain dimension {domain.dimension}"
        )
    escape = domain.image_escape(family.matrices(), family.offsets())
    index = int(np.argmax(escape > DOMAIN_PRESERVATION_TOL))
    if escape[index] > DOMAIN_PRESERVATION_TOL:
        raise DomainEscapeError(
            f"family member {index} leaves the domain by {escape[index]:.3e} "
            f"(> {DOMAIN_PRESERVATION_TOL:.0e}); the family does not preserve this domain"
        )
