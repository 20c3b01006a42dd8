"""Euclidean motions x -> Vx + b and parametrized families of them.

V must be orthogonal to 1e-12 at construction, so every member preserves
distances and Lebesgue measure.  A family is held as stacked matrices and
offsets, checked in one pass, and carries the two constants the Sobolev
bound consumes (max |V entry| and max shift length).

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


class IsometryFamily:
    """A finite indexed family of motions x -> V_i x + b_i, one per measure node.

    The family is held as a read-only ``(members, n, n)`` stack of matrices
    and a ``(members, n)`` stack of offsets; ``family[i]`` is member i as an
    :class:`Isometry`.  Construction checks every matrix orthogonal to
    ORTHOGONALITY_TOL in one pass over the stack and names the first member
    that fails.  jacobian_bound is max |V[k][j]| over members (at most 1 for
    orthogonal matrices); translation_bound is max ||b||.
    """

    def __init__(self, matrices, offsets):
        v = np.array(matrices, dtype=float, order="C")
        b = np.array(offsets, dtype=float, order="C")
        if v.ndim != 3 or v.shape[1] != v.shape[2] or v.shape[1] < 1:
            raise ValueError(f"matrices must be a (members, n, n) stack, got shape {v.shape}")
        if len(v) == 0:
            raise ValueError("family needs at least one member")
        if b.shape != v.shape[:2]:
            raise ValueError(f"offsets shape {b.shape} does not match matrices shape {v.shape}")
        eye = np.eye(v.shape[1])
        defects = np.abs(np.matmul(v.transpose(0, 2, 1), v) - eye).max(axis=(1, 2))
        bad = ~(defects <= ORTHOGONALITY_TOL)  # a NaN defect fails too
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"family member {i} is not orthogonal: max |V^T V - I| = "
                f"{defects[i]:.3e} exceeds {ORTHOGONALITY_TOL:.0e}"
            )
        v.setflags(write=False)
        b.setflags(write=False)
        self._matrices = v
        self._offsets = b
        self.jacobian_bound = float(np.abs(v).max())
        self.translation_bound = float(np.sqrt((b**2).sum(axis=1)).max())

    @property
    def dimension(self) -> int:
        return self._matrices.shape[1]

    def __len__(self) -> int:
        return len(self._matrices)

    def __getitem__(self, index: int) -> Isometry:
        return Isometry(matrix=self._matrices[index], offset=self._offsets[index])

    def matrices(self) -> np.ndarray:
        """The (members, n, n) stack of matrices, read-only."""
        return self._matrices

    def offsets(self) -> np.ndarray:
        """The (members, n) stack of offsets, read-only."""
        return self._offsets


def make_family(members) -> IsometryFamily:
    """Family stacking the given :class:`Isometry` members."""
    members = tuple(members)
    if not members:
        raise ValueError("family needs at least one member")
    dims = {m.dimension for m in members}
    if len(dims) != 1:
        raise ValueError(f"members mix dimensions {sorted(dims)}")
    return IsometryFamily(np.stack([m.matrix for m in members]),
                          np.stack([m.offset for m in members]))


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
    return IsometryFamily(haar_orthogonal_sample(dimension, count, seed),
                          np.zeros((count, dimension)))


def shift_family(offsets) -> IsometryFamily:
    """1-D translations x -> x + u, one per offset."""
    u = np.asarray(offsets, dtype=float).reshape(-1)
    if len(u) == 0:
        raise ValueError("need at least one shift")
    return IsometryFamily(np.ones((len(u), 1, 1)), u[:, None])


def motion_family(members) -> IsometryFamily:
    """Family from explicit (matrix, offset) pairs or Isometry objects."""
    return make_family(
        m if isinstance(m, Isometry) else make_isometry(m[0], m[1]) for m in members
    )


# finite subgroups

SIGN_FLIPS = "sign_flips"
SIGNED_PERMUTATIONS = "signed_permutations"
CYCLIC_ROTATION_2D = "cyclic_rotation_2d"
FINITE_GROUP_KINDS = (SIGN_FLIPS, SIGNED_PERMUTATIONS, CYCLIC_ROTATION_2D)


def finite_group_size(kind: str, dimension: int, order: int | None = None) -> int | None:
    """Member count of a finite group kind, or None when it exceeds GROUP_SIZE_CAP.

    The count is multiplied up factor by factor (2 per axis for sign_flips,
    2k for axis k of signed_permutations, whose size is 2^n n!) and the
    product stops at the first factor that takes it past the cap, so a huge
    dimension costs a few steps and never a huge factorial.
    """
    if kind == CYCLIC_ROTATION_2D:
        return order if order <= GROUP_SIZE_CAP else None
    size = 1
    for k in range(1, dimension + 1):
        size *= 2 if kind == SIGN_FLIPS else 2 * k
        if size > GROUP_SIZE_CAP:
            return None
    return size


def finite_group_family(
    kind: str, dimension: int, order: int | None = None
) -> tuple[IsometryFamily, DiscretizedMeasure]:
    """A finite orthogonal subgroup with its uniform probability measure.

    sign_flips enumerates all 2^n diagonal sign matrices,
    signed_permutations the full hyperoctahedral group (2^n * n!), and
    cyclic_rotation_2d the ``order`` rotations by multiples of 2*pi/order
    (dimension 2 only).  Groups larger than GROUP_SIZE_CAP members are refused.
    """
    if kind not in FINITE_GROUP_KINDS:
        raise ValueError(f"unknown group kind {kind!r}, expected one of {FINITE_GROUP_KINDS}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if kind == CYCLIC_ROTATION_2D:
        if dimension != 2:
            raise ValueError(f"cyclic_rotation_2d needs dimension 2, got {dimension}")
        if order is None or order < 1:
            raise ValueError(f"cyclic_rotation_2d needs order >= 1, got {order}")
    size = finite_group_size(kind, dimension, order)
    if size is None:
        raise ValueError(
            f"{kind} in dimension {dimension} exceeds the group size cap of "
            f"{GROUP_SIZE_CAP} members"
        )
    if kind == CYCLIC_ROTATION_2D:
        angles = (2.0 * math.pi * k / order for k in range(order))
        mats = np.array([[[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
                         for t in angles])
    else:
        # member order: permutations outermost, sign patterns innermost
        perms = (list(itertools.permutations(range(dimension)))
                 if kind == SIGNED_PERMUTATIONS else [tuple(range(dimension))])
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=dimension)))
        mats = np.zeros((size, dimension, dimension))
        rows = np.arange(dimension)
        cols = np.repeat(np.array(perms), len(signs), axis=0)
        mats[np.arange(size)[:, None], rows, cols] = np.tile(signs, (len(perms), 1))
    family = IsometryFamily(mats, np.zeros((size, dimension)))
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
