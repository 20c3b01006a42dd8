"""Families of Euclidean motions x -> V_i x + b_i, the package's one motion type.

A family is held as stacked matrices and offsets.  Every V is checked
orthogonal to 1e-12 in one pass at construction, so every member preserves
distances and Lebesgue measure, and the family carries the constant the
Sobolev bound consumes (max |V entry|).

:func:`check_domain_preserving` decides exactly, from V and b alone, whether
every member maps a domain into itself; operators run it once at
construction, so evaluation needs no per-point escape test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import Domain
from .measure_kernel import DiscretizedMeasure, finite_group_uniform_measure

ORTHOGONALITY_TOL = 1e-12
DOMAIN_PRESERVATION_TOL = 1e-9
GROUP_SIZE_CAP = 1_000_000


class IsometryFamily:
    """A finite indexed family of motions x -> V_i x + b_i, one per measure node.

    The family is held as a read-only ``(members, n, n)`` stack of matrices
    and a ``(members, n)`` stack of offsets; member i is ``matrices()[i]``
    and ``offsets()[i]``.  Construction checks every matrix orthogonal to
    ORTHOGONALITY_TOL in one pass over the stack and names the first member
    that fails; it is the package's one orthogonality check.  jacobian_bound
    is max |V[k][j]| over members (at most 1 for orthogonal matrices).
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

    @property
    def dimension(self) -> int:
        return self._matrices.shape[1]

    def __len__(self) -> int:
        return len(self._matrices)

    def matrices(self) -> np.ndarray:
        """The (members, n, n) stack of matrices, read-only."""
        return self._matrices

    def offsets(self) -> np.ndarray:
        """The (members, n) stack of offsets, read-only."""
        return self._offsets


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
    """Family from explicit (matrix, offset) pairs.

    A None offset is zero.  The pairs go to :class:`IsometryFamily` as they
    are, so each matrix is checked once, in its one pass over the stack.
    """
    pairs = list(members)
    if not pairs:
        raise ValueError("family needs at least one member")
    dims = {len(v) for v, _ in pairs}
    if len(dims) != 1:
        raise ValueError(f"members mix dimensions {sorted(dims)}")
    (n,) = dims
    return IsometryFamily([v for v, _ in pairs],
                          [np.zeros(n) if b is None else b for _, b in pairs])


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
    (dimension 2 only, and the only kind that takes an ``order``).  Groups
    larger than GROUP_SIZE_CAP members are refused.
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
    elif order is not None:
        raise ValueError(f"order only applies to {CYCLIC_ROTATION_2D}")
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
