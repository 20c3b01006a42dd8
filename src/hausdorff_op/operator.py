"""The discretized averaging operator and its gradient.

An operator bundles a measure, kernel values on its nodes, a matching family
of motions, and the domain everything lives on:

    (Hf)(x) = sum_i w_i * phi_i * f(V_i x + b_i)

Sums run in node-index order with pairwise reduction, so results are
reproducible bit for bit and identical between scalar and batched paths.
The gradient applies the chain rule through each motion: component j picks up
sum_k (df/dy_k)(V_i x + b_i) * V_i[k][j], i.e. the transposed matrix acting
on the downstream gradient.

Every evaluation point must lie in the domain.  The constructor checks
exactly, once, that every member maps the domain into itself
(:func:`~.isometry.check_domain_preserving`), so a mispaired family and
domain fail there with a :class:`~.isometry.DomainEscapeError` naming the
member, and evaluation does no escape test.
"""

from __future__ import annotations

import numpy as np

from .field import ScalarField
from .geometry import Domain
from .isometry import IsometryFamily, check_domain_preserving, rotation_family, finite_group_family
from .measure_kernel import (
    MONTE_CARLO,
    DiscretizedMeasure,
    Kernel,
    kernel_from_values,
    kernel_l1_norm,
)
from .summation import pairwise_sum

# cap on the transient (members x points) term block, in elements
_BLOCK_ELEMENTS = 1 << 22


class HausdorffOperator:
    """Weighted average of a field over a family of rigid motions."""

    def __init__(
        self,
        measure: DiscretizedMeasure,
        kernel: Kernel,
        family: IsometryFamily,
        domain: Domain,
    ):
        if len(kernel) != len(measure):
            raise ValueError(
                f"kernel has {len(kernel)} values but measure has {len(measure)} nodes"
            )
        if len(family) != len(measure):
            raise ValueError(
                f"family has {len(family)} members but measure has {len(measure)} nodes"
            )
        check_domain_preserving(family, domain)
        self.measure = measure
        self.kernel = kernel
        self.family = family
        self.domain = domain
        self._coeff = measure.weights * kernel.values
        self._abs_coeff = measure.weights * np.abs(kernel.values)
        self._matrices = family.matrices()
        self._offsets = family.offsets()

    def __len__(self) -> int:
        return len(self.measure)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def kernel_l1(self) -> float:
        return kernel_l1_norm(self.kernel, self.measure)

    def _check_inputs(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, operator has dimension {self.dimension}"
            )
        inside = self.domain.contains_many(pts)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValueError(
                f"evaluation point {pts[k]} lies outside the domain"
            )
        return pts

    def _accumulate(self, f: ScalarField, pts: np.ndarray, coeff: np.ndarray, want_gradient: bool) -> np.ndarray:
        count = len(self.family)
        n = self.dimension
        per_point = n if want_gradient else 1
        block = max(1, _BLOCK_ELEMENTS // (count * per_point))
        out_shape = (len(pts), n) if want_gradient else (len(pts),)
        out = np.empty(out_shape)
        for start in range(0, len(pts), block):
            chunk = pts[start : start + block]
            if want_gradient:
                terms = np.empty((count, len(chunk), n))
            else:
                terms = np.empty((count, len(chunk)))
            for i in range(count):
                images = chunk @ self._matrices[i].T + self._offsets[i]
                if want_gradient:
                    terms[i] = coeff[i] * (f.gradients(images) @ self._matrices[i])
                else:
                    terms[i] = coeff[i] * f.values(images)
            out[start : start + len(chunk)] = pairwise_sum(terms, axis=0)
        return out

    def apply_many(self, f: ScalarField, points, absolute_kernel: bool = False) -> np.ndarray:
        """(Hf) at each row of ``points``; rows must lie in the domain."""
        if f.dimension != self.dimension:
            raise ValueError(
                f"field dimension {f.dimension} vs operator dimension {self.dimension}"
            )
        pts = self._check_inputs(points)
        coeff = self._abs_coeff if absolute_kernel else self._coeff
        return self._accumulate(f, pts, coeff, want_gradient=False)

    def apply(self, f: ScalarField, x, absolute_kernel: bool = False) -> float:
        """(Hf)(x) for a single point."""
        return float(self.apply_many(f, np.atleast_2d(np.asarray(x, dtype=float)), absolute_kernel)[0])

    def apply_gradient_many(self, f: ScalarField, points) -> np.ndarray:
        """Gradient of Hf at each row of ``points`` via the analytic formula."""
        if f.dimension != self.dimension:
            raise ValueError(
                f"field dimension {f.dimension} vs operator dimension {self.dimension}"
            )
        pts = self._check_inputs(points)
        return self._accumulate(f, pts, self._coeff, want_gradient=True)

    def apply_gradient(self, f: ScalarField, x) -> np.ndarray:
        return self.apply_gradient_many(f, np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def push(self, f: ScalarField) -> ScalarField:
        """Hf as a lazily evaluated field (nothing is precomputed)."""
        grads = None
        if f.has_gradient:
            grads = lambda pts: self.apply_gradient_many(f, pts)
        return ScalarField(
            self.dimension,
            lambda pts: self.apply_many(f, pts),
            grads,
            kind="pushforward",
        )


def averaging_operator(dimension: int, group, domain: Domain) -> HausdorffOperator:
    """Uniform averaging over an orthogonal group, kernel identically 1.

    ``group`` is a finite-group kind name (``"sign_flips"``,
    ``"signed_permutations"``), a tuple ``("cyclic_rotation_2d", order)``,
    or ``("haar_mc", count, seed)`` for Monte Carlo averaging over the full
    rotation group.  Every group member must map the domain into itself,
    as for a ball centered at the origin or a truncated space.
    """
    if domain.dimension != dimension:
        raise ValueError(
            f"domain dimension {domain.dimension} does not match {dimension}"
        )
    if isinstance(group, str):
        spec: tuple = (group,)
    else:
        spec = tuple(group)
    kind = spec[0]
    if kind == "haar_mc":
        _, count, seed = spec
        family = rotation_family(dimension, int(count), int(seed))
        measure = DiscretizedMeasure(
            nodes=np.arange(len(family), dtype=float),
            weights=np.full(len(family), 1.0 / len(family)),
            scheme=MONTE_CARLO,
        )
    elif kind == "cyclic_rotation_2d":
        family, measure = finite_group_family(kind, dimension, order=int(spec[1]))
    else:
        family, measure = finite_group_family(kind, dimension)
    kernel = kernel_from_values(np.ones(len(measure)), description="constant(c=1)")
    return HausdorffOperator(measure=measure, kernel=kernel, family=family, domain=domain)
