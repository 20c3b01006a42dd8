"""The discretized averaging operator and its gradient.

An operator bundles a measure, kernel values on its nodes, a matching family
of motions, and the domain everything lives on:

    (Hf)(x) = sum_i w_i * phi_i * f(V_i x + b_i)

Every evaluation is batched: ``apply_many``, ``apply_gradient_many`` and
``apply_and_gradient_many`` take an ``(m, n)`` array of points, and a single
point is a one-row batch.  Sums run in node-index order with pairwise
reduction, so results are reproducible bit for bit, and a point gives the
same bits alone as inside a larger batch.
The gradient applies the chain rule through each motion: component j picks up
sum_k (df/dy_k)(V_i x + b_i) * V_i[k][j], i.e. the transposed matrix acting
on the downstream gradient.

One pass over the members serves both outputs: each image V_i x + b_i is
formed once, for a block of members at a time from the family's stacked
matrices and offsets, and the field is called once per block of images
(at most ``_FIELD_ROWS`` rows).  With gradients the field's
:meth:`~.field.ScalarField.values_and_gradients` fills the value and the
gradient terms together (:meth:`HausdorffOperator.apply_and_gradient_many`,
whose second output is ``apply_gradient_many``).  ``apply_many`` runs the
same pass without gradients and agrees with it bitwise, whatever the block
boundaries: the field computes its values the same way in both modes, and
every matrix product goes through :func:`_rows_times`, which gives a row
the same bits alone as inside a larger block.  :meth:`HausdorffOperator.push`
makes that one pass the evaluation function of a field.

The member sum streams.  Points go in blocks of up to ``_FIELD_ROWS``, and
the members of a point block in aligned blocks of a power-of-two size, each
exactly one subtree of the pairwise sum over all members.  Each member
block's weighted terms are reduced with :func:`~.summation.pairwise_sum` and
pushed onto a :class:`~.summation.PairwiseStack`, which merges them as that
sum's tree does, so the result is bitwise ``pairwise_sum`` over all members
while memory stays O(block x (n + 1) x log2(members)), with no
(members x block) term array.

Every evaluation point must lie in the domain.  The constructor checks
exactly, once, that every member maps the domain into itself
(:func:`~.isometry.check_domain_preserving`), so a mispaired family and
domain fail there with a :class:`~.isometry.DomainEscapeError` naming the
member, and evaluation does no escape test.
"""

from __future__ import annotations

import numpy as np

from .field import ScalarField
from .geometry import Domain, check_points
from .isometry import IsometryFamily, check_domain_preserving
from .measure_kernel import (
    DiscretizedMeasure,
    Kernel,
    finite_group_uniform_measure,
    kernel_from_values,
    kernel_l1_norm,
)
from .summation import PairwiseStack, pairwise_sum

# cap on the points of one block and on the image rows (members x points)
# handed to one field call; the field's temporaries grow with it
_FIELD_ROWS = 1 << 14


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
        self._matrices = family.matrices()
        # the V^T stack of the image products, contiguous: numpy multiplies a
        # block of points by it about 3x faster than by a transposed view
        self._transposed = np.ascontiguousarray(self._matrices.transpose(0, 2, 1))
        self._offsets = family.offsets()

    def __len__(self) -> int:
        return len(self.measure)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def kernel_l1(self) -> float:
        return kernel_l1_norm(self.kernel, self.measure)

    def _check_inputs(self, f: ScalarField, points) -> np.ndarray:
        if f.dimension != self.dimension:
            raise ValueError(
                f"field dimension {f.dimension} vs operator dimension {self.dimension}"
            )
        pts = check_points(points, self.dimension, "operator")
        inside = self.domain.contains_many(pts)
        if not inside.all():
            k = int(np.argmin(inside))
            raise ValueError(f"evaluation point {pts[k]} lies outside the domain")
        return pts

    def _accumulate(
        self, f: ScalarField, points, gradients: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        pts = self._check_inputs(f, points)
        coeff = self._coeff
        count = len(self.family)
        n = self.dimension
        value_out = np.empty(len(pts))
        grad_out = np.empty((len(pts), n)) if gradients else None
        for start in range(0, len(pts), _FIELD_ROWS):
            chunk = pts[start : start + _FIELD_ROWS]
            rows = slice(start, start + len(chunk))
            # one field call per aligned power-of-two member block, each block
            # one subtree of the pairwise sum over all members
            step = 1 << ((_FIELD_ROWS // len(chunk)).bit_length() - 1)
            value_sum = PairwiseStack()
            grad_sum = PairwiseStack()
            for lo in range(0, count, step):
                members = slice(lo, min(lo + step, count))
                mats = self._matrices[members]
                images = _rows_times(chunk, self._transposed[members])
                offsets = self._offsets[members, None]
                # by column: numpy broadcasts slowly over a short last axis
                for k in range(n):
                    images[..., k] += offsets[..., k]
                images = images.reshape(-1, n)
                if gradients:
                    v, g = f.values_and_gradients(images)
                    g = coeff[members, None, None] * _rows_times(g.reshape(len(mats), -1, n), mats)
                    grad_sum.push(len(mats), pairwise_sum(g))
                else:
                    v = f.values(images)
                terms = coeff[members, None] * v.reshape(len(mats), -1)
                value_sum.push(len(mats), pairwise_sum(terms))
            value_out[rows] = value_sum.total()
            if gradients:
                grad_out[rows] = grad_sum.total()
        return value_out, grad_out

    def apply_many(self, f: ScalarField, points) -> np.ndarray:
        """(Hf) at each row of ``points``; rows must lie in the domain."""
        return self._accumulate(f, points, gradients=False)[0]

    def apply_gradient_many(self, f: ScalarField, points) -> np.ndarray:
        """Gradient of Hf at each row of ``points`` via the analytic formula."""
        return self.apply_and_gradient_many(f, points)[1]

    def apply_and_gradient_many(self, f: ScalarField, points) -> tuple[np.ndarray, np.ndarray]:
        """``(apply_many(f, points), apply_gradient_many(f, points))`` from one pass."""
        return self._accumulate(f, points, gradients=True)

    def push(self, f: ScalarField) -> ScalarField:
        """Hf as a lazily evaluated field (nothing is precomputed)."""

        def evaluate(pts, gradients):
            # through the public passes, so that wrapping them counts this work
            if gradients:
                return self.apply_and_gradient_many(f, pts)
            return self.apply_many(f, pts), None

        return ScalarField(self.dimension, evaluate, f.has_gradient, kind="pushforward")


def _rows_times(x: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """``x @ matrices`` over a member stack, with the same bits per row
    whatever the number of rows or members.

    ``x`` is ``(rows, n)`` or ``(members, rows, n)`` and ``matrices`` is
    ``(members, n, n)``; each member's product is the one numpy forms for
    that member alone.  numpy hands a single row to a BLAS matrix-vector
    kernel that rounds differently from the matrix-matrix kernel of larger
    blocks, so a lone row is doubled and one copy kept.  At n = 1 the product
    is one rounded multiply in either kernel, taken here as a broadcast one.
    """
    if matrices.shape[-1] == 1:
        return x * matrices
    if x.shape[-2] == 1:
        return (np.concatenate([x, x], axis=-2) @ matrices)[..., :1, :]
    return x @ matrices


def averaging_operator(family: IsometryFamily, domain: Domain) -> HausdorffOperator:
    """Uniform averaging over a family of motions, kernel identically 1.

    Each member weighs ``1 / len(family)``: pass a finite group,
    ``finite_group_family(kind, n)[0]``, or Haar draws from
    :func:`~.isometry.rotation_family` for Monte Carlo averaging over the
    full rotation group.  Every member must map the domain into itself, as
    an orthogonal one does for a ball centered at the origin or a truncated
    space.
    """
    measure = finite_group_uniform_measure(len(family))
    kernel = kernel_from_values(np.ones(len(measure)))
    return HausdorffOperator(measure=measure, kernel=kernel, family=family, domain=domain)
