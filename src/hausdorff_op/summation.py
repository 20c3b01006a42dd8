"""Deterministic pairwise reduction.

Accumulation order must not depend on chunking or thread count, so every
weighted sum in this package goes through :func:`pairwise_sum` instead of
``ndarray.sum``.  The scheme combines adjacent pairs repeatedly (index 0 with
1, 2 with 3, ...) along axis 0, which is shape-stable: summing a stacked
batch column by column gives bitwise the same result as summing each column
on its own.

:class:`PairwiseStack` gives the same bits as :func:`pairwise_sum` while the
rows arrive one aligned block at a time, holding O(log N) partial sums in
place of all N rows.
"""

from __future__ import annotations

import numpy as np


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Sum ``values`` along axis 0 with a fixed pairwise order.

    Parameters
    ----------
    values : ndarray
        Array with at least one row.

    Returns
    -------
    ndarray or scalar
        One row of ``values``.  Error grows like O(log N) in the row count,
        and the result is reproducible bit for bit.
    """
    a = np.asarray(values, dtype=float)
    if a.shape == ():
        raise ValueError("pairwise_sum needs an array, got a scalar")
    if a.shape[0] == 0:
        raise ValueError("pairwise_sum over an empty axis")
    while a.shape[0] > 1:
        m = a.shape[0] // 2
        paired = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        if a.shape[0] % 2:
            paired = np.concatenate([paired, a[-1:]], axis=0)
        a = paired
    return a[0]


class PairwiseStack:
    """``pairwise_sum(rows)`` over rows that arrive in blocks.

    Push the blocks in order, each as ``(count, pairwise_sum(block))``.
    Every block but the last must hold the same power-of-two number of rows;
    the last may hold fewer.  After k levels of :func:`pairwise_sum`, entry i
    is the sum of rows ``[i 2^k, (i + 1) 2^k)`` in that block's own pairwise
    order, so each pushed block is one subtree of the whole sum.  The stack
    merges its top two entries (left + right) while they cover the same number
    of rows, as the tree's levels do, and :meth:`total` folds what is left
    from right to left, as the tree carries an odd last entry.  The result is
    bitwise ``pairwise_sum`` of all rows; the stack holds at most
    ``log2(blocks) + 1`` partial sums.
    """

    def __init__(self):
        self._counts: list[int] = []
        self._sums: list[np.ndarray] = []

    def push(self, count: int, block_sum: np.ndarray) -> None:
        while self._counts and self._counts[-1] == count:
            count += self._counts.pop()
            block_sum = self._sums.pop() + block_sum
        self._counts.append(count)
        self._sums.append(block_sum)

    def total(self) -> np.ndarray:
        """The sum of every row pushed so far."""
        if not self._sums:
            raise ValueError("pairwise sum of no blocks")
        total = self._sums[-1]
        for left in reversed(self._sums[:-1]):
            total = left + total
        return total
