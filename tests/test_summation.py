import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff_op.summation import PairwiseStack, pairwise_sum


def test_matches_fsum_on_ill_conditioned_data():
    rng = np.random.default_rng(42)
    values = rng.normal(scale=1e8, size=1537)
    values[::3] *= 1e-8
    got = pairwise_sum(values)
    want = math.fsum(values)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_deterministic_and_order_fixed():
    rng = np.random.default_rng(7)
    values = rng.normal(size=1000)
    assert pairwise_sum(values) == pairwise_sum(values.copy())
    # a different order may round differently; the point is our order is fixed
    assert pairwise_sum(values) == pairwise_sum(np.array(list(values)))


def test_axis_reduction_matches_scalar_path_bitwise():
    rng = np.random.default_rng(11)
    terms = rng.normal(size=(37, 50, 3))
    stacked = pairwise_sum(terms)
    for col in range(50):
        for j in range(3):
            assert stacked[col, j] == pairwise_sum(terms[:, col, j])


def test_stack_of_aligned_blocks_matches_pairwise_sum_bitwise():
    rng = np.random.default_rng(13)
    for count in range(1, 301):
        # magnitudes spread over 16 decades, so any other grouping rounds differently
        terms = rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-8, 8, (count, 1))
        want = pairwise_sum(terms)
        for block in (1, 2, 4, 8, 32, 64, 512):
            stack = PairwiseStack()
            for lo in range(0, count, block):
                rows = terms[lo : lo + block]
                stack.push(len(rows), pairwise_sum(rows))
            assert np.array_equal(stack.total(), want), (count, block)
    with pytest.raises(ValueError, match="no blocks"):
        PairwiseStack().total()


def test_single_and_two_elements():
    assert pairwise_sum(np.array([3.5])) == 3.5
    assert pairwise_sum(np.array([1.0, 2.0])) == 3.0


def test_empty_and_scalar_rejected():
    with pytest.raises(ValueError):
        pairwise_sum(np.array([]))
    with pytest.raises(ValueError):
        pairwise_sum(np.array(3.0))


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=257))
def test_close_to_fsum_on_arbitrary_lists(values):
    got = pairwise_sum(np.array(values))
    want = math.fsum(values)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
