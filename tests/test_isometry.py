import math

import numpy as np
import pytest

from hausdorff_op import isometry
from hausdorff_op.geometry import ball, box, truncated_space
from hausdorff_op.isometry import (
    CYCLIC_ROTATION_2D,
    SIGN_FLIPS,
    SIGNED_PERMUTATIONS,
    DomainEscapeError,
    IsometryFamily,
    check_domain_preserving,
    GROUP_SIZE_CAP,
    STACK_ENTRIES_CAP,
    finite_group_family,
    finite_group_size,
    haar_orthogonal_sample,
    motion_family,
    rotation_family,
    shift_family,
)
from hausdorff_op.measure_kernel import finite_group_uniform_measure, kernel_from_values
from hausdorff_op.operator import HausdorffOperator
from hausdorff_op.summation import pairwise_sum


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_pairs(rng, count, n, scale=2.0):
    return rng.normal(scale=scale, size=(count, 2, n))


def test_orthogonality_enforced_at_construction():
    bad = np.eye(2)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="orthogonal"):
        motion_family([(bad, None)])


def test_isometry_defect_exact_motion():
    rng = np.random.default_rng(3)
    fam = motion_family([(_rotation(0.83), [0.4, -0.9])])
    pairs = _random_pairs(rng, 100, 2)
    before = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    moved = pairs @ fam.matrices()[0].T + fam.offsets()[0]
    after = np.linalg.norm(moved[:, 0] - moved[:, 1], axis=1)
    assert np.abs(after - before).max() <= 1e-12


def test_haar_o1_sign_frequency():
    draws = haar_orthogonal_sample(1, 10**5, seed=2024)
    signs = draws[:, 0, 0]
    assert np.all(np.abs(np.abs(signs) - 1.0) <= 1e-12)
    frac = (signs > 0).mean()
    sigma = math.sqrt(0.25 / 1e5)
    assert abs(frac - 0.5) <= 3.0 * sigma


def test_haar_o3_entry_means_and_column_covariance():
    draws = haar_orthogonal_sample(3, 10**5, seed=77)
    # each entry has mean 0 and variance 1/3
    sigma_entry = math.sqrt((1.0 / 3.0) / 1e5)
    assert np.abs(draws.mean(axis=0)).max() <= 3.0 * sigma_entry
    col = draws[:, :, 0]
    cov = col[:, :, None] * col[:, None, :]
    mean_cov = cov.mean(axis=0)
    sigma_cov = 1.0 / math.sqrt(1e5)  # loose bound on second-moment noise
    assert np.abs(mean_cov - np.eye(3) / 3.0).max() <= 3.0 * sigma_cov


def test_haar_orthogonal_deterministic_and_orthogonal():
    a = haar_orthogonal_sample(4, 1, seed=12)[0]
    b = haar_orthogonal_sample(4, 1, seed=12)[0]
    assert np.array_equal(a, b)
    assert np.abs(a.T @ a - np.eye(4)).max() <= 1e-12


def test_haar_stack_is_capped_before_any_draw(monkeypatch):
    assert 4 * 4 * 10**6 <= STACK_ENTRIES_CAP < 5 * 5 * 10**6
    # a draw past the cap would allocate its normals first
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match="1000000 members in dimension 5 make 25000000 matrix"):
        haar_orthogonal_sample(5, 10**6, seed=0)
    with pytest.raises(ValueError, match=f"more than the cap of {STACK_ENTRIES_CAP}"):
        rotation_family(100, 10**6, seed=0)


def test_rotation_family_members_are_rotations():
    fam = rotation_family(3, 8, seed=1)
    assert len(fam) == 8
    assert fam.jacobian_bound <= 1.0 + 1e-12
    for matrix in fam.matrices():
        assert abs(abs(np.linalg.det(matrix)) - 1.0) <= 1e-12


def test_sign_flips_group():
    fam, meas = finite_group_family(SIGN_FLIPS, 2)
    assert len(fam) == 4
    assert np.allclose(meas.weights, 0.25)
    assert pairwise_sum(meas.weights) == pytest.approx(1.0, abs=1e-15)
    diags = sorted(tuple(np.diag(v)) for v in fam.matrices())
    assert diags == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_cyclic_rotation_group():
    fam, meas = finite_group_family(CYCLIC_ROTATION_2D, 2, order=4)
    assert len(fam) == 4
    assert np.allclose(meas.weights, 0.25)
    expected = [_rotation(k * math.pi / 2.0) for k in range(4)]
    for matrix, want in zip(fam.matrices(), expected):
        assert np.abs(matrix - want).max() <= 1e-12


def test_signed_permutations_order():
    fam, _ = finite_group_family(SIGNED_PERMUTATIONS, 2)
    assert len(fam) == 8


def test_group_closure():
    for kind, kwargs in ((SIGN_FLIPS, {}), (CYCLIC_ROTATION_2D, {"order": 6})):
        fam, _ = finite_group_family(kind, 2, **kwargs)
        mats = fam.matrices()
        for a in mats:
            for b in mats:
                product = a @ b
                assert min(np.abs(product - m).max() for m in mats) <= 1e-12


def test_group_size_cap():
    with pytest.raises(ValueError, match="cap"):
        finite_group_family(SIGN_FLIPS, 21)
    with pytest.raises(ValueError, match="signed_permutations in dimension 8 exceeds"):
        finite_group_family(SIGNED_PERMUTATIONS, 8)


def test_finite_group_size_stops_at_the_cap():
    # the largest groups whose matrix stacks fit STACK_ENTRIES_CAP
    assert finite_group_size(SIGN_FLIPS, 16) * 16 * 16 == STACK_ENTRIES_CAP
    assert finite_group_size(SIGNED_PERMUTATIONS, 3) == 48
    assert finite_group_size(SIGNED_PERMUTATIONS, 6) == 2**6 * math.factorial(6)
    assert finite_group_size(CYCLIC_ROTATION_2D, 2, GROUP_SIZE_CAP) == GROUP_SIZE_CAP
    # under the member cap, but past the entries cap
    for args, members in (((SIGN_FLIPS, 17), 2**17),
                          ((SIGNED_PERMUTATIONS, 7), 2**7 * math.factorial(7))):
        with pytest.raises(ValueError, match=f"{members} members in dimension {args[1]} make"):
            finite_group_size(*args)
    for args in ((SIGN_FLIPS, 20),  # 1,048,576 members
                 (SIGNED_PERMUTATIONS, 8),  # 10,321,920 members
                 (CYCLIC_ROTATION_2D, 2, GROUP_SIZE_CAP + 1)):
        with pytest.raises(ValueError, match=f"exceeds the group size cap of {GROUP_SIZE_CAP}"):
            finite_group_size(*args)
    # a huge dimension stops after a few factors, with no n! computed
    with pytest.raises(ValueError, match="signed_permutations in dimension 10"):
        finite_group_size(SIGNED_PERMUTATIONS, 10**18)


@pytest.mark.parametrize("args, match", [
    (("rotations", 2), "unknown group kind 'rotations'"),
    ((SIGN_FLIPS, 0), "dimension must be >= 1, got 0"),
    ((SIGN_FLIPS, 2, 4), "order only applies to cyclic_rotation_2d"),
    ((CYCLIC_ROTATION_2D, 3, 4), "cyclic_rotation_2d needs dimension 2, got 3"),
    ((CYCLIC_ROTATION_2D, 2), "cyclic_rotation_2d needs order >= 1, got None"),
    ((CYCLIC_ROTATION_2D, 2, 0), "cyclic_rotation_2d needs order >= 1, got 0"),
])
def test_finite_group_size_is_the_one_check_of_a_group(monkeypatch, args, match):
    with pytest.raises(ValueError, match=match):
        finite_group_size(*args)
    # the family refuses the same arguments through it, before building a member
    monkeypatch.setattr(isometry, "IsometryFamily", None)
    with pytest.raises(ValueError, match=match):
        finite_group_family(*args)


def test_family_arrays_are_stacked_once_and_read_only():
    fam = rotation_family(3, 5, seed=4)
    matrices, offsets = fam.matrices(), fam.offsets()
    assert matrices is fam.matrices() and offsets is fam.offsets()
    assert matrices.shape == (5, 3, 3) and offsets.shape == (5, 3)
    assert not matrices.flags.writeable and not offsets.flags.writeable
    with pytest.raises(ValueError):
        matrices[0, 0, 0] = 2.0


def test_family_rejects_empty_and_mismatched_stacks():
    with pytest.raises(ValueError, match="at least one member"):
        IsometryFamily(np.empty((0, 2, 2)), np.empty((0, 2)))
    with pytest.raises(ValueError, match="at least one member"):
        motion_family([])
    with pytest.raises(ValueError, match=r"\(members, n, n\) stack"):
        IsometryFamily(np.ones((3, 2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"\(members, n, n\) stack"):
        IsometryFamily(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="offsets shape"):
        IsometryFamily(np.stack([np.eye(2)] * 3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="offsets shape"):
        IsometryFamily(np.stack([np.eye(2)] * 3), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [1.0 + 1e-9, np.nan])
def test_family_names_its_first_non_orthogonal_member(bad):
    matrices = haar_orthogonal_sample(3, 8, seed=5)
    matrices[4, 0, 0] *= bad
    matrices[6, 1, 1] *= bad
    with pytest.raises(ValueError, match="family member 4 is not orthogonal"):
        IsometryFamily(matrices, np.zeros((8, 3)))
    # motion_family leaves the check to the family's one pass
    with pytest.raises(ValueError, match="family member 4 is not orthogonal"):
        motion_family([(v, None) for v in matrices])


def test_family_bounds_equal_the_per_member_maxima():
    rng = np.random.default_rng(8)
    matrices = haar_orthogonal_sample(3, 50, seed=9)
    offsets = rng.normal(size=(50, 3))
    fam = IsometryFamily(matrices, offsets)
    assert fam.jacobian_bound == max(float(np.abs(v).max()) for v in matrices)
    fam = shift_family(rng.uniform(-3.0, 3.0, 1000))
    assert fam.jacobian_bound == 1.0


def test_family_members_are_isometries_of_the_stacks():
    matrices = haar_orthogonal_sample(2, 4, seed=10)
    offsets = np.arange(8.0).reshape(4, 2)
    fam = IsometryFamily(matrices, offsets)
    assert len(fam) == 4 and fam.dimension == 2
    assert np.array_equal(fam.matrices(), matrices)
    assert np.array_equal(fam.offsets(), offsets)
    # the family keeps its own read-only copy
    matrices[0] = np.eye(2)
    offsets[0] = 9.0
    assert not np.array_equal(fam.matrices()[0], matrices[0])
    assert not np.array_equal(fam.offsets()[0], offsets[0])


def test_cyclic_requires_dimension_two():
    with pytest.raises(ValueError):
        finite_group_family(CYCLIC_ROTATION_2D, 3, order=4)


@pytest.mark.parametrize("kind", [SIGN_FLIPS, SIGNED_PERMUTATIONS])
def test_order_is_refused_for_groups_without_one(kind):
    with pytest.raises(ValueError, match="order only applies to cyclic_rotation_2d"):
        finite_group_family(kind, 2, order=6)


def test_shift_family_examples():
    fam = shift_family([0.0])
    assert len(fam) == 1
    assert (fam.matrices()[0] @ [0.5] + fam.offsets()[0])[0] == 0.5
    fam = shift_family([0.0, 1.0])
    images = fam.matrices() @ [0.5] + fam.offsets()
    assert np.array_equal(images[:, 0], [0.5, 1.5])


def test_motion_family_mixed_members():
    fam = motion_family([
        (np.eye(2), None),
        (_rotation(0.5), [0.1, 0.2]),
        ([[1.0, 0.0], [0.0, -1.0]], (0.0, 0.0)),
    ])
    assert len(fam) == 3
    assert np.array_equal(fam.offsets(), [[0.0, 0.0], [0.1, 0.2], [0.0, 0.0]])


def test_family_dimension_consistency():
    with pytest.raises(ValueError, match="mix dimensions"):
        motion_family([(np.eye(2), None), (np.eye(3), None)])


def test_check_domain_preserving_accepts_rotations_on_ball():
    fam = rotation_family(2, 16, seed=3)
    check_domain_preserving(fam, ball([0.0, 0.0], 2.0))


def test_check_domain_preserving_rejects_shift_off_box():
    fam = motion_family([(np.eye(1), [5.0])])
    with pytest.raises(ValueError, match="leaves the domain"):
        check_domain_preserving(fam, box([0.0], [1.0]))


def test_truncated_space_accepts_any_motion():
    fam = shift_family(np.linspace(0.0, 100.0, 11))
    check_domain_preserving(fam, truncated_space(2.0, 1))


def _identity_and(matrix):
    return motion_family([(np.eye(len(matrix)), None), (matrix, None)])


def _build_operator(family, domain):
    return HausdorffOperator(
        measure=finite_group_uniform_measure(len(family)),
        kernel=kernel_from_values(np.ones(len(family))),
        family=family,
        domain=domain,
    )


EXACT_CHECKS = [check_domain_preserving, _build_operator]

PRESERVING = {
    "haar_rotations_centred_ball": (rotation_family(3, 32, seed=5), ball([0.0, 0.0, 0.0], 1.5)),
    "signed_permutations_cube": (
        finite_group_family(SIGNED_PERMUTATIONS, 3)[0], box([-1.0] * 3, [1.0] * 3)),
    "cyclic_order_4_centred_square": (
        finite_group_family(CYCLIC_ROTATION_2D, 2, order=4)[0], box([-1.0] * 2, [1.0] * 2)),
}

# (family, domain, member named, escape); the first two escapes are too small
# for 1000 uniform samples of the domain to reveal reliably
ESCAPING = {
    "rotation_1e-3_square": (
        _identity_and(_rotation(1e-3)), box([-1.0] * 2, [1.0] * 2),
        1, math.cos(1e-3) + math.sin(1e-3) - 1.0),
    "rotation_1e-5_offcentre_ball": (
        _identity_and(_rotation(1e-5)), ball([1.0, 0.0], 1.0), 1, 2.0 * math.sin(0.5e-5)),
    # members 0-3 keep the axis order; member 4 is the first swap
    "signed_permutations_non_cube": (
        finite_group_family(SIGNED_PERMUTATIONS, 2)[0], box([-1.0, -2.0], [1.0, 2.0]), 4, 1.0),
}


@pytest.mark.parametrize("check", EXACT_CHECKS)
@pytest.mark.parametrize("case", sorted(PRESERVING))
def test_exact_check_accepts_preserving_families(case, check):
    check(*PRESERVING[case])


@pytest.mark.parametrize("check", EXACT_CHECKS)
@pytest.mark.parametrize("case", sorted(ESCAPING))
def test_exact_check_rejects_and_names_the_member(case, check):
    family, domain, member, escape = ESCAPING[case]
    with pytest.raises(DomainEscapeError, match=f"family member {member} leaves the domain") as err:
        check(family, domain)
    reported = float(str(err.value).split(" by ")[1].split()[0])
    assert reported == pytest.approx(escape, rel=1e-3)
