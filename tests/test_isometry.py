import math

import numpy as np
import pytest

from hausdorff_op.geometry import ball, box, truncated_space
from hausdorff_op.isometry import (
    CYCLIC_ROTATION_2D,
    SIGN_FLIPS,
    SIGNED_PERMUTATIONS,
    DomainEscapeError,
    affine_map_defect,
    check_domain_preserving,
    finite_group_family,
    haar_orthogonal,
    haar_orthogonal_sample,
    isometry_defect,
    make_family,
    make_isometry,
    motion_family,
    orthogonality_defect,
    rotation_family,
    shift_family,
)
from hausdorff_op.measure_kernel import finite_group_uniform_measure, kernel_from_values
from hausdorff_op.operator import HausdorffOperator


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _random_pairs(rng, count, n, scale=2.0):
    return rng.normal(scale=scale, size=(count, 2, n))


def test_apply_identity():
    iso = make_isometry(np.eye(3))
    x = np.array([0.2, -1.1, 0.7])
    assert np.array_equal(iso.apply(x), x)


def test_apply_quarter_turn():
    iso = make_isometry(_rotation(math.pi / 2.0))
    assert iso.apply([1.0, 0.0]) == pytest.approx([0.0, 1.0], abs=1e-15)


def test_apply_shift_1d():
    iso = make_isometry([[1.0]], [0.3])
    assert iso.apply([0.2])[0] == pytest.approx(0.5)


def test_orthogonality_enforced_at_construction():
    bad = np.eye(2)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError, match="orthogonal"):
        make_isometry(bad)


def test_orthogonality_defect_values():
    assert orthogonality_defect(np.eye(4)) == 0.0
    bad = np.eye(2)
    bad[0, 0] = 1.0 + 1e-3
    assert orthogonality_defect(bad) > 1e-4


def test_isometry_defect_exact_motion():
    rng = np.random.default_rng(3)
    iso = make_isometry(_rotation(0.83), [0.4, -0.9])
    pairs = _random_pairs(rng, 100, 2)
    assert isometry_defect(iso, pairs) <= 1e-12


def test_corrupted_matrix_has_large_defect():
    rng = np.random.default_rng(4)
    v = _rotation(0.83)
    v[0, 1] += 1e-3
    pairs = _random_pairs(rng, 100, 2)
    assert affine_map_defect(v, np.zeros(2), pairs) > 1e-4


def test_defect_zero_for_degenerate_pair():
    iso = make_isometry(_rotation(1.2), [1.0, 1.0])
    x = np.array([0.3, 0.4])
    pairs = np.array([[x, x]])
    assert isometry_defect(iso, pairs) == 0.0


def test_inverse_and_compose():
    rng = np.random.default_rng(5)
    iso = make_isometry(_rotation(0.4), [0.7, -0.2])
    pts = rng.normal(size=(50, 2))
    roundtrip = iso.inverse().apply_many(iso.apply_many(pts))
    assert np.abs(roundtrip - pts).max() <= 1e-12
    other = make_isometry(_rotation(-1.1), [0.0, 0.3])
    composed = other.compose(iso)
    direct = other.apply_many(iso.apply_many(pts))
    assert np.abs(composed.apply_many(pts) - direct).max() <= 1e-12


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
    a = haar_orthogonal(4, seed=12)
    b = haar_orthogonal(4, seed=12)
    assert np.array_equal(a, b)
    assert orthogonality_defect(a) <= 1e-12


def test_rotation_family_members_are_rotations():
    fam = rotation_family(3, 8, seed=1)
    assert len(fam) == 8
    assert fam.jacobian_bound <= 1.0 + 1e-12
    assert fam.translation_bound == 0.0
    for member in fam.members:
        assert abs(abs(np.linalg.det(member.matrix)) - 1.0) <= 1e-12


def test_sign_flips_group():
    fam, meas = finite_group_family(SIGN_FLIPS, 2)
    assert len(fam) == 4
    assert np.allclose(meas.weights, 0.25)
    assert meas.total_mass() == pytest.approx(1.0, abs=1e-15)
    diags = sorted(tuple(np.diag(m.matrix)) for m in fam.members)
    assert diags == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_cyclic_rotation_group():
    fam, meas = finite_group_family(CYCLIC_ROTATION_2D, 2, order=4)
    assert len(fam) == 4
    assert np.allclose(meas.weights, 0.25)
    expected = [_rotation(k * math.pi / 2.0) for k in range(4)]
    for member, want in zip(fam.members, expected):
        assert np.abs(member.matrix - want).max() <= 1e-12


def test_signed_permutations_order():
    fam, _ = finite_group_family(SIGNED_PERMUTATIONS, 2)
    assert len(fam) == 8


def test_group_closure():
    for kind, kwargs in ((SIGN_FLIPS, {}), (CYCLIC_ROTATION_2D, {"order": 6})):
        fam, _ = finite_group_family(kind, 2, **kwargs)
        mats = [m.matrix for m in fam.members]
        for a in mats:
            for b in mats:
                product = a @ b
                assert min(np.abs(product - m).max() for m in mats) <= 1e-12


def test_group_size_cap():
    with pytest.raises(ValueError, match="cap"):
        finite_group_family(SIGN_FLIPS, 21)


def test_cyclic_requires_dimension_two():
    with pytest.raises(ValueError):
        finite_group_family(CYCLIC_ROTATION_2D, 3, order=4)


def test_shift_family_examples():
    fam = shift_family([0.0])
    assert len(fam) == 1
    assert fam.members[0].apply([0.5])[0] == 0.5
    fam = shift_family([0.0, 1.0])
    assert fam.members[0].apply([0.5])[0] == 0.5
    assert fam.members[1].apply([0.5])[0] == 1.5
    rng = np.random.default_rng(6)
    fam = shift_family(rng.uniform(0.0, 1.0, 32))
    assert fam.translation_bound <= 1.0


def test_motion_family_mixed_members():
    fam = motion_family([
        (np.eye(2), None),
        (_rotation(0.5), [0.1, 0.2]),
        make_isometry(np.diag([1.0, -1.0])),
    ])
    assert len(fam) == 3
    assert fam.translation_bound == pytest.approx(math.hypot(0.1, 0.2))


def test_family_dimension_consistency():
    with pytest.raises(ValueError):
        make_family([make_isometry(np.eye(2)), make_isometry(np.eye(3))])


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
