import numpy as np
import pytest

from crossalign.rotations import batch_matrices_from_quat_wxyz, batch_quat_wxyz_from_matrices

from helpers import random_rotation


def half_turn(axis):
    """The rotation by pi about ``axis``: 2 n n^T - I."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return 2.0 * np.outer(n, n) - np.eye(3)


def test_round_trip():
    rng = np.random.default_rng(0)
    matrices = np.stack([random_rotation(rng) for _ in range(50)]).reshape(5, 10, 3, 3)
    quats = batch_quat_wxyz_from_matrices(matrices)
    assert quats.shape == (5, 10, 4)
    back = batch_matrices_from_quat_wxyz(quats)
    assert back.shape == (5, 10, 3, 3)
    assert np.abs(back - matrices).max() < 1e-14
    assert np.abs(batch_quat_wxyz_from_matrices(back) - quats).max() < 1e-14


def test_quaternions_are_normalized_before_conversion():
    rng = np.random.default_rng(1)
    quats = batch_quat_wxyz_from_matrices(np.stack([random_rotation(rng) for _ in range(8)]))
    scaled = quats * rng.uniform(0.1, 10.0, size=(8, 1))
    assert np.abs(batch_matrices_from_quat_wxyz(scaled)
                  - batch_matrices_from_quat_wxyz(quats)).max() < 1e-14


@pytest.mark.parametrize(
    "matrix, expected",
    [
        (np.eye(3), [1.0, 0.0, 0.0, 0.0]),
        (np.diag([1.0, -1.0, -1.0]), [0.0, 1.0, 0.0, 0.0]),
        (half_turn([-1.0, 1.0, 0.0]), [0.0, np.sqrt(0.5), -np.sqrt(0.5), 0.0]),
        (half_turn([-0.6, 0.8, 0.0]), [0.0, 0.6, -0.8, 0.0]),
        (half_turn([0.0, -0.6, 0.8]), [0.0, 0.0, 0.6, -0.8]),
        (np.diag([-1.0, -1.0, 1.0]), [0.0, 0.0, 0.0, 1.0]),
    ],
)
def test_sign_rule_on_half_turns(matrix, expected):
    quat = batch_quat_wxyz_from_matrices(matrix[None])[0]
    if expected[0] == 0.0:  # the tie the rule resolves by the first non-zero of x, y, z
        assert quat[0] == 0.0
    assert np.allclose(quat, expected, atol=1e-15)


def test_first_non_zero_component_is_positive():
    rng = np.random.default_rng(2)
    matrices = [random_rotation(rng) for _ in range(200)]
    matrices += [half_turn(rng.normal(size=3)) for _ in range(50)]
    quats = batch_quat_wxyz_from_matrices(np.stack(matrices))
    lead = quats[np.arange(len(quats)), np.argmax(quats != 0, axis=1)]
    assert (lead > 0).all()


def test_batch_equals_one_at_a_time_bit_for_bit():
    rng = np.random.default_rng(3)
    matrices = np.stack([random_rotation(rng) for _ in range(64)]
                        + [half_turn(rng.normal(size=3)) for _ in range(16)])
    quats = batch_quat_wxyz_from_matrices(matrices)
    assert np.array_equal(quats, np.concatenate(
        [batch_quat_wxyz_from_matrices(m[None]) for m in matrices]
    ))
    raw = rng.normal(size=(80, 4)) * rng.uniform(0.5, 2.0, size=(80, 1))
    assert np.array_equal(batch_matrices_from_quat_wxyz(raw), np.concatenate(
        [batch_matrices_from_quat_wxyz(q[None]) for q in raw]
    ))


def test_empty_input():
    assert batch_quat_wxyz_from_matrices(np.zeros((0, 3, 3))).shape == (0, 4)
    assert batch_matrices_from_quat_wxyz(np.zeros((0, 4))).shape == (0, 3, 3)
    assert batch_matrices_from_quat_wxyz(np.zeros((2, 0, 4))).shape == (2, 0, 3, 3)


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0],
                                 [1.0, np.inf, 0.0, 0.0]])
def test_zero_or_non_finite_quaternion_raises(bad):
    quats = np.array([[1.0, 0.0, 0.0, 0.0], bad])
    with pytest.raises(ValueError):
        batch_matrices_from_quat_wxyz(quats)
