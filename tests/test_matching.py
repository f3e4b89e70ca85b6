import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import geometry, matching
from crossalign.errors import (
    GeometryError,
    InvalidConfig,
    NoCommonFrames,
    NoConvergence,
    NoViableProposal,
)
from crossalign.geometry import Extrinsics, project, solve_pnp
from crossalign.matching import (
    JOINTS,
    CostMatrix,
    MatchSet,
    PcmConfig,
    PersonTrack2D,
    PersonTrack3D,
    body_pose_cost,
    flatten_body_pose,
    frame_slice,
    hungarian,
    match_sequences,
    match_with_strategy,
    optimize_frame_match,
    pose_similarity,
    reprojection_cost,
    smooth_extrinsics,
    variance_of_translations,
    weighted_cost,
)
from crossalign.simulator import SceneConfig, accuracy, generate
from crossalign.skeleton import default_skeleton, fk_points, forward_kinematics

from helpers import make_intrinsics, random_camera, random_rotation, sides

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def random_pose_sequence(rng, frames, scale=0.6):
    from scipy.spatial.transform import Rotation

    vecs = rng.normal(0.0, scale, size=(frames, JOINTS, 3))
    return Rotation.from_rotvec(vecs.reshape(-1, 3)).as_matrix().reshape(frames, JOINTS, 3, 3)


def track3d_from(rng, frames, person_id="a", joints=None, body_pose=None, valid=None):
    joints = joints if joints is not None else rng.normal(0.0, 1.0, size=(frames, JOINTS, 3))
    body_pose = body_pose if body_pose is not None else random_pose_sequence(rng, frames)
    valid = valid if valid is not None else np.ones(frames, dtype=bool)
    return PersonTrack3D(person_id, joints, body_pose, valid)


def track2d_from(rng, frames, person_id="b", joints=None, confidence=None, body_pose=None, valid=None):
    joints = joints if joints is not None else rng.uniform(0, 1000, size=(frames, JOINTS, 2))
    confidence = confidence if confidence is not None else np.ones((frames, JOINTS))
    body_pose = body_pose if body_pose is not None else random_pose_sequence(rng, frames)
    valid = valid if valid is not None else np.ones(frames, dtype=bool)
    return PersonTrack2D(person_id, joints, confidence, body_pose, valid)


# ---------------------------------------------------------------------------
# Pose similarity


class TestPoseSimilarity:
    def test_identical_sequences_score_one(self):
        rng = np.random.default_rng(0)
        pose = random_pose_sequence(rng, 12)
        t3 = track3d_from(rng, 12, body_pose=pose)
        t2 = track2d_from(rng, 12, body_pose=pose.copy())
        assert pose_similarity(t3, t2) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_sequences_score_minus_one(self):
        # Frame-wise negated pose vectors: the cosine is exactly -1.
        rng = np.random.default_rng(1)
        pose = random_pose_sequence(rng, 8)
        t3 = track3d_from(rng, 8, body_pose=pose)
        t2 = track2d_from(rng, 8, body_pose=-pose)
        assert pose_similarity(t3, t2) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_per_frame_loop_oracle(self):
        rng = np.random.default_rng(2)
        t3 = track3d_from(rng, 10)
        t2 = track2d_from(rng, 10)
        values = []
        for t in range(10):
            a = t3.body_pose[t, 1:].reshape(-1)
            b = t2.body_pose[t, 1:].reshape(-1)
            values.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert pose_similarity(t3, t2) == pytest.approx(np.mean(values), abs=1e-12)

    def test_uses_only_common_frames(self):
        rng = np.random.default_rng(3)
        v3 = np.array([True, True, False, True])
        v2 = np.array([False, True, True, True])
        t3 = track3d_from(rng, 4, valid=v3)
        t2 = track2d_from(rng, 4, valid=v2)
        common = v3 & v2
        expected = []
        for t in np.flatnonzero(common):
            a = t3.body_pose[t, 1:].reshape(-1)
            b = t2.body_pose[t, 1:].reshape(-1)
            expected.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert pose_similarity(t3, t2) == pytest.approx(np.mean(expected), abs=1e-12)

    def test_no_common_frames_raises(self):
        rng = np.random.default_rng(4)
        t3 = track3d_from(rng, 4, valid=np.array([True, True, False, False]))
        t2 = track2d_from(rng, 4, valid=np.array([False, False, True, True]))
        with pytest.raises(NoCommonFrames):
            pose_similarity(t3, t2)

    def test_symmetric_and_rigid_invariant(self):
        # The similarity reads only body poses, never joint positions, and
        # excludes the root rotation, so it is symmetric and unchanged by any
        # rigid transform of the 3D track.
        rng = np.random.default_rng(5)
        pose3 = random_pose_sequence(rng, 6)
        pose2 = random_pose_sequence(rng, 6)
        t3 = track3d_from(rng, 6, body_pose=pose3)
        t2 = track2d_from(rng, 6, body_pose=pose2)
        baseline = pose_similarity(t3, t2)

        swapped3 = track3d_from(rng, 6, body_pose=pose2.copy())
        swapped2 = track2d_from(rng, 6, body_pose=pose3.copy())
        assert pose_similarity(swapped3, swapped2) == pytest.approx(baseline, abs=1e-12)

        g_rot = random_rotation(rng)
        g_t = rng.normal(size=3)
        moved_pose = pose3.copy()
        moved_pose[:, 0] = g_rot @ pose3[:, 0]
        moved = track3d_from(
            rng, 6, joints=t3.joints @ g_rot.T + g_t, body_pose=moved_pose
        )
        assert pose_similarity(moved, t2) == pytest.approx(baseline, abs=1e-12)

    def test_flatten_excludes_root(self):
        rng = np.random.default_rng(6)
        pose = random_pose_sequence(rng, 3)
        flat = flatten_body_pose(pose)
        assert flat.shape == (3, 207)
        changed = pose.copy()
        changed[:, 0] = np.eye(3)
        assert np.array_equal(flatten_body_pose(changed), flat)


# ---------------------------------------------------------------------------
# Hungarian assignment


def brute_force_total(values, maximize=False):
    """Exhaustive optimum over every injective assignment of min(n, m) pairs."""
    n, m = values.shape
    k = min(n, m)
    best = -math.inf if maximize else math.inf
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            total = sum(values[r, c] for r, c in zip(rows, cols))
            best = max(best, total) if maximize else min(best, total)
    return best


class TestHungarian:
    def test_diagonal_optimum(self):
        result = hungarian(CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert result.pairs == ((0, 0), (1, 1))
        assert sum(result.residuals) == 0.0

    def test_singleton(self):
        result = hungarian(CostMatrix(np.array([[5.0]])))
        assert result.pairs == ((0, 0),)
        assert result.residuals == (5.0,)

    def test_empty_inputs_give_empty_match(self):
        result = hungarian(CostMatrix(np.zeros((0, 3))))
        assert result.pairs == ()
        assert result.unmatched2d == (0, 1, 2)
        result = hungarian(CostMatrix(np.zeros((2, 0))))
        assert result.unmatched3d == (0, 1)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n, m = rng.integers(1, 7, size=2)
            values = rng.normal(0.0, 10.0, size=(n, m))
            for maximize in (False, True):
                result = hungarian(CostMatrix(values, maximize=maximize))
                total = sum(values[i, j] for i, j in result.pairs)
                assert total == pytest.approx(brute_force_total(values, maximize), abs=1e-9)
                assert len(result.pairs) == min(n, m)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_brute_force_property(self, n, m, seed):
        values = np.random.default_rng(seed).uniform(-5, 5, size=(n, m))
        result = hungarian(CostMatrix(values))
        total = sum(values[i, j] for i, j in result.pairs)
        assert total == pytest.approx(brute_force_total(values), abs=1e-9)

    def test_lexicographic_tie_break(self):
        # All-tied matrices resolve to the identity-leaning assignment.
        assert hungarian(CostMatrix(np.zeros((3, 3)))).pairs == ((0, 0), (1, 1), (2, 2))
        assert hungarian(CostMatrix(np.ones((2, 3)))).pairs == ((0, 0), (1, 1))
        assert hungarian(CostMatrix(np.ones((3, 2)))).pairs == ((0, 0), (1, 1))
        assert hungarian(CostMatrix(np.full((2, 2), 4.0), maximize=True)).pairs == (
            (0, 0),
            (1, 1),
        )
        # Two optima: {(0,0),(1,1)} and {(0,1),(1,0)} both total 2; prefer the
        # one whose first pair is (0, 0).
        tied = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hungarian(CostMatrix(tied)).pairs == ((0, 0), (1, 1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[np.inf, 0.0]]))

    def test_match_set_partition_invariant(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(4, 6))
        result = hungarian(CostMatrix(values))
        used3 = sorted([i for i, _ in result.pairs] + list(result.unmatched3d))
        used2 = sorted([j for _, j in result.pairs] + list(result.unmatched2d))
        assert used3 == list(range(4))
        assert used2 == list(range(6))


def re_solved(costs):
    """The reference for ``_assign_stack``: each matrix of the stack assigned
    alone by the biased ``linear_sum_assignment`` re-solves."""
    return [tuple(matching._lexicographic_pairs(c)) for c in costs]


def near_tied(rng, n, m, gap):
    """An (n, m) matrix whose two cheapest maps, both drawn from the
    enumeration table, total 0 (the earlier one) and -gap * rtol * scale; every
    other entry costs 10-20."""
    costs = rng.uniform(10.0, 20.0, size=(n, m))
    maps = matching._assignment_table(n, m)[2]
    first, second = sorted(rng.choice(len(maps), size=2, replace=False))
    for i, j in maps[first] + maps[second]:
        costs[i, j] = 0.0
    i, j = next(p for p in maps[second] if p not in maps[first])
    costs[i, j] = -gap * matching.ASSIGNMENT_TIE_RTOL * max(1.0, np.abs(costs).max())
    return costs


# Enumerated shapes: at most 5! = 120 maps each.
SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5))


class TestAssignStack:
    @settings(max_examples=40, deadline=None)
    @given(SHAPES, st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_random_matrices_equal_the_re_solves(self, shape, k, seed):
        costs = np.random.default_rng(seed).normal(0.0, 10.0, size=(k,) + shape)
        assert matching._assign_stack(costs) == re_solved(costs)

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_integer_matrices_with_exact_ties(self, shape, k, top, seed):
        costs = np.random.default_rng(seed).integers(0, top + 1, size=(k,) + shape).astype(float)
        assert matching._assign_stack(costs) == re_solved(costs)

    @settings(max_examples=40, deadline=None)
    @given(SHAPES.filter(lambda s: s != (1, 1)), st.sampled_from([0.01, 4.0]),
           st.integers(0, 2**31 - 1))
    def test_near_ties_on_both_sides_of_the_tolerance(self, shape, gap, seed):
        # A gap of 0.01 rtol * scale is a tie to both (the earlier map wins);
        # one of 4 rtol * scale is a difference to both (the cheaper map wins).
        rng = np.random.default_rng(seed)
        costs = np.stack([near_tied(rng, *shape, gap) for _ in range(3)])
        chosen = matching._assign_stack(costs)
        assert chosen == re_solved(costs)
        rows, cols, maps = matching._assignment_table(*shape)
        for matrix, pairs in zip(costs, chosen):
            totals = matrix[rows, cols].sum(axis=-1)
            best = totals.min() if gap > 1 else 0.0
            assert pairs == maps[np.flatnonzero(totals <= best)[0]]

    def test_inside_the_band_the_earlier_map_wins(self):
        # The one class where the two differ: totals apart by more than the
        # re-solves' column bias (rtol * scale / 12 here) but within the
        # enumeration's tolerance (rtol * scale / 2). The enumeration keeps
        # the lexicographically first map; the re-solves take the cheaper one.
        gap = 0.3 * matching.ASSIGNMENT_TIE_RTOL
        costs = np.array([[[0.0, 0.0], [-gap, 0.0]]])
        assert matching._assign_stack(costs) == [((0, 0), (1, 1))]
        assert re_solved(costs) == [((0, 1), (1, 0))]

    @settings(max_examples=30, deadline=None)
    @given(SHAPES, st.booleans(), st.integers(0, 2**31 - 1))
    def test_maximize_through_hungarian(self, shape, integer, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=shape) if integer else rng.normal(size=shape)
        values = values.astype(float)
        result = hungarian(CostMatrix(values, maximize=True))
        assert result.pairs == re_solved(-values[None])[0]
        assert result.residuals == tuple(values[i, j] for i, j in result.pairs)

    def test_table_order_and_the_enumeration_bound(self, monkeypatch):
        assert matching._assignment_table(3, 2)[2] == (
            ((0, 0), (1, 1)), ((0, 0), (2, 1)), ((0, 1), (1, 0)),
            ((0, 1), (2, 0)), ((1, 0), (2, 1)), ((1, 1), (2, 0)),
        )
        rng = np.random.default_rng(11)
        # 3 x 6 enumerates 120 maps, 6 x 6 720; 7 x 7 and 4 x 10 re-solve.
        for shape in ((3, 6), (6, 6), (7, 7), (4, 10)):
            costs = rng.integers(0, 3, size=(4,) + shape).astype(float)
            assert matching._assign_stack(costs) == re_solved(costs)
            monkeypatch.setattr(matching, "STACK_FLOATS", 1)  # one matrix per slice
            assert matching._assign_stack(costs) == re_solved(costs)
            monkeypatch.undo()
        assert matching._assign_stack(np.zeros((2, 0, 3))) == [(), ()]


class TestMatchSet:
    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            MatchSet(((0, 0), (0, 1)), (0.0, 0.0), (), ())

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError):
            MatchSet(((0, 1),), (0.0,), (2,), (0,))


# ---------------------------------------------------------------------------
# Costs


def exact_scene_pair(rng, frames=1, offset=None):
    """A 3D track plus the 2D track produced by projecting it exactly."""
    k = make_intrinsics()
    extr = random_camera(rng, target=(0.0, 0.0, 1.0), distance=8.0)
    joints = rng.normal(0.0, 0.6, size=(frames, JOINTS, 3)) + [0.0, 0.0, 1.0]
    pixels = np.stack([project(k, extr, joints[t]) for t in range(frames)])
    if offset is not None:
        pixels = pixels + offset
    pose = random_pose_sequence(rng, frames)
    t3 = PersonTrack3D("a", joints, pose, np.ones(frames, dtype=bool))
    t2 = PersonTrack2D("b", pixels, np.ones((frames, JOINTS)), pose.copy(), np.ones(frames, dtype=bool))
    return t3, t2, extr, k


class TestReprojectionCost:
    def test_exact_projection_costs_zero(self):
        t3, t2, extr, k = exact_scene_pair(np.random.default_rng(9))
        assert reprojection_cost(t3, t2, extr, k, 0) == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_is_its_norm(self):
        t3, t2, extr, k = exact_scene_pair(np.random.default_rng(10), offset=np.array([3.0, 4.0]))
        assert reprojection_cost(t3, t2, extr, k, 0) == pytest.approx(5.0, abs=1e-9)

    def test_matches_per_joint_loop_oracle(self):
        rng = np.random.default_rng(11)
        t3, t2, extr, k = exact_scene_pair(rng)
        noisy = t2.joints + rng.normal(0.0, 5.0, size=t2.joints.shape)
        conf = rng.uniform(0.1, 1.0, size=(1, JOINTS))
        t2n = PersonTrack2D("b", noisy, conf, t2.body_pose, t2.valid)
        num = den = 0.0
        for j in range(JOINTS):
            d = np.linalg.norm(project(k, extr, t3.joints[0, j]) - noisy[0, j])
            num += conf[0, j] * d
            den += conf[0, j]
        assert reprojection_cost(t3, t2n, extr, k, 0) == pytest.approx(num / den, abs=1e-10)

    def test_behind_camera_joint_uses_penalty(self):
        rng = np.random.default_rng(12)
        t3, t2, extr, k = exact_scene_pair(rng)
        joints = t3.joints.copy()
        # Push one joint far behind the camera.
        center = -extr.rotation.T @ extr.translation
        joints[0, 0] = center - extr.rotation[2] * 5.0
        t3b = PersonTrack3D("a", joints, t3.body_pose, t3.valid)
        expected = (k.diagonal + 0.0 * (JOINTS - 1)) / JOINTS
        assert reprojection_cost(t3b, t2, extr, k, 0) == pytest.approx(expected, rel=1e-6)

    def test_zero_confidence_everywhere_gives_penalty(self):
        t3, t2, extr, k = exact_scene_pair(np.random.default_rng(13))
        t2z = PersonTrack2D("b", t2.joints, np.zeros((1, JOINTS)), t2.body_pose, t2.valid)
        assert reprojection_cost(t3, t2z, extr, k, 0) == k.diagonal

    def test_nan_joint_without_confidence_is_ignored(self):
        rng = np.random.default_rng(14)
        t3, t2, extr, k = exact_scene_pair(rng)
        noisy = t2.joints + rng.normal(0.0, 5.0, size=t2.joints.shape)
        conf = rng.uniform(0.1, 1.0, size=(1, JOINTS))
        noisy[0, 5] = np.nan
        conf[0, 5] = 0.0
        t2n = PersonTrack2D("b", noisy, conf, t2.body_pose, t2.valid)
        others = [j for j in range(JOINTS) if j != 5]
        dists = [np.linalg.norm(project(k, extr, t3.joints[0, j]) - noisy[0, j]) for j in others]
        expected = np.dot(conf[0, others], dists) / conf[0, others].sum()
        cost = reprojection_cost(t3, t2n, extr, k, 0)
        assert math.isfinite(cost)
        assert cost == pytest.approx(expected, abs=1e-10)


class TestBodyPoseCost:
    def test_identical_poses_cost_zero(self):
        rng = np.random.default_rng(14)
        k = make_intrinsics()
        extr = random_camera(rng, target=(0.0, 0.0, 1.0), distance=9.0)
        pose = random_pose_sequence(rng, 1)[0]
        root = np.array([0.5, -0.5, 1.0])
        assert body_pose_cost(pose, pose.copy(), root, extr, k) == pytest.approx(0.0, abs=1e-12)

    def test_grows_with_articulation_angle(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(15)
        k = make_intrinsics()
        extr = random_camera(rng, target=(0.0, 0.0, 1.0), distance=9.0)
        pose = random_pose_sequence(rng, 1, scale=0.3)[0]
        root = np.array([0.0, 0.0, 1.0])
        elbow = 18  # a mid-chain joint with descendants
        costs = []
        for angle in np.linspace(0.1, np.pi / 2, 8):
            bent = pose.copy()
            bent[elbow] = pose[elbow] @ Rotation.from_rotvec([angle, 0.0, 0.0]).as_matrix()
            costs.append(body_pose_cost(pose, bent, root, extr, k))
        assert costs[0] > 0.0
        assert np.all(np.diff(costs) > 0.0)

    def test_matches_fk_project_mean_oracle(self):
        rng = np.random.default_rng(16)
        k = make_intrinsics()
        skeleton = default_skeleton()
        extr = random_camera(rng, target=(0.0, 0.0, 1.0), distance=9.0)
        pa = random_pose_sequence(rng, 1)[0]
        pb = random_pose_sequence(rng, 1)[0]
        root = np.array([0.3, 0.2, 0.9])
        ja = forward_kinematics(skeleton, pa, root)
        jb = forward_kinematics(skeleton, pb, root)
        dists = [np.linalg.norm(project(k, extr, ja[j]) - project(k, extr, jb[j])) for j in range(JOINTS)]
        assert body_pose_cost(pa, pb, root, extr, k) == pytest.approx(np.mean(dists), abs=1e-9)


class TestWeightedCost:
    def test_zero_lambda_equals_reprojection(self):
        rng = np.random.default_rng(17)
        t3, t2, extr, k = exact_scene_pair(rng, offset=np.array([1.0, 2.0]))
        assert weighted_cost(t3, t2, extr, k, 0, 0.0) == reprojection_cost(t3, t2, extr, k, 0)

    def test_combination_is_exact(self):
        rng = np.random.default_rng(18)
        t3, t2, extr, k = exact_scene_pair(rng, offset=np.array([4.0, -2.0]))
        pose2 = random_pose_sequence(rng, 1)
        t2m = PersonTrack2D("b", t2.joints, t2.confidence, pose2, t2.valid)
        reproj = reprojection_cost(t3, t2m, extr, k, 0)
        bp = body_pose_cost(t3.body_pose[0], pose2[0], t3.joints[0, 0], extr, k)
        for lam in (0.1, 1.0, 2.5):
            assert weighted_cost(t3, t2m, extr, k, 0, lam) == pytest.approx(
                reproj + lam * bp, abs=1e-12
            )


# ---------------------------------------------------------------------------
# Variance gate and smoothing


class TestVarianceOfTranslations:
    def test_constant_translation_zero(self):
        rng = np.random.default_rng(19)
        rot = random_rotation(rng)
        seq = [Extrinsics(rot, np.array([1.0, 2.0, 3.0])) for _ in range(5)]
        assert variance_of_translations(seq) == 0.0

    def test_two_point_example(self):
        seq = [
            Extrinsics(np.eye(3), np.zeros(3)),
            Extrinsics(np.eye(3), np.array([2.0, 0.0, 0.0])),
        ]
        assert variance_of_translations(seq) == pytest.approx(2.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(20)
        translations = rng.normal(0.0, 3.0, size=(17, 3))
        seq = [Extrinsics(np.eye(3), t) for t in translations]
        total = 0.0
        for axis in range(3):
            mean = translations[:, axis].mean()
            total += ((translations[:, axis] - mean) ** 2).sum() / (len(translations) - 1)
        assert variance_of_translations(seq) == pytest.approx(total, abs=1e-12)

    def test_single_frame_is_zero(self):
        assert variance_of_translations([Extrinsics.identity()]) == 0.0


class TestSmoothExtrinsics:
    def test_median_fills_isolated_gaps(self):
        rng = np.random.default_rng(21)
        rot = random_rotation(rng)
        seq = [Extrinsics(rot, np.array([float(t), 0.0, 0.0])) for t in range(7)]
        seq[3] = None
        out = smooth_extrinsics(seq, 3)
        assert out[3] is not None
        assert out[3].translation[0] == pytest.approx(np.median([2.0, 4.0]))

    def test_window_one_is_identity(self):
        seq = [Extrinsics.identity(), None]
        assert smooth_extrinsics(seq, 1) == seq

    def test_equals_a_per_window_reference(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(23)
        base = random_rotation(rng)
        seq = []
        for t in range(40):
            tilt = Rotation.from_rotvec(rng.normal(0.0, 0.05, size=3)).as_matrix()
            seq.append(Extrinsics(tilt @ base, rng.normal(size=3)))
        for t in (0, 5, 6, 7, 20, 39):
            seq[t] = None
        for window in (2, 3, 5, 9):
            out = smooth_extrinsics(seq, window)
            half = window // 2
            for t, got in enumerate(out):
                near = [e for e in seq[max(0, t - half) : t + half + 1] if e is not None]
                if not near:
                    assert got is None
                    continue
                q = Rotation.from_matrix(np.array([e.rotation for e in near])).as_quat()
                q[q @ q[0] < 0] *= -1.0
                median = np.median(q, axis=0)
                expected = Rotation.from_quat(median / np.linalg.norm(median)).as_matrix()
                assert np.abs(got.rotation - expected).max() < 1e-14
                assert np.array_equal(
                    got.translation, np.median([e.translation for e in near], axis=0)
                )

    def test_no_pose_anywhere_stays_empty(self):
        assert smooth_extrinsics([None, None, None], 3) == [None, None, None]

    def test_median_suppresses_outlier_frame(self):
        rng = np.random.default_rng(22)
        rot = random_rotation(rng)
        seq = [Extrinsics(rot, np.array([1.0, 1.0, 1.0])) for _ in range(9)]
        seq[4] = Extrinsics(rot, np.array([500.0, -500.0, 0.0]))
        out = smooth_extrinsics(seq, 5)
        assert np.allclose(out[4].translation, [1.0, 1.0, 1.0])


def pair_residual_loop(track3d, track2d, extrinsics_seq, intrinsics):
    """Reference for the residual filter: the mean of the per-frame
    ``reprojection_cost`` values over the frames where the pose and both
    tracks exist, or inf without one."""
    values = [
        reprojection_cost(track3d, track2d, extr, intrinsics, t)
        for t, extr in enumerate(extrinsics_seq)
        if extr is not None and track3d.valid[t] and track2d.valid[t]
    ]
    return float(np.mean(values)) if values else math.inf


class TestPairResiduals:
    @staticmethod
    def edited_scene(seed, frames):
        """A dropout scene with its true per-frame poses, edited so that the
        last frame holds a NaN 2D joint without confidence and a 3D joint
        behind the camera, the first frame a 2D person with zero total
        confidence, and longer scenes a pose gap at frame 1 and tracks that
        drop out mid-sequence."""
        scene = generate(
            SceneConfig(
                person_count=4,
                duration_frames=frames,
                seed=seed,
                pixel_noise_sigma=2.0,
                dropout_rate=0.3,
            )
        )
        tracks3d, tracks2d = list(scene.tracks3d), list(scene.tracks2d[0])
        extrinsics = list(scene.truth.extrinsics[0])
        last = frames - 1
        joints, conf = tracks2d[0].joints.copy(), tracks2d[0].confidence.copy()
        joints[last, 3] = np.nan
        conf[last, 3] = 0.0
        tracks2d[0] = replace(tracks2d[0], joints=joints, confidence=conf)
        conf = tracks2d[1].confidence.copy()
        conf[0] = 0.0
        tracks2d[1] = replace(tracks2d[1], confidence=conf)
        joints = tracks3d[0].joints.copy()
        behind = np.array([0.2, -0.1, -2.0])  # camera frame, negative depth
        joints[last, 5] = extrinsics[last].rotation.T @ (behind - extrinsics[last].translation)
        tracks3d[0] = replace(tracks3d[0], joints=joints)
        if frames > 8:
            extrinsics[1] = None
            gap3, gap2 = np.isin(range(frames), (2, 5)), np.isin(range(frames), (3, 7))
            tracks3d[2] = replace(tracks3d[2], valid=tracks3d[2].valid & ~gap3)
            tracks2d[2] = replace(tracks2d[2], valid=tracks2d[2].valid & ~gap2)
        for track in (tracks3d[0], tracks2d[0], tracks2d[1]):
            assert track.valid[0] and track.valid[last]
        return scene, tracks3d, tracks2d, extrinsics

    @pytest.mark.parametrize("seed,frames", [(31, 20), (32, 12), (33, 1)])
    def test_equals_the_per_frame_loop(self, seed, frames):
        scene, tracks3d, tracks2d, extrinsics = self.edited_scene(seed, frames)
        k = scene.intrinsics
        pairs = list(itertools.product(range(len(tracks3d)), range(len(tracks2d))))
        expected = [pair_residual_loop(tracks3d[i], tracks2d[j], extrinsics, k) for i, j in pairs]
        arrays = matching._pair_frames(*sides(tracks3d, tracks2d), pairs)
        assert matching._pair_residuals(arrays, extrinsics, k) == expected
        # The zero-confidence 2D person costs the image diagonal at frame 0.
        assert reprojection_cost(tracks3d[0], tracks2d[1], extrinsics[0], k, 0) == k.diagonal

    def test_empty_pair_list(self):
        scene, tracks3d, tracks2d, extrinsics = self.edited_scene(31, 20)
        arrays = matching._pair_frames(*sides(tracks3d, tracks2d), [])
        assert matching._pair_residuals(arrays, extrinsics, scene.intrinsics) == []

    def test_pair_without_a_common_frame_is_inf_and_unmatched(self):
        scene = generate(SceneConfig(person_count=1, duration_frames=6, seed=34))
        early = np.arange(6) < 3
        t3 = replace(scene.tracks3d[0], valid=scene.tracks3d[0].valid & early)
        t2 = replace(scene.tracks2d[0][0], valid=scene.tracks2d[0][0].valid & ~early)
        extrinsics = scene.truth.extrinsics[0]
        k = scene.intrinsics
        arrays = matching._pair_frames(*sides([t3], [t2]), [(0, 0)])
        assert matching._pair_residuals(arrays, extrinsics, k) == [math.inf]
        assert pair_residual_loop(t3, t2, extrinsics, k) == math.inf
        result = match_sequences([t3], [t2], k)
        assert result.match.pairs == ()
        assert (result.match.unmatched3d, result.match.unmatched2d) == ((0,), (0,))
        assert result.stats.pairs_rejected == 1


def packed(sets):
    """Usable points of each set of paired persons (joints3d, mask3d, joints2d,
    conf2d), packed for ``_fit_packed``: points3d, points2d, counts."""
    points3d, points2d, counts = [np.zeros((0, 3))], [np.zeros((0, 2))], []
    for joints3d, mask3d, joints2d, conf2d in sets:
        usable = mask3d & (conf2d > 0)
        points3d.append(joints3d[usable])
        points2d.append(joints2d[usable])
        counts.append(int(usable.sum()))
    return np.concatenate(points3d), np.concatenate(points2d), counts


def usable_joints(joints, confidence=None):
    """Reference masking: joints (..., 24, 3 or 2) zero-filled where not
    finite, and their weights, the finite mask or, given 2D confidences,
    the confidences zeroed there."""
    finite = np.isfinite(joints).all(axis=-1)
    weights = finite if confidence is None else np.where(finite, confidence, 0.0)
    return np.where(finite[..., None], joints, 0.0), weights


def poses_for_pairs_loop(tracks3d, tracks2d, pairs, intrinsics, frames, stats):
    """Reference for the per-frame pose fits: each frame's valid pairs stacked
    one frame at a time, then fit in one batch."""
    sets, slots = [], []
    for t in range(frames):
        both = [(tracks3d[i], tracks2d[j]) for i, j in pairs]
        both = [(t3, t2) for t3, t2 in both if t3.valid[t] and t2.valid[t]]
        if not both:
            continue
        joints3d, mask3d = usable_joints(np.stack([t3.joints[t] for t3, _ in both]))
        joints2d, conf2d = usable_joints(
            np.stack([t2.joints[t] for _, t2 in both]),
            np.stack([t2.confidence[t] for _, t2 in both]),
        )
        sets.append((joints3d, mask3d, joints2d, conf2d))
        slots.append(t)
    poses = [None] * frames
    for t, pose in zip(slots, matching._fit_packed(*packed(sets), intrinsics, stats)):
        poses[t] = pose
    return poses


def pose_bytes(pose):
    return None if pose is None else (pose.rotation.tobytes(), pose.translation.tobytes())


class TestPosesForPairs:
    @staticmethod
    def dropout_scene(seed, frames):
        """A dropout scene; in longer ones no 3D track is valid at frame 2,
        one 2D track drops out at frames 3 and 4, and at frame 5 each 2D
        track keeps one confident joint, too few for a pose fit."""
        scene = generate(
            SceneConfig(
                person_count=4,
                duration_frames=frames,
                seed=seed,
                pixel_noise_sigma=2.0,
                dropout_rate=0.3,
            )
        )
        tracks3d, tracks2d = list(scene.tracks3d), list(scene.tracks2d[0])
        if frames > 4:
            tracks3d = [replace(t, valid=t.valid & (np.arange(frames) != 2)) for t in tracks3d]
            gap = np.isin(np.arange(frames), (3, 4))
            tracks2d[0] = replace(tracks2d[0], valid=tracks2d[0].valid & ~gap)
            for k, track in enumerate(tracks2d):
                confidence = track.confidence.copy()
                confidence[5, 1:] = 0.0
                tracks2d[k] = replace(track, confidence=confidence)
        return scene, tracks3d, tracks2d

    @pytest.mark.parametrize("pairing", ["truth", "shifted", "capped"])
    @pytest.mark.parametrize("seed,frames", [(41, 20), (42, 12), (43, 1)])
    def test_equals_the_per_frame_loop(self, seed, frames, pairing, monkeypatch):
        if pairing == "capped":  # every fit that starts ends as NoConvergence
            monkeypatch.setattr(geometry, "PNP_MAX_ITERATIONS", 1)
        scene, tracks3d, tracks2d = self.dropout_scene(seed, frames)
        truth = sorted(scene.truth.correspondence[0].items())
        shift = 1 if pairing == "shifted" else 0
        pairs = [(i, (j + shift) % len(tracks2d)) for i, j in truth]
        expected_stats, stats = matching.PcmStats(), matching.PcmStats()
        expected = poses_for_pairs_loop(
            tracks3d, tracks2d, pairs, scene.intrinsics, frames, expected_stats
        )
        arrays = matching._pair_frames(*sides(tracks3d, tracks2d), pairs)
        poses = matching._poses_for_pairs(arrays, scene.intrinsics, stats)
        assert [pose_bytes(p) for p in poses] == [pose_bytes(p) for p in expected]
        assert stats.pnp_attempted == expected_stats.pnp_attempted > 0
        assert stats.pnp_failed == expected_stats.pnp_failed
        if pairing == "truth":
            assert any(p is not None for p in poses)
        if pairing == "capped":
            assert stats.pnp_failed["NoConvergence"] > 0
        if frames > 4:
            assert poses[2] is None  # no pair is valid there
            assert stats.pnp_failed["InsufficientCorrespondences"] == 1

    def test_pnp_iterations_sum_the_fits_that_returned_a_pose(self, monkeypatch):
        # A cap of 3 iterations makes some fits end as NoConvergence; frame 2
        # has no valid pair and fails as InsufficientCorrespondences.
        monkeypatch.setattr(geometry, "PNP_MAX_ITERATIONS", 3)
        scene, tracks3d, tracks2d = self.dropout_scene(42, 12)
        pairs = sorted(scene.truth.correspondence[0].items())
        *arrays, valid = matching._pair_frames(*sides(tracks3d, tracks2d), pairs)
        sets = [tuple(a[valid[:, t], t] for a in arrays) for t in range(12)]
        outcomes = []
        solve = matching.solve_pnp_packed

        def recording(points3d, points2d, counts, intrinsics):
            result = solve(points3d, points2d, counts, intrinsics)
            outcomes.extend(result)
            return result

        monkeypatch.setattr(matching, "solve_pnp_packed", recording)
        stats = matching.PcmStats()
        poses = matching._fit_packed(*packed(sets), scene.intrinsics, stats)
        fitted = [o for o in outcomes if isinstance(o, geometry.PnpResult)]
        assert [p is not None for p in poses] == [
            isinstance(o, geometry.PnpResult) for o in outcomes
        ]
        assert stats.pnp_iterations == sum(o.iterations for o in fitted) > 0
        assert 0 < len(fitted) < len(outcomes)
        assert stats.pnp_failed["NoConvergence"] > 0

    def test_empty_pair_list(self):
        scene, tracks3d, tracks2d = self.dropout_scene(41, 20)
        stats = matching.PcmStats()
        arrays = matching._pair_frames(*sides(tracks3d, tracks2d), [])
        poses = matching._poses_for_pairs(arrays, scene.intrinsics, stats)
        assert poses == [None] * 20
        assert stats.pnp_attempted == 0


# ---------------------------------------------------------------------------
# Per-frame slices


def frame_slice_loop(tracks3d, tracks2d, frame):
    """Reference for ``frame_slice``, one track at a time: a person takes part
    when its track is valid and it has at least MIN_CORRESPONDENCES finite 3D
    joints, or confident 2D joints with finite coordinates. Returns the
    FrameData fields after ``frame``, n3d and n2d, in field order."""
    fields = []
    for tracks, width in ((tracks3d, 3), (tracks2d, 2)):
        rows = []
        for index, track in enumerate(tracks):
            joints, weights = usable_joints(
                track.joints[frame], track.confidence[frame] if width == 2 else None
            )
            if track.valid[frame] and (weights > 0).sum() >= geometry.MIN_CORRESPONDENCES:
                rows.append((index, joints, weights, track.body_pose[frame]))
        shapes = ((), (JOINTS, width), (JOINTS,), (JOINTS, 3, 3))
        dtypes = (np.intp, float, bool if width == 3 else float, float)
        fields.extend(
            np.array([row[k] for row in rows], dtype=dtype).reshape((len(rows),) + shape)
            for k, (shape, dtype) in enumerate(zip(shapes, dtypes))
        )
    return fields


def frame_fields(fd):
    return [fd.idx3d, fd.joints3d, fd.mask3d, fd.pose3d, fd.idx2d, fd.joints2d, fd.conf2d,
            fd.pose2d]


def assert_same_arrays(actual, expected):
    for a, b in zip(actual, expected, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestFrameSlice:
    """``frame_slice`` keeps the persons that can take part in a frame's costs."""

    @staticmethod
    def edited_scene(frames):
        """Four persons seen by one camera, edited at frame ``min(1, frames - 1)``:
        3D persons 0 and 1 keep exactly 5 and 6 finite joints, 2D persons 0 and
        1 exactly 5 and 6 positive confidences, and 2D person 2 has a NaN joint
        whose confidence stays positive; 2D person 3 keeps 6 positive
        confidences, one of them at a NaN joint. In longer scenes 3D person 2
        and 2D person 1 are invalid at frame 2."""
        scene = generate(SceneConfig(person_count=4, duration_frames=frames, seed=7))
        tracks3d, tracks2d = list(scene.tracks3d), list(scene.tracks2d[0])
        assert len(tracks2d) == 4 and all(t.valid.all() for t in tracks2d)
        at = min(1, frames - 1)
        for p, kept in ((0, 5), (1, 6)):
            joints = tracks3d[p].joints.copy()
            joints[at, kept:] = np.nan
            tracks3d[p] = replace(tracks3d[p], joints=joints)
            confidence = tracks2d[p].confidence.copy()
            confidence[at, kept:] = 0.0
            assert (confidence[at] > 0).sum() == kept
            tracks2d[p] = replace(tracks2d[p], confidence=confidence)
        for p, confident in ((2, JOINTS), (3, 6)):
            joints, confidence = tracks2d[p].joints.copy(), tracks2d[p].confidence.copy()
            joints[at, 3] = np.nan
            confidence[at, confident:] = 0.0
            assert (confidence[at] > 0).sum() == confident
            tracks2d[p] = replace(tracks2d[p], joints=joints, confidence=confidence)
        if frames > 2:
            gap = np.arange(frames) == 2
            tracks3d[2] = replace(tracks3d[2], valid=tracks3d[2].valid & ~gap)
            tracks2d[1] = replace(tracks2d[1], valid=tracks2d[1].valid & ~gap)
        return tracks3d, tracks2d

    @pytest.mark.parametrize("frames", [4, 1])
    def test_equals_the_per_track_loop(self, frames):
        tracks3d, tracks2d = self.edited_scene(frames)
        both = sides(tracks3d, tracks2d)
        for t in range(frames):
            fd = frame_slice(*both, t)
            assert (fd.frame, fd.n3d, fd.n2d) == (t, 4, 4)
            assert_same_arrays(frame_fields(fd), frame_slice_loop(tracks3d, tracks2d, t))
        at = frame_slice(*both, min(1, frames - 1))
        assert at.idx3d.tolist() == [1, 2, 3]
        assert at.idx2d.tolist() == [1, 2]
        assert at.conf2d[1, 3] == 0.0 and at.joints2d[1, 3].tolist() == [0.0, 0.0]
        if frames > 2:
            gap = frame_slice(*both, 2)
            assert gap.idx3d.tolist() == [0, 1, 3]
            assert gap.idx2d.tolist() == [0, 2, 3]

    def test_empty_side(self):
        tracks3d, tracks2d = self.edited_scene(4)
        for t in range(4):
            for tracks in ((tracks3d, []), ([], tracks2d)):
                fd = frame_slice(*sides(*tracks), t)
                assert not fd.usable
                assert_same_arrays(frame_fields(fd), frame_slice_loop(*tracks, t))

    def test_pair_frames_keep_the_persons_frame_slice_drops(self):
        # A valid 3D person with 5 finite joints takes part in the sequence
        # pose fits, which need no per-person floor, but not in the frame's costs.
        tracks3d, tracks2d = self.edited_scene(4)
        both = sides(tracks3d, tracks2d)
        joints3d, mask3d, _, conf2d, valid = matching._pair_frames(*both, [(0, 1)])
        assert valid[0, 1] and mask3d[0, 1].sum() == 5
        assert np.array_equal(joints3d[0, 1, :5], tracks3d[0].joints[1, :5])
        assert (mask3d[0, 1] & (conf2d[0, 1] > 0)).sum() == 5
        assert 0 not in frame_slice(*both, 1).idx3d


# ---------------------------------------------------------------------------
# Frame-level optimal matching


def frame_brute_force(fd, intrinsics, config, skeleton):
    """Independent exhaustive oracle: every injective pairing, pose fit on its
    own pairs, per-pair costs via the public scalar operations."""
    p3, p2 = len(fd.idx3d), len(fd.idx2d)
    k = min(p3, p2)
    best_cost, best_pairs = math.inf, None
    for rows in itertools.combinations(range(p3), k):
        for cols in itertools.permutations(range(p2), k):
            pairs = tuple(zip(rows, cols))
            pts3 = np.concatenate([fd.joints3d[a][fd.mask3d[a] & (fd.conf2d[b] > 0)] for a, b in pairs])
            pts2 = np.concatenate([fd.joints2d[b][fd.mask3d[a] & (fd.conf2d[b] > 0)] for a, b in pairs])
            try:
                extr = solve_pnp(pts3, pts2, intrinsics).extrinsics
            except GeometryError:
                continue
            total = 0.0
            for a, b in pairs:
                dists = []
                for j in range(JOINTS):
                    cam = extr.rotation @ fd.joints3d[a, j] + extr.translation
                    if cam[2] <= 1e-6 or not fd.mask3d[a, j]:
                        dists.append(intrinsics.diagonal)
                        continue
                    u = intrinsics.fx * cam[0] / cam[2] + intrinsics.cx
                    v = intrinsics.fy * cam[1] / cam[2] + intrinsics.cy
                    dists.append(np.hypot(u - fd.joints2d[b, j, 0], v - fd.joints2d[b, j, 1]))
                w = fd.conf2d[b]
                reproj = float((w * dists).sum() / w.sum())
                bp = body_pose_cost(
                    fd.pose3d[a], fd.pose2d[b], fd.joints3d[a, 0], extr, intrinsics
                )
                total += reproj + config.lambda0 * bp
            mean_cost = total / k
            if mean_cost < best_cost:
                best_cost = mean_cost
                best_pairs = tuple(
                    (int(fd.idx3d[a]), int(fd.idx2d[b])) for a, b in pairs
                )
    return best_pairs, best_cost


class TestOptimizeFrameMatch:
    def test_single_consistent_pair(self):
        scene = generate(SceneConfig(person_count=1, duration_frames=4, seed=3))
        fd = frame_slice(*sides(scene.tracks3d, scene.tracks2d[0]), 2)
        result = optimize_frame_match(fd, scene.intrinsics, PcmConfig())
        assert result.match.pairs == ((0, 0),)
        assert result.match.residuals[0] < 1e-6
        assert result.score == pytest.approx(1.0, abs=1e-6)

    def test_matches_exhaustive_oracle_on_noiseless_scenes(self):
        config = PcmConfig()
        for seed in range(8):
            scene = generate(SceneConfig(person_count=3, duration_frames=4, seed=200 + seed))
            if len(scene.tracks2d[0]) < 3:
                continue
            fd = frame_slice(*sides(scene.tracks3d, scene.tracks2d[0]), 2)
            result = optimize_frame_match(fd, scene.intrinsics, config)
            oracle_pairs, _ = frame_brute_force(fd, scene.intrinsics, config, scene.skeleton)
            assert set(result.match.pairs) == set(oracle_pairs)

    def test_off_camera_person_lands_unmatched(self):
        # Narrow field of view: guaranteed that somebody is out of frame on
        # some frame; that person must end in unmatched3d for that frame.
        found = False
        for seed in range(30):
            scene = generate(
                SceneConfig(person_count=3, duration_frames=8, seed=400 + seed, fov_degrees=28.0)
            )
            visible = scene.truth.visible[0]
            for t in range(8):
                vis = visible[:, t]
                if vis.sum() != 2 or len(scene.tracks2d[0]) < 2:
                    continue
                fd = frame_slice(*sides(scene.tracks3d, scene.tracks2d[0]), t)
                try:
                    result = optimize_frame_match(fd, scene.intrinsics, PcmConfig())
                except NoViableProposal:
                    continue
                hidden = int(np.flatnonzero(~vis)[0])
                assert hidden in result.match.unmatched3d
                truth_now = dict(scene.truth.frame_correspondence[0][t])
                assert all(truth_now.get(i) == j for i, j in result.match.pairs)
                found = True
                break
            if found:
                break
        assert found, "no frame with exactly one off-camera person was produced"

    def test_score_tracking_is_monotone(self):
        # Best-so-far score never decreases over refinement iterations: more
        # iterations can only match or improve the winning score.
        scene = generate(
            SceneConfig(person_count=4, duration_frames=4, seed=31, pixel_noise_sigma=2.0)
        )
        fd = frame_slice(*sides(scene.tracks3d, scene.tracks2d[0]), 2)
        scores = []
        for n_iter in (1, 2, 4):
            result = optimize_frame_match(
                fd, scene.intrinsics, PcmConfig(n_iter=n_iter)
            )
            scores.append(result.score)
        assert scores[0] <= scores[1] + 1e-15
        assert scores[1] <= scores[2] + 1e-15

    def test_raises_when_unusable(self):
        scene = generate(SceneConfig(person_count=2, duration_frames=3, seed=5))
        empty = frame_slice(*sides(scene.tracks3d, []), 0)
        with pytest.raises(NoViableProposal):
            optimize_frame_match(empty, scene.intrinsics, PcmConfig())


def search_outcome(outcome):
    """What a frame search returned, in comparable form."""
    if isinstance(outcome, NoViableProposal):
        return type(outcome), str(outcome)
    return outcome.match, pose_bytes(outcome.extrinsics), outcome.score


def pose_fit_pack_loop(fds, poses, requests):
    """Reference for the points ``_fit_pairs`` hands ``_fit_packed``: every
    requested (k, pairs) that ``poses`` lacks, once and in request order, and
    its sorted pairs one at a time, keeping the joints where mask3d &
    (conf2d > 0). Returns points3d, points2d and counts, or None when every
    request is held."""
    pending = {}
    for k, pairs in requests:
        key = (k, tuple(sorted(pairs)))
        if key not in poses:
            pending.setdefault(key, None)
    if not pending:
        return None
    points3d, points2d, counts = [np.zeros((0, 3))], [np.zeros((0, 2))], []
    for k, pairs in pending:
        fd, count = fds[k], 0
        for a, b in pairs:
            usable = fd.mask3d[a] & (fd.conf2d[b] > 0)
            points3d.append(fd.joints3d[a][usable])
            points2d.append(fd.joints2d[b][usable])
            count += int(usable.sum())
        counts.append(count)
    return np.concatenate(points3d), np.concatenate(points2d), np.array(counts)


class TestSearchFrames:
    @staticmethod
    def edited_scene():
        """Eight noisy frames: at frame 2 no 3D track is valid, at frame 5 no
        2D track has enough confident joints, and at frame 6 the first 3D
        person keeps six finite joints, of which the 2D persons see only
        five."""
        scene = generate(
            SceneConfig(person_count=4, duration_frames=8, seed=44, pixel_noise_sigma=2.0)
        )
        frames = np.arange(8)
        tracks3d = [replace(t, valid=t.valid & (frames != 2)) for t in scene.tracks3d]
        joints = tracks3d[0].joints.copy()
        joints[6, 6:] = np.nan
        tracks3d[0] = replace(tracks3d[0], joints=joints)
        tracks2d = []
        for track in scene.tracks2d[0]:
            confidence = track.confidence.copy()
            confidence[5, 1:] = 0.0
            confidence[6, 0] = 0.0
            tracks2d.append(replace(track, confidence=confidence))
        return scene, tracks3d, tracks2d

    # The default config keeps the plain ``rows`` id. At n_iter = 1 the only
    # sweep is also the last, so it assigns nothing further.
    @pytest.mark.parametrize("rows, n_iter, lambda0", [
        pytest.param(rows, n_iter, lambda0, id=rows if (n_iter, lambda0) == (2, 0.1)
                     else f"{rows}-n_iter{n_iter}-lambda0_{lambda0}")
        for rows in ("every person", "one person per frame")
        for n_iter in (1, 2, 3)
        for lambda0 in (0.0, 0.1)
    ])
    def test_each_frame_gets_the_result_it_gets_alone(self, rows, n_iter, lambda0):
        scene, tracks3d, tracks2d = self.edited_scene()
        both = sides(tracks3d, tracks2d)
        fds = [frame_slice(*both, t) for t in range(8)]
        assert fds[6].idx3d[0] == 0 and len(fds[6].idx3d) > 1
        if rows == "every person":
            seed_rows, alone_rows = None, [None] * len(fds)
        else:  # frame 6 seeds from the sparse person only
            seed_rows = [[t % len(fd.idx3d)] if fd.usable else [] for t, fd in enumerate(fds)]
            seed_rows[6] = [0]
            alone_rows = [[r] for r in seed_rows]
        config = PcmConfig(n_iter=n_iter, lambda0=lambda0)
        outcomes = matching._search_frames(fds, scene.intrinsics, config, seed_rows)
        for fd, frame_rows, outcome in zip(fds, alone_rows, outcomes):
            alone = matching._search_frames([fd], scene.intrinsics, config, frame_rows)[0]
            assert search_outcome(outcome) == search_outcome(alone)
        failed = [t for t, o in enumerate(outcomes) if isinstance(o, NoViableProposal)]
        if seed_rows is None:
            assert failed == [2, 5]
        else:
            assert failed == [2, 5, 6]
            assert "every seed pose estimate failed" in str(outcomes[6])

    def test_stacked_costs_equal_a_per_pose_loop(self, monkeypatch):
        # Twins scene with a body-pose weight; in each frame one 3D joint and
        # another person's root sit 1 m behind the true camera, so both cost
        # terms take their behind-the-camera penalty.
        scene = generate(SceneConfig(
            person_count=4, duration_frames=2, seed=1, pixel_noise_sigma=2.0,
            synchronized_pose_groups=((0, 1),), pose_noise_degrees=8.0,
        ))
        both = sides(scene.tracks3d, scene.tracks2d[0])
        fds = [frame_slice(*both, t) for t in range(2)]
        behind = []
        for fd, truth in zip(fds, scene.truth.extrinsics[0]):
            point = -truth.rotation.T @ truth.translation - truth.rotation[2]
            fd.joints3d[0, 7] = fd.joints3d[1, 0] = point
            behind.append(point)
        assert len({(len(fd.idx3d), len(fd.idx2d)) for fd in fds}) == 1
        calls = []
        real = matching._cost_stack

        def recording(*args):
            out = real(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(matching, "_cost_stack", recording)
        config = PcmConfig(lambda0=0.5, n_iter=2)
        matching._search_frames(fds, scene.intrinsics, config)

        # One stack for both frames per stage: the seeds' keypoint stack and
        # one weighted stack per sweep; the winners' residuals are read from
        # the sweeps' keypoint stacks, with no further call.
        assert [args[4] for args, _ in calls] == [0.0] + [0.5] * config.n_iter
        assert [len(args[0]) for args, _ in calls] == [2] * (1 + config.n_iter)
        for (stack_fds, at, poses, intrinsics, lambda0), (keypoint, total) in calls:
            posed = list(zip([stack_fds[f] for f in at], poses))
            expected = [
                keypoint_costs_one_pose(fd.joints3d, fd.mask3d, fd.joints2d, fd.conf2d, extr,
                                        intrinsics)
                for fd, extr in posed
            ]
            assert np.array_equal(keypoint, np.stack(expected))
            if lambda0 == 0.0:
                assert total is keypoint
            else:
                expected = [weighted_costs_one_pose(fd, extr, intrinsics, lambda0)
                            for fd, extr in posed]
                assert np.array_equal(total, np.stack(expected))
        (_, seed_at, seed_poses, _, _), _ = calls[0]
        for frame, point in enumerate(behind):
            poses = [extr for f, extr in zip(seed_at, seed_poses) if f == frame]
            assert len(poses) > 1
            assert any(extr.transform(point)[2] < 0 for extr in poses)

    def test_residuals_are_the_winners_keypoint_costs(self):
        # The search scores keypoint plus body-pose costs, but a winner's
        # residuals are its kept pairs' keypoint costs alone. The scene's body
        # poses are noiseless, so each 2D person takes the next one's poses
        # to make the body-pose term nonzero on every pair.
        scene, tracks3d, tracks2d = self.edited_scene()
        tracks2d = [replace(t, body_pose=tracks2d[(j + 1) % len(tracks2d)].body_pose)
                    for j, t in enumerate(tracks2d)]
        both = sides(tracks3d, tracks2d)
        fds = [frame_slice(*both, t) for t in range(8)]
        config = PcmConfig(lambda0=0.5)
        threshold = config.resolved_reject_threshold(scene.intrinsics)
        outcomes = matching._search_frames(fds, scene.intrinsics, config)
        results = [(fd, o) for fd, o in zip(fds, outcomes) if not isinstance(o, NoViableProposal)]
        assert len(results) == 6
        for fd, result in results:
            match = result.match
            assert match.pairs
            assert match.residuals == tuple(
                reprojection_cost(tracks3d[i], tracks2d[j], result.extrinsics, scene.intrinsics,
                                  fd.frame)
                for i, j in match.pairs
            )
            assert max(match.residuals) <= threshold

    def test_pose_fits_pack_the_usable_points_of_each_pairing(self, monkeypatch):
        # Seeds (one pair), sweeps (four), frames without a usable side (2
        # and 5) and frame 6's masked joints; then one frame's exhaustive
        # search. Each batch of pose fits gets the reference loop's points.
        scene, tracks3d, tracks2d = self.edited_scene()
        both = sides(tracks3d, tracks2d)
        fds = [frame_slice(*both, t) for t in range(8)]
        expected, packs = [], []
        fit_pairs, fit_packed = matching._fit_pairs, matching._fit_packed

        def spy_pairs(fds, poses, requests, *args):
            expected.append(pose_fit_pack_loop(fds, poses, requests))
            return fit_pairs(fds, poses, requests, *args)

        def spy_packed(points3d, points2d, counts, *args):
            packs.append((points3d, points2d, counts))
            return fit_packed(points3d, points2d, counts, *args)

        monkeypatch.setattr(matching, "_fit_pairs", spy_pairs)
        monkeypatch.setattr(matching, "_fit_packed", spy_packed)
        matching._search_frames(fds, scene.intrinsics, PcmConfig(n_iter=2))
        assert len(expected) == 3
        assert matching._kps_frame(fds[6], scene.intrinsics, PcmConfig()) is not None
        expected = [e for e in expected if e is not None]  # a call with nothing pending fits nothing
        assert len(packs) == len(expected) == 4
        for actual, reference in zip(packs, expected):
            for a, e in zip(actual, reference):
                a = np.asarray(a)
                assert (a.dtype, a.shape, a.tobytes()) == (e.dtype, e.shape, e.tobytes())
        # Frame 6's 2D persons miss joint 0, and its first 3D person keeps
        # six finite joints: five usable, too few to seed, so only sweeps fit it.
        seeds, sweeps = expected[0][2], expected[1][2]
        assert len(seeds) > 32 and seeds.min() == JOINTS - 1 and seeds.max() == JOINTS
        assert sweeps.max() == 4 * JOINTS and 3 * (JOINTS - 1) + 5 in sweeps
        assert len(expected[3][2]) == math.perm(4, 4)

    def test_pairings_of_one_frame_with_unequal_pair_counts_raise(self):
        # A frame's pending pairings are gathered as rectangular index arrays.
        scene, tracks3d, tracks2d = self.edited_scene()
        fd = frame_slice(*sides(tracks3d, tracks2d), 0)
        with pytest.raises(ValueError):
            matching._fit_pairs([fd], {}, [(0, ((0, 0),)), (0, ((0, 0), (1, 1)))],
                                scene.intrinsics)

    def test_slices_leave_the_search_unchanged(self, monkeypatch):
        scene, tracks3d, tracks2d = self.edited_scene()
        both = sides(tracks3d, tracks2d)
        fds = [frame_slice(*both, t) for t in range(8)]
        whole = matching._search_frames(fds, scene.intrinsics, PcmConfig())
        monkeypatch.setattr(matching, "STACK_FLOATS", 1)  # one pose or matrix per slice
        sliced = matching._search_frames(fds, scene.intrinsics, PcmConfig())
        assert [search_outcome(o) for o in sliced] == [search_outcome(o) for o in whole]

    @pytest.mark.parametrize("proposal_fits", ["solved", "failed"])
    def test_stats_count_skipped_frames_by_reason(self, proposal_fits, monkeypatch):
        # Frames 2 and 5 have no usable person on one side. At frame 6 every
        # 3D person keeps joints 0-5 only and no 2D person sees joint 0, so no
        # pair can seed a pose fit.
        scene, tracks3d, tracks2d = self.edited_scene()
        for p, track in enumerate(tracks3d):
            joints = track.joints.copy()
            joints[6, 6:] = np.nan
            tracks3d[p] = replace(track, joints=joints)
        expected = {
            NoViableProposal.NO_USABLE_PERSON: 2,
            NoViableProposal.SEED_FITS_FAILED: 1,
            NoViableProposal.NO_VALID_PROPOSAL: 0,
        }
        if proposal_fits == "failed":
            # Every fit to more than one person fails: the seed fits still
            # give proposals, but no proposal gives a pose.
            solve = matching.solve_pnp_packed

            def one_person_fits(points3d, points2d, counts, intrinsics):
                return [
                    NoConvergence("stub") if count > JOINTS else outcome
                    for count, outcome in zip(counts, solve(points3d, points2d, counts, intrinsics))
                ]

            monkeypatch.setattr(matching, "solve_pnp_packed", one_person_fits)
            expected[NoViableProposal.NO_VALID_PROPOSAL] = 5
        stats = match_sequences(tracks3d, tracks2d, scene.intrinsics, PcmConfig(delta=0)).stats
        assert stats.frames_skipped == expected
        assert sum(stats.frames_skipped.values()) == stats.frames_failed
        assert stats.frames_accumulated + stats.frames_failed == 8
        assert stats.fallback_to_pose == (proposal_fits == "failed")


def keypoint_costs_one_pose(joints3d, mask3d, joints2d, conf2d, extr, intrinsics):
    """(p3, p2) keypoint costs under one pose, the reference for the stacks."""
    cam = extr.transform(joints3d)[:, None]
    return matching._reprojection_costs(cam, mask3d[:, None], joints2d[None], conf2d[None],
                                        intrinsics)


def weighted_costs_one_pose(fd, extr, intrinsics, lambda0):
    """(p3, p2) keypoint plus body-pose costs under one pose, the reference
    for the stacks."""
    fk3, fk2 = (fk_points(default_skeleton(), pose, np.zeros((len(pose), 3)))
                for pose in (fd.pose3d, fd.pose2d))
    roots = fd.joints3d[:, 0]
    uv3, front3 = geometry.pinhole(intrinsics, extr.transform(fk3 + roots[:, None, :]))
    uv2, front2 = geometry.pinhole(intrinsics, extr.transform(fk2[None] + roots[:, None, None]))
    dist = np.linalg.norm(uv3[:, None] - uv2, axis=-1)
    pose = np.where(front3[:, None] & front2, dist, intrinsics.diagonal).mean(axis=-1)
    costs = keypoint_costs_one_pose(
        fd.joints3d, fd.mask3d, fd.joints2d, fd.conf2d, extr, intrinsics
    )
    return costs + lambda0 * pose


# ---------------------------------------------------------------------------
# Sequence matching


class TestPcmConfig:
    def test_defaults_follow_published_values(self):
        config = PcmConfig()
        assert config.delta == 100.0
        assert config.lambda0 == 0.1
        assert config.n_iter == 2

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            PcmConfig(delta=-1.0)
        with pytest.raises(InvalidConfig):
            PcmConfig(n_iter=0)
        with pytest.raises(InvalidConfig):
            PcmConfig(smoothing_window=4)
        with pytest.raises(InvalidConfig):
            PcmConfig(reject_threshold=0.0)
        # Values the matcher cannot run are refused at construction.
        for fields in ({"lambda0": math.inf}, {"reject_threshold": math.inf},
                       {"reject_threshold": math.nan}, {"n_iter": 2.5}, {"n_iter": True},
                       {"n_iter": "2"}, {"smoothing_window": 9.0}, {"smoothing_window": False}):
            with pytest.raises(InvalidConfig):
                PcmConfig(delta=0.0, **fields)
        # An infinite delta keeps the variance gate closed.
        assert PcmConfig(delta=math.inf).delta == math.inf

    def test_nan_lambda0_is_rejected(self):
        with pytest.raises(InvalidConfig):
            PcmConfig(lambda0=math.nan)

    def test_reject_threshold_defaults_to_five_percent_diagonal(self):
        k = make_intrinsics()
        assert PcmConfig().resolved_reject_threshold(k) == pytest.approx(0.05 * k.diagonal)
        assert PcmConfig(reject_threshold=12.0).resolved_reject_threshold(k) == 12.0


class TestMatchSequences:
    def test_noiseless_scene_recovers_truth(self):
        scene = generate(SceneConfig(person_count=5, duration_frames=16, seed=77))
        result = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics)
        assert accuracy(result.match, scene.truth, 0) == 1.0
        assert not result.stats.keypoint_path

    def test_synchronized_poses_trigger_gate_and_recover(self):
        # Seed 1 was measured to produce a wrong pose-only initial match.
        scene = generate(
            SceneConfig(
                person_count=4,
                duration_frames=32,
                seed=1,
                pixel_noise_sigma=2.0,
                synchronized_pose_groups=((0, 1),),
                pose_noise_degrees=8.0,
            )
        )
        config = PcmConfig(delta=0.5)
        result = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config)
        assert result.stats.keypoint_path
        assert accuracy(result.match, scene.truth, 0) == 1.0
        # Pose-only matching fails on the same scene.
        pose_only = match_with_strategy(
            "P&T", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
        )
        assert accuracy(pose_only, scene.truth, 0) < 1.0

    def test_gate_disabled_runs_keypoint_path(self):
        scene = generate(SceneConfig(person_count=2, duration_frames=6, seed=9))
        result = match_sequences(
            scene.tracks3d, scene.tracks2d[0], scene.intrinsics, PcmConfig(delta=0.0)
        )
        assert result.stats.keypoint_path
        assert result.stats.frames_accumulated > 0

    def test_pose_fit_counters(self, monkeypatch):
        scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=9, pixel_noise_sigma=1.0))
        # At frame 0 every 2D person shows one joint: too few for a fit, even together.
        tracks2d = []
        for track in scene.tracks2d[0]:
            confidence = track.confidence.copy()
            confidence[0, 1:] = 0.0
            tracks2d.append(
                PersonTrack2D(track.person_id, track.joints, confidence, track.body_pose, track.valid)
            )
        outcomes = []
        solve = matching.solve_pnp_packed

        def recording(points3d, points2d, counts, intrinsics, **kwargs):
            result = solve(points3d, points2d, counts, intrinsics, **kwargs)
            outcomes.extend(type(o).__name__ for o in result)
            return result

        monkeypatch.setattr(matching, "solve_pnp_packed", recording)
        config = PcmConfig(delta=0.0)
        stats = match_sequences(scene.tracks3d, tracks2d, scene.intrinsics, config).stats
        assert stats.pnp_attempted == len(outcomes)
        assert stats.pnp_failed == {
            kind: outcomes.count(kind)
            for kind in ("InsufficientCorrespondences", "DegenerateConfiguration", "NoConvergence")
        }
        # Frame 0 of the initial and of the final pairing.
        assert stats.pnp_failed["InsufficientCorrespondences"] >= 2
        assert match_sequences(scene.tracks3d, tracks2d, scene.intrinsics, config).stats == stats

    def test_rejected_pairs_are_counted(self):
        scene = generate(SceneConfig(person_count=4, duration_frames=8, seed=41, pixel_noise_sigma=1.0))
        tracks3d, tracks2d, k = scene.tracks3d, scene.tracks2d[0], scene.intrinsics
        clean = match_sequences(tracks3d, tracks2d, k)
        assert clean.stats.pairs_rejected == 0
        assert len(clean.match.pairs) == 4
        strict = match_sequences(tracks3d, tracks2d, k, PcmConfig(reject_threshold=1e-6))
        assert strict.match.pairs == ()
        assert strict.stats.pairs_rejected == 4

    def test_infinite_gate_returns_pose_only_match(self):
        scene = generate(
            SceneConfig(person_count=3, duration_frames=8, seed=13, pixel_noise_sigma=1.0)
        )
        gated = match_sequences(
            scene.tracks3d, scene.tracks2d[0], scene.intrinsics, PcmConfig(delta=math.inf)
        )
        assert not gated.stats.keypoint_path
        pose_only = match_with_strategy("P&T", scene.tracks3d, scene.tracks2d[0], scene.intrinsics)
        assert gated.match.pairs == pose_only.pairs

    def test_empty_sides_return_empty_match(self):
        scene = generate(SceneConfig(person_count=2, duration_frames=3, seed=15))
        result = match_sequences(scene.tracks3d, [], scene.intrinsics)
        assert result.match.pairs == ()
        assert result.match.unmatched3d == (0, 1)

    @pytest.mark.parametrize("frames", [0, 3])
    def test_an_empty_side_gives_empty_results_on_any_timeline(self, frames):
        # A stream without records resamples the other side to a 0-frame timeline.
        rng = np.random.default_rng(29)
        k = make_intrinsics()
        t3, t2 = track3d_from(rng, frames), track2d_from(rng, frames)
        for tracks3d, tracks2d in (([t3], []), ([], [t2])):
            empty = MatchSet.empty(len(tracks3d), len(tracks2d))
            result = match_sequences(tracks3d, tracks2d, k)
            assert (result.match, result.extrinsics) == (empty, [None] * frames)
            assert result.stats.frames_total == frames
            for strategy in matching.STRATEGIES:
                assert match_with_strategy(strategy, tracks3d, tracks2d, k) == empty
            assert matching.extrinsics_for_match(tracks3d, tracks2d, [], k, 9) == (
                [None] * frames, []
            )

    def test_extrinsics_track_true_camera(self):
        scene = generate(SceneConfig(person_count=5, duration_frames=16, seed=17))
        result = match_sequences(
            scene.tracks3d, scene.tracks2d[0], scene.intrinsics, PcmConfig(smoothing_window=1)
        )
        from crossalign.geometry import geodesic_rotation_error

        errors_r, errors_t = [], []
        for t, extr in enumerate(result.extrinsics):
            assert extr is not None
            true = scene.truth.extrinsics[0][t]
            errors_r.append(geodesic_rotation_error(extr.rotation, true.rotation))
            errors_t.append(np.linalg.norm(extr.translation - true.translation))
        assert np.max(errors_r) < 1e-3
        assert np.max(errors_t) < 1e-2

    def test_output_injective_on_noisy_scenes(self):
        for seed in range(5):
            scene = generate(
                SceneConfig(
                    person_count=6,
                    duration_frames=12,
                    seed=300 + seed,
                    pixel_noise_sigma=3.0,
                    dropout_rate=0.3,
                )
            )
            result = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics)
            idx3 = [i for i, _ in result.match.pairs]
            idx2 = [j for _, j in result.match.pairs]
            assert len(idx3) == len(set(idx3))
            assert len(idx2) == len(set(idx2))

    def test_mismatched_timelines_rejected(self):
        rng = np.random.default_rng(23)
        t3 = track3d_from(rng, 4)
        t2 = track2d_from(rng, 5)
        with pytest.raises(ValueError):
            match_sequences([t3], [t2], make_intrinsics())

    @pytest.mark.parametrize("frames3d,frames2d", [(0, 5), (4, 0), (0, 0)])
    def test_a_zero_length_timeline_beside_tracks_is_rejected(self, frames3d, frames2d):
        rng = np.random.default_rng(23)
        tracks3d, tracks2d = [track3d_from(rng, frames3d)], [track2d_from(rng, frames2d)]
        k = make_intrinsics()
        with pytest.raises(ValueError, match="timeline"):
            match_sequences(tracks3d, tracks2d, k)
        with pytest.raises(ValueError, match="timeline"):
            match_with_strategy("P&T", tracks3d, tracks2d, k)
        with pytest.raises(ValueError, match="timeline"):
            matching.extrinsics_for_match(tracks3d, tracks2d, [(0, 0)], k, 9)


class TestGatherCount:
    """A match stacks each sensor's tracks once (``_side``), and gathers each
    pairing's (pair, frame, joint) arrays from those stacks once, for its pose
    fits and its residual filter together."""

    @pytest.fixture
    def gathered(self, monkeypatch):
        pairings = []
        gather = matching._pair_frames

        def counting(side3, side2, pairs):
            pairings.append(tuple(pairs))
            return gather(side3, side2, pairs)

        monkeypatch.setattr(matching, "_pair_frames", counting)
        return pairings

    @pytest.fixture
    def stacked(self, monkeypatch):
        """The (track count, width) of every ``_side`` call, in call order."""
        calls = []
        stack = matching._side

        def counting(tracks, frames, width, *at):
            calls.append((len(tracks), width))
            return stack(tracks, frames, width, *at)

        monkeypatch.setattr(matching, "_side", counting)
        return calls

    @pytest.mark.parametrize("path", ["pose", "keypoint", "fallback"])
    def test_match_sequences(self, path, gathered, stacked, monkeypatch):
        scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=9, pixel_noise_sigma=1.0))
        if path == "fallback":

            def no_winner(fds, *args, **kwargs):
                return [NoViableProposal("stub", NoViableProposal.SEED_FITS_FAILED)] * len(fds)

            monkeypatch.setattr(matching, "_search_frames", no_winner)
        config = PcmConfig(delta=math.inf if path == "pose" else 0.0)
        result = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config)
        assert result.stats.keypoint_path == (path != "pose")
        assert result.stats.fallback_to_pose == (path == "fallback")
        assert len(gathered) == (2 if path == "keypoint" else 1)
        assert result.match.pairs and set(result.match.pairs) <= set(gathered[-1])
        assert stacked == [(3, 3), (3, 2)]

    @pytest.mark.parametrize("strategy", matching.STRATEGIES)
    def test_match_with_strategy(self, strategy, stacked):
        scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=9, pixel_noise_sigma=1.0))
        match_with_strategy(strategy, scene.tracks3d, scene.tracks2d[0], scene.intrinsics)
        assert stacked == [(3, 3), (3, 2)]

    def test_extrinsics_for_match(self, gathered, stacked):
        scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=9))
        pairs = sorted(scene.truth.correspondence[0].items())
        matching.extrinsics_for_match(scene.tracks3d, scene.tracks2d[0], pairs, scene.intrinsics, 3)
        assert gathered == [tuple(pairs)]
        assert stacked == [(3, 3), (3, 2)]


# ---------------------------------------------------------------------------
# Strategy dispatch


class TestStrategies:
    def test_full_strategy_equals_sequence_matcher(self):
        scene = generate(SceneConfig(person_count=4, duration_frames=10, seed=19))
        config = PcmConfig(delta=0.5)
        direct = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config)
        dispatched = match_with_strategy(
            "P&T&K", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
        )
        assert dispatched.pairs == direct.match.pairs

    def test_exhaustive_equals_full_on_small_noiseless(self):
        for seed in (501, 502, 503):
            scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=seed))
            config = PcmConfig(delta=0.5)
            kps = match_with_strategy(
                "KPs", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
            )
            full = match_with_strategy(
                "P&T&K", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
            )
            assert set(kps.pairs) == set(full.pairs)
            assert set(kps.pairs) == scene.truth.sequence_pairs(0)

    def test_single_seed_strategy_recovers_clean_scene(self):
        scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=21))
        result = match_with_strategy(
            "KP", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, PcmConfig(), seed=5
        )
        assert set(result.pairs) == scene.truth.sequence_pairs(0)

    def test_single_frame_strategies_run(self):
        scene = generate(SceneConfig(person_count=3, duration_frames=7, seed=25))
        for mode in ("Pose", "P&K"):
            result = match_with_strategy(
                mode, scene.tracks3d, scene.tracks2d[0], scene.intrinsics
            )
            assert len(result.pairs) <= 3

    def test_pose_strategy_confused_by_synchronized_motion(self):
        # Across seeds, single-frame pose matching must lose to the full
        # matcher on synchronized scenes (it cannot tell the twins apart).
        config = PcmConfig(delta=0.5)
        pose_acc, full_acc = [], []
        for seed in range(6):
            scene = generate(
                SceneConfig(
                    person_count=4,
                    duration_frames=24,
                    seed=600 + seed,
                    pixel_noise_sigma=2.0,
                    synchronized_pose_groups=((0, 1),),
                    pose_noise_degrees=8.0,
                )
            )
            pose = match_with_strategy(
                "Pose", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
            )
            full = match_with_strategy(
                "P&T&K", scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
            )
            pose_acc.append(accuracy(pose, scene.truth, 0))
            full_acc.append(accuracy(full, scene.truth, 0))
        assert np.mean(pose_acc) < np.mean(full_acc)

    def test_unknown_strategy_rejected(self):
        scene = generate(SceneConfig(person_count=1, duration_frames=2, seed=27))
        with pytest.raises(ValueError):
            match_with_strategy("XX", scene.tracks3d, scene.tracks2d[0], scene.intrinsics)


class TestPersonTrack2D:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_confidence_must_be_finite_in_unit_interval(self, bad):
        rng = np.random.default_rng(31)
        confidence = np.ones((3, JOINTS))
        confidence[1, 4] = bad
        with pytest.raises(ValueError):
            track2d_from(rng, 3, confidence=confidence)
