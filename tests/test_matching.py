import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign import matching
from crossalign.errors import GeometryError, InvalidConfig, NoCommonFrames, NoViableProposal
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
from crossalign.skeleton import default_skeleton, forward_kinematics

from helpers import make_intrinsics, projection_for, random_camera, random_rotation

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
    proj = projection_for(k, extr)
    joints = rng.normal(0.0, 0.6, size=(frames, JOINTS, 3)) + [0.0, 0.0, 1.0]
    pixels = np.stack([project(proj, joints[t]) for t in range(frames)])
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
        proj = projection_for(k, extr)
        num = den = 0.0
        for j in range(JOINTS):
            d = np.linalg.norm(project(proj, t3.joints[0, j]) - noisy[0, j])
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
        proj = projection_for(k, extr)
        others = [j for j in range(JOINTS) if j != 5]
        dists = [np.linalg.norm(project(proj, t3.joints[0, j]) - noisy[0, j]) for j in others]
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
        proj = projection_for(k, extr)
        pa = random_pose_sequence(rng, 1)[0]
        pb = random_pose_sequence(rng, 1)[0]
        root = np.array([0.3, 0.2, 0.9])
        ja = forward_kinematics(skeleton, pa, root)
        jb = forward_kinematics(skeleton, pb, root)
        dists = [np.linalg.norm(project(proj, ja[j]) - project(proj, jb[j])) for j in range(JOINTS)]
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
                    fd.pose3d[a], fd.pose2d[b], fd.joints3d[a, 0], extr, intrinsics, skeleton
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
        fd = frame_slice(scene.tracks3d, scene.tracks2d[0], 2)
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
            fd = frame_slice(scene.tracks3d, scene.tracks2d[0], 2)
            result = optimize_frame_match(fd, scene.intrinsics, config, scene.skeleton)
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
                fd = frame_slice(scene.tracks3d, scene.tracks2d[0], t)
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
        fd = frame_slice(scene.tracks3d, scene.tracks2d[0], 2)
        scores = []
        for n_iter in (1, 2, 4):
            result = optimize_frame_match(
                fd, scene.intrinsics, PcmConfig(n_iter=n_iter), scene.skeleton
            )
            scores.append(result.score)
        assert scores[0] <= scores[1] + 1e-15
        assert scores[1] <= scores[2] + 1e-15

    def test_raises_when_unusable(self):
        scene = generate(SceneConfig(person_count=2, duration_frames=3, seed=5))
        empty = frame_slice(scene.tracks3d, [], 0)
        with pytest.raises(NoViableProposal):
            optimize_frame_match(empty, scene.intrinsics, PcmConfig())


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
        solve = matching.solve_pnp_batch

        def recording(problems, intrinsics, **kwargs):
            result = solve(problems, intrinsics, **kwargs)
            outcomes.extend(type(o).__name__ for o in result)
            return result

        monkeypatch.setattr(matching, "solve_pnp_batch", recording)
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
