import numpy as np
import pytest

from crossalign.errors import InvalidConfig
from crossalign.geometry import pinhole
from crossalign.matching import JOINTS, MatchSet, build_match_set
from crossalign.simulator import (
    MIN_VISIBLE_JOINTS,
    Scene,
    SceneConfig,
    accuracy,
    generate,
)


def small_scene(**overrides) -> Scene:
    defaults = dict(person_count=3, duration_frames=8, seed=11)
    defaults.update(overrides)
    return generate(SceneConfig(**defaults))


class TestSceneConfig:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidConfig):
            SceneConfig(person_count=0, duration_frames=4)
        with pytest.raises(InvalidConfig):
            SceneConfig(person_count=1, duration_frames=4, dropout_rate=1.5)
        with pytest.raises(InvalidConfig):
            SceneConfig(person_count=1, duration_frames=0)
        with pytest.raises(InvalidConfig):
            SceneConfig(person_count=2, duration_frames=4, synchronized_pose_groups=((0, 5),))
        with pytest.raises(InvalidConfig):
            SceneConfig(
                person_count=3, duration_frames=4, synchronized_pose_groups=((0, 1), (1, 2))
            )

    def test_intrinsics_follow_fov(self):
        config = SceneConfig(person_count=1, duration_frames=1, fov_degrees=90.0)
        k = config.intrinsics()
        assert k.fx == pytest.approx(k.width / 2.0)
        assert k.cx == k.width / 2.0


class TestGenerate:
    def test_noiseless_projections_are_exact(self):
        scene = small_scene(pixel_noise_sigma=0.0, dropout_rate=0.0)
        mapping = scene.truth.correspondence[0]
        for person, track_idx in mapping.items():
            track = scene.tracks2d[0][track_idx]
            for t in range(scene.config.duration_frames):
                if not track.valid[t]:
                    continue
                cam = scene.truth.extrinsics[0][t].transform(scene.truth.joints[person, t])
                uv, front = pinhole(scene.intrinsics, cam)
                usable = track.confidence[t] > 0
                assert front[usable].all()
                assert np.array_equal(track.joints[t][usable], uv[usable])

    def test_same_seed_is_bit_identical(self):
        a = small_scene(pixel_noise_sigma=2.0, dropout_rate=0.2, joint3d_noise_sigma=0.02)
        b = small_scene(pixel_noise_sigma=2.0, dropout_rate=0.2, joint3d_noise_sigma=0.02)
        assert np.array_equal(a.truth.joints, b.truth.joints)
        for ta, tb in zip(a.tracks3d, b.tracks3d):
            assert np.array_equal(ta.joints, tb.joints)
            assert np.array_equal(ta.body_pose, tb.body_pose)
        for ca, cb in zip(a.tracks2d, b.tracks2d):
            for ta, tb in zip(ca, cb):
                assert ta.person_id == tb.person_id
                assert np.array_equal(ta.joints, tb.joints)
                assert np.array_equal(ta.confidence, tb.confidence)

    def test_different_seeds_differ(self):
        a = small_scene(seed=1)
        b = small_scene(seed=2)
        assert not np.array_equal(a.truth.joints, b.truth.joints)

    def test_dropout_fraction_concentrates(self):
        base = dict(person_count=14, duration_frames=40, seed=33, fov_degrees=100.0)
        clean = generate(SceneConfig(**base, dropout_rate=0.0))
        dropped = generate(SceneConfig(**base, dropout_rate=0.3))
        kept_clean = 0
        lost = 0
        for ta, tb in zip(clean.tracks2d[0], dropped.tracks2d[0]):
            usable = ta.confidence > 0
            kept_clean += usable.sum()
            lost += (usable & (tb.confidence == 0)).sum()
        assert kept_clean >= 10_000
        assert lost / kept_clean == pytest.approx(0.3, abs=0.03)

    def test_frustum_visibility_consistency(self):
        # A person is in the true correspondence of a frame iff >= 6 joints
        # project inside the image with positive depth (recomputed here from
        # scratch as the oracle).
        scene = small_scene(person_count=4, duration_frames=10, fov_degrees=40.0, seed=55)
        k = scene.intrinsics
        for t in range(scene.config.duration_frames):
            extr = scene.truth.extrinsics[0][t]
            listed = {p for p, _ in scene.truth.frame_correspondence[0][t]}
            for person in range(scene.config.person_count):
                uv, front = pinhole(k, extr.transform(scene.truth.joints[person, t]))
                inside = (
                    front
                    & (uv[:, 0] >= 0)
                    & (uv[:, 0] < k.width)
                    & (uv[:, 1] >= 0)
                    & (uv[:, 1] < k.height)
                )
                expected = inside.sum() >= MIN_VISIBLE_JOINTS
                assert scene.truth.visible[0, person, t] == expected
                assert (person in listed) == expected

    def test_true_poses_are_orthonormal(self):
        scene = small_scene(person_count=2, duration_frames=12)
        poses = scene.truth.body_pose.reshape(-1, 3, 3)
        products = poses @ np.swapaxes(poses, -1, -2)
        assert np.abs(products - np.eye(3)).max() < 1e-9
        assert np.allclose(np.linalg.det(poses), 1.0, atol=1e-9)

    def test_synchronized_groups_share_true_poses(self):
        scene = small_scene(person_count=4, synchronized_pose_groups=((1, 3),))
        assert np.array_equal(scene.truth.body_pose[1], scene.truth.body_pose[3])
        assert not np.array_equal(scene.truth.body_pose[0], scene.truth.body_pose[1])
        # Trajectories stay distinct.
        assert not np.allclose(scene.truth.joints[1, :, 0], scene.truth.joints[3, :, 0])

    def test_person_speed_is_bounded(self):
        scene = small_scene(person_count=5, duration_frames=64, seed=71)
        steps = np.diff(scene.truth.joints[:, :, 0, :], axis=1)
        speeds = np.linalg.norm(steps, axis=-1) * scene.config.frame_rate
        assert speeds.max() <= 3.0 + 1e-9

    def test_index_permutation_randomizes_identity(self):
        hit_nontrivial = False
        for seed in range(6):
            scene = small_scene(person_count=5, seed=80 + seed, fov_degrees=110.0)
            mapping = scene.truth.correspondence[0]
            if any(i != j for i, j in mapping.items()):
                hit_nontrivial = True
        assert hit_nontrivial

    def test_multiple_cameras_are_independent(self):
        scene = small_scene(camera_count=3, pixel_noise_sigma=1.0)
        assert len(scene.tracks2d) == 3
        assert len(scene.truth.extrinsics) == 3
        a = scene.truth.extrinsics[0][0].translation
        b = scene.truth.extrinsics[1][0].translation
        assert not np.allclose(a, b)

    def test_pose_noise_perturbs_observed_not_true(self):
        scene = small_scene(pose_noise_degrees=5.0)
        person = next(iter(scene.truth.correspondence[0]))
        track3d = scene.tracks3d[person]
        assert not np.allclose(track3d.body_pose, scene.truth.body_pose[person])
        # Observed poses remain valid rotations.
        prods = track3d.body_pose.reshape(-1, 3, 3)
        assert np.abs(prods @ np.swapaxes(prods, -1, -2) - np.eye(3)).max() < 1e-9


class TestAccuracy:
    def test_exact_recovery_scores_one(self):
        scene = small_scene()
        pairs = sorted(scene.truth.correspondence[0].items())
        result = build_match_set(pairs, [0.0] * len(pairs), 3, len(scene.tracks2d[0]))
        assert accuracy(result, scene.truth, 0) == 1.0

    def test_one_swap_of_four_costs_half(self):
        scene = generate(SceneConfig(person_count=4, duration_frames=6, seed=91, fov_degrees=120.0))
        mapping = scene.truth.correspondence[0]
        assert len(mapping) == 4
        pairs = sorted(mapping.items())
        swapped = [pairs[0], pairs[1], (pairs[2][0], pairs[3][1]), (pairs[3][0], pairs[2][1])]
        result = build_match_set(swapped, [0.0] * 4, 4, 4)
        assert accuracy(result, scene.truth, 0) == 0.5

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(93)
        scene = small_scene(person_count=5, fov_degrees=110.0)
        truth_pairs = scene.truth.sequence_pairs(0)
        n2 = len(scene.tracks2d[0])
        for _ in range(10):
            perm = rng.permutation(n2)
            pairs = [(i, int(perm[i])) for i in range(min(5, n2))]
            result = build_match_set(pairs, [0.0] * len(pairs), 5, n2)
            expected = len(truth_pairs & set(result.pairs)) / len(truth_pairs)
            assert accuracy(result, scene.truth, 0) == expected

    def test_vacuous_truth_scores_one(self):
        scene = small_scene()
        empty_truth = scene.truth
        empty_truth.correspondence[0].clear()
        assert accuracy(MatchSet.empty(3, 0), empty_truth, 0) == 1.0
