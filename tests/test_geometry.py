import numpy as np
import pytest

from crossalign import geometry, matching
from crossalign.errors import (
    DegenerateConfiguration,
    GeometryError,
    InsufficientCorrespondences,
    NonPositiveDepth,
)
from crossalign.geometry import (
    Extrinsics,
    Intrinsics,
    PnpResult,
    check_rotation,
    geodesic_rotation_error,
    project,
    solve_pnp,
    solve_pnp_packed,
)
from crossalign.simulator import SceneConfig, generate

from helpers import (
    make_intrinsics,
    project_oracle,
    projection_matrix_oracle,
    random_camera,
    random_rotation,
    rot_z,
    sides,
)


def solve_pnp_list(problems, intrinsics):
    """``solve_pnp_packed`` on a list of problems ``(points3d, points2d)``,
    packed end to end."""
    x3 = [np.asarray(x3, dtype=float).reshape(-1, 3) for x3, _ in problems]
    x2 = [np.asarray(x2, dtype=float).reshape(-1, 2) for _, x2 in problems]
    return solve_pnp_packed(
        np.concatenate([np.zeros((0, 3))] + x3), np.concatenate([np.zeros((0, 2))] + x2),
        [len(x) for x in x3], intrinsics,
    )


def kernel(intrinsics, x3, x2, valid, pose, linearize):
    """``_pose_kernel`` on point-major padded points x3 (n, k, 3) and x2
    (n, k, 2) with ``valid`` (n, k), handed over as ``_refine_poses`` gathers
    them: coordinate planes (3, n, k) for the objective, and problem-major
    planes (3, k, n), pixels (k, n, 2) and mask (k, n) for the normal
    equations."""
    if linearize:
        x3, x2, valid = x3.transpose(2, 1, 0), x2.swapaxes(0, 1), valid.T
    else:
        x3 = x3.transpose(2, 0, 1)
    return geometry._pose_kernel(intrinsics, np.ascontiguousarray(x3), np.ascontiguousarray(x2),
                                 np.ascontiguousarray(valid), pose, linearize)


def point_major_kernel(intrinsics, x3, x2, valid, pose, linearize):
    """The kernel's earlier point-major formula, on x3 (n, k, 3), x2
    (n, k, 2) and ``valid`` (n, k): the reference that ``_pose_kernel``
    must equal bit for bit."""
    cam = pose[..., 3] + x3[..., 0, None] * pose[..., 0]
    cam += x3[..., 1, None] * pose[..., 1]
    cam += x3[..., 2, None] * pose[..., 2]
    uv, front = geometry.pinhole(intrinsics, cam)
    live = valid & front
    res = np.where(live[..., None], uv - x2, intrinsics.diagonal * valid[..., None])
    if not linearize:
        return (res * res).sum(axis=0).sum(axis=1)
    duv = geometry.pinhole_jacobian(intrinsics, cam, live)
    r = (cam - pose[..., 3])[..., None, :]
    jac = np.empty((len(pose), len(cam), 2, 6))
    point_major = jac.transpose(1, 0, 2, 3)
    point_major[..., 0] = r[..., 1] * duv[..., 2] - r[..., 2] * duv[..., 1]
    point_major[..., 1] = r[..., 2] * duv[..., 0] - r[..., 0] * duv[..., 2]
    point_major[..., 2] = r[..., 0] * duv[..., 1] - r[..., 1] * duv[..., 0]
    point_major[..., 3:] = duv
    point_major[~live] = 0.0
    jac = jac.reshape(len(pose), -1, 6)
    res = np.ascontiguousarray(res.swapaxes(0, 1)).reshape(len(pose), -1, 1)
    size = 2 * geometry.PNP_BLOCK_POINTS
    hess = grad = 0.0
    for lo in range(0, jac.shape[1], size):
        jt = jac[:, lo : lo + size].transpose(0, 2, 1)
        hess = hess + jt @ jac[:, lo : lo + size]
        grad = grad + jt @ res[:, lo : lo + size]
    return hess, grad[..., 0]


def scene_points(rng, n=24, spread=2.0, center=(0.0, 0.0, 0.0)):
    return np.asarray(center) + rng.uniform(-spread, spread, size=(n, 3))


class TestIntrinsics:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_intrinsics(fx=-1.0)
        with pytest.raises(ValueError):
            make_intrinsics(cx=5000.0)
        # An image without pixels has a zero diagonal, which would make the
        # behind-camera penalty and the default reject threshold 0.
        for width, height in ((0, 0), (0, 1080), (1920, 0)):
            with pytest.raises(ValueError, match="at least 1"):
                make_intrinsics(cx=0.0, cy=0.0, width=width, height=height)
        assert make_intrinsics(cx=0.0, cy=0.0, width=1, height=1).diagonal > 0


class TestExtrinsics:
    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Extrinsics(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Extrinsics(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @staticmethod
    def poses(rng, count=5):
        return np.stack([random_rotation(rng) for _ in range(count)]), rng.normal(size=(count, 3))

    @pytest.mark.parametrize(
        "fault", ["non-finite", "non-orthonormal", "improper", "shape", "translation"]
    )
    def test_stack_raises_as_one_at_a_time(self, fault):
        rotations, translations = self.poses(np.random.default_rng(83))
        if fault == "non-finite":
            rotations[2, 1, 1] = np.nan
        elif fault == "non-orthonormal":
            rotations[2] *= 1.0 + 1e-6
        elif fault == "improper":  # orthonormal, determinant -1
            rotations[2] = -rotations[2]
        elif fault == "shape":
            rotations = rotations[:, :, :2]
        else:
            translations[2, 0] = np.inf
        with pytest.raises(ValueError) as alone:
            for rotation, translation in zip(rotations, translations):
                Extrinsics(rotation.copy(), translation.copy())
        with pytest.raises(ValueError) as stacked:
            Extrinsics.from_stack(rotations, translations)
        assert str(stacked.value) == str(alone.value)
        if fault != "translation":
            with pytest.raises(ValueError) as checked:
                check_rotation(rotations[2])
            assert str(checked.value) == str(alone.value)

    def test_stack_equals_one_at_a_time_and_is_read_only(self):
        rotations, translations = self.poses(np.random.default_rng(89))
        stacked = Extrinsics.from_stack(rotations, translations)
        assert len(stacked) == len(rotations)
        for pose, rotation, translation in zip(stacked, rotations, translations):
            alone = Extrinsics(rotation.copy(), translation.copy())
            assert type(pose) is Extrinsics
            assert pose.rotation.dtype == alone.rotation.dtype == np.float64
            assert pose.rotation.shape == (3, 3) and pose.translation.shape == (3,)
            assert pose.rotation.tobytes() == alone.rotation.tobytes()
            assert pose.translation.tobytes() == alone.translation.tobytes()
            assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable
            with pytest.raises(ValueError):
                pose.rotation[0, 0] = 2.0
            with pytest.raises(ValueError):
                pose.translation[0] = 2.0
        # The inputs stay writable, and editing them moves no pose.
        before = stacked[0].rotation.copy()
        rotations[0] = np.eye(3)
        translations[0] = 0.0
        assert np.array_equal(stacked[0].rotation, before)
        assert Extrinsics.from_stack(np.zeros((0, 3, 3)), np.zeros((0, 3))) == []

    def test_one_pose_leaves_the_callers_arrays_writable(self):
        rotation, translation = np.eye(3), np.zeros(3)
        pose = Extrinsics(rotation, translation)
        rotation[0, 0] = 2.0
        translation[0] = 5.0
        assert np.array_equal(pose.rotation, np.eye(3))
        assert np.array_equal(pose.translation, np.zeros(3))
        assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable

    # Each caller's layout, pose axis first: the cost stack's (pose, p3) and
    # body-pose (pose, p3, p2) points, the pair residuals' (frame, pair) view
    # of (pair, frame) arrays, the refiner's (n) and the simulator's (frame,
    # person) view of (person, frame) joints.
    @pytest.mark.parametrize("shape, swapped", [
        pytest.param((6, 4), False, id="pose, p3"),
        pytest.param((6, 4, 3), False, id="pose, p3, p2"),
        pytest.param((3, 6), True, id="frame, pair view"),
        pytest.param((6,), False, id="n"),
        pytest.param((4, 6), True, id="frame, person view"),
    ])
    def test_camera_points_equal_each_poses_transform(self, shape, swapped):
        rng = np.random.default_rng(97)
        rotations, translations = self.poses(rng, 6)
        points = rng.normal(scale=4.0, size=shape + (24, 3))
        if swapped:
            points = points.swapaxes(0, 1)
        cam = geometry.camera_points(points, rotations, translations)
        assert cam.shape == points.shape
        for k, pose in enumerate(Extrinsics.from_stack(rotations, translations)):
            expected = pose.transform(points[k])
            assert (cam[k].dtype, cam[k].tobytes()) == (expected.dtype, expected.tobytes())


class TestProject:
    def test_axis_aligned_pinhole(self):
        k = Intrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=200, height=200)
        pixel = project(k, Extrinsics.identity(), np.array([1.0, 0.0, 1.0]))
        assert np.allclose(pixel, [100.0, 0.0])

    def test_optical_axis_maps_to_principal_point(self):
        k = make_intrinsics()
        for depth in (0.1, 1.0, 57.0):
            pixel = project(k, Extrinsics.identity(), np.array([0.0, 0.0, depth]))
            assert np.allclose(pixel, [k.cx, k.cy])

    def test_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(7)
        k = make_intrinsics()
        for _ in range(50):
            extr = random_camera(rng)
            p = projection_matrix_oracle(k, extr)
            pt = scene_points(rng, n=1)[0]
            assert np.allclose(project(k, extr, pt), project_oracle(p, pt), atol=1e-10)

    def test_scaled_homogeneous_representation_is_equivalent(self):
        # Perspective division cancels any scale on the 3x4 matrix.
        rng = np.random.default_rng(11)
        k = make_intrinsics()
        for _ in range(20):
            extr = random_camera(rng)
            p = projection_matrix_oracle(k, extr)
            pt = scene_points(rng, n=1)[0]
            s = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert np.allclose(
                project(k, extr, pt), project_oracle(s * p, pt), atol=1e-9
            )

    def test_behind_camera_raises(self):
        k = make_intrinsics()
        with pytest.raises(NonPositiveDepth):
            project(k, Extrinsics.identity(), np.array([0.0, 0.0, -1.0]))
        with pytest.raises(NonPositiveDepth):
            project(k, Extrinsics.identity(), np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]))


class TestGeodesicRotationError:
    def test_identity(self):
        assert geodesic_rotation_error(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert geodesic_rotation_error(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(
            np.pi / 2, abs=1e-12
        )

    def test_matches_quaternion_oracle(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(19)
        for _ in range(100):
            ra, rb = random_rotation(rng), random_rotation(rng)
            qa = Rotation.from_matrix(ra).as_quat()
            qb = Rotation.from_matrix(rb).as_quat()
            oracle = 2.0 * np.arccos(np.clip(abs(qa @ qb), -1.0, 1.0))
            assert geodesic_rotation_error(ra, rb) == pytest.approx(oracle, abs=1e-9)


class TestSolvePnp:
    def test_identity_recovery(self):
        rng = np.random.default_rng(23)
        k = make_intrinsics()
        pts = scene_points(rng, n=24, center=(0.0, 0.0, 8.0))
        obs = project(k, Extrinsics.identity(), pts)
        result = solve_pnp(pts, obs, k)
        assert geodesic_rotation_error(result.extrinsics.rotation, np.eye(3)) < 1e-6
        assert np.linalg.norm(result.extrinsics.translation) < 1e-6

    def test_random_pose_recovery(self):
        rng = np.random.default_rng(29)
        k = make_intrinsics()
        for _ in range(20):
            extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=24)
            obs = project(k, extr, pts)
            result = solve_pnp(pts, obs, k)
            assert geodesic_rotation_error(result.extrinsics.rotation, extr.rotation) < 1e-4
            assert np.linalg.norm(result.extrinsics.translation - extr.translation) < 1e-4
            assert result.rms_px < 1e-6

    def test_noise_leaves_bounded_residual(self):
        rng = np.random.default_rng(31)
        k = make_intrinsics()
        rms_values = []
        for _ in range(30):
            extr = random_camera(rng)
            pts = scene_points(rng, n=24)
            obs = project(k, extr, pts) + rng.normal(0.0, 1.0, size=(24, 2))
            result = solve_pnp(pts, obs, k)
            rms_values.append(result.rms_px)
        assert np.mean(rms_values) <= 1.5

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(37)
        k = make_intrinsics()
        extr = random_camera(rng)
        pts = scene_points(rng, n=24)
        obs = project(k, extr, pts) + rng.normal(0.0, 2.0, size=(24, 2))
        result = solve_pnp(pts, obs, k)
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_coplanar_points_use_homography_path(self):
        rng = np.random.default_rng(41)
        k = make_intrinsics()
        for _ in range(10):
            extr = random_camera(rng)
            flat = scene_points(rng, n=12)
            flat[:, 2] = 0.3  # all points on z = 0.3 plane
            obs = project(k, extr, flat)
            result = solve_pnp(flat, obs, k)
            assert geodesic_rotation_error(result.extrinsics.rotation, extr.rotation) < 1e-4
            assert np.linalg.norm(result.extrinsics.translation - extr.translation) < 1e-4

    def test_coplanar_needs_eight_points(self):
        rng = np.random.default_rng(43)
        k = make_intrinsics()
        extr = random_camera(rng)
        flat = scene_points(rng, n=7)
        flat[:, 2] = 0.0
        obs = project(k, extr, flat)
        with pytest.raises(DegenerateConfiguration):
            solve_pnp(flat, obs, k)

    def test_collinear_points_rejected(self):
        rng = np.random.default_rng(47)
        k = make_intrinsics()
        extr = random_camera(rng)
        line = np.outer(np.linspace(-1.0, 1.0, 10), np.array([1.0, 0.5, 0.2]))
        obs = project(k, extr, line)
        with pytest.raises(DegenerateConfiguration):
            solve_pnp(line, obs, k)

    def test_too_few_points_rejected(self):
        rng = np.random.default_rng(53)
        k = make_intrinsics()
        extr = random_camera(rng)
        pts = scene_points(rng, n=5)
        obs = project(k, extr, pts)
        with pytest.raises(InsufficientCorrespondences):
            solve_pnp(pts, obs, k)

    def test_non_finite_pairs_are_filtered(self):
        rng = np.random.default_rng(59)
        k = make_intrinsics()
        extr = random_camera(rng)
        pts = scene_points(rng, n=24)
        obs = project(k, extr, pts)
        obs[:3] = np.nan  # only 21 usable pairs remain
        result = solve_pnp(pts, obs, k)
        assert geodesic_rotation_error(result.extrinsics.rotation, extr.rotation) < 1e-4

    @pytest.mark.parametrize(
        "cameras,noise3d", [(1, 0.0), (4, 0.03)], ids=["one camera", "four cameras"]
    )
    def test_true_pairs_converge_well_inside_the_cap(self, cameras, noise3d):
        # Ten persons, 2 px pixel noise and 20% joint dropout, the scenes of
        # the pose-path and four-camera benchmarks. Fits to the true pairs take
        # 3-4 iterations there; the cap keeps at least four times that, so it
        # never ends a well-posed fit.
        frames = 32
        for seed in (1, 2, 3):
            scene = generate(SceneConfig(
                person_count=10, duration_frames=frames, camera_count=cameras, seed=seed,
                pixel_noise_sigma=2.0, dropout_rate=0.2, joint3d_noise_sigma=noise3d,
            ))
            for camera, tracks2d in enumerate(scene.tracks2d):
                pairs = sorted(scene.truth.correspondence[camera].items())
                *arrays, valid = matching._pair_frames(*sides(scene.tracks3d, tracks2d), pairs)
                problems = []
                for t in range(frames):
                    joints3d, mask3d, joints2d, conf2d = (a[valid[:, t], t] for a in arrays)
                    usable = mask3d & (conf2d > 0)
                    problems.append((joints3d[usable], joints2d[usable]))
                for outcome in solve_pnp_list(problems, scene.intrinsics):
                    assert isinstance(outcome, PnpResult)
                    assert outcome.iterations <= geometry.PNP_MAX_ITERATIONS // 4


class TestSolvePnpBatch:
    """The batch solver gives every problem the outcome it gets alone."""

    @staticmethod
    def mixed_problems():
        rng = np.random.default_rng(61)
        k = make_intrinsics()
        problems = []

        def observed(extr, pts, noise=0.0):
            obs = project(k, extr, pts)
            return obs + rng.normal(0.0, noise, size=obs.shape) if noise else obs

        for _ in range(3):  # general position, with and without noise
            extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=int(rng.integers(6, 60)))
            problems.append((pts, observed(extr, pts, noise=2.0)))
        extr = random_camera(rng)
        pts = scene_points(rng, n=24)
        problems.append((pts, observed(extr, pts)))
        for n in (12, 7):  # coplanar with enough and with too few pairs
            extr = random_camera(rng)
            flat = scene_points(rng, n=n)
            flat[:, 2] = 0.3
            problems.append((flat, observed(extr, flat, noise=1.0)))
        line = np.outer(np.linspace(-1.0, 1.0, 10), np.array([1.0, 0.5, 0.2]))
        problems.append((line, observed(random_camera(rng), line)))
        pts = scene_points(rng, n=5)
        problems.append((pts, observed(random_camera(rng), pts)))
        extr = random_camera(rng)
        pts = scene_points(rng, n=30)
        obs = observed(extr, pts, noise=1.0)
        obs[:4] = np.nan  # filtered pairs
        pts[4, 1] = np.inf
        problems.append((pts, obs))
        # A camera inside the point cloud: some points lie behind it.
        extr = random_camera(rng, distance=1.0)
        pts = scene_points(rng, n=40, spread=3.0)
        cam = extr.transform(pts)
        front = cam[:, 2] > 0.5
        obs = np.full((40, 2), 500.0)
        obs[front] = observed(extr, pts[front], noise=1.0)
        problems.append((pts, obs))
        return problems, k

    @staticmethod
    def outcome_key(outcome):
        if isinstance(outcome, Exception):
            return (type(outcome).__name__,)
        extr = outcome.extrinsics
        return ("PnpResult", outcome.iterations, tuple(outcome.objective_trace),
                extr.rotation.tobytes(), extr.translation.tobytes())

    @pytest.mark.parametrize("max_iterations", [100, 1])
    def test_each_problem_matches_solve_pnp(self, max_iterations, monkeypatch):
        monkeypatch.setattr(geometry, "PNP_MAX_ITERATIONS", max_iterations)
        problems, k = self.mixed_problems()
        batch = solve_pnp_list(problems, k)
        kinds = set()
        for (pts, obs), outcome in zip(problems, batch):
            try:
                alone = solve_pnp(pts, obs, k)
            except GeometryError as exc:
                alone = exc
            assert type(outcome) is type(alone)
            kinds.add(type(alone).__name__)
            if isinstance(alone, PnpResult):
                # Each problem keeps its own damping: the same steps, bit for bit.
                assert outcome.objective_trace == alone.objective_trace
                assert np.abs(outcome.extrinsics.rotation - alone.extrinsics.rotation).max() <= 1e-9
                assert np.abs(outcome.extrinsics.translation - alone.extrinsics.translation).max() <= 1e-9
        # One Gauss-Newton iteration leaves every solvable problem still improving.
        solved = "PnpResult" if max_iterations > 1 else "NoConvergence"
        assert kinds == {solved, "DegenerateConfiguration", "InsufficientCorrespondences"}

    def test_order_and_split_change_no_outcome(self, monkeypatch):
        problems, k = self.mixed_problems()
        calls = []
        initial_poses = geometry._initial_poses

        def counted(x3, x2, counts, intrinsics):
            calls.append((len(x3), len(counts)))
            return initial_poses(x3, x2, counts, intrinsics)

        def assert_bounded():
            # Every linear-start stack holds at most PNP_BATCH_POINTS points,
            # unless it holds one problem.
            assert calls
            for points, problem_count in calls:
                assert points <= geometry.PNP_BATCH_POINTS or problem_count == 1
            calls.clear()

        monkeypatch.setattr(geometry, "_initial_poses", counted)
        reference = [self.outcome_key(o) for o in solve_pnp_list(problems, k)]
        assert_bounded()
        order = np.random.default_rng(67).permutation(len(problems))
        shuffled = solve_pnp_list([problems[i] for i in order], k)
        assert [self.outcome_key(o) for o in shuffled] == [reference[i] for i in order]
        assert_bounded()
        # A point cap below every problem's size splits the batch into single
        # problems, for the linear starts and for Gauss-Newton.
        monkeypatch.setattr(geometry, "PNP_BATCH_POINTS", 8)
        split = solve_pnp_list(problems, k)
        assert [self.outcome_key(o) for o in split] == reference
        assert all(problem_count == 1 for _, problem_count in calls)
        assert_bounded()

    def test_coplanar_problems_share_a_stack(self):
        rng = np.random.default_rng(71)
        k = make_intrinsics()

        def tilted_plane(n):
            axes = random_rotation(rng)[:, :2]  # two orthonormal in-plane directions
            return rng.uniform(-0.5, 0.5, size=3) + rng.uniform(-2.0, 2.0, size=(n, 2)) @ axes.T

        truths, problems = [], []
        for n in (12, 12, 12, 20, 20, 9):  # equal counts share a DLT stack
            extr = random_camera(rng)
            pts = tilted_plane(n)
            truths.append(extr)
            problems.append((pts, project(k, extr, pts)))
        # 8 pairs on only 3 (coplanar) and 4 (non-coplanar) distinct positions.
        flat = tilted_plane(3)[[0, 1, 2, 0, 1, 2, 0, 1]]
        spread = rng.uniform(-2.0, 2.0, size=(4, 3))[[0, 1, 2, 3, 0, 1, 2, 3]]
        few = tilted_plane(7)
        for pts in (flat, spread, few):
            problems.append((pts, project(k, random_camera(rng), pts)))

        batch = solve_pnp_list(problems, k)
        for problem, outcome in zip(problems, batch):
            alone = solve_pnp_list([problem], k)[0]
            assert self.outcome_key(outcome) == self.outcome_key(alone)
            assert str(outcome) == str(alone)
        for extr, outcome in zip(truths, batch):
            assert geodesic_rotation_error(outcome.extrinsics.rotation, extr.rotation) < 1e-4
            assert np.linalg.norm(outcome.extrinsics.translation - extr.translation) < 1e-4
        homography, dlt, seven = batch[len(truths) :]
        assert isinstance(homography, DegenerateConfiguration)
        assert str(homography) == "rank-deficient homography system"
        assert isinstance(dlt, DegenerateConfiguration)
        assert str(dlt) == "rank-deficient normal equations in DLT"
        assert isinstance(seven, DegenerateConfiguration)
        assert str(seven) == "coplanar points need >= 8 pairs, got 7"

    def test_mixed_counts_share_one_linear_stack(self, monkeypatch):
        rng = np.random.default_rng(73)
        k = make_intrinsics()
        problems = []
        for n in (190, 6, 57, 24, 9):
            extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=n)
            problems.append((pts, project(k, extr, pts) + rng.normal(0.0, 1.0, size=(n, 2))))
        assert len(problems) * max(len(x3) for x3, _ in problems) <= geometry.PNP_BATCH_POINTS
        calls = []
        initial_poses = geometry._initial_poses

        def counted(*args):
            calls.append(args)
            return initial_poses(*args)

        monkeypatch.setattr(geometry, "_initial_poses", counted)
        batch = solve_pnp_list(problems, k)
        assert len(calls) == 1
        for problem, outcome in zip(problems, batch):
            alone = solve_pnp_list([problem], k)[0]
            assert self.outcome_key(outcome) == self.outcome_key(alone)
            assert str(outcome) == str(alone)

    @staticmethod
    def svd_dlt(x3, xn):
        """The reference DLT: the right singular vector of the smallest
        singular value of the Hartley-normalized design matrix."""

        def normalization(points):
            d = points.shape[1]
            centroid = points.mean(axis=0)
            scale = np.sqrt(d) / np.sqrt(((points - centroid) ** 2).sum(axis=1).mean())
            transform = np.eye(d + 1)
            transform[:d, :d] *= scale
            transform[:d, d] = -scale * centroid
            return (points - centroid) * scale, transform

        ps, ts = normalization(x3)
        pd, td = normalization(xn)
        sh = np.hstack([ps, np.ones((len(ps), 1))])
        a = np.zeros((2 * len(ps), 12))
        a[0::2, :4] = sh
        a[0::2, 8:] = -pd[:, :1] * sh
        a[1::2, 4:8] = sh
        a[1::2, 8:] = -pd[:, 1:] * sh
        vt = np.linalg.svd(a)[2]
        return np.linalg.inv(td) @ vt[-1].reshape(3, 4) @ ts

    def test_linear_start_matches_an_svd_dlt(self):
        rng = np.random.default_rng(79)
        k = make_intrinsics()
        x3s, x2s = [], []
        for n in (6, 7, 11, 24, 60, 133, 240):
            extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=n)
            x3s.append(pts)
            x2s.append(project(k, extr, pts) + rng.normal(0.0, 2.0, size=(n, 2)))
        counts = np.array([len(x3) for x3 in x3s])
        x3, x2 = np.concatenate(x3s), np.concatenate(x2s)
        xn = (x2 - [k.cx, k.cy]) / [k.fx, k.fy]
        dlt, full_rank = geometry._dlt(x3, xn, counts)
        starts = geometry._initial_poses(x3, x2, counts, k)
        assert full_rank.all()
        ends = np.cumsum(counts)
        for p, start, lo, hi in zip(dlt, starts, ends - counts, ends):
            reference = self.svd_dlt(x3[lo:hi], xn[lo:hi])
            reference /= np.linalg.norm(reference)
            p = p / np.linalg.norm(p)
            assert np.abs(p - np.sign((p * reference).sum()) * reference).max() < 1e-8
            rot, t = geometry._factor_calibrated(reference)
            assert np.abs(start - np.hstack([rot, t[:, None]])).max() < 1e-8

    def test_trace_is_non_increasing_per_problem(self):
        problems, k = self.mixed_problems()
        for outcome in solve_pnp_list(problems, k):
            if isinstance(outcome, PnpResult):
                assert np.all(np.diff(outcome.objective_trace) <= 0.0)


class TestSolvePnpPacked:
    """The packed core gives every problem the outcome of the list form and
    of ``solve_pnp`` alone, bit for bit."""

    @staticmethod
    def problems():
        problems, k = TestSolvePnpBatch.mixed_problems()
        rng = np.random.default_rng(97)
        empty = (np.zeros((0, 3)), np.zeros((0, 2)))
        extr = random_camera(rng)
        pts = scene_points(rng, n=9)
        obs = project(k, extr, pts)
        pts[[1, 4, 7], 2] = np.nan  # NaN rows in 3D: 6 finite pairs remain, enough
        few = scene_points(rng, n=8)
        few_obs = project(k, random_camera(rng), few)
        few[[0, 3], 1] = few_obs[5, 0] = np.nan  # NaN rows in 3D and in 2D: 5 finite pairs
        return [empty] + problems[:4] + [empty, (pts, obs), (few, few_obs)] + problems[4:], k

    def test_equals_the_list_form_and_each_problem_alone(self):
        problems, k = self.problems()
        counts = [len(x3) for x3, _ in problems]
        packed = solve_pnp_packed(
            np.concatenate([x3 for x3, _ in problems]),
            np.concatenate([x2 for _, x2 in problems]),
            counts,
            k,
        )
        listed = solve_pnp_list(problems, k)
        assert len(packed) == len(listed) == len(problems)
        key = TestSolvePnpBatch.outcome_key
        messages = []
        for (x3, x2), a, b in zip(problems, packed, listed):
            try:
                alone = solve_pnp(x3, x2, k)
            except GeometryError as exc:
                alone = exc
            assert key(a) == key(b) == key(alone)
            if isinstance(alone, GeometryError):
                assert str(a) == str(b) == str(alone)
                messages.append(str(alone))
        assert messages.count("0 valid pairs, need >= 6") == 2
        assert "5 valid pairs, need >= 6" in messages
        assert "3D points are collinear" in messages
        assert "coplanar points need >= 8 pairs, got 7" in messages
        assert sum(isinstance(o, PnpResult) for o in packed) >= 6

    def test_empty_batch_and_unpaired_points(self):
        k = make_intrinsics()
        assert solve_pnp_packed(np.zeros((0, 3)), np.zeros((0, 2)), [], k) == []
        assert solve_pnp_list([], k) == []
        zero = solve_pnp_packed(np.zeros((0, 3)), np.zeros((0, 2)), [0, 0], k)
        assert [type(o) for o in zero] == [InsufficientCorrespondences] * 2
        assert [str(o) for o in zero] == ["0 valid pairs, need >= 6"] * 2
        with pytest.raises(ValueError):
            solve_pnp_packed(np.zeros((6, 3)), np.zeros((6, 2)), [3, 2], k)
        with pytest.raises(ValueError):
            solve_pnp_packed(np.zeros((6, 3)), np.zeros((5, 2)), [6], k)

    def test_pose10_sizes_alone_packed_and_split(self, monkeypatch):
        # Problems of 130-300 points, as pose10's frames fit: padding a run to
        # its largest problem reaches hundreds of Jacobian rows, where the
        # order of a BLAS product's sums depends on its row count.
        rng = np.random.default_rng(131)
        k = make_intrinsics()
        problems = []
        for n in (211, 130, 300, 167, 254, 142, 193, 278, 236):
            extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=n)
            problems.append((pts, project(k, extr, pts) + rng.normal(0.0, 1.5, size=(n, 2))))
        key = TestSolvePnpBatch.outcome_key
        alone = [key(solve_pnp(x3, x2, k)) for x3, x2 in problems]
        assert [a[0] for a in alone] == ["PnpResult"] * len(problems)
        assert [key(o) for o in solve_pnp_list(problems, k)] == alone
        # Runs of two problems, each padded to its larger count.
        monkeypatch.setattr(geometry, "PNP_BATCH_POINTS", 600)
        assert [key(o) for o in solve_pnp_list(problems, k)] == alone


class TestPoseKernel:
    """``_pose_kernel``, the objective and normal equations that Gauss-Newton
    uses, against central differences of its own objective along the steps
    that ``_step_poses`` takes, and against the point-major formula it
    replaced, bit for bit."""

    @staticmethod
    def padded_problems(rng, k, noise):
        """Four problems padded to 30 points, point-major, x3 (point,
        problem, 3) and x2 (point, problem, 2), with junk in the padding
        rows; problem 3's camera sits inside its points, so some lie behind
        it. ``kernel`` hands them to ``_pose_kernel`` in its layout."""
        counts = np.array([30, 22, 17, 9])
        width = counts.max()
        x3 = rng.uniform(-50.0, 50.0, size=(width, len(counts), 3))
        x2 = rng.uniform(-1e4, 1e4, size=(width, len(counts), 2))
        valid = np.arange(width)[:, None] < counts
        poses = []
        for i, n in enumerate(counts):
            inside = i == 3
            extr = random_camera(rng, distance=1.0 if inside else rng.uniform(6.0, 14.0))
            pts = scene_points(rng, n=n, spread=3.0 if inside else 2.0)
            cam = extr.transform(pts)
            front = cam[:, 2] > 0.0
            obs = np.full((n, 2), 500.0)
            obs[front] = project(k, extr, pts[front])
            obs[front] += rng.normal(0.0, noise, size=(front.sum(), 2))
            x3[:n, i], x2[:n, i] = pts, obs
            poses.append(np.column_stack([extr.rotation, extr.translation]))
        return x3, x2, valid, np.array(poses)

    @staticmethod
    def objective(k, x3, x2, valid, pose, delta):
        return kernel(k, x3, x2, valid, geometry._step_poses(pose, delta), False)

    def test_gradient_is_half_the_objectives_central_difference(self):
        rng = np.random.default_rng(137)
        k = make_intrinsics()
        x3, x2, valid, pose = self.padded_problems(rng, k, noise=2.0)
        depth = (x3 * pose[:, 2, :3]).sum(axis=-1) + pose[:, 2, 3]
        behind = valid & (depth <= 0.0)
        # Points behind the camera, well clear of its plane, so that no step
        # below moves one across it.
        assert behind[:, 3].sum() >= 3 and not behind[:, :3].any()
        assert np.abs(depth[valid]).min() > 1e-2
        hess, grad = kernel(k, x3, x2, valid, pose, True)
        h = 1e-6
        for j in range(6):
            delta = np.zeros((len(pose), 6))
            delta[:, j] = h
            diff = (self.objective(k, x3, x2, valid, pose, delta)
                    - self.objective(k, x3, x2, valid, pose, -delta)) / (2 * h)
            assert np.abs(0.5 * diff - grad[:, j]).max() <= 1e-5 * np.abs(grad).max()
        # JᵀJ is symmetric to the last bit and positive semi-definite.
        assert np.array_equal(hess, hess.swapaxes(1, 2))
        eigval = np.linalg.eigvalsh(hess)
        assert (eigval >= -1e-12 * eigval[:, -1:]).all()

    def test_normal_matrix_is_half_the_objectives_hessian_at_zero_residual(self):
        rng = np.random.default_rng(139)
        k = make_intrinsics()
        x3, x2, valid, pose = self.padded_problems(rng, k, noise=0.0)
        # Points behind the camera add a constant; the others fit exactly.
        hess = kernel(k, x3, x2, valid, pose, True)[0]
        h = 1e-5
        steps = np.eye(6) * h
        fd = np.empty_like(hess)
        for i in range(6):
            for j in range(6):
                f = [self.objective(k, x3, x2, valid, pose,
                                    np.tile(si * steps[i] + sj * steps[j], (len(pose), 1)))
                     for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                fd[:, i, j] = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        scale = np.sqrt(np.einsum("kii,kjj->kij", hess, hess))
        assert np.abs(0.5 * fd - hess).max() <= 1e-5 * scale.max()
        assert (np.abs(0.5 * fd - hess) <= 1e-4 * scale).all()

    def test_solver_starts_from_the_kernels_objective(self):
        rng = np.random.default_rng(149)
        k = make_intrinsics()
        extr = random_camera(rng)
        pts = scene_points(rng, n=40)
        obs = project(k, extr, pts) + rng.normal(0.0, 2.0, size=(40, 2))
        start = geometry._initial_poses(pts, obs, np.array([40]), k)[0]
        f0 = kernel(k, pts[:, None], obs[:, None], np.ones((40, 1), dtype=bool), start[None], False)
        assert solve_pnp(pts, obs, k).objective_trace[0] == f0[0]

    def test_normal_equations_do_not_depend_on_padding(self):
        # Each problem of 130-300 points alone and padded, in stacks of three,
        # to up to 300 points more: the same normal equations, bit for bit.
        rng = np.random.default_rng(151)
        k = make_intrinsics()
        for _ in range(40):
            counts = rng.integers(130, 301, size=3)
            width = counts.max() + int(rng.integers(0, 301))
            x3 = rng.uniform(-2.0, 2.0, size=(width, 3, 3))
            x2 = rng.uniform(0.0, 1000.0, size=(width, 3, 2))
            valid = np.arange(width)[:, None] < counts
            pose = np.array([np.column_stack([e.rotation, e.translation])
                             for e in (random_camera(rng) for _ in counts)])
            hess, grad = kernel(k, x3, x2, valid, pose, True)
            for i, n in enumerate(counts):
                alone = kernel(k, x3[:n, i : i + 1], x2[:n, i : i + 1],
                               valid[:n, i : i + 1], pose[i : i + 1], True)
                assert alone[0][0].tobytes() == hess[i].tobytes()
                assert alone[1][0].tobytes() == grad[i].tobytes()

    def test_equals_the_point_major_formula_bit_for_bit(self):
        # Stacks at the keypoint search's sizes, 6-96 points and up to 170
        # problems, with junk padding and, in every fourth problem from the
        # first, a camera inside its points; and one stack with neither, as
        # most runs are: the objective, JᵀJ and Jᵀr byte for byte.
        rng = np.random.default_rng(157)
        k = make_intrinsics()
        for size, problems, mixed in ((6, 170, True), (24, 120, True), (40, 64, True),
                                      (96, 21, True), (96, 1, True), (30, 40, False)):
            counts = np.sort(rng.integers(6, size + 1, size=problems)) if mixed else [size] * problems
            x3 = rng.uniform(-50.0, 50.0, size=(size, problems, 3))
            x2 = rng.uniform(-1e4, 1e4, size=(size, problems, 2))
            valid = np.arange(size)[:, None] < counts
            poses = []
            for i, n in enumerate(counts):
                inside = mixed and i % 4 == 0
                extr = random_camera(rng, distance=1.0 if inside else rng.uniform(6.0, 14.0))
                x3[:n, i] = scene_points(rng, n=n, spread=3.0 if inside else 2.0)
                x2[:n, i] = rng.uniform(0.0, 1500.0, size=(n, 2))
                poses.append(np.column_stack([extr.rotation, extr.translation]))
            pose = np.array(poses)
            depth = (x3 * pose[:, 2, :3]).sum(axis=-1) + pose[:, 2, 3]
            assert (valid & (depth <= 0.0)).any() == mixed
            f = kernel(k, x3, x2, valid, pose, False)
            assert f.tobytes() == point_major_kernel(k, x3, x2, valid, pose, False).tobytes()
            hess, grad = kernel(k, x3, x2, valid, pose, True)
            ref_hess, ref_grad = point_major_kernel(k, x3, x2, valid, pose, True)
            assert hess.tobytes() == ref_hess.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()


class TestRotvecMatrices:
    def test_rodrigues_rotations(self):
        # About each axis, the closed-form rotation by the vector's length.
        c, s = np.cos(0.3), np.sin(0.3)
        about_axes = [[[1, 0, 0], [0, c, -s], [0, s, c]],
                      [[c, 0, s], [0, 1, 0], [-s, 0, c]],
                      [[c, -s, 0], [s, c, 0], [0, 0, 1]]]
        assert np.abs(geometry._rotvec_matrices(0.3 * np.eye(3)) - about_axes).max() < 1e-15
        # In general, proper rotations that fix their own axis; the zero
        # vector gives the identity exactly, and each member of a stack the
        # matrix it gets alone, bit for bit.
        rng = np.random.default_rng(163)
        w = rng.normal(size=(40, 3)) * rng.uniform(1e-9, 2.0, size=(40, 1))
        w[0] = 0.0
        rot = geometry._rotvec_matrices(w)
        assert np.array_equal(rot[0], np.eye(3))
        check_rotation(rot)
        assert np.abs((rot @ w[:, :, None])[..., 0] - w).max() < 1e-14
        for i in range(len(w)):
            assert geometry._rotvec_matrices(w[i : i + 1])[0].tobytes() == rot[i].tobytes()
