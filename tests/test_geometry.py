import numpy as np
import pytest

from crossalign import geometry
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
    geodesic_rotation_error,
    project,
    solve_pnp,
    solve_pnp_batch,
)

from helpers import (
    make_intrinsics,
    project_oracle,
    projection_matrix_oracle,
    random_camera,
    random_rotation,
    rot_z,
)


def scene_points(rng, n=24, spread=2.0, center=(0.0, 0.0, 0.0)):
    return np.asarray(center) + rng.uniform(-spread, spread, size=(n, 3))


class TestIntrinsics:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_intrinsics(fx=-1.0)
        with pytest.raises(ValueError):
            make_intrinsics(cx=5000.0)


class TestExtrinsics:
    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Extrinsics(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Extrinsics(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


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
        batch = solve_pnp_batch(problems, k)
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
        reference = [self.outcome_key(o) for o in solve_pnp_batch(problems, k)]
        order = np.random.default_rng(67).permutation(len(problems))
        shuffled = solve_pnp_batch([problems[i] for i in order], k)
        assert [self.outcome_key(o) for o in shuffled] == [reference[i] for i in order]
        # A point cap below every problem's size splits the batch into single
        # problems; one-problem DLT stacks do the same for the linear step.
        monkeypatch.setattr(geometry, "PNP_BATCH_POINTS", 8)
        monkeypatch.setattr(geometry, "DLT_CHUNK", 1)
        split = solve_pnp_batch(problems, k)
        assert [self.outcome_key(o) for o in split] == reference

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

        batch = solve_pnp_batch(problems, k)
        for problem, outcome in zip(problems, batch):
            alone = solve_pnp_batch([problem], k)[0]
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

    def test_trace_is_non_increasing_per_problem(self):
        problems, k = self.mixed_problems()
        for outcome in solve_pnp_batch(problems, k):
            if isinstance(outcome, PnpResult):
                assert np.all(np.diff(outcome.objective_trace) <= 0.0)
