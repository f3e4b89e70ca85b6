import numpy as np
import pytest

from crossalign import refiner
from crossalign.matching import JOINTS
from crossalign.geometry import pinhole, pinhole_jacobian, project
from crossalign.leastsq import damped_least_squares
from crossalign.refiner import (
    REFINE_MAX_ITERATIONS,
    CameraObservation,
    RefineProblem,
    objective,
    objective_gradient,
    refine,
    refine_batch,
)

from helpers import make_intrinsics, random_camera

RNG_JOINTS_CENTER = np.array([0.0, 0.0, 1.0])


def person_joints(rng):
    return RNG_JOINTS_CENTER + rng.normal(0.0, 0.4, size=(JOINTS, 3))


def observation_of(joints, rng, noise=0.0, conf=None, distance=9.0):
    k = make_intrinsics()
    extr = random_camera(rng, target=RNG_JOINTS_CENTER, distance=distance)
    pixels = project(k, extr, joints)
    if noise:
        pixels = pixels + rng.normal(0.0, noise, size=pixels.shape)
    conf = np.ones(JOINTS) if conf is None else conf
    return CameraObservation(k, extr, pixels, conf)


class TestObjective:
    def test_zero_at_consistent_optimum(self):
        rng = np.random.default_rng(0)
        joints = person_joints(rng)
        problem = RefineProblem(joints, (observation_of(joints, rng), observation_of(joints, rng)))
        assert objective(problem, joints) == pytest.approx(0.0, abs=1e-12)

    def test_zero_cameras_isolates_anchor_term(self):
        rng = np.random.default_rng(1)
        joints = person_joints(rng)
        problem = RefineProblem(joints, (), lambda1=2.5)
        candidate = joints + rng.normal(0.0, 0.1, size=joints.shape)
        expected = 2.5 * ((candidate - joints) ** 2).sum()
        assert objective(problem, candidate) == pytest.approx(expected, rel=1e-12)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(2)
        joints = person_joints(rng)
        conf = rng.uniform(0.2, 1.0, size=JOINTS)
        obs = observation_of(joints, rng, noise=3.0, conf=conf)
        problem = RefineProblem(joints, (obs,), lambda1=1.0, lambda2=0.7, lambda3=0.05)
        candidate = joints + rng.normal(0.0, 0.05, size=joints.shape)

        total = 1.0 * ((candidate - joints) ** 2).sum()
        for j in range(JOINTS):
            err = project(obs.intrinsics, obs.extrinsics, candidate[j]) - obs.joints2d[j]
            total += 0.7 * conf[j] * (err @ err) + 0.05 * (err @ err)
        assert objective(problem, candidate) == pytest.approx(total, rel=1e-9)

    def test_behind_camera_joint_pays_squared_penalty(self):
        rng = np.random.default_rng(3)
        joints = person_joints(rng)
        obs = observation_of(joints, rng)
        problem = RefineProblem(joints, (obs,), lambda1=0.0, lambda2=1.0, lambda3=0.0)
        candidate = joints.copy()
        center = -obs.extrinsics.rotation.T @ obs.extrinsics.translation
        candidate[5] = center - obs.extrinsics.rotation[2] * 3.0  # behind the camera
        value = objective(problem, candidate)
        in_front = np.delete(np.arange(JOINTS), 5)
        rest = sum(
            float(np.sum((project(obs.intrinsics, obs.extrinsics, candidate[j]) - obs.joints2d[j]) ** 2))
            for j in in_front
        )
        assert value == pytest.approx(rest + obs.intrinsics.diagonal**2, rel=1e-9)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            joints = person_joints(rng)
            conf = rng.uniform(0.1, 1.0, size=JOINTS)
            problem = RefineProblem(
                joints,
                (
                    observation_of(joints, rng, noise=4.0, conf=conf),
                    observation_of(joints, rng, noise=4.0),
                ),
                lambda1=1.0,
                lambda2=1.0,
                lambda3=0.01,
            )
            candidate = joints + rng.normal(0.0, 0.08, size=joints.shape)
            grad = objective_gradient(problem, candidate)
            flat = candidate.reshape(-1)
            numeric = np.zeros(flat.size)
            for i in range(flat.size):
                plus = flat.copy()
                minus = flat.copy()
                plus[i] += h
                minus[i] -= h
                numeric[i] = (objective(problem, plus) - objective(problem, minus)) / (2 * h)
            scale = np.maximum(np.abs(numeric), 1.0)
            rel = np.abs(grad.reshape(-1) - numeric) / scale
            assert rel.max() < 1e-4


    def test_equals_twice_jt_r_of_the_solver_system(self, monkeypatch):
        rng = np.random.default_rng(5)
        joints = person_joints(rng)
        conf = rng.uniform(0.1, 1.0, size=JOINTS)
        problem = RefineProblem(
            joints,
            (observation_of(joints, rng, noise=4.0, conf=conf), observation_of(joints, rng, noise=4.0)),
        )
        captured = []
        solver = refiner.damped_least_squares_batch

        def capturing(x0, system, *args, **kwargs):
            captured.append(system)
            return solver(x0, system, *args, **kwargs)

        monkeypatch.setattr(refiner, "damped_least_squares_batch", capturing)
        result = refine(problem)
        assert len(captured) == 1
        for candidate in (joints, joints + rng.normal(0.0, 0.08, size=joints.shape), result.refined3d):
            _, jt_r = captured[0](candidate[None], np.zeros(1, dtype=int))
            expected = 2.0 * jt_r[0]
            assert np.array_equal(objective_gradient(problem, candidate), expected)


class TestCameraObservation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_confidence_must_be_finite_in_unit_interval(self, bad):
        rng = np.random.default_rng(9)
        good = observation_of(person_joints(rng), rng)
        conf = np.ones(JOINTS)
        conf[3] = bad
        with pytest.raises(ValueError):
            CameraObservation(good.intrinsics, good.extrinsics, good.joints2d, conf)


class TestRefine:
    def test_starts_at_optimum_stays_there(self):
        # Observations produced with the refiner's own pinhole arithmetic:
        # the objective starts at exactly zero and refinement returns at once.
        rng = np.random.default_rng(5)
        joints = person_joints(rng)
        k = make_intrinsics()
        observations = []
        for _ in range(2):
            extr = random_camera(rng, target=RNG_JOINTS_CENTER, distance=9.0)
            cam = joints @ extr.rotation.T + extr.translation
            pixels = np.stack(
                [k.fx * cam[:, 0] / cam[:, 2] + k.cx, k.fy * cam[:, 1] / cam[:, 2] + k.cy],
                axis=1,
            )
            observations.append(CameraObservation(k, extr, pixels, np.ones(JOINTS)))
        result = refine(RefineProblem(joints, tuple(observations)))
        assert result.converged
        assert len(result.objective_trace) <= 2
        assert np.array_equal(result.refined3d, joints)

    def test_near_exact_inputs_stay_put(self):
        # Observations from an independent projection path agree only to
        # rounding error; refinement must stay within 1e-9 of the start.
        rng = np.random.default_rng(5)
        joints = person_joints(rng)
        problem = RefineProblem(joints, (observation_of(joints, rng), observation_of(joints, rng)))
        result = refine(problem)
        assert result.converged
        assert np.allclose(result.refined3d, joints, atol=1e-9)

    def test_data_free_problem_is_identity(self):
        rng = np.random.default_rng(6)
        joints = person_joints(rng)
        problem = RefineProblem(joints, (observation_of(joints, rng),), lambda2=0.0, lambda3=0.0)
        result = refine(problem)
        assert np.array_equal(result.refined3d, joints)

    def test_two_clean_cameras_recover_truth(self):
        rng = np.random.default_rng(7)
        improvements = []
        for _ in range(20):
            truth = person_joints(rng)
            noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
            problem = RefineProblem(
                noisy, (observation_of(truth, rng), observation_of(truth, rng))
            )
            result = refine(problem)
            before = np.linalg.norm(noisy - truth, axis=1).mean()
            after = np.linalg.norm(result.refined3d - truth, axis=1).mean()
            improvements.append(after / before)
        assert np.mean(improvements) < 0.7

    def test_trace_is_non_increasing(self):
        rng = np.random.default_rng(8)
        truth = person_joints(rng)
        noisy = truth + rng.normal(0.0, 0.08, size=truth.shape)
        problem = RefineProblem(
            noisy,
            (observation_of(truth, rng, noise=2.0), observation_of(truth, rng, noise=2.0)),
        )
        result = refine(problem)
        trace = np.array(result.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_extra_exact_camera_does_not_hurt(self):
        rng = np.random.default_rng(9)
        wins = 0
        trials = 30
        for _ in range(trials):
            truth = person_joints(rng)
            noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
            obs = [observation_of(truth, rng) for _ in range(3)]
            two = refine(RefineProblem(noisy, tuple(obs[:2]))).refined3d
            three = refine(RefineProblem(noisy, tuple(obs))).refined3d
            err2 = np.linalg.norm(two - truth, axis=1).mean()
            err3 = np.linalg.norm(three - truth, axis=1).mean()
            if err3 <= err2 + 1e-6:
                wins += 1
        assert wins >= int(0.95 * trials)

    def test_unobserved_joint_keeps_refinement_working(self):
        # A NaN 2D joint with confidence 0 in every view carries no weight.
        rng = np.random.default_rng(901)
        truth = person_joints(rng)
        noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
        observations = []
        for _ in range(2):
            obs = observation_of(truth, rng)
            pixels, conf = obs.joints2d.copy(), obs.confidence.copy()
            pixels[5] = np.nan
            conf[5] = 0.0
            observations.append(CameraObservation(obs.intrinsics, obs.extrinsics, pixels, conf))
        problem = RefineProblem(noisy, tuple(observations))
        assert np.isfinite(objective(problem, noisy))
        assert np.all(np.isfinite(objective_gradient(problem, noisy)))
        result = refine(problem)
        assert result.converged
        assert np.all(np.isfinite(result.objective_trace))
        before = np.linalg.norm(noisy - truth, axis=1).mean()
        after = np.linalg.norm(result.refined3d - truth, axis=1).mean()
        assert after < before
        # Only the anchor holds the unobserved joint, so it stays where it was.
        assert np.allclose(result.refined3d[5], noisy[5])


def dense_reference(problem: RefineProblem, max_iterations=REFINE_MAX_ITERATIONS):
    """One problem as a dense 72-dimensional least-squares solve: anchor rows,
    then per camera the confidence-weighted data rows and the regularizer
    rows, each camera row block coupling a joint only to its own coordinates."""

    def system(x):
        anchor = np.sqrt(problem.lambda1)
        rows_j = [anchor * np.eye(3 * JOINTS)]
        rows_r = [anchor * (x - problem.initial3d).reshape(-1)]
        for obs in problem.observations:
            cam = x @ obs.extrinsics.rotation.T + obs.extrinsics.translation
            uv, front = pinhole(obs.intrinsics, cam)
            seen = np.isfinite(obs.joints2d).all(axis=1)
            live = seen & front
            err = np.where(live[:, None], uv - obs.joints2d, 0.0)
            duv = pinhole_jacobian(obs.intrinsics, cam, live) @ obs.extrinsics.rotation
            duv[~live] = 0.0
            for weight in (
                problem.lambda2 * np.where(seen, obs.confidence, 0.0),
                np.where(seen, problem.lambda3, 0.0),
            ):
                scale = np.sqrt(weight)
                jac = np.zeros((JOINTS, 2, JOINTS, 3))
                jac[np.arange(JOINTS), :, np.arange(JOINTS), :] = scale[:, None, None] * duv
                rows_j.append(jac.reshape(2 * JOINTS, 3 * JOINTS))
                rows_r.append((scale[:, None] * err).reshape(-1))
        return np.vstack(rows_j), np.concatenate(rows_r)

    return damped_least_squares(
        problem.initial3d.copy(),
        system,
        lambda x, delta: x + delta.reshape(JOINTS, 3),
        lambda x: objective(problem, x),
        max_iterations=max_iterations,
    )


def mixed_batch():
    """Problems with 0 to 4 cameras, an unobserved (NaN) 2D joint, a joint
    behind a camera, a zero anchor weight and differing weights."""
    rng = np.random.default_rng(11)
    problems = []
    for cameras, weights in zip(
        (0, 1, 2, 3, 4, 2, 4),
        ((1.0, 1.0, 0.01), (1.0, 1.0, 0.01), (2.5, 0.3, 0.0), (0.0, 0.5, 0.2),
         (1.0, 1.0, 0.01), (0.7, 2.0, 0.05), (1.0, 1.0, 0.01)),
    ):
        truth = person_joints(rng)
        noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
        conf = rng.uniform(0.2, 1.0, size=JOINTS)
        observations = [observation_of(truth, rng, noise=2.0, conf=conf) for _ in range(cameras)]
        if len(problems) == 2:  # an unobserved joint: NaN pixels, zero confidence
            obs = observations[0]
            pixels, seen_conf = obs.joints2d.copy(), obs.confidence.copy()
            pixels[7], seen_conf[7] = np.nan, 0.0
            observations[0] = CameraObservation(obs.intrinsics, obs.extrinsics, pixels, seen_conf)
        if len(problems) == 4:  # a joint that starts behind the first camera
            extr = observations[0].extrinsics
            noisy[5] = -extr.rotation.T @ extr.translation - extr.rotation[2] * 3.0
        problems.append(RefineProblem(noisy, tuple(observations), *weights))
    return problems


class TestRefineBatch:
    def test_empty_batch(self):
        assert refine_batch([]) == []

    def test_each_result_is_its_own_and_matches_the_dense_solve(self):
        problems = mixed_batch()
        assert [len(p.observations) for p in problems] == [0, 1, 2, 3, 4, 2, 4]
        behind = problems[4]
        assert objective(behind, behind.initial3d) > behind.observations[0].intrinsics.diagonal**2
        batch = refine_batch(problems)
        assert len(batch) == len(problems)
        moved = 0
        for problem, fit in zip(problems, batch):
            alone = refine_batch([problem])[0]
            assert np.array_equal(fit.refined3d, alone.refined3d)
            assert fit.objective_trace == alone.objective_trace
            assert fit.converged == alone.converged
            assert np.all(np.diff(fit.objective_trace) <= 0.0)
            reference = dense_reference(problem)
            assert fit.converged == reference.converged
            assert np.abs(fit.refined3d - reference.x).max() <= 1e-7
            moved += not np.array_equal(fit.refined3d, problem.initial3d)
        assert np.array_equal(batch[0].refined3d, problems[0].initial3d)
        assert moved == len(problems) - 1

    def test_small_runs_give_the_same_results(self, monkeypatch):
        problems = mixed_batch()
        whole = refine_batch(problems)
        monkeypatch.setattr(refiner, "REFINE_BATCH_VIEWS", 5)  # one problem per run
        for a, b in zip(whole, refine_batch(problems)):
            assert np.array_equal(a.refined3d, b.refined3d)
            assert a.objective_trace == b.objective_trace
