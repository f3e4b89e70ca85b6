"""Acceptance suite: each test is one release criterion at its stated
tolerance and prints one pass/fail line (run with ``pytest -v -s`` to see the
lines for passing criteria as well).

Accuracy-oriented criteria run the matcher at the benchmark operating point
delta=0.5: the variance gate's published value (100) is unit-ambiguous, and
0.5 sits two orders of magnitude above measured correct-match variances and
two below wrong-match ones for the simulator's geometry.
"""

import math
import time

import numpy as np
import pytest

from crossalign.geometry import geodesic_rotation_error, project, solve_pnp
from crossalign.matching import (
    JOINTS,
    CostMatrix,
    PcmConfig,
    frame_slice,
    hungarian,
    match_sequences,
    match_with_strategy,
    optimize_frame_match,
    pose_similarity_matrix,
)
from crossalign.refiner import CameraObservation, RefineProblem, objective, objective_gradient, refine
from crossalign.simulator import SceneConfig, accuracy, generate

from helpers import make_intrinsics, random_camera
from test_matching import brute_force_total, frame_brute_force

BENCH_CONFIG = PcmConfig(delta=0.5)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_assignment_optimality():
    """hungarian equals brute force on 500 random matrices, exact totals."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(500):
        small = int(rng.integers(1, 7))
        large = int(rng.integers(small, 8))
        n, m = (small, large) if rng.uniform() < 0.5 else (large, small)
        values = rng.normal(0.0, 10.0, size=(n, m))
        result = hungarian(CostMatrix(values))
        total = 0.0
        for i, j in result.pairs:  # pairs sorted by row: same accumulation order
            total += values[i, j]
        oracle = brute_force_total(values)
        assert total == oracle, f"{total} != {oracle} on shape {(n, m)}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(1, ok, f"500/500 exact totals in {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_02_pnp_inverse_property():
    """solve_pnp inverts noiseless projections within 1e-4 rad / 1e-4 m."""
    rng = np.random.default_rng(2025)
    k = make_intrinsics()
    start = time.perf_counter()
    worst_r = worst_t = 0.0
    for _ in range(200):
        extr = random_camera(rng, distance=rng.uniform(6.0, 14.0))
        points = rng.uniform(-2.0, 2.0, size=(24, 3))
        observed = project(k, extr, points)
        result = solve_pnp(points, observed, k)
        worst_r = max(worst_r, geodesic_rotation_error(result.extrinsics.rotation, extr.rotation))
        worst_t = max(worst_t, float(np.linalg.norm(result.extrinsics.translation - extr.translation)))
    elapsed = time.perf_counter() - start
    ok = worst_r < 1e-4 and worst_t < 1e-4 and elapsed < 30.0
    report(2, ok, f"200 poses, worst {worst_r:.2e} rad / {worst_t:.2e} m in {elapsed:.1f}s (< 30s)")
    assert worst_r < 1e-4
    assert worst_t < 1e-4
    assert elapsed < 30.0


def test_criterion_03_frame_search_matches_exhaustive():
    """Per-frame proposal search equals exhaustive minimum-cost pairing on
    100 noiseless 3-person scenes."""
    agreements = 0
    scenes_used = 0
    seed = 0
    while scenes_used < 100:
        seed += 1
        scene = generate(SceneConfig(person_count=3, duration_frames=4, seed=7000 + seed))
        if len(scene.tracks2d[0]) < 3:
            continue  # someone never entered the frustum; need the full cast
        frame = 2
        if not all(t.valid[frame] for t in scene.tracks2d[0]):
            continue
        fd = frame_slice(scene.tracks3d, scene.tracks2d[0], frame)
        result = optimize_frame_match(fd, scene.intrinsics, BENCH_CONFIG)
        oracle_pairs, _ = frame_brute_force(fd, scene.intrinsics, BENCH_CONFIG, scene.skeleton)
        scenes_used += 1
        if set(result.match.pairs) == set(oracle_pairs):
            agreements += 1
    ok = agreements == 100
    report(3, ok, f"{agreements}/100 scenes agree with the exhaustive search")
    assert agreements == 100


def test_criterion_04_sequence_match_accuracy():
    """>= 95% of visible ground-truth pairs recovered on 200 noisy scenes."""
    start = time.perf_counter()
    scores = []
    for seed in range(200):
        scene = generate(
            SceneConfig(
                person_count=10,
                duration_frames=32,
                seed=10_000 + seed,
                pixel_noise_sigma=2.0,
                dropout_rate=0.2,
            )
        )
        result = match_sequences(scene.tracks3d, scene.tracks2d[0], scene.intrinsics, BENCH_CONFIG)
        scores.append(accuracy(result.match, scene.truth, 0))
    elapsed = time.perf_counter() - start
    mean = float(np.mean(scores))
    ok = mean >= 0.95 and elapsed < 300.0
    report(4, ok, f"mean accuracy {mean:.4f} over 200 scenes in {elapsed:.0f}s (< 300s)")
    assert mean >= 0.95
    assert elapsed < 300.0


def test_criterion_05_strategy_ordering_on_synchronized_scenes():
    """Strategy ordering on shared-pose scenes: full >= sequence-pose >=
    single-frame-pose, with at least a 5-point gap between the extremes."""
    acc = {"Pose": [], "P&T": [], "P&T&K": []}
    for seed in range(50):
        scene = generate(
            SceneConfig(
                person_count=4,
                duration_frames=32,
                seed=20_000 + seed,
                pixel_noise_sigma=2.0,
                synchronized_pose_groups=((0, 1),),
                pose_noise_degrees=8.0,
            )
        )
        for mode in acc:
            match = match_with_strategy(
                mode, scene.tracks3d, scene.tracks2d[0], scene.intrinsics, BENCH_CONFIG
            )
            acc[mode].append(accuracy(match, scene.truth, 0))
    means = {mode: float(np.mean(v)) for mode, v in acc.items()}
    ok = (
        means["P&T&K"] >= means["P&T"] >= means["Pose"]
        and means["P&T&K"] - means["Pose"] >= 0.05
    )
    report(
        5,
        ok,
        f"mean accuracy full={means['P&T&K']:.3f} >= seq-pose={means['P&T']:.3f}"
        f" >= frame-pose={means['Pose']:.3f}, gap {means['P&T&K'] - means['Pose']:.3f}",
    )
    assert means["P&T&K"] >= means["P&T"] >= means["Pose"]
    assert means["P&T&K"] - means["Pose"] >= 0.05


def test_criterion_06_variance_gate_boundary():
    """delta=inf reproduces the pose-only match bit-exactly; delta=0 always
    runs the keypoint path (checked through the instrumentation counters)."""
    exact = True
    for seed in range(5):
        scene = generate(
            SceneConfig(person_count=4, duration_frames=12, seed=30_000 + seed, pixel_noise_sigma=1.0)
        )
        tracks3d, tracks2d, k = scene.tracks3d, scene.tracks2d[0], scene.intrinsics
        inf_result = match_sequences(tracks3d, tracks2d, k, PcmConfig(delta=math.inf))
        pose_init = hungarian(CostMatrix(pose_similarity_matrix(tracks3d, tracks2d), maximize=True))
        exact &= not inf_result.stats.keypoint_path
        exact &= inf_result.match.pairs == pose_init.pairs

        zero_result = match_sequences(tracks3d, tracks2d, k, PcmConfig(delta=0.0, n_iter=1))
        exact &= zero_result.stats.keypoint_path
        exact &= zero_result.stats.frames_accumulated + zero_result.stats.frames_failed == 12
    report(6, exact, "delta=inf == pose-only pairs; delta=0 always takes the keypoint path")
    assert exact


def test_criterion_07_refiner_gradient_check():
    """Analytic gradient vs central differences (h=1e-6): rel err < 1e-4 on
    50 random problems."""
    rng = np.random.default_rng(2026)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        center = np.array([0.0, 0.0, 1.0])
        truth = center + rng.normal(0.0, 0.4, size=(JOINTS, 3))
        observations = []
        for _ in range(int(rng.integers(1, 4))):
            k = make_intrinsics()
            extr = random_camera(rng, target=center, distance=rng.uniform(7.0, 12.0))
            pixels = project(k, extr, truth) + rng.normal(0, 4.0, (JOINTS, 2))
            observations.append(
                CameraObservation(k, extr, pixels, rng.uniform(0.1, 1.0, JOINTS))
            )
        problem = RefineProblem(truth, tuple(observations))
        candidate = truth + rng.normal(0.0, 0.08, size=truth.shape)
        grad = objective_gradient(problem, candidate).reshape(-1)
        flat = candidate.reshape(-1)
        for i in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[i] += h
            minus[i] -= h
            numeric = (objective(problem, plus) - objective(problem, minus)) / (2 * h)
            rel = abs(grad[i] - numeric) / max(abs(numeric), 1.0)
            worst = max(worst, rel)
    ok = worst < 1e-4
    report(7, ok, f"worst relative gradient error {worst:.2e} over 50 problems")
    assert worst < 1e-4


def test_criterion_08_sensor_expandability():
    """2 clean cameras cut the error below 0.7x input on average; an exact
    third camera does not increase error in >= 95 of 100 trials."""
    rng = np.random.default_rng(2027)
    ratios = []
    no_harm = 0
    trials = 100
    for trial in range(trials):
        scene = generate(SceneConfig(person_count=1, duration_frames=1, camera_count=3, seed=40_000 + trial))
        truth = scene.truth.joints[0, 0]
        noisy = truth + rng.normal(0.0, 0.05, size=truth.shape)
        observations = []
        for cam in range(3):
            k = scene.intrinsics
            extr = scene.truth.extrinsics[cam][0]
            observations.append(
                CameraObservation(k, extr, project(k, extr, truth), np.ones(JOINTS))
            )
        two = refine(RefineProblem(noisy, tuple(observations[:2]))).refined3d
        three = refine(RefineProblem(noisy, tuple(observations))).refined3d
        err_in = float(np.linalg.norm(noisy - truth, axis=1).mean())
        err2 = float(np.linalg.norm(two - truth, axis=1).mean())
        err3 = float(np.linalg.norm(three - truth, axis=1).mean())
        ratios.append(err2 / err_in)
        # Both errors sit at the numerical floor; a micrometer of slack keeps
        # the comparison meaningful at the 50 mm noise scale.
        if err3 <= err2 + 1e-6:
            no_harm += 1
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio < 0.7 and no_harm >= 95
    report(
        8,
        ok,
        f"2-camera error ratio {mean_ratio:.4f} (< 0.7); third camera harmless in {no_harm}/100",
    )
    assert mean_ratio < 0.7
    assert no_harm >= 95


def test_criterion_09_cli_determinism(tmp_path):
    """simulate and match produce byte-identical outputs across runs."""
    import json

    from crossalign.cli import main

    config = tmp_path / "scene.json"
    config.write_text(
        json.dumps(
            {
                "person_count": 5,
                "duration_frames": 10,
                "camera_count": 3,
                "pixel_noise_sigma": 1.5,
                "dropout_rate": 0.1,
                "seed": 77,
            }
        )
    )
    identical = True
    # Two simulate runs must agree byte for byte.
    scene_a, scene_b = tmp_path / "scene_a", tmp_path / "scene_b"
    assert main(["simulate", "--config", str(config), "--out", str(scene_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(scene_b)]) == 0
    for name in sorted(p.name for p in scene_a.iterdir()):
        identical &= (scene_a / name).read_bytes() == (scene_b / name).read_bytes()

    # Three match runs over the same inputs.
    match_dirs = []
    for run in ("r1", "r2", "r3"):
        match_out = tmp_path / f"match_{run}"
        args = ["match", "--lidar", str(scene_a / "lidar.jsonl"), "--out", str(match_out)]
        for cam in sorted(scene_a.glob("camera_*.jsonl")):
            args += ["--camera", str(cam)]
        assert main(args) == 0
        match_dirs.append(match_out)
    names = sorted(p.name for p in match_dirs[0].iterdir())
    for other in match_dirs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            identical &= (match_dirs[0] / name).read_bytes() == (other / name).read_bytes()
    report(9, identical, "simulate x2 + match x3 byte-identical across runs")
    assert identical


def test_criterion_10_throughput_sanity():
    """Full matcher sustains >= 30 fps on a 10-person scene; throughput
    ordering frame-pose > full > exhaustive-at-3 holds."""
    scene10 = generate(
        SceneConfig(person_count=10, duration_frames=32, seed=50_000, pixel_noise_sigma=2.0)
    )
    scene3 = generate(
        SceneConfig(person_count=3, duration_frames=32, seed=50_001, pixel_noise_sigma=2.0)
    )

    def fps(mode, scene):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            match_with_strategy(mode, scene.tracks3d, scene.tracks2d[0], scene.intrinsics, BENCH_CONFIG)
            times.append(time.perf_counter() - start)
        return scene.config.duration_frames / float(np.median(times))

    fps_full = fps("P&T&K", scene10)
    fps_pose = fps("Pose", scene10)
    fps_kps = fps("KPs", scene3)
    ok = fps_full >= 30.0 and fps_pose > fps_full > fps_kps
    report(
        10,
        ok,
        f"fps: frame-pose {fps_pose:.0f} > full {fps_full:.0f} > exhaustive@3 {fps_kps:.0f};"
        f" full >= 30",
    )
    assert fps_full >= 30.0
    assert fps_pose > fps_full > fps_kps
