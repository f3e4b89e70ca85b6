"""Degenerate inputs, end to end.

Every case is a LiDAR stream and camera streams on disk, built from a
simulated scene. Each goes through ``match_sequences`` with the gate at delta
0.5 and with it off (delta 0), and through ``crossalign match`` at the same two
deltas and then ``crossalign refine``. Only documented outcomes are asserted:

- fewer LiDAR than camera persons, or the reverse: the pairs are a subset of
  the truth;
- a camera whose confidences are all zero: no person is usable on any frame,
  so every fit is an InsufficientCorrespondences, the keypoint search falls
  back to the pose-only match, and the match is empty;
- LiDAR persons with 5 finite joints: each missing joint costs the image
  diagonal (``matching.reprojection_cost``), so the residual filter rejects
  every pair, while the per-frame fits over all pairs still give extrinsics on
  every frame; ``refine`` needs finite joints and exits 2;
- LiDAR persons whose joints lie on one line: small pose fits fail as
  DegenerateConfiguration and the match is empty;
- single-frame streams, and a camera stream numbered at 20 Hz on the LiDAR's
  10 Hz times: the pairs equal the truth;
- a camera stream at 5 Hz, one record per even LiDAR frame: the pairs equal
  the truth, with a (smoothed) pose on every LiDAR frame;
- cameras standing inside the crowd, with joints behind camera 0 and persons
  straddling its image plane: the pairs equal the truth, with a pose on every
  frame, within 2 degrees and 0.05 m of the true one.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossalign.cli import main
from crossalign.geometry import geodesic_rotation_error
from crossalign.matching import PcmConfig, match_sequences
from crossalign.simulator import SceneConfig, generate
from crossalign.streams import (
    KIND_2D,
    KIND_3D,
    load_match_output,
    parse_stream,
    resample_to_timeline,
    write_stream,
)

DELTAS = (0.5, 0.0)
FOUR_PERSONS = SceneConfig(person_count=4, duration_frames=8, seed=7, pixel_noise_sigma=1.0)
FINITE_JOINTS = 5
# Cameras 8-11 m from the center of a 14 m arena: persons walk behind them.
CROWD = SceneConfig(person_count=6, duration_frames=16, camera_count=2, arena_radius=14.0,
                    pixel_noise_sigma=1.0, seed=301)


def write_scene(out, config, edit=lambda tracks3d, tracks2d: (tracks3d, tracks2d),
                camera_rate_factor=1):
    """Write ``config``'s scene under ``out``, with ``edit`` applied to each
    camera's (LiDAR tracks, camera tracks), as ``lidar.jsonl`` and
    ``camera_NN.jsonl``. A camera stream's frames are numbered and timed at
    ``camera_rate_factor`` times the LiDAR rate, on the same times. Returns
    each camera's true pairs."""
    scene = generate(config)
    frames = range(config.duration_frames)
    truths = []
    for c, camera_tracks in enumerate(scene.tracks2d):
        tracks3d, tracks2d = edit(list(scene.tracks3d), list(camera_tracks))
        write_stream(out / f"camera_{c:02d}.jsonl", KIND_2D, tracks2d, scene.skeleton.content_hash,
                     frame_rate=config.frame_rate * camera_rate_factor,
                     intrinsics=scene.intrinsics,
                     frame_indices=[t * camera_rate_factor for t in frames])
        truths.append({(i, j) for i, j in scene.truth.correspondence[c].items()
                       if i < len(tracks3d) and j < len(tracks2d)})
    write_stream(out / "lidar.jsonl", KIND_3D, tracks3d, scene.skeleton.content_hash,
                 frame_rate=config.frame_rate)
    return truths


def blind(tracks3d, tracks2d):
    return tracks3d, [replace(t, confidence=np.zeros_like(t.confidence)) for t in tracks2d]


def collinear(tracks3d, tracks2d):
    """Each LiDAR person's joints on one line through its root, on every frame."""
    direction = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    along = np.linspace(-0.9, 0.9, tracks3d[0].joints.shape[1])[:, None] * direction
    return [replace(t, joints=t.joints[:, :1] + along) for t in tracks3d], tracks2d


def cut_lidar_joints(out):
    """Leave each LiDAR person ``FINITE_JOINTS`` finite joints: the rest are
    JSON nulls, which the stream reads as not finite."""
    lidar = out / "lidar.jsonl"
    lines = lidar.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        for person in record["persons"]:
            for joint in person["joints"][FINITE_JOINTS:]:
                joint[:] = [None] * 3
    lidar.write_text("\n".join(lines[:1] + [json.dumps(r) for r in records]) + "\n")


def build_five_joints(out):
    truths = write_scene(out, FOUR_PERSONS)
    cut_lidar_joints(out)
    return truths


def build_camera_at_5_hz(out):
    """``FOUR_PERSONS`` with its camera stream at 5 Hz: the record of each even
    LiDAR frame t, numbered t / 2, so it keeps its time on the 10 Hz timeline."""
    truths = write_scene(out, FOUR_PERSONS)
    camera = out / "camera_00.jsonl"
    header, *records = map(json.loads, camera.read_text().splitlines())
    header["frame_rate"] = FOUR_PERSONS.frame_rate / 2
    kept = [dict(record, frame=record["frame"] // 2) for record in records
            if record["frame"] % 2 == 0]
    camera.write_text("\n".join(json.dumps(line) for line in [header] + kept) + "\n")
    return truths


def is_subset(r):
    assert r.pairs <= r.truth


def equals_truth(r):
    assert r.pairs == r.truth


def blind_outcome(r):
    assert r.pairs == set()
    assert r.stats["pnp_failed"]["InsufficientCorrespondences"] == r.frames
    assert r.stats["frames_skipped"]["no_usable_person"] == r.frames
    assert r.stats["fallback_to_pose"]


def five_joints_outcome(r):
    assert r.extrinsic_frames == list(range(r.frames))
    assert r.stats["pairs_rejected"] == 4


def collinear_outcome(r):
    assert r.stats["pnp_failed"]["DegenerateConfiguration"] > 0
    assert r.pairs == set()


def posed_truth(r):
    assert r.pairs == r.truth
    assert r.extrinsic_frames == list(range(r.frames))


# name -> (stream builder, outcome check, refine's exit code)
CASES = {
    "2 lidar against 4 camera persons": (
        lambda out: write_scene(out, FOUR_PERSONS, lambda t3, t2: (t3[:2], t2)), is_subset, 0),
    "4 lidar against 2 camera persons": (
        lambda out: write_scene(out, FOUR_PERSONS, lambda t3, t2: (t3, t2[:2])), is_subset, 0),
    "camera with zero confidences": (
        lambda out: write_scene(out, FOUR_PERSONS, blind), blind_outcome, 0),
    "lidar with 5 finite joints": (build_five_joints, five_joints_outcome, 2),
    "collinear lidar joints": (
        lambda out: write_scene(out, FOUR_PERSONS, collinear), collinear_outcome, 0),
    "single frame": (
        lambda out: write_scene(out, SceneConfig(person_count=3, duration_frames=1,
                                                 camera_count=2, seed=5)),
        equals_truth, 0),
    "camera at 20 Hz": (
        lambda out: write_scene(out, FOUR_PERSONS, camera_rate_factor=2), equals_truth, 0),
    "camera at 5 Hz": (build_camera_at_5_hz, posed_truth, 0),
    "cameras inside the crowd": (lambda out: write_scene(out, CROWD), posed_truth, 0),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("streams")
    build, check, refine_exit = CASES[request.param]
    truths = build(out)
    return SimpleNamespace(out=out, truths=truths, check=check, refine_exit=refine_exit)


def outcome(truth, frames, pairs, extrinsic_frames, stats):
    return SimpleNamespace(truth=truth, frames=frames, pairs=set(map(tuple, pairs)),
                           extrinsic_frames=extrinsic_frames, stats=stats)


@pytest.mark.parametrize("delta", DELTAS)
def test_match_sequences(case, delta):
    lidar = parse_stream(case.out / "lidar.jsonl")
    frames = len(lidar.frame_indices)
    for c, truth in enumerate(case.truths):
        camera = parse_stream(case.out / f"camera_{c:02d}.jsonl")
        tracks2d = resample_to_timeline(camera, lidar.frame_indices, lidar.frame_rate)
        result = match_sequences(lidar.tracks, tracks2d, camera.intrinsics, PcmConfig(delta=delta))
        extrinsic_frames = [t for t, e in enumerate(result.extrinsics) if e is not None]
        stats = vars(result.stats)
        case.check(outcome(truth, frames, result.match.pairs, extrinsic_frames, stats))


def test_cli_match_and_refine(case, tmp_path):
    lidar = case.out / "lidar.jsonl"
    frames = len(parse_stream(lidar).frame_indices)
    cameras = [case.out / f"camera_{c:02d}.jsonl" for c in range(len(case.truths))]
    for delta in DELTAS:
        config, out = tmp_path / f"delta_{delta}.json", tmp_path / f"match_{delta}"
        config.write_text(json.dumps({"delta": delta}))
        args = ["match", "--lidar", str(lidar), "--config", str(config), "--out", str(out)]
        assert main(args + [a for cam in cameras for a in ("--camera", str(cam))]) == 0
        documents = sorted(out.iterdir())
        assert len(documents) == len(cameras)
        for path, truth in zip(documents, case.truths):
            doc = load_match_output(path)
            case.check(outcome(truth, frames, doc.pairs, sorted(doc.extrinsics),
                               doc.payload["stats"]))
    refined = tmp_path / "refined.jsonl"
    args = ["refine", "--lidar", str(lidar), "--out", str(refined)]
    assert main(args + [a for doc in documents for a in ("--match", str(doc))]) == case.refine_exit
    assert refined.exists() == (case.refine_exit == 0)


def test_crowd_puts_joints_behind_the_camera_and_its_poses_stay_close():
    scene = generate(CROWD)
    truth = scene.truth.extrinsics
    depth = np.stack([  # (frame, person, joint): camera 0's depth of each true joint
        truth[0][t].transform(scene.truth.joints[:, t])[..., 2] for t in range(CROWD.duration_frames)
    ])
    behind = depth <= 0
    assert behind.mean() >= 0.10
    assert (behind.any(axis=-1) & ~behind.all(axis=-1)).sum() >= 1  # straddling the image plane
    for delta in DELTAS:
        for c, tracks2d in enumerate(scene.tracks2d):
            result = match_sequences(scene.tracks3d, tracks2d, scene.intrinsics,
                                     PcmConfig(delta=delta))
            for extr, true in zip(result.extrinsics, truth[c], strict=True):
                assert np.degrees(geodesic_rotation_error(extr.rotation, true.rotation)) < 2.0
                assert np.linalg.norm(extr.translation - true.translation) < 0.05
