"""The benchmark's three workloads: inputs from a seed, one timed unit, output checks.

Every workload runs a fixed pool of simulator scenes (its seed set). The run
seed relabels each scene: it draws a fresh order for the 3D tracks and for
every camera's 2D tracks, so the matcher sees different inputs on every seed
while the work stays the same. New scenes come from the held-out seed set.
Outputs are mapped back through the relabelling and checked against the
simulator's ground truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.spatial.transform import Rotation

import crossalign
from crossalign import cli, matching, simulator, streams
from crossalign.geometry import geodesic_rotation_error

# Scene seeds of the held-out set are those of the default set plus this offset.
HELDOUT_OFFSET = 500_000

MATCH_CONFIG = {"delta": 0.5}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    base_seed: int  # first scene seed of the default set
    pool_size: int
    scene: dict  # SceneConfig fields shared by every scene of the pool
    refine: bool  # file-based match + refine through the CLI
    # Output checks: each must hold on every run.
    min_accuracy: float
    max_rot_err_deg: float
    max_trans_err_m: float
    max_refine_err_ratio: float | None = None


SPECS = {
    # Criterion-04 distribution: the gate stays closed, time goes to one
    # large-n solve_pnp per frame.
    "pose10": WorkloadSpec(
        "pose10", 10_000, 24,
        dict(person_count=10, duration_frames=32, pixel_noise_sigma=2.0, dropout_rate=0.2),
        refine=False, min_accuracy=0.95, max_rot_err_deg=0.5, max_trans_err_m=0.05,
    ),
    # Criterion-05 distribution: persons 0 and 1 share body poses, so the gate
    # fires on most scenes and the per-frame keypoint search runs.
    "twins4": WorkloadSpec(
        "twins4", 20_000, 8,
        dict(person_count=4, duration_frames=32, pixel_noise_sigma=2.0,
             synchronized_pose_groups=((0, 1),), pose_noise_degrees=8.0),
        refine=False, min_accuracy=0.95, max_rot_err_deg=1.0, max_trans_err_m=0.1,
    ),
    # One four-camera scene through the file-based CLI: match, then refine.
    "fuse4": WorkloadSpec(
        "fuse4", 50_000, 1,
        dict(person_count=10, duration_frames=32, camera_count=4, pixel_noise_sigma=2.0,
             dropout_rate=0.2, joint3d_noise_sigma=0.03),
        refine=True, min_accuracy=0.95, max_rot_err_deg=0.5, max_trans_err_m=0.05,
        max_refine_err_ratio=0.8,
    ),
}


@dataclass
class Item:
    """One relabelled scene and, for the CLI workload, the files it was written to."""

    scene_seed: int
    scene: simulator.Scene
    perm3: np.ndarray  # relabelled 3D index -> simulator person
    perm2: list  # [camera] relabelled 2D index -> simulator 2D track index
    tracks3d: list
    tracks2d: list  # [camera] -> relabelled tracks
    files: dict = field(default_factory=dict)


@dataclass
class Unit:
    """Timings and checked outputs of one unit of work."""

    name: str
    match_s: float = 0.0
    refine_s: float = 0.0
    camera_frames: int = 0
    person_frames: int = 0  # refined person-frames
    error: str | None = None
    digest: str = ""
    accuracy: list = field(default_factory=list)  # per camera
    rot_err_deg: list = field(default_factory=list)  # per camera-frame
    trans_err_m: list = field(default_factory=list)
    joint_err_in: float = 0.0  # summed input-joint error against truth, m
    joint_err_out: float = 0.0  # summed refined-joint error against truth, m


def scene_seeds(spec: WorkloadSpec, seed_set: str) -> list[int]:
    base = spec.base_seed + (HELDOUT_OFFSET if seed_set == "heldout" else 0)
    return [base + k for k in range(spec.pool_size)]


def build(spec: WorkloadSpec, seed: int, seed_set: str, workdir: Path) -> list[Item]:
    """Generate the pool's scenes and relabel them from ``seed``."""
    items = []
    for scene_seed in scene_seeds(spec, seed_set):
        scene = simulator.generate(crossalign.SceneConfig(seed=scene_seed, **spec.scene))
        rng = np.random.default_rng([seed, scene_seed])
        perm3 = rng.permutation(len(scene.tracks3d))
        perm2 = [rng.permutation(len(tracks)) for tracks in scene.tracks2d]
        items.append(Item(
            scene_seed, scene, perm3, perm2,
            [scene.tracks3d[k] for k in perm3],
            [[tracks[k] for k in p] for tracks, p in zip(scene.tracks2d, perm2)],
        ))
    if spec.refine:
        for item in items:
            item.files = _write_inputs(item, workdir / f"scene{item.scene_seed}")
    return items


def _write_inputs(item: Item, directory: Path) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    scene = item.scene
    rate = scene.config.frame_rate
    files = {
        "lidar": directory / "lidar.jsonl",
        "cameras": [directory / f"camera_{c:02d}.jsonl" for c in range(len(item.tracks2d))],
        "config": directory / "run.json",
        "matches": directory / "matches",
        "refined": directory / "refined.jsonl",
    }
    streams.write_stream(files["lidar"], streams.KIND_3D, item.tracks3d,
                         scene.skeleton.content_hash, frame_rate=rate)
    for path, tracks in zip(files["cameras"], item.tracks2d):
        streams.write_stream(path, streams.KIND_2D, tracks, scene.skeleton.content_hash,
                             frame_rate=rate, intrinsics=scene.intrinsics)
    files["config"].write_text(json.dumps(MATCH_CONFIG), encoding="utf-8")
    return files


def run_unit(spec: WorkloadSpec, item: Item, refine: bool = True, clock=perf_counter) -> Unit:
    """Run one unit (one scene match, or one CLI match + refine pass), timed
    by ``clock``, then check its outputs outside the timed region."""
    if spec.refine:
        return _cli_pass(item, refine, clock)
    unit = Unit(f"scene {item.scene_seed}")
    config = crossalign.PcmConfig(**MATCH_CONFIG)
    start = clock()
    try:
        result = matching.match_sequences(
            item.tracks3d, item.tracks2d[0], item.scene.intrinsics, config
        )
    except crossalign.CrossAlignError as exc:
        unit.match_s = clock() - start
        unit.error = f"{type(exc).__name__}: {exc}"
        return unit
    unit.match_s = clock() - start
    unit.camera_frames = item.scene.config.duration_frames
    extrinsics = [
        None if e is None else (e.rotation, e.translation) for e in result.extrinsics
    ]
    pairs = [(int(item.perm3[i]), int(item.perm2[0][j])) for i, j in result.match.pairs]
    _check_camera(unit, item, 0, pairs, extrinsics)
    unit.digest = _digest([(pairs, extrinsics)])
    return unit


def _cli_pass(item: Item, refine: bool, clock) -> Unit:
    files = item.files
    unit = Unit(f"scene {item.scene_seed}")
    match_argv = ["match", "--lidar", str(files["lidar"])]
    for path in files["cameras"]:
        match_argv += ["--camera", str(path)]
    match_argv += ["--config", str(files["config"]), "--out", str(files["matches"])]
    # A document left by an earlier pass must not stand in for a missing one.
    for stale in files["matches"].glob("match_*.json"):
        stale.unlink()
    files["refined"].unlink(missing_ok=True)
    start = clock()
    code = cli.main(match_argv)
    unit.match_s = clock() - start
    if code != 0:
        unit.error = f"match exited {code}"
        return unit
    unit.camera_frames = item.scene.config.duration_frames * len(files["cameras"])

    documents = sorted(files["matches"].glob("match_*.json"))
    if len(documents) != len(files["cameras"]):
        unit.error = f"{len(documents)} match documents for {len(files['cameras'])} cameras"
        return unit
    person_of = {t.person_id: p for p, t in enumerate(item.scene.tracks3d)}
    refined = None
    if refine:
        refine_argv = ["refine", "--lidar", str(files["lidar"])]
        for path in documents:
            refine_argv += ["--match", str(path)]
        refine_argv += ["--config", str(files["config"]), "--out", str(files["refined"])]
        start = clock()
        code = cli.main(refine_argv)
        unit.refine_s = clock() - start
        if code != 0:
            unit.error = f"refine exited {code}"
            return unit
        refined = _read_refined(files["refined"], item, person_of)

    frames = item.scene.config.duration_frames
    outputs = []
    for camera, path in enumerate(documents):
        doc = json.loads(path.read_text(encoding="utf-8"))
        # Stream indices follow first appearance in the file, so map by id.
        track_of = {t.person_id: k for k, t in enumerate(item.scene.tracks2d[camera])}
        pairs = [(person_of[p["id3d"]], track_of[p["id2d"]]) for p in doc["pairs"]]
        written = [None] * frames  # the serialized numbers, for the digest
        extrinsics = [None] * frames
        for entry in doc["extrinsics"]:
            quat = np.asarray(entry["quat_wxyz"], dtype=float)
            translation = np.asarray(entry["translation_m"], dtype=float)
            written[entry["frame"]] = (quat, translation)
            w, x, y, z = quat
            extrinsics[entry["frame"]] = (Rotation.from_quat([x, y, z, w]).as_matrix(), translation)
        _check_camera(unit, item, camera, pairs, extrinsics)
        outputs.append((pairs, written))
    if refined is not None:
        initial = np.stack([t.joints for t in item.scene.tracks3d])  # (P, T, 24, 3)
        truth = item.scene.truth.joints
        unit.person_frames = int(np.any(refined != initial, axis=(2, 3)).sum())
        unit.joint_err_in = float(np.linalg.norm(initial - truth, axis=-1).sum())
        unit.joint_err_out = float(np.linalg.norm(refined - truth, axis=-1).sum())
    unit.digest = _digest(outputs, refined)
    return unit


def _read_refined(path: Path, item: Item, person_of: dict) -> np.ndarray:
    """Refined joints (P, T, 24, 3) in simulator person order."""
    scene = item.scene
    frames = scene.config.duration_frames
    joints = np.full((len(scene.tracks3d), frames, 24, 3), np.nan)
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        record = json.loads(line)
        for person in record["persons"]:
            joints[person_of[person["id"]], record["frame"]] = person["joints"]
    return joints


def _check_camera(unit: Unit, item: Item, camera: int, pairs, extrinsics) -> None:
    """Accuracy and extrinsic errors of one camera's output against the truth.

    ``pairs`` are (simulator person, simulator 2D track) indices.
    """
    truth = item.scene.truth
    n3, n2 = len(item.tracks3d), len(item.tracks2d[camera])
    found = matching.build_match_set(pairs, [0.0] * len(pairs), n3, n2)
    unit.accuracy.append(simulator.accuracy(found, truth, camera))
    for t, extr in enumerate(extrinsics):
        if extr is None:
            continue
        rotation, translation = extr
        true = truth.extrinsics[camera][t]
        unit.rot_err_deg.append(float(np.degrees(geodesic_rotation_error(rotation, true.rotation))))
        unit.trans_err_m.append(float(np.linalg.norm(translation - true.translation)))


def _digest(outputs, refined=None) -> str:
    """Bit-exact digest of each camera's pairs (simulator indices) and
    extrinsics, and of the refined joints."""
    h = hashlib.sha256()
    for pairs, extrinsics in outputs:
        h.update(np.asarray(sorted(pairs), dtype=np.int64).tobytes())
        for extr in extrinsics:
            if extr is None:
                h.update(b"-")
            else:
                h.update(np.asarray(extr[0], dtype=float).tobytes())
                h.update(np.asarray(extr[1], dtype=float).tobytes())
    if refined is not None:
        h.update(refined.tobytes())
    return h.hexdigest()
