"""Synthetic multi-person scenes with moving cameras and known ground truth.

Persons follow smooth random trajectories in an arena around the origin while
their body poses evolve by a small-angle random walk; cameras circle the arena
looking inward. 2D tracks are projections of the true joints with Gaussian
pixel noise, per-joint dropout, and frustum culling, and each camera's person
order is shuffled so identity matching is non-trivial. 3D tracks are the true
joints with Gaussian noise. Everything is driven by per-entity counter-based
substreams of the scene seed, so generation is bit-reproducible and could be
parallelized per entity without changing the output.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial.transform import Rotation

from .errors import InvalidConfig
from .geometry import Extrinsics, Intrinsics, camera_points, pinhole
from .matching import JOINTS, MatchSet, PersonTrack2D, PersonTrack3D
from .skeleton import CanonicalSkeleton, default_skeleton, fk_points

# Pelvis height of the canonical skeleton when standing on the ground plane.
ROOT_HEIGHT = 0.98

MIN_VISIBLE_JOINTS = 6

PERSON_MAX_SPEED = 3.0  # m/s
POSE_STEP_DEGREES = 3.0  # per-joint random-walk step per frame
POSE_LIMIT_DEGREES = 120.0  # per-axis clamp around the rest pose
YAW_STEP_DEGREES = 6.0

# Substream tags (folded into the per-entity seed derivation).
_TRAJECTORY, _POSE, _CAMERA, _NOISE3D, _POSENOISE3D = 1, 2, 3, 4, 5
_PIXELNOISE, _DROPOUT, _CONFIDENCE, _PERMUTATION, _POSENOISE2D = 6, 7, 8, 9, 10


@dataclass(frozen=True)
class SceneConfig:
    person_count: int
    duration_frames: int
    camera_count: int = 1
    pixel_noise_sigma: float = 0.0
    joint3d_noise_sigma: float = 0.0
    dropout_rate: float = 0.0
    fov_degrees: float = 70.0
    synchronized_pose_groups: tuple[tuple[int, ...], ...] | None = ()
    seed: int = 0
    pose_noise_degrees: float = 0.0
    frame_rate: float = 10.0
    image_width: int = 1920
    image_height: int = 1080
    arena_radius: float = 6.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "synchronized_pose_groups",
            tuple(tuple(int(i) for i in g) for g in (self.synchronized_pose_groups or ())),
        )
        if self.person_count < 1:
            raise InvalidConfig("person_count must be >= 1")
        if self.duration_frames < 1:
            raise InvalidConfig("duration_frames must be >= 1")
        if self.camera_count < 1:
            raise InvalidConfig("camera_count must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig("dropout_rate must lie in [0, 1)")
        for name in ("pixel_noise_sigma", "joint3d_noise_sigma", "pose_noise_degrees"):
            if not getattr(self, name) >= 0:
                raise InvalidConfig(f"{name} must be >= 0")
        if not 10.0 <= self.fov_degrees <= 170.0:
            raise InvalidConfig("fov_degrees must lie in [10, 170]")
        if not self.frame_rate > 0:
            raise InvalidConfig("frame_rate must be positive")
        if not all(2 <= s <= sys.float_info.max for s in (self.image_width, self.image_height)):
            raise InvalidConfig("image width and height must be at least 2 and fit in a float")
        if self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")
        if not self.arena_radius > 0:
            raise InvalidConfig("arena_radius must be positive")
        seen: set[int] = set()
        for group in self.synchronized_pose_groups:
            if len(group) < 2:
                raise InvalidConfig("synchronized groups need at least 2 members")
            for idx in group:
                if not 0 <= idx < self.person_count:
                    raise InvalidConfig(f"synchronized index {idx} out of range")
                if idx in seen:
                    raise InvalidConfig(f"person {idx} appears in two synchronized groups")
                seen.add(idx)

    def intrinsics(self) -> Intrinsics:
        fx = (self.image_width / 2.0) / math.tan(math.radians(self.fov_degrees) / 2.0)
        return Intrinsics(
            fx=fx,
            fy=fx,
            cx=self.image_width / 2.0,
            cy=self.image_height / 2.0,
            width=self.image_width,
            height=self.image_height,
        )


@dataclass
class SceneTruth:
    """Ground truth the simulator guarantees about its own outputs."""

    joints: np.ndarray  # (P, T, 24, 3) true world joints
    body_pose: np.ndarray  # (P, T, 24, 3, 3) true poses
    extrinsics: list  # [camera][frame] -> Extrinsics
    visible: np.ndarray  # (C, P, T) bool, frustum visibility
    correspondence: list  # [camera] -> dict {person index -> 2D track index}
    frame_correspondence: list  # [camera][frame] -> tuple of (person, 2D index)

    def sequence_pairs(self, camera: int) -> set[tuple[int, int]]:
        return set(self.correspondence[camera].items())


@dataclass
class Scene:
    config: SceneConfig
    intrinsics: Intrinsics
    truth: SceneTruth
    tracks3d: list  # [PersonTrack3D]
    tracks2d: list  # [camera] -> [PersonTrack2D]
    skeleton: CanonicalSkeleton = field(default_factory=default_skeleton)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *key])))


def _smooth_track(rng, frames, frame_rate, radius) -> np.ndarray:
    """Smooth planar trajectory through random waypoints, speed-capped."""
    if frames < 8:
        point = rng.uniform(-radius, radius, size=2)
        return np.tile(point, (frames, 1))
    waypoints = max(4, frames // 16 + 2)
    times = np.linspace(0.0, frames - 1.0, waypoints)
    knots = rng.uniform(-radius, radius, size=(waypoints, 2))
    xy = CubicSpline(times, knots, axis=0)(np.arange(frames, dtype=float))
    max_step = PERSON_MAX_SPEED / frame_rate
    for t in range(1, frames):
        step = xy[t] - xy[t - 1]
        norm = float(np.linalg.norm(step))
        if norm > max_step:
            xy[t] = xy[t - 1] + step * (max_step / norm)
    return xy


def _pose_walk(rng, frames) -> np.ndarray:
    """(T, 24, 3, 3) smooth random rotations: clamped per-joint walk plus a
    free-yaw root."""
    step = math.radians(POSE_STEP_DEGREES)
    limit = math.radians(POSE_LIMIT_DEGREES)
    yaw_step = math.radians(YAW_STEP_DEGREES)
    vectors = np.zeros((frames, JOINTS, 3))
    state = np.zeros((JOINTS, 3))
    yaw = rng.uniform(-math.pi, math.pi)
    for t in range(frames):
        state[1:] = np.clip(state[1:] + rng.normal(0.0, step, size=(JOINTS - 1, 3)), -limit, limit)
        yaw += rng.normal(0.0, yaw_step)
        vectors[t, 1:] = state[1:]
        vectors[t, 0] = (0.0, 0.0, yaw)
    return Rotation.from_rotvec(vectors.reshape(-1, 3)).as_matrix().reshape(frames, JOINTS, 3, 3)


def _perturb_poses(rng, poses: np.ndarray, sigma_degrees: float) -> np.ndarray:
    """Compose small random rotations onto every joint (models estimator error)."""
    if sigma_degrees == 0.0:
        return poses.copy()
    shape = poses.shape[:-2]
    noise = Rotation.from_rotvec(
        rng.normal(0.0, math.radians(sigma_degrees), size=(int(np.prod(shape)), 3))
    ).as_matrix().reshape(poses.shape)
    return poses @ noise


def _look_at(position: np.ndarray, target: np.ndarray) -> Extrinsics:
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, (0.0, 0.0, 1.0))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward])
    return Extrinsics(rotation, -rotation @ position)


def _camera_track(rng, frames, frame_rate) -> list[Extrinsics]:
    radius = rng.uniform(8.0, 11.0)
    height = rng.uniform(1.6, 3.2)
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    tangential = rng.uniform(0.3, 1.5) * rng.choice((-1.0, 1.0))
    wobble_amp = rng.uniform(0.0, 0.25, size=2)
    wobble_phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
    target = np.array([0.0, 0.0, 1.0])
    seconds = np.arange(frames, dtype=float) / frame_rate
    theta = theta0 + (tangential / radius) * seconds
    r = radius + wobble_amp[0] * np.sin(0.3 * seconds + wobble_phase[0])
    z = height + wobble_amp[1] * np.sin(0.2 * seconds + wobble_phase[1])
    return [
        _look_at(np.array([r[t] * math.cos(theta[t]), r[t] * math.sin(theta[t]), z[t]]), target)
        for t in range(frames)
    ]


def generate(config: SceneConfig) -> Scene:
    """Build a scene: ground truth plus noisy 3D and per-camera 2D tracks."""
    skeleton = default_skeleton()
    intrinsics = config.intrinsics()
    p, t = config.person_count, config.duration_frames
    seed = config.seed

    roots = np.empty((p, t, 3))
    poses = np.empty((p, t, JOINTS, 3, 3))
    for person in range(p):
        xy = _smooth_track(_rng(seed, _TRAJECTORY, person), t, config.frame_rate, config.arena_radius)
        roots[person, :, :2] = xy
        roots[person, :, 2] = ROOT_HEIGHT
        poses[person] = _pose_walk(_rng(seed, _POSE, person), t)
    for group in config.synchronized_pose_groups:
        for member in group[1:]:
            poses[member] = poses[group[0]]

    joints = fk_points(skeleton, poses.reshape(-1, JOINTS, 3, 3), roots.reshape(-1, 3))
    joints = joints.reshape(p, t, JOINTS, 3)

    cameras = [_camera_track(_rng(seed, _CAMERA, c), t, config.frame_rate) for c in range(config.camera_count)]

    # Frustum visibility per camera.
    size = (config.image_width, config.image_height)
    visible = np.zeros((config.camera_count, p, t), dtype=bool)
    projections = []
    for c, track in enumerate(cameras):
        cam = camera_points(joints.swapaxes(0, 1), np.array([e.rotation for e in track]),
                            np.array([e.translation for e in track]))
        uv, front = pinhole(intrinsics, cam.swapaxes(0, 1))  # (person, frame, joint, ...)
        in_frame = front & (uv >= 0.0).all(axis=-1) & (uv < size).all(axis=-1)
        visible[c] = in_frame.sum(axis=-1) >= MIN_VISIBLE_JOINTS
        projections.append((uv, front))

    tracks3d = _make_3d_tracks(config, joints, poses)
    tracks2d, correspondence, frame_pairs = [], [], []
    for c in range(config.camera_count):
        cam_tracks, mapping, per_frame = _make_2d_tracks(config, c, projections[c], poses, visible[c])
        tracks2d.append(cam_tracks)
        correspondence.append(mapping)
        frame_pairs.append(per_frame)

    truth = SceneTruth(
        joints=joints,
        body_pose=poses,
        extrinsics=cameras,
        visible=visible,
        correspondence=correspondence,
        frame_correspondence=frame_pairs,
    )
    return Scene(config, intrinsics, truth, tracks3d, tracks2d, skeleton)


def _make_3d_tracks(config, joints, poses):
    p, t = joints.shape[:2]
    tracks = []
    for person in range(p):
        noise_rng = _rng(config.seed, _NOISE3D, person)
        noisy = joints[person] + noise_rng.normal(0.0, config.joint3d_noise_sigma, size=(t, JOINTS, 3))
        observed_pose = _perturb_poses(
            _rng(config.seed, _POSENOISE3D, person), poses[person], config.pose_noise_degrees
        )
        tracks.append(
            PersonTrack3D(
                person_id=f"p{person:02d}",
                joints=noisy,
                body_pose=observed_pose,
                valid=np.ones(t, dtype=bool),
            )
        )
    return tracks


def _make_2d_tracks(config, camera, projection, poses, visible):
    uv, front = projection
    p, t = visible.shape
    low, high = config.intrinsics().pixel_box

    ever = [person for person in range(p) if visible[person].any()]
    perm_rng = _rng(config.seed, _PERMUTATION, camera)
    order = list(perm_rng.permutation(len(ever)))
    # order[k] gives the position of ever[k] in the 2D track list.
    mapping = {ever[k]: int(order[k]) for k in range(len(ever))}

    tracks: list[PersonTrack2D | None] = [None] * len(ever)
    for person in ever:
        pix_rng = _rng(config.seed, _PIXELNOISE, camera, person)
        drop_rng = _rng(config.seed, _DROPOUT, camera, person)
        conf_rng = _rng(config.seed, _CONFIDENCE, camera, person)
        pose_rng = _rng(config.seed, _POSENOISE2D, camera, person)

        coords = uv[person] + pix_rng.normal(0.0, config.pixel_noise_sigma, size=(t, JOINTS, 2))
        coords = np.where(front[person][..., None], coords, 0.0)
        inside_box = (coords >= low).all(axis=-1) & (coords <= high).all(axis=-1)
        coords = np.clip(coords, low, high)

        dropped = drop_rng.uniform(size=(t, JOINTS)) < config.dropout_rate
        confidence = conf_rng.uniform(0.6, 1.0, size=(t, JOINTS))
        confidence[~front[person] | dropped | ~inside_box] = 0.0
        confidence[~visible[person], :] = 0.0

        observed_pose = _perturb_poses(pose_rng, poses[person], config.pose_noise_degrees)
        tracks[mapping[person]] = PersonTrack2D(
            person_id=f"cam{camera}_t{mapping[person]:02d}",
            joints=coords,
            confidence=confidence,
            body_pose=observed_pose,
            valid=visible[person].copy(),
        )

    per_frame = []
    for frame in range(t):
        pairs = tuple(
            (person, mapping[person]) for person in ever if visible[person, frame]
        )
        per_frame.append(pairs)
    return tracks, mapping, per_frame


def accuracy(result: MatchSet, truth: SceneTruth, camera: int) -> float:
    """Fraction of the camera's true (3D person, 2D track) pairs present in
    the result; vacuously 1.0 when nobody was ever visible."""
    expected = truth.sequence_pairs(camera)
    if not expected:
        return 1.0
    found = set(result.pairs)
    return len(expected & found) / len(expected)
