"""Canonical 24-joint skeleton, per-joint body pose, and forward kinematics.

The skeleton ships as a versioned data file (see ``data/canonical_skeleton_24.txt``)
and is referenced by the SHA-256 of its bytes in every output file, so results
always name the exact geometry they were computed against.

A body pose is one local rotation per joint, root first. Joint world positions
follow by accumulating parent transforms down the tree:

  position[root] = root_position
  position[j]    = position[parent] + R_world[parent] @ offset[j]
  R_world[j]     = R_world[parent] @ rotation[j]
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .geometry import check_rotation

JOINT_COUNT = 24
ROOT_PARENT = -1

_SKELETON_RESOURCE = "canonical_skeleton_24.txt"


@dataclass(frozen=True)
class CanonicalSkeleton:
    """Fixed kinematic tree: per-joint parent index and rest offsets (meters)."""

    names: tuple[str, ...]
    parents: np.ndarray
    offsets: np.ndarray
    content_hash: str

    def __post_init__(self):
        parents = np.asarray(self.parents, dtype=int)
        offsets = np.asarray(self.offsets, dtype=float)
        if len(self.names) != JOINT_COUNT:
            raise ValueError(f"skeleton must have {JOINT_COUNT} joints, got {len(self.names)}")
        if parents.shape != (JOINT_COUNT,) or offsets.shape != (JOINT_COUNT, 3):
            raise ValueError("skeleton arrays have wrong shapes")
        if parents[0] != ROOT_PARENT:
            raise ValueError("joint 0 must be the root")
        # Parents must precede children so one forward pass suffices, which
        # also guarantees a single tree rooted at joint 0.
        if not np.all((parents[1:] >= 0) & (parents[1:] < np.arange(1, JOINT_COUNT))):
            raise ValueError("parent indices must form a tree rooted at joint 0")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("offsets contain non-finite values")
        parents.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "offsets", offsets)

    @property
    def joint_count(self) -> int:
        return JOINT_COUNT


@dataclass(frozen=True)
class BodyPose:
    """Per-joint local rotations, root first; each orthonormal with det +1."""

    rotations: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotations, dtype=float)
        if rot.shape != (JOINT_COUNT, 3, 3):
            raise ValueError(f"body pose must be ({JOINT_COUNT}, 3, 3), got {rot.shape}")
        check_rotation(rot)
        rot = rot.copy()
        rot.setflags(write=False)
        object.__setattr__(self, "rotations", rot)

    @classmethod
    def rest(cls) -> "BodyPose":
        return cls(np.broadcast_to(np.eye(3), (JOINT_COUNT, 3, 3)).copy())


def rotations_of(pose) -> np.ndarray:
    """Accept a BodyPose or a raw (24, 3, 3) array and return the array."""
    if isinstance(pose, BodyPose):
        return pose.rotations
    rot = np.asarray(pose, dtype=float)
    if rot.shape != (JOINT_COUNT, 3, 3):
        raise ValueError(f"expected ({JOINT_COUNT}, 3, 3) rotations, got {rot.shape}")
    return rot


def parse_skeleton(text: str) -> CanonicalSkeleton:
    """Parse the skeleton file format: ``name parent_index ox oy oz`` per line."""
    names: list[str] = []
    parents: list[int] = []
    offsets: list[list[float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"skeleton line needs 5 fields: {line!r}")
        names.append(fields[0])
        parents.append(int(fields[1]))
        offsets.append([float(v) for v in fields[2:5]])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return CanonicalSkeleton(tuple(names), np.array(parents), np.array(offsets), digest)


@lru_cache(maxsize=1)
def default_skeleton() -> CanonicalSkeleton:
    """The packaged canonical skeleton (24 joints, T-pose, 1.70 m tall)."""
    text = resources.files("crossalign.data").joinpath(_SKELETON_RESOURCE).read_text("utf-8")
    return parse_skeleton(text)


def forward_kinematics(skeleton: CanonicalSkeleton, pose, root_position) -> np.ndarray:
    """World positions (24, 3) of all joints for one pose; root lands exactly
    at ``root_position``."""
    rotations = rotations_of(pose)
    root = np.asarray(root_position, dtype=float).reshape(3)
    return fk_points(skeleton, rotations[None], root[None])[0]


def fk_points(skeleton: CanonicalSkeleton, rotations: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Batched forward kinematics.

    rotations: (..., 24, 3, 3) local joint rotations, root first.
    roots: (..., 3) world positions of the root joint.
    Returns joint positions (..., 24, 3).
    """
    rot = np.asarray(rotations, dtype=float)
    roots = np.asarray(roots, dtype=float)
    batch = rot.shape[:-3]
    world_rot = np.empty(batch + (JOINT_COUNT, 3, 3))
    positions = np.empty(batch + (JOINT_COUNT, 3))
    world_rot[..., 0, :, :] = rot[..., 0, :, :]
    positions[..., 0, :] = roots
    for j in range(1, JOINT_COUNT):
        p = skeleton.parents[j]
        offset = skeleton.offsets[j]
        positions[..., j, :] = positions[..., p, :] + world_rot[..., p, :, :] @ offset
        world_rot[..., j, :, :] = world_rot[..., p, :, :] @ rot[..., j, :, :]
    return positions
