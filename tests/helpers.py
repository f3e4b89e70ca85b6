"""Shared construction helpers for the test suite.

Everything here but ``sides`` is deliberately independent of the library's
internals: rotations come from normalized Gaussian quaternions, cameras from
an explicit look-at construction, so these helpers can serve as oracles.
``sides`` builds the matcher's stacked inputs for tests that call its
indexers directly.
"""

import numpy as np

from crossalign import matching
from crossalign.geometry import Extrinsics, Intrinsics


def make_intrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width=1920, height=1080):
    return Intrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)


def random_rotation(rng):
    """Uniform random rotation from a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def look_at_extrinsics(camera_position, target, up=(0.0, 0.0, 1.0)):
    """World-to-camera extrinsics for a camera at ``camera_position`` looking
    at ``target`` (camera +Z forward, +X right, +Y down)."""
    pos = np.asarray(camera_position, dtype=float)
    fwd = np.asarray(target, dtype=float) - pos
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, dtype=float))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])
    return Extrinsics(rot, -rot @ pos)


def random_camera(rng, target=(0.0, 0.0, 0.0), distance=10.0):
    """Camera at a random direction from ``target``, looking at it."""
    while True:
        d = rng.normal(size=3)
        n = np.linalg.norm(d)
        # Reject near-vertical viewpoints where the up vector degenerates.
        if n > 1e-6 and abs(d[2]) / n < 0.9:
            break
    pos = np.asarray(target, dtype=float) + d / n * distance
    return look_at_extrinsics(pos, target)


def projection_matrix_oracle(intrinsics, extrinsics):
    """The 3x4 matrix K @ [R | t], with K written out from fx, fy, cx and cy."""
    k = np.array(
        [
            [intrinsics.fx, 0.0, intrinsics.cx],
            [0.0, intrinsics.fy, intrinsics.cy],
            [0.0, 0.0, 1.0],
        ]
    )
    return k @ np.column_stack([extrinsics.rotation, extrinsics.translation])


def project_oracle(p_matrix, point):
    """Independent homogeneous multiply-then-divide projection."""
    h = p_matrix @ np.append(np.asarray(point, dtype=float), 1.0)
    return h[:2] / h[2]


def sides(tracks3d, tracks2d):
    """Both sensors' tracks stacked as the matcher's indexers take them
    (``frame_slice``, ``_pair_frames``, ``pose_similarity_matrix``)."""
    frames = matching._common_timeline(tracks3d, tracks2d)
    return matching._side(tracks3d, frames, 3), matching._side(tracks2d, frames, 2)
