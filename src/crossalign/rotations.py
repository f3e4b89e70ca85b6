"""Quaternion <-> rotation-matrix conversions over batches (wxyz order).

A quaternion is canonical when its first non-zero component is positive:
w > 0, or w == 0 and the first non-zero of x, y, z is positive. Every
conversion works on a whole batch; each row's result does not depend on the
rest of the batch, and an empty batch converts to an empty one.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation


def batch_quat_wxyz_from_matrices(matrices: np.ndarray) -> np.ndarray:
    """(..., 3, 3) rotations -> (..., 4) canonical wxyz quaternions."""
    m = np.asarray(matrices, dtype=float)
    q = Rotation.from_matrix(m.reshape(-1, 3, 3)).as_quat()  # (n, 4) xyzw
    out = q[:, [3, 0, 1, 2]]
    lead = out[np.arange(len(out)), np.argmax(out != 0, axis=1)]
    out[lead < 0] *= -1.0
    return out.reshape(m.shape[:-2] + (4,))


def batch_matrices_from_quat_wxyz(quats: np.ndarray) -> np.ndarray:
    """(..., 4) wxyz quaternions, normalized here, -> (..., 3, 3) rotation
    matrices. Raises ValueError if any quaternion is zero or not finite."""
    q = np.asarray(quats, dtype=float)
    flat = q.reshape(-1, 4)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0):
        raise ValueError("quaternions must be non-zero and finite")
    flat = flat / norms
    m = Rotation.from_quat(flat[:, [1, 2, 3, 0]]).as_matrix()
    return m.reshape(q.shape[:-1] + (3, 3))
