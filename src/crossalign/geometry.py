"""Pinhole camera model, projection, and pose estimation from 2D-3D pairs.

Coordinate conventions (OpenCV-style):
  World frame: right-handed, Z up, meters.
  Camera frame: X right, Y down, Z forward along the optical axis; the camera
  looks along +Z, so visible points have positive Z in camera coordinates.
  Image frame: u right, v down, origin at the top-left corner, pixels.

Extrinsics map world points into the camera frame: x_cam = R @ x_world + t.
The projection matrix composes intrinsics and extrinsics: P = K @ [R | t].

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import (
    DegenerateConfiguration,
    InsufficientCorrespondences,
    NoConvergence,
    NonPositiveDepth,
)
from .leastsq import damped_least_squares

# Points closer to the camera plane than this (meters) count as behind it.
DEPTH_EPS = 1e-6

# Orthonormality tolerance for rotation-valued fields.
ROTATION_ATOL = 1e-9

# Coplanarity / collinearity detection threshold, relative to the largest
# singular value of the centered point cloud.
PLANARITY_RTOL = 1e-6

MIN_CORRESPONDENCES = 6
MIN_CORRESPONDENCES_PLANAR = 8

PNP_MAX_ITERATIONS = 100
PNP_REL_TOL = 1e-10


def check_rotation(matrix: np.ndarray, atol: float = ROTATION_ATOL) -> np.ndarray:
    """Validate a 3x3 rotation (orthonormal, det +1) and return it as float64."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rotation contains non-finite values")
    if np.abs(m.T @ m - np.eye(3)).max() > atol:
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(m) - 1.0) > atol:
        raise ValueError("rotation determinant is not +1")
    return m


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Project a near-rotation onto the closest proper rotation (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


@dataclass(frozen=True)
class Intrinsics:
    """Zero-skew pinhole intrinsics plus the image size they refer to."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie inside the image")

    @cached_property
    def matrix(self) -> np.ndarray:
        k = np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )
        k.setflags(write=False)
        return k

    @property
    def diagonal(self) -> float:
        """Image diagonal in pixels; the fixed behind-camera cost penalty."""
        return float(np.hypot(self.width, self.height))


@dataclass(frozen=True)
class Extrinsics:
    """World-to-camera rigid transform: x_cam = rotation @ x_world + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = check_rotation(self.rotation)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("translation contains non-finite values")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """The 3x4 [R | t] block."""
        return np.hstack([self.rotation, self.translation[:, None]])

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class ProjectionMatrix:
    """3x4 map from homogeneous world points to homogeneous pixel coordinates.

    Built exactly as K @ [R | t]; this type constructs, it never estimates.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_camera(cls, intrinsics: Intrinsics, extrinsics: Extrinsics) -> "ProjectionMatrix":
        return cls(intrinsics.matrix @ extrinsics.matrix())


def project(projection: ProjectionMatrix, points: np.ndarray) -> np.ndarray:
    """Perspective-project world points; raises NonPositiveDepth behind the camera.

    Accepts a single (3,) point or an (n, 3) array and returns pixel
    coordinates with matching leading shape.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    uv, ok = project_masked(projection, pts)
    if not ok.all():
        idx = int(np.flatnonzero(~ok)[0])
        raise NonPositiveDepth(f"point {idx} has non-positive camera depth")
    return uv[0] if single else uv


def project_masked(projection: ProjectionMatrix, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project points (..., 3), returning (pixels (..., 2), in-front mask (...,)).

    Pixel values where the mask is False are zero-filled and must not be used;
    cost builders substitute the fixed behind-camera penalty for those joints.
    """
    pts = np.asarray(points, dtype=float)
    p = projection.values
    hom = pts @ p[:, :3].T + p[:, 3]
    depth = hom[..., 2]
    ok = depth > DEPTH_EPS
    safe = np.where(ok, depth, 1.0)
    uv = hom[..., :2] / safe[..., None]
    uv = np.where(ok[..., None], uv, 0.0)
    return uv, ok


def pinhole(intrinsics: Intrinsics, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points (n, 3) to (pixels (n, 2), in-front mask (n,)).

    Pixels where the mask is False are finite but meaningless.
    """
    z = cam[:, 2]
    front = z > DEPTH_EPS
    zs = np.where(front, z, 1.0)
    u = intrinsics.fx * cam[:, 0] / zs + intrinsics.cx
    v = intrinsics.fy * cam[:, 1] / zs + intrinsics.cy
    return np.stack([u, v], axis=1), front


def pinhole_jacobian(intrinsics: Intrinsics, cam: np.ndarray, front: np.ndarray) -> np.ndarray:
    """duv/dcam (n, 2, 3) of ``pinhole``; rows where ``front`` is False are meaningless."""
    z = np.where(front, cam[:, 2], 1.0)
    duv_dcam = np.zeros((cam.shape[0], 2, 3))
    duv_dcam[:, 0, 0] = intrinsics.fx / z
    duv_dcam[:, 0, 2] = -intrinsics.fx * cam[:, 0] / z**2
    duv_dcam[:, 1, 1] = intrinsics.fy / z
    duv_dcam[:, 1, 2] = -intrinsics.fy * cam[:, 1] / z**2
    return duv_dcam


def geodesic_rotation_error(rot_a: np.ndarray, rot_b: np.ndarray) -> float:
    """Angle in radians of the relative rotation between two rotation matrices."""
    ra = np.asarray(rot_a, dtype=float)
    rb = np.asarray(rot_b, dtype=float)
    cos = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


@dataclass
class PnpResult:
    extrinsics: Extrinsics
    rms_px: float
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


def solve_pnp(
    points3d: np.ndarray,
    points2d: np.ndarray,
    intrinsics: Intrinsics,
    *,
    max_iterations: int = PNP_MAX_ITERATIONS,
    rel_tol: float = PNP_REL_TOL,
) -> PnpResult:
    """Estimate world-to-camera extrinsics from 2D-3D correspondences.

    Linear initialization (DLT on Hartley-normalized coordinates, or a
    homography-based variant when the 3D points are coplanar) followed by
    damped Gauss-Newton on the 6-DoF pose, minimizing summed squared pixel
    reprojection error. Needs >= 6 pairs in general position, >= 8 if the
    points are coplanar.
    """
    x3 = np.asarray(points3d, dtype=float).reshape(-1, 3)
    x2 = np.asarray(points2d, dtype=float).reshape(-1, 2)
    if x3.shape[0] != x2.shape[0]:
        raise ValueError("points3d and points2d must pair up one-to-one")
    keep = np.isfinite(x3).all(axis=1) & np.isfinite(x2).all(axis=1)
    x3, x2 = x3[keep], x2[keep]
    n = x3.shape[0]
    if n < MIN_CORRESPONDENCES:
        raise InsufficientCorrespondences(f"{n} valid pairs, need >= {MIN_CORRESPONDENCES}")

    centered = x3 - x3.mean(axis=0)
    spread = np.linalg.svd(centered, compute_uv=False)
    if spread[0] <= 0 or spread[1] < PLANARITY_RTOL * spread[0]:
        raise DegenerateConfiguration("3D points are collinear")
    coplanar = spread[2] < PLANARITY_RTOL * spread[0]
    if coplanar and n < MIN_CORRESPONDENCES_PLANAR:
        raise DegenerateConfiguration(
            f"coplanar points need >= {MIN_CORRESPONDENCES_PLANAR} pairs, got {n}"
        )

    # Normalized image coordinates (intrinsics removed).
    xn = (x2 - [intrinsics.cx, intrinsics.cy]) / [intrinsics.fx, intrinsics.fy]
    if coplanar:
        r0, t0 = _init_planar(x3, xn)
    else:
        r0, t0 = _init_dlt(x3, xn)

    penalty = intrinsics.diagonal

    def residual_block(pose):
        rot, trans = pose
        cam = x3 @ rot.T + trans
        uv, front = pinhole(intrinsics, cam)
        res = uv - x2
        res[~front] = penalty  # constant penalty, no gradient
        return cam, front, res

    def objective(pose):
        _, _, res = residual_block(pose)
        return float((res**2).sum())

    def system(pose):
        rot, trans = pose
        cam, front, res = residual_block(pose)
        # Left-multiplicative rotation update: dcam/dw = -[cam - t]x, dcam/dt = I.
        rx = cam - trans
        dcam = np.zeros((x3.shape[0], 3, 6))
        dcam[:, 0, 1] = rx[:, 2]
        dcam[:, 0, 2] = -rx[:, 1]
        dcam[:, 1, 0] = -rx[:, 2]
        dcam[:, 1, 2] = rx[:, 0]
        dcam[:, 2, 0] = rx[:, 1]
        dcam[:, 2, 1] = -rx[:, 0]
        dcam[:, :, 3:] = np.eye(3)
        jac = np.einsum("nij,njk->nik", pinhole_jacobian(intrinsics, cam, front), dcam)
        jac[~front] = 0.0
        return jac.reshape(-1, 6), res.reshape(-1)

    def apply_step(pose, delta):
        rot, trans = pose
        return Rotation.from_rotvec(delta[:3]).as_matrix() @ rot, trans + delta[3:]

    fit = damped_least_squares(
        (r0, t0),
        system,
        apply_step,
        objective,
        max_iterations=max_iterations,
        rel_tol=rel_tol,
    )
    if not fit.converged:
        raise NoConvergence(f"pose refinement still improving after {fit.iterations} iterations")

    rot, trans = fit.x
    extr = Extrinsics(orthonormalize(rot), trans)
    rms = float(np.sqrt(fit.objective_trace[-1] / n))
    return PnpResult(extr, rms, fit.iterations, fit.converged, fit.objective_trace)


def _hartley_normalization(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate centroid to origin and scale RMS radius to sqrt(d).

    Returns the normalized points and the (d+1, d+1) homogeneous transform
    applied to them.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    centroid = pts.mean(axis=0)
    rms = np.sqrt(((pts - centroid) ** 2).sum(axis=1).mean())
    scale = np.sqrt(d) / rms if rms > 0 else 1.0
    transform = np.eye(d + 1)
    transform[:d, :d] *= scale
    transform[:d, d] = -scale * centroid
    return (pts - centroid) * scale, transform


def _init_dlt(x3: np.ndarray, xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct linear transform for a calibrated 3x4 pose, general position."""
    n = x3.shape[0]
    p3, t3 = _hartley_normalization(x3)
    p2, t2 = _hartley_normalization(xn)

    xh = np.hstack([p3, np.ones((n, 1))])
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = xh
    a[0::2, 8:12] = -p2[:, 0:1] * xh
    a[1::2, 4:8] = xh
    a[1::2, 8:12] = -p2[:, 1:2] * xh

    _, s, vt = np.linalg.svd(a)
    # The system must determine the pose up to scale: rank 11. A smaller rank
    # means multiple consistent poses (degenerate geometry).
    if s[10] < 1e-10 * s[0]:
        raise DegenerateConfiguration("rank-deficient normal equations in DLT")
    p_hat = vt[-1].reshape(3, 4)
    p = np.linalg.inv(t2) @ p_hat @ t3
    return _factor_calibrated(p)


def _factor_calibrated(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a normalized-coordinate 3x4 matrix p ~ s[R | t] into (R, t)."""
    b = p[:, :3]
    u, s, vt = np.linalg.svd(b)
    rot = u @ vt
    scale = s.mean()
    if np.linalg.det(rot) < 0:
        rot = -rot
        scale = -scale
    return rot, p[:, 3] / scale


def _init_planar(x3: np.ndarray, xn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Homography-based initialization for coplanar 3D points."""
    n = x3.shape[0]
    centroid = x3.mean(axis=0)
    _, _, vt = np.linalg.svd(x3 - centroid)
    e1, e2 = vt[0], vt[1]
    plane = np.stack([(x3 - centroid) @ e1, (x3 - centroid) @ e2], axis=1)

    pp, tp = _hartley_normalization(plane)
    p2, t2 = _hartley_normalization(xn)
    ph = np.hstack([pp, np.ones((n, 1))])
    a = np.zeros((2 * n, 9))
    a[0::2, 0:3] = ph
    a[0::2, 6:9] = -p2[:, 0:1] * ph
    a[1::2, 3:6] = ph
    a[1::2, 6:9] = -p2[:, 1:2] * ph
    _, s, vt9 = np.linalg.svd(a)
    if s[7] < 1e-10 * s[0]:
        raise DegenerateConfiguration("rank-deficient homography system")
    h = np.linalg.inv(t2) @ vt9[-1].reshape(3, 3) @ tp

    # Fix the overall sign so plane points sit in front of the camera.
    depths = plane @ h[2, :2] + h[2, 2]
    if np.median(depths) < 0:
        h = -h

    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    scale = 0.5 * (np.linalg.norm(h1) + np.linalg.norm(h2))
    r1 = h1 / np.linalg.norm(h1)
    r2 = h2 - (r1 @ h2) * r1
    r2 /= np.linalg.norm(r2)
    r3 = np.cross(r1, r2)
    rot_plane = np.column_stack([r1, r2, r3])
    basis = np.column_stack([e1, e2, np.cross(e1, e2)])
    rot = orthonormalize(rot_plane @ basis.T)
    trans = h3 / scale - rot @ centroid
    return rot, trans
