"""Pinhole camera model, projection, and pose estimation from 2D-3D pairs.

Coordinate conventions (OpenCV-style):
  World frame: right-handed, Z up, meters.
  Camera frame: X right, Y down, Z forward along the optical axis; the camera
  looks along +Z, so visible points have positive Z in camera coordinates.
  Image frame: u right, v down, origin at the top-left corner, pixels.

Extrinsics map world points into the camera frame: x_cam = R @ x_world + t;
``pinhole`` then maps camera-frame points to pixels. Every world-to-pixel
projection is ``pinhole(intrinsics, extrinsics.transform(points))``.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfiguration,
    GeometryError,
    InsufficientCorrespondences,
    NoConvergence,
    NonPositiveDepth,
)

# ``damped_least_squares`` stays bound here for perfbench's tracer, which
# wraps it at this module as well as at the refiner.
from .leastsq import damped_least_squares, damped_least_squares_batch  # noqa: F401

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

# Most padded points one Gauss-Newton evaluation of a pose batch covers; bounds
# the solver's working memory (a few hundred bytes per point).
PNP_BATCH_POINTS = 4096

# Problems per stacked DLT decomposition.
DLT_CHUNK = 32


def check_rotation(matrix: np.ndarray) -> np.ndarray:
    """Validate a 3x3 rotation (orthonormal, det +1) and return it as float64."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rotation contains non-finite values")
    if np.abs(m.T @ m - np.eye(3)).max() > ROTATION_ATOL:
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(m) - 1.0) > ROTATION_ATOL:
        raise ValueError("rotation determinant is not +1")
    return m


def orthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Project near-rotations (..., 3, 3) onto the closest proper rotations
    (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    improper = np.linalg.det(u @ vt) < 0
    u[..., :, 2] = np.where(improper[..., None], -u[..., :, 2], u[..., :, 2])
    return u @ vt


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

    @property
    def diagonal(self) -> float:
        """Image diagonal in pixels; the fixed behind-camera cost penalty."""
        return float(np.hypot(self.width, self.height))

    @property
    def pixel_box(self) -> tuple[float, float]:
        """Bounds (low, high), on both axes, of the pixel coordinates a camera
        stream may carry: half an image diagonal before the image origin to
        1.5 diagonals past it."""
        return -0.5 * self.diagonal, 1.5 * self.diagonal


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

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def project(intrinsics: Intrinsics, extrinsics: Extrinsics, points: np.ndarray) -> np.ndarray:
    """Perspective-project world points; raises NonPositiveDepth behind the camera.

    Accepts a single (3,) point or an (n, 3) array and returns pixel
    coordinates with matching leading shape.
    """
    uv, front = pinhole(intrinsics, extrinsics.transform(points))
    if not front.all():
        idx = int(np.flatnonzero(~front)[0])
        raise NonPositiveDepth(f"point {idx} has non-positive camera depth")
    return uv


def pinhole(intrinsics: Intrinsics, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points (..., 3) to (pixels (..., 2), in-front mask (...,)).

    Pixels where the mask is False are finite but meaningless.
    """
    z = cam[..., 2]
    front = z > DEPTH_EPS
    zs = np.where(front, z, 1.0)
    uv = np.empty(z.shape + (2,))  # filled in place: on small inputs np.stack costs more
    uv[..., 0] = intrinsics.fx * cam[..., 0] / zs + intrinsics.cx
    uv[..., 1] = intrinsics.fy * cam[..., 1] / zs + intrinsics.cy
    return uv, front


def pinhole_jacobian(intrinsics: Intrinsics, cam: np.ndarray, front: np.ndarray) -> np.ndarray:
    """duv/dcam (..., 2, 3) of ``pinhole``; rows where ``front`` is False are meaningless."""
    z = np.where(front, cam[..., 2], 1.0)
    duv_dcam = np.zeros(cam.shape[:-1] + (2, 3))
    duv_dcam[..., 0, 0] = intrinsics.fx / z
    duv_dcam[..., 0, 2] = -intrinsics.fx * cam[..., 0] / z**2
    duv_dcam[..., 1, 1] = intrinsics.fy / z
    duv_dcam[..., 1, 2] = -intrinsics.fy * cam[..., 1] / z**2
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


def solve_pnp(points3d: np.ndarray, points2d: np.ndarray, intrinsics: Intrinsics) -> PnpResult:
    """Estimate world-to-camera extrinsics from 2D-3D correspondences.

    Linear initialization (DLT on Hartley-normalized coordinates, or a
    homography-based variant when the 3D points are coplanar) followed by
    damped Gauss-Newton on the 6-DoF pose, minimizing summed squared pixel
    reprojection error. Needs >= 6 pairs in general position, >= 8 if the
    points are coplanar; at most PNP_MAX_ITERATIONS iterations. The
    one-problem case of ``solve_pnp_batch``.
    """
    outcome = solve_pnp_batch([(points3d, points2d)], intrinsics)[0]
    if isinstance(outcome, GeometryError):
        raise outcome
    return outcome


def solve_pnp_batch(problems, intrinsics: Intrinsics) -> list:
    """Solve independent pose problems ``(points3d, points2d)`` under one camera.

    Returns, per problem and in order, its PnpResult or the GeometryError that
    ``solve_pnp`` raises for it. No problem's outcome depends on the rest of
    the batch: linear initialization stacks problems of equal point count,
    and Gauss-Newton pads problems to a common point count with masked rows,
    summing over points in order so that padding adds exact zeros last.
    ``problems`` may be any iterable; its points are copied once.
    """
    outcomes: list = []
    kept = []  # (index, points3d, points2d) of the problems with enough finite pairs
    for index, (points3d, points2d) in enumerate(problems):
        x3 = np.asarray(points3d, dtype=float).reshape(-1, 3)
        x2 = np.asarray(points2d, dtype=float).reshape(-1, 2)
        if x3.shape[0] != x2.shape[0]:
            raise ValueError("points3d and points2d must pair up one-to-one")
        keep = np.isfinite(x3).all(axis=1) & np.isfinite(x2).all(axis=1)
        n = int(keep.sum())
        if n < MIN_CORRESPONDENCES:
            outcomes.append(InsufficientCorrespondences(
                f"{n} valid pairs, need >= {MIN_CORRESPONDENCES}"
            ))
            continue
        outcomes.append(None)
        kept.append((index, x3[keep], x2[keep]) if n < len(keep) else (index, x3, x2))
    if not kept:
        return outcomes

    # One copy of all points; problems address it by offset and count.
    indices = [index for index, _, _ in kept]
    counts = np.array([len(x3) for _, x3, _ in kept])
    offsets = np.cumsum(counts) - counts
    points3d = np.concatenate([x3 for _, x3, _ in kept])
    points2d = np.concatenate([x2 for _, _, x2 in kept])
    del kept

    # One stable order by point count: DLT stacks are its runs of equal count,
    # and Gauss-Newton takes the starts in it, so little of a run is padding.
    order = np.argsort(counts, kind="stable")
    posed, pose0 = [], []
    for run in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        for lo in range(0, len(run), DLT_CHUNK):
            chunk = run[lo : lo + DLT_CHUNK]
            rows = offsets[chunk, None] + np.arange(counts[chunk[0]])
            for k, init in zip(chunk, _initial_poses(points3d[rows], points2d[rows], intrinsics)):
                if isinstance(init, GeometryError):
                    outcomes[indices[k]] = init
                else:
                    posed.append(k)
                    pose0.append(init)
    if posed:
        pose0 = np.stack(pose0)
        fits = _refine_poses(points3d, points2d, offsets[posed], counts[posed], pose0, intrinsics)
        for k, outcome in zip(posed, fits):
            outcomes[indices[k]] = outcome
    return outcomes


def _initial_poses(x3: np.ndarray, x2: np.ndarray, intrinsics: Intrinsics) -> list:
    """Linear pose estimates [R | t] (3, 4) or GeometryError for k problems of
    n finite points each, x3 (k, n, 3) and x2 (k, n, 2): the DLT of the pose
    for points in general position, of the plane-to-image homography for
    coplanar points."""
    k, n = x3.shape[:2]
    centroid = x3.mean(axis=1, keepdims=True)
    centered = x3 - centroid
    spread = np.linalg.svd(centered, compute_uv=False)
    collinear = (spread[:, 0] <= 0) | (spread[:, 1] < PLANARITY_RTOL * spread[:, 0])
    coplanar = ~collinear & (spread[:, 2] < PLANARITY_RTOL * spread[:, 0])
    general = ~collinear & ~coplanar
    planar = coplanar & (n >= MIN_CORRESPONDENCES_PLANAR)
    # Normalized image coordinates (intrinsics removed).
    xn = (x2 - [intrinsics.cx, intrinsics.cy]) / [intrinsics.fx, intrinsics.fy]

    pose = np.empty((k, 3, 4))
    full_rank = np.zeros(k, dtype=bool)
    if general.any():
        p, full_rank[general] = _dlt(x3[general], xn[general])
        pose[general, :, :3], pose[general, :, 3] = _factor_calibrated(p)
    if planar.any():
        # In-plane coordinates along each plane's first two principal axes.
        _, _, basis = np.linalg.svd(centered[planar], full_matrices=False)
        plane = np.concatenate([centered[planar] @ basis[:, i, :, None] for i in (0, 1)], axis=-1)
        h, full_rank[planar] = _dlt(plane, xn[planar])
        # A rank-deficient homography is discarded; the identity keeps its arithmetic finite.
        h = np.where(full_rank[planar, None, None], h, np.eye(3))
        # Fix the overall sign so plane points sit in front of the camera.
        depths = plane @ h[:, 2, :2, None] + h[:, 2, 2, None, None]
        h = np.where(np.median(depths, axis=1)[..., None] < 0, -h, h)

        def dot(a, b):  # row-wise dot products (m, 1) of (m, 3) stacks
            return (a[:, None, :] @ b[:, :, None])[:, 0]

        h1, h2, h3 = h[..., 0], h[..., 1], h[..., 2]
        norm1 = np.sqrt(dot(h1, h1))
        scale = 0.5 * (norm1 + np.sqrt(dot(h2, h2)))
        r1 = h1 / norm1
        r2 = h2 - dot(r1, h2) * r1
        r2 /= np.sqrt(dot(r2, r2))
        rot_plane = np.stack([r1, r2, np.cross(r1, r2)], axis=-1)
        basis[:, 2] = np.cross(basis[:, 0], basis[:, 1])  # right-handed
        rot = orthonormalize(rot_plane @ basis)
        pose[planar, :, :3] = rot
        pose[planar, :, 3] = h3 / scale - (rot @ centroid[planar].transpose(0, 2, 1))[..., 0]

    out: list = []
    for i in range(k):
        if collinear[i]:
            out.append(DegenerateConfiguration("3D points are collinear"))
        elif coplanar[i] and not planar[i]:
            out.append(DegenerateConfiguration(
                f"coplanar points need >= {MIN_CORRESPONDENCES_PLANAR} pairs, got {n}"
            ))
        elif not full_rank[i]:
            out.append(DegenerateConfiguration(
                "rank-deficient homography system" if planar[i]
                else "rank-deficient normal equations in DLT"
            ))
        else:
            out.append(pose[i])
    return out


def _refine_poses(points3d, points2d, offsets, counts, pose0, intrinsics: Intrinsics) -> list:
    """Damped Gauss-Newton on the 6-DoF poses [R | t] ``pose0`` (k, 3, 4) of
    a batch of problems, each minimizing its summed squared pixel
    reprojection error; PnpResult or NoConvergence per problem.

    Problem i owns the ``counts[i]`` points from ``offsets[i]`` on; counts
    ascend. Each evaluation pads the problems it covers to their largest
    count, in runs of at most PNP_BATCH_POINTS padded points, point-major:
    arrays are (point, problem, ...), so sums over points run in point order
    and the padding adds exact zeros last.
    """
    penalty = intrinsics.diagonal

    def padded(kernel):
        """Apply ``kernel(x3, x2, valid, pose)`` to the padded points of runs
        of the (ascending) ``rows``."""

        def run(pose, rows):
            step = max(1, PNP_BATCH_POINTS // counts[rows[-1]])
            pieces = []
            for lo in range(0, len(rows), step):
                run_rows = rows[lo : lo + step]
                width = np.arange(counts[run_rows[-1]])[:, None]
                valid = width < counts[run_rows]
                index = np.where(valid, offsets[run_rows] + width, 0)
                pieces.append(kernel(points3d[index], points2d[index], valid, pose[lo : lo + step]))
            return tuple(np.concatenate(arrays) for arrays in zip(*pieces))

        return run

    def residual_block(x3, x2, valid, pose):
        cam = pose[..., 3] + x3[..., 0, None] * pose[..., 0]
        cam += x3[..., 1, None] * pose[..., 1]
        cam += x3[..., 2, None] * pose[..., 2]
        uv, front = pinhole(intrinsics, cam)
        res = uv - x2
        res[~valid] = 0.0  # padding
        res[valid & ~front] = penalty  # constant penalty, no gradient
        return cam, valid & front, res

    @padded
    def objective(x3, x2, valid, pose):
        res = residual_block(x3, x2, valid, pose)[2]
        return ((res * res).sum(axis=0).sum(axis=1),)

    @padded
    def system(x3, x2, valid, pose):
        cam, live, res = residual_block(x3, x2, valid, pose)
        # Left-multiplicative rotation update: dcam/dw = -[cam - t]x and
        # dcam/dt = I, so a pixel row's rotation part is (cam - t) x duv/dcam.
        duv = pinhole_jacobian(intrinsics, cam, live)
        r = (cam - pose[..., 3])[..., None, :]
        jac = np.empty(duv.shape[:-1] + (6,))  # (point, problem, pixel axis, 6)
        jac[..., 0] = r[..., 1] * duv[..., 2] - r[..., 2] * duv[..., 1]
        jac[..., 1] = r[..., 2] * duv[..., 0] - r[..., 0] * duv[..., 2]
        jac[..., 2] = r[..., 0] * duv[..., 1] - r[..., 1] * duv[..., 0]
        jac[..., 3:] = duv
        jac[~live] = 0.0
        # One column at a time keeps the temporaries at the size of ``jac``.
        hess = np.stack([(jac[..., i : i + 1] * jac).sum(axis=0) for i in range(6)], axis=1)
        grad = (jac * res[..., None]).sum(axis=0)
        return hess.sum(axis=2), grad.sum(axis=1)

    def apply_step(pose, delta, rows):
        stepped = np.empty_like(pose)
        stepped[..., :3] = _rotvec_matrices(delta[:, :3]) @ pose[..., :3]
        stepped[..., 3] = pose[..., 3] + delta[:, 3:]
        return stepped

    fits = damped_least_squares_batch(
        pose0,
        system,
        apply_step,
        lambda pose, rows: objective(pose, rows)[0],
        max_iterations=PNP_MAX_ITERATIONS,
    )
    rotations = orthonormalize(np.stack([fit.x[:, :3] for fit in fits]))
    out = []
    for fit, rot, n in zip(fits, rotations, counts):
        if not fit.converged:
            out.append(NoConvergence(
                f"pose refinement still improving after {fit.iterations} iterations"
            ))
            continue
        rms = float(np.sqrt(fit.objective_trace[-1] / n))
        out.append(PnpResult(
            Extrinsics(rot, fit.x[:, 3]), rms, fit.iterations, fit.converged, fit.objective_trace
        ))
    return out


def _rotvec_matrices(rotvecs: np.ndarray) -> np.ndarray:
    """Rotation matrices (k, 3, 3) of rotation vectors (k, 3), by Rodrigues'
    formula R = I + sin(a)/a K + 2 sin^2(a/2)/a^2 K^2 with a = |w|, K = [w]x."""
    angle = np.sqrt((rotvecs**2).sum(axis=-1))
    nonzero = angle > 0
    safe = np.where(nonzero, angle, 1.0)
    sinc = np.where(nonzero, np.sin(safe) / safe, 1.0)
    half = np.sin(0.5 * safe) / (0.5 * safe)
    cosc = np.where(nonzero, 0.5 * half * half, 0.5)
    wx, wy, wz = rotvecs[:, 0], rotvecs[:, 1], rotvecs[:, 2]
    zero = np.zeros_like(wx)
    skew = np.stack([zero, -wz, wy, wz, zero, -wx, -wy, wx, zero], axis=-1).reshape(-1, 3, 3)
    return np.eye(3) + sinc[:, None, None] * skew + cosc[:, None, None] * (skew @ skew)


def _hartley_normalization(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate each point set (..., n, d) to its centroid and scale its RMS
    radius to sqrt(d).

    Returns the normalized points and the (..., d+1, d+1) homogeneous
    transforms applied to them.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[-1]
    centroid = pts.mean(axis=-2, keepdims=True)
    rms = np.sqrt(((pts - centroid) ** 2).sum(axis=-1).mean(axis=-1))
    scale = np.where(rms > 0, np.sqrt(d) / np.where(rms > 0, rms, 1.0), 1.0)
    transform = np.zeros(pts.shape[:-2] + (d + 1, d + 1))
    transform[..., :d, :d] = np.eye(d) * scale[..., None, None]
    transform[..., :d, d] = -scale[..., None] * centroid[..., 0, :]
    transform[..., d, d] = 1.0
    return (pts - centroid) * scale[..., None, None], transform


def _dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct linear transform, on Hartley-normalized coordinates, of the
    3x(d+1) matrices M with dst ~ M [src; 1] for k problems of n points src
    (k, n, d) and normalized image points dst (k, n, 2): the calibrated pose
    up to scale for d = 3, the plane-to-image homography for d = 2.

    Returns M (k, 3, d+1) and the mask of problems whose system determines M
    up to scale (rank 3(d+1) - 1); a smaller rank means multiple consistent
    solutions (degenerate geometry).
    """
    k, n, d = src.shape
    ps, ts = _hartley_normalization(src)
    pd, td = _hartley_normalization(dst)
    sh = np.concatenate([ps, np.ones((k, n, 1))], axis=-1)
    a = np.zeros((k, 2 * n, 3 * (d + 1)))
    a[:, 0::2, : d + 1] = sh
    a[:, 0::2, 2 * (d + 1) :] = -pd[..., 0:1] * sh
    a[:, 1::2, d + 1 : 2 * (d + 1)] = sh
    a[:, 1::2, 2 * (d + 1) :] = -pd[..., 1:2] * sh
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    full_rank = ~(s[:, -2] < 1e-10 * s[:, 0])
    return np.linalg.inv(td) @ vt[:, -1].reshape(k, 3, d + 1) @ ts, full_rank


def _factor_calibrated(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split normalized-coordinate matrices p ~ s[R | t] (..., 3, 4) into (R, t)."""
    u, s, vt = np.linalg.svd(p[..., :3])
    rot = u @ vt
    scale = s.mean(axis=-1)
    improper = np.linalg.det(rot) < 0
    rot = np.where(improper[..., None, None], -rot, rot)
    scale = np.where(improper, -scale, scale)
    return rot, p[..., 3] / scale[..., None]
