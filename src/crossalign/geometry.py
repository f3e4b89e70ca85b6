"""Pinhole camera model, projection, and pose estimation from 2D-3D pairs.

Coordinate conventions (OpenCV-style):
  World frame: right-handed, Z up, meters.
  Camera frame: X right, Y down, Z forward along the optical axis; the camera
  looks along +Z, so visible points have positive Z in camera coordinates.
  Image frame: u right, v down, origin at the top-left corner, pixels.

Extrinsics map world points into the camera frame: x_cam = R @ x_world + t;
``pinhole`` then maps camera-frame points to pixels. Every world-to-pixel
projection is ``pinhole`` of ``Extrinsics.transform`` or of ``camera_points``.

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

# Gauss-Newton iterations per pose fit. On 10-person scenes fits to the true
# pairs end within 4; fits to wrong pairs run on, and a pose batch runs until
# its longest fit ends. 20 was chosen from a sweep of caps 10-100: it is the
# smallest of 20, 25 and 30 under which every test passes (at 15, a test
# frame's proposal fits, which take 19 and 20 iterations, are cut off), and no
# benchmark pair or extrinsic differs from those at cap 100.
PNP_MAX_ITERATIONS = 20

# Most points one linear-start stack or padded Gauss-Newton evaluation covers,
# unless one problem has more; bounds working memory (a few hundred bytes each).
PNP_BATCH_POINTS = 4096

# Points per BLAS product of the Gauss-Newton normal equations (2 * 128 = 256
# Jacobian rows). A product's sums follow the BLAS library's own blocking of
# its rows, which may change with the row count, so one product over a padded
# problem need not equal the product over the problem alone: with OpenBLAS
# 0.3.31 (Haswell kernels) a single syrk first differed at 386 padded rows.
# Blocks start at point 0 and are summed in block order, so padding only adds
# zero rows inside a block and all-zero blocks after it.
PNP_BLOCK_POINTS = 128


def check_rotation(matrix: np.ndarray) -> np.ndarray:
    """Validate a 3x3 rotation (orthonormal, det +1), or each of a stack
    (..., 3, 3) of them in one pass, and return it as float64."""
    m = np.asarray(matrix, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rotation contains non-finite values")
    if m.size and np.abs(m.swapaxes(-1, -2) @ m - np.eye(3)).max() > ROTATION_ATOL:
        raise ValueError("rotation is not orthonormal")
    if m.size and np.abs(np.linalg.det(m) - 1.0).max() > ROTATION_ATOL:
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
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError("image width and height must be at least 1")
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
        # Copies, as from_stack does, so the caller's own arrays stay writable.
        r, t = _checked_poses(np.array(self.rotation, dtype=float),
                              np.array(self.translation, dtype=float), stacked=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def from_stack(cls, rotations: np.ndarray, translations: np.ndarray) -> list["Extrinsics"]:
        """One Extrinsics per member of rotations (k, 3, 3) and translations
        (k, 3), each checked as ``Extrinsics(r, t)`` checks it, with the same
        errors, in one pass over the stack. The members are read-only views
        of one copy of each stack."""
        r, t = _checked_poses(np.array(rotations, dtype=float), np.array(translations, dtype=float),
                              stacked=True)
        poses = [object.__new__(cls) for _ in range(len(r))]
        for pose, rotation, translation in zip(poses, r, t):
            object.__setattr__(pose, "rotation", rotation)
            object.__setattr__(pose, "translation", translation)
        return poses

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3))

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map world points (..., 3) into the camera frame."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation.T + self.translation


def camera_points(points: np.ndarray, rotations: np.ndarray, translations: np.ndarray):
    """World points (pose, ..., 3) in the camera frame of their pose, given
    by rotations (pose, 3, 3) and translations (pose, 3): the stacked form of
    ``Extrinsics.transform``, each slice equal to that pose's bit for bit."""
    lead = (len(rotations),) + (1,) * (points.ndim - 3)
    rotations = rotations.reshape(lead + (3, 3)).swapaxes(-1, -2)
    return points @ rotations + translations.reshape(lead + (1, 3))


def _checked_poses(rotation, translation, stacked: bool) -> tuple[np.ndarray, np.ndarray]:
    """A rotation (3, 3) and translation (3,), or stacks of them (k, 3, 3) and
    (k, 3), checked and frozen read-only as float64: pass copies."""
    r = np.asarray(rotation, dtype=float)
    shape = r.shape[1:] if stacked else r.shape
    if shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {shape}")
    check_rotation(r)
    t = np.asarray(translation, dtype=float).reshape(r.shape[:-1])
    if not np.all(np.isfinite(t)):
        raise ValueError("translation contains non-finite values")
    r.setflags(write=False)
    t.setflags(write=False)
    return r, t


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
    points are coplanar. Raises NoConvergence if the fit still improves after
    PNP_MAX_ITERATIONS iterations: the cap leaves fits to true pairs several
    times the iterations they take and ends the long fits, mostly to wrong
    pairs, that would hold their batch open. The one-problem case of
    ``solve_pnp_packed``.
    """
    x3 = np.asarray(points3d, dtype=float).reshape(-1, 3)
    outcome = solve_pnp_packed(x3, points2d, [len(x3)], intrinsics)[0]
    if isinstance(outcome, GeometryError):
        raise outcome
    return outcome


def solve_pnp_packed(points3d, points2d, counts, intrinsics: Intrinsics) -> list:
    """Solve independent pose problems under one camera, packed end to end:
    problem i owns the next ``counts[i]`` rows of points3d (N, 3) and
    points2d (N, 2).

    Returns, per problem and in order, its PnpResult or the GeometryError that
    ``solve_pnp`` raises for it. No problem's outcome depends on the rest of
    the pack: linear initialization stacks problems of any point count and
    sums each problem's own points, and Gauss-Newton pads problems to a
    common point count with masked rows, summing over points in order so that
    padding adds exact zeros last.

    The finite-pair filter, the pair counts and InsufficientCorrespondences
    run once over the whole pack, and one gather keeps the problems' finite
    points, stably ordered by point count.
    """
    x3 = np.asarray(points3d, dtype=float).reshape(-1, 3)
    x2 = np.asarray(points2d, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=np.intp).reshape(-1)
    if x3.shape[0] != x2.shape[0]:
        raise ValueError("points3d and points2d must pair up one-to-one")
    if counts.sum() != x3.shape[0]:
        raise ValueError("counts must add up to the number of points")
    problem = np.repeat(np.arange(len(counts)), counts)
    keep = np.isfinite(x3).all(axis=1) & np.isfinite(x2).all(axis=1)
    found = np.bincount(problem[keep], minlength=len(counts))
    enough = found >= MIN_CORRESPONDENCES
    outcomes: list = [
        None if ok
        else InsufficientCorrespondences(f"{n} valid pairs, need >= {MIN_CORRESPONDENCES}")
        for n, ok in zip(found.tolist(), enough.tolist())
    ]
    if not enough.any():
        return outcomes

    # One copy of the kept points, problems stably ordered by point count: the
    # linear starts and Gauss-Newton take them in runs of consecutive problems,
    # so little of a run is padding.
    kept = np.flatnonzero(enough)
    sizes = found[kept]
    order = np.argsort(sizes, kind="stable")
    indices = kept[order].tolist()
    counts = sizes[order]
    ends = np.cumsum(counts)
    offsets = ends - counts
    # Kept problem j's finite rows start at ``first[j]`` among all kept rows.
    first = np.cumsum(sizes) - sizes
    rows = np.flatnonzero(keep & enough[problem])
    rows = np.take(rows, np.repeat(first[order] - offsets, counts) + np.arange(ends[-1]))
    x3, x2 = np.take(x3, rows, axis=0), np.take(x2, rows, axis=0)

    step = max(1, PNP_BATCH_POINTS // counts[-1])
    posed, pose0 = [], []
    for lo in range(0, len(counts), step):
        hi = min(lo + step, len(counts))
        rows = slice(offsets[lo], ends[hi - 1])
        inits = _initial_poses(x3[rows], x2[rows], counts[lo:hi], intrinsics)
        for k, init in zip(range(lo, hi), inits):
            if isinstance(init, GeometryError):
                outcomes[indices[k]] = init
            else:
                posed.append(k)
                pose0.append(init)
    if posed:
        pose0 = np.stack(pose0)
        fits = _refine_poses(x3, x2, offsets[posed], counts[posed], pose0, intrinsics)
        for k, outcome in zip(posed, fits):
            outcomes[indices[k]] = outcome
    return outcomes


def _initial_poses(
    x3: np.ndarray, x2: np.ndarray, counts: np.ndarray, intrinsics: Intrinsics
) -> list:
    """Linear pose estimates [R | t] (3, 4) or GeometryError for k problems,
    problem i owning the next ``counts[i]`` finite points of x3 (N, 3) and
    x2 (N, 2): the DLT of the pose for points in general position, of the
    plane-to-image homography for coplanar points.

    Every per-problem quantity is a sum over the problem's own points
    (``np.add.reduceat``), so no start depends on the other problems.
    """
    k = len(counts)
    starts = np.cumsum(counts) - counts
    centroid = np.add.reduceat(x3, starts) / counts[:, None]
    centered = x3 - np.repeat(centroid, counts, axis=0)
    scatter = np.add.reduceat(centered[:, :, None] * centered[:, None, :], starts)
    # The singular values of each centered point cloud, descending, are the
    # square roots of its scatter's eigenvalues (clipped: round-off can make
    # a zero eigenvalue slightly negative).
    eigval, eigvec = np.linalg.eigh(scatter)
    spread = np.sqrt(np.maximum(eigval[:, ::-1], 0.0))
    collinear = (spread[:, 0] <= 0) | (spread[:, 1] < PLANARITY_RTOL * spread[:, 0])
    coplanar = ~collinear & (spread[:, 2] < PLANARITY_RTOL * spread[:, 0])
    general = ~collinear & ~coplanar
    planar = coplanar & (counts >= MIN_CORRESPONDENCES_PLANAR)
    # Normalized image coordinates (intrinsics removed).
    xn = (x2 - [intrinsics.cx, intrinsics.cy]) / [intrinsics.fx, intrinsics.fy]

    pose = np.empty((k, 3, 4))
    full_rank = np.zeros(k, dtype=bool)
    if general.any():
        rows = np.flatnonzero(np.repeat(general, counts))
        p, full_rank[general] = _dlt(
            np.take(x3, rows, axis=0), np.take(xn, rows, axis=0), counts[general]
        )
        pose[general, :, :3], pose[general, :, 3] = _factor_calibrated(p)
    if planar.any():
        rows = np.flatnonzero(np.repeat(planar, counts))
        sizes = counts[planar]
        # Each plane's principal axes (eigenvectors by descending eigenvalue)
        # and the in-plane coordinates along its first two.
        basis = eigvec[planar][:, :, ::-1].transpose(0, 2, 1).copy()
        plane = np.take(centered, rows, axis=0)[:, None, :]
        plane = (plane * np.repeat(basis[:, :2], sizes, axis=0)).sum(axis=-1)
        h, full_rank[planar] = _dlt(plane, np.take(xn, rows, axis=0), sizes)
        # A rank-deficient homography is discarded; the identity keeps its arithmetic finite.
        h = np.where(full_rank[planar, None, None], h, np.eye(3))
        # Fix the overall sign so that the median plane point sits in front of
        # the camera. Twice a problem's median depth is the sum of its two
        # middle ranked depths (one and the same depth for an odd count).
        depths = (plane * np.repeat(h[:, 2, :2], sizes, axis=0)).sum(axis=-1)
        depths += np.repeat(h[:, 2, 2], sizes)
        problem = np.repeat(np.arange(len(sizes)), sizes)
        ranked = depths[np.lexsort((depths, problem))]
        first = np.cumsum(sizes) - sizes
        behind = ranked[first + (sizes - 1) // 2] + ranked[first + sizes // 2] < 0
        h = np.where(behind[:, None, None], -h, h)

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
        pose[planar, :, 3] = h3 / scale - (rot @ centroid[planar, :, None])[..., 0]

    out: list = []
    for i in range(k):
        if collinear[i]:
            out.append(DegenerateConfiguration("3D points are collinear"))
        elif coplanar[i] and not planar[i]:
            out.append(DegenerateConfiguration(
                f"coplanar points need >= {MIN_CORRESPONDENCES_PLANAR} pairs, got {counts[i]}"
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
    count, in runs of at most PNP_BATCH_POINTS padded points, and hands each
    run to ``_pose_kernel`` in coordinate planes: the 3D points are copied
    once per call into one contiguous (3, N) array, one row per coordinate,
    and each run gathers its padded points from it. The objective's run is
    point-major, planes (3, point, problem), so its sums over points run in
    point order and the padding adds exact zeros last. The normal equations'
    run is problem-major, planes (3, problem, point), so each problem's
    Jacobian rows are one BLAS operand; JᵀJ and Jᵀr are summed in blocks of
    PNP_BLOCK_POINTS points, aligned at point 0 and in block order, so
    padding adds exact zeros there too: no problem's steps depend on the
    rest of the pack.
    """
    planes = np.ascontiguousarray(points3d.T)

    def padded(pose, rows, linearize):
        """``_pose_kernel`` over the padded points of runs of the (ascending)
        ``rows``; one run covers the call where the bound allows."""

        def block(pose, rows):
            width, sizes = np.arange(counts[rows[-1]]), counts[rows]
            if linearize:
                valid = width < sizes[:, None]
                index = np.where(valid, offsets[rows][:, None] + width, 0)
            else:
                valid = width[:, None] < sizes
                index = np.where(valid, offsets[rows] + width[:, None], 0)
            return _pose_kernel(intrinsics, np.take(planes, index, axis=1),
                                np.take(points2d, index, axis=0), valid, pose, linearize)

        step = max(1, PNP_BATCH_POINTS // counts[rows[-1]])
        if len(rows) <= step:
            return block(pose, rows)
        pieces = [block(pose[lo : lo + step], rows[lo : lo + step])
                  for lo in range(0, len(rows), step)]
        return tuple(map(np.concatenate, zip(*pieces))) if linearize else np.concatenate(pieces)

    fits = damped_least_squares_batch(
        pose0,
        lambda pose, rows: padded(pose, rows, True),
        lambda pose, delta, rows: _step_poses(pose, delta),
        lambda pose, rows: padded(pose, rows, False),
        max_iterations=PNP_MAX_ITERATIONS,
    )
    solved = np.array([fit.x for fit in fits if fit.converged]).reshape(-1, 3, 4)
    poses = iter(Extrinsics.from_stack(orthonormalize(solved[..., :3]), solved[..., 3]))
    out = []
    for fit, n in zip(fits, counts):
        if not fit.converged:
            out.append(NoConvergence(
                f"pose refinement still improving after {fit.iterations} iterations"
            ))
            continue
        rms = float(np.sqrt(fit.objective_trace[-1] / n))
        out.append(PnpResult(next(poses), rms, fit.iterations, fit.converged, fit.objective_trace))
    return out


def _pose_kernel(intrinsics: Intrinsics, x3, x2, valid, pose, linearize: bool):
    """The PnP objective of the poses [R | t] ``pose`` (k, 3, 4) over padded
    points in coordinate planes x3 (3, n, k) with pixels x2 (n, k, 2),
    ``valid`` (n, k) masking the padding: each problem's summed squared pixel
    residuals (k,). A point behind the camera adds the constant penalty, the
    image diagonal, on each pixel axis and no gradient; padding adds exact
    zeros.

    With ``linearize``, the points come problem-major, x3 (3, k, n), x2
    (k, n, 2) and ``valid`` (k, n), and the kernel returns instead the
    Gauss-Newton normal equations JᵀJ (k, 6, 6) and Jᵀr (k, 6) of the
    residuals r in the step coordinates of ``_step_poses``, so that the
    objective's gradient is 2 Jᵀr.
    """
    # Camera coordinates plane by plane (faster here than ``camera_points``, see
    # README), cam_i = t_i + X R_i0 + Y R_i1 + Z R_i2, each problem's pose entries
    # broadcast along its axis of the planes (contiguous, so the planes are too).
    coef = np.ascontiguousarray(pose.T)
    coef = coef[..., None] if linearize else coef[:, :, None, :]
    cam = coef[3] + x3[0] * coef[0]
    cam += x3[1] * coef[1]
    cam += x3[2] * coef[2]
    # ``pinhole`` and its Jacobian take points coordinate-last: a view.
    uv, front = pinhole(intrinsics, cam.transpose(1, 2, 0))
    live = valid & front
    # Most runs have neither padding nor points behind the camera. Results
    # overwrite the kernel's own temporaries: at these sizes a fresh array
    # costs about as much as the arithmetic that fills it.
    dead = None if live.all() else ~live
    res = np.subtract(uv, x2, out=uv)
    if dead is not None:
        res[dead] = intrinsics.diagonal * valid[dead, None]
    if not linearize:
        res *= res
        return res.sum(axis=0).sum(axis=1)
    # Left-multiplicative rotation update: dcam/dw = -[cam - t]x and
    # dcam/dt = I, so a pixel row's rotation part is (cam - t) x duv/dcam.
    duv = pinhole_jacobian(intrinsics, cam.transpose(1, 2, 0), live)
    r = np.subtract(cam, coef[3], out=cam)
    # The Jacobian problem-major, (problem, point, pixel axis, 6), one pixel
    # axis at a time, so that each operation runs along a problem's points.
    jac = np.empty(duv.shape[:-1] + (6,))
    for axis in range(2):
        d, j = duv[:, :, axis], jac[:, :, axis]
        np.subtract(r[1] * d[..., 2], r[2] * d[..., 1], out=j[..., 0])
        np.subtract(r[2] * d[..., 0], r[0] * d[..., 2], out=j[..., 1])
        np.subtract(r[0] * d[..., 1], r[1] * d[..., 0], out=j[..., 2])
    jac[..., 3:] = duv
    if dead is not None:
        jac[dead] = 0.0
    jac = jac.reshape(len(pose), -1, 6)
    res = res.reshape(len(pose), -1, 1)
    # JᵀJ and Jᵀr summed block by block, in block order.
    size = 2 * PNP_BLOCK_POINTS
    hess = grad = 0.0
    for lo in range(0, jac.shape[1], size):
        jt = jac[:, lo : lo + size].transpose(0, 2, 1)
        hess = hess + jt @ jac[:, lo : lo + size]
        grad = grad + jt @ res[:, lo : lo + size]
    return hess, grad[..., 0]


def _step_poses(pose: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Poses (k, 3, 4) retracted by steps ``delta`` (k, 6): the rotation
    vector delta[:, :3] applied on the left of R, then delta[:, 3:] added to t."""
    stepped = np.empty_like(pose)
    stepped[..., :3] = _rotvec_matrices(delta[:, :3]) @ pose[..., :3]
    stepped[..., 3] = pose[..., 3] + delta[:, 3:]
    return stepped


def _rotvec_matrices(rotvecs: np.ndarray) -> np.ndarray:
    """Rotation matrices (k, 3, 3) of rotation vectors (k, 3), by Rodrigues'
    formula R = I + sin(a)/a K + 2 sin^2(a/2)/a^2 K^2 with a = |w|, K = [w]x."""
    angle = np.sqrt((rotvecs**2).sum(axis=-1))
    nonzero = angle > 0
    safe = np.where(nonzero, angle, 1.0)
    sinc = np.where(nonzero, np.sin(safe) / safe, 1.0)
    half = np.sin(0.5 * safe) / (0.5 * safe)
    cosc = np.where(nonzero, 0.5 * half * half, 0.5)
    # K = [[0, -wz, wy], [wz, 0, -wx], [-wy, wx, 0]], written into one array.
    skew = np.zeros((len(rotvecs), 3, 3))
    skew[:, 2, 1], skew[:, 0, 2], skew[:, 1, 0] = rotvecs.T
    skew[:, 1, 2], skew[:, 2, 0], skew[:, 0, 1] = -rotvecs.T
    return np.eye(3) + sinc[:, None, None] * skew + cosc[:, None, None] * (skew @ skew)


def _hartley_normalization(
    points: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Translate each problem's points (its ``counts[i]`` rows of ``points``
    (N, d) from ``starts[i]`` on) to their centroid and scale their RMS radius
    to sqrt(d).

    Returns the normalized points (N, d) and the (k, d+1, d+1) homogeneous
    transforms applied to them.
    """
    d = points.shape[1]
    centroid = np.add.reduceat(points, starts) / counts[:, None]
    centered = points - np.repeat(centroid, counts, axis=0)
    rms = np.sqrt(np.add.reduceat((centered**2).sum(axis=1), starts) / counts)
    scale = np.where(rms > 0, np.sqrt(d) / np.where(rms > 0, rms, 1.0), 1.0)
    transform = np.zeros((len(counts), d + 1, d + 1))
    transform[:, :d, :d] = np.eye(d) * scale[:, None, None]
    transform[:, :d, d] = -scale[:, None] * centroid
    transform[:, d, d] = 1.0
    return centered * np.repeat(scale, counts)[:, None], transform


def _dlt(src: np.ndarray, dst: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct linear transform, on Hartley-normalized coordinates, of the
    3x(d+1) matrices M with dst ~ M [src; 1] for k problems, problem i owning
    the next ``counts[i]`` rows of the points src (N, d) and of the
    normalized image points dst (N, 2): the calibrated pose up to scale for
    d = 3, the plane-to-image homography for d = 2.

    M is the eigenvector of the smallest eigenvalue of A^T A, where A is the
    (2n, 3(d+1)) DLT design matrix. A^T A is summed per problem from four
    moments sum(w s s^T) of s = [normalized src; 1], with w = 1, u, v and
    u^2 + v^2 for the normalized image point (u, v).

    Returns M (k, 3, d+1) and the mask of problems whose system determines M
    up to scale (rank 3(d+1) - 1); a smaller rank means multiple consistent
    solutions (degenerate geometry).
    """
    k, d = len(counts), src.shape[1]
    starts = np.cumsum(counts) - counts
    ps, ts = _hartley_normalization(src, starts, counts)
    pd, td = _hartley_normalization(dst, starts, counts)
    sh = np.concatenate([ps, np.ones((len(ps), 1))], axis=1)
    outer = sh[:, :, None] * sh[:, None, :]  # (N, d+1, d+1)
    u, v = pd[:, 0, None, None], pd[:, 1, None, None]
    # One weight at a time keeps the temporaries at the size of ``outer``.
    s = np.add.reduceat(outer, starts)
    s_u, s_v, s_uv = (np.add.reduceat(w * outer, starts) for w in (u, v, u * u + v * v))
    zero = np.zeros_like(s)
    ata = np.block([[s, zero, -s_u], [zero, s, -s_v], [-s_u, -s_v, s_uv]])
    eigval, eigvec = np.linalg.eigh(ata)
    # Rank 3(d+1) - 1 unless the second-smallest eigenvalue vanishes: below
    # 1e-12 of the largest, a singular-value ratio of 1e-6 (the eigenvalues
    # carry round-off of about 1e-16 of the largest).
    full_rank = ~(eigval[:, 1] < 1e-12 * eigval[:, -1])
    m = eigvec[:, :, 0].reshape(k, 3, d + 1)
    return np.linalg.inv(td) @ m @ ts, full_rank


def _factor_calibrated(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split normalized-coordinate matrices p ~ s[R | t] (..., 3, 4) into (R, t)."""
    u, s, vt = np.linalg.svd(p[..., :3])
    rot = u @ vt
    scale = s.mean(axis=-1)
    improper = np.linalg.det(rot) < 0
    rot = np.where(improper[..., None, None], -rot, rot)
    scale = np.where(improper, -scale, scale)
    return rot, p[..., 3] / scale[..., None]
