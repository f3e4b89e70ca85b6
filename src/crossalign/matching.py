"""Cross-sensor identity matching between 3D and 2D multi-person keypoint tracks.

The matcher pairs LiDAR-derived 3D person tracks with camera-derived 2D person
tracks over a shared timeline, without any prior camera calibration:

1. Body-pose similarity (coordinate-free) gives an initial sequence-level
   assignment, and per-frame pose estimation from that assignment gives
   initial extrinsics.
2. The spread of the initial per-frame translations acts as a gate: a stable
   solution is accepted as-is, an unstable one (synchronized motions, pose
   ambiguity) triggers the per-frame keypoint search, which seeds camera poses
   from every candidate pair, refines assignment proposals, and accumulates
   frame evidence into a sequence-level score matrix.

Pixel costs always refer to the camera whose intrinsics are passed in; world
points behind the camera contribute a fixed penalty equal to the image
diagonal so cost matrices stay finite.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateConfiguration,
    GeometryError,
    InsufficientCorrespondences,
    InvalidConfig,
    NoCommonFrames,
    NoConvergence,
    NoViableProposal,
)

# ``solve_pnp`` stays bound here for perfbench's tracer, which wraps it at
# this module as well as at geometry; the matcher fits through the batch.
from .geometry import (  # noqa: F401
    MIN_CORRESPONDENCES,
    Extrinsics,
    Intrinsics,
    camera_points,
    pinhole,
    solve_pnp,
    solve_pnp_packed,
)
from .rotations import batch_matrices_from_quat_wxyz, batch_quat_wxyz_from_matrices
from .skeleton import JOINT_COUNT as JOINTS, default_skeleton, fk_points, rotations_of

logger = logging.getLogger(__name__)

# Similarity assigned to track pairs that are never simultaneously valid;
# sits strictly below the cosine range so such pairs lose every comparison.
NO_OVERLAP_SIMILARITY = -2.0

# Pose-fit failures counted in PcmStats.pnp_failed.
PNP_FAILURE_KINDS = tuple(
    e.__name__ for e in (InsufficientCorrespondences, DegenerateConfiguration, NoConvergence)
)

# Relative tolerance under which two assignment totals count as tied.
ASSIGNMENT_TIE_RTOL = 1e-9

# Most injective maps (6!) an assignment enumerates; larger matrices are
# assigned by biased re-solves (``_lexicographic_pairs``).
ENUMERATED_MAPS_MAX = 720

# Memory bound: the most float64 values (256 KiB) one temporary of a cost or
# assignment stack holds. Stacks run in slices of whole poses or matrices
# under it, so their memory does not grow with the frames they cover; on
# twins4 stacks (2-core Xeon) 1 MiB slices ran 30% slower, out of cache.
STACK_FLOATS = 1 << 15

STRATEGIES = ("KPs", "KP", "Pose", "P&K", "P&T", "P&T&K")

# Most pairings the exhaustive KPs strategy enumerates per frame (7!).
KPS_MAX_PAIRINGS = 5040


# ---------------------------------------------------------------------------
# Track and configuration types


@dataclass(frozen=True)
class PersonTrack3D:
    """One person's world-frame joint trajectory plus per-frame body pose."""

    person_id: str
    joints: np.ndarray  # (T, 24, 3) meters
    body_pose: np.ndarray  # (T, 24, 3, 3)
    valid: np.ndarray  # (T,) bool

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=float)
        pose = np.asarray(self.body_pose, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        t = joints.shape[0]
        if joints.shape != (t, JOINTS, 3) or pose.shape != (t, JOINTS, 3, 3) or valid.shape != (t,):
            raise ValueError("track arrays have inconsistent shapes")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "body_pose", pose)
        object.__setattr__(self, "valid", valid)

    @property
    def frames(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True)
class PersonTrack2D:
    """One person's pixel-frame joints with confidences plus per-frame body pose."""

    person_id: str
    joints: np.ndarray  # (T, 24, 2) pixels
    confidence: np.ndarray  # (T, 24) in [0, 1]
    body_pose: np.ndarray  # (T, 24, 3, 3)
    valid: np.ndarray  # (T,) bool

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=float)
        conf = np.asarray(self.confidence, dtype=float)
        pose = np.asarray(self.body_pose, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        t = joints.shape[0]
        if (
            joints.shape != (t, JOINTS, 2)
            or conf.shape != (t, JOINTS)
            or pose.shape != (t, JOINTS, 3, 3)
            or valid.shape != (t,)
        ):
            raise ValueError("track arrays have inconsistent shapes")
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise ValueError("confidences must be finite and lie in [0, 1]")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "body_pose", pose)
        object.__setattr__(self, "valid", valid)

    @property
    def frames(self) -> int:
        return self.joints.shape[0]


class _Side(NamedTuple):
    """One sensor's tracks as (track, frame, ...) arrays, stacked once per call
    by ``_side``: every matcher scale indexes them instead of the tracks."""

    joints: np.ndarray  # (track, frame, 24, 3 or 2) zero-filled where not finite
    weights: np.ndarray  # (track, frame, 24): 3D finite mask, 2D confidences zeroed there
    poses: np.ndarray  # (track, frame, 24, 3, 3)
    valid: np.ndarray  # (track, frame) bool


def _side(tracks, frames: int, width: int, at=slice(None)) -> _Side:
    """Stack the ``frames`` frames ``at`` of 3D (``width`` 3) or 2D (``width`` 2) tracks;
    shaped, and validity bool (an empty list stacks as float), even without tracks."""

    def stack(key, tail=()):
        return np.array([getattr(t, key)[at] for t in tracks]).reshape((len(tracks), frames) + tail)

    joints = stack("joints", (JOINTS, width))
    finite = np.isfinite(joints).all(axis=-1)
    weights = finite if width == 3 else np.where(finite, stack("confidence", (JOINTS,)), 0.0)
    return _Side(np.where(finite[..., None], joints, 0.0), weights,
                 stack("body_pose", (JOINTS, 3, 3)), stack("valid").astype(bool))


@dataclass(frozen=True)
class MatchSet:
    """Injective pairing between 3D and 2D person indices.

    ``residuals`` parallels ``pairs``; for geometry-backed matches it holds the
    pair's mean reprojection error in pixels, for similarity-only matches the
    selected matrix value. ``pairs`` plus the unmatched lists partition both
    index sets.
    """

    pairs: tuple[tuple[int, int], ...]
    residuals: tuple[float, ...]
    unmatched3d: tuple[int, ...]
    unmatched2d: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.residuals):
            raise ValueError("residuals must parallel pairs")
        used3 = [i for i, _ in self.pairs] + list(self.unmatched3d)
        used2 = [j for _, j in self.pairs] + list(self.unmatched2d)
        if sorted(used3) != list(range(len(used3))) or sorted(used2) != list(range(len(used2))):
            raise ValueError("pairs and unmatched lists must partition both index sets")

    @classmethod
    def empty(cls, n3d: int, n2d: int) -> "MatchSet":
        return cls((), (), tuple(range(n3d)), tuple(range(n2d)))


def build_match_set(pairs, residuals, n3d: int, n2d: int) -> MatchSet:
    """Sort pairs by 3D index and fill in the unmatched complements."""
    order = sorted(range(len(pairs)), key=lambda k: (pairs[k][0], pairs[k][1]))
    sorted_pairs = tuple((int(pairs[k][0]), int(pairs[k][1])) for k in order)
    sorted_res = tuple(float(residuals[k]) for k in order)
    matched3 = {i for i, _ in sorted_pairs}
    matched2 = {j for _, j in sorted_pairs}
    return MatchSet(
        sorted_pairs,
        sorted_res,
        tuple(i for i in range(n3d) if i not in matched3),
        tuple(j for j in range(n2d) if j not in matched2),
    )


@dataclass(frozen=True)
class CostMatrix:
    """Dense assignment costs with an explicit optimization orientation."""

    values: np.ndarray
    maximize: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("cost matrix must be 2-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("cost matrix entries must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PcmConfig:
    """Tuning for the sequence matcher.

    delta: translation-variance gate (m^2 summed over axes). The initial
        pose-only match is kept only if its per-frame translation variance
        stays at or below delta; with delta = 0 the keypoint path always runs
        (gate disabled).
    lambda0: weight of the body-pose reprojection term in the combined cost.
    n_iter: refinement sweeps per assignment proposal in the keypoint search.
    reject_threshold: pairs whose mean reprojection residual exceeds this many
        pixels are moved to the unmatched lists; None means 5% of the image
        diagonal.
    smoothing_window: centered median window (frames) applied to the per-frame
        extrinsics; must be odd.
    """

    delta: float = 100.0
    lambda0: float = 0.1
    n_iter: int = 2
    reject_threshold: float | None = None
    smoothing_window: int = 9

    def __post_init__(self):
        for name in ("n_iter", "smoothing_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if math.isnan(self.delta) or self.delta < 0:
            raise InvalidConfig("delta must be >= 0 (0 disables the variance gate)")
        if not 0 <= self.lambda0 < math.inf:
            raise InvalidConfig("lambda0 must be finite and >= 0")
        if self.n_iter < 1:
            raise InvalidConfig("n_iter must be >= 1")
        if self.reject_threshold is not None and not 0 < self.reject_threshold < math.inf:
            raise InvalidConfig("reject_threshold must be positive and finite")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise InvalidConfig("smoothing_window must be odd and >= 1")

    def resolved_reject_threshold(self, intrinsics: Intrinsics) -> float:
        if self.reject_threshold is not None:
            return self.reject_threshold
        return 0.05 * intrinsics.diagonal


# ---------------------------------------------------------------------------
# Body-pose similarity


def flatten_body_pose(rotations: np.ndarray) -> np.ndarray:
    """Row-major flattening of the 23 non-root joint rotations.

    The root rotation encodes global orientation, which differs between
    sensors, so it is excluded: the remaining 207-vector is coordinate-free.
    """
    rot = np.asarray(rotations, dtype=float)
    return rot[..., 1:, :, :].reshape(rot.shape[:-3] + (23 * 9,))


def pose_similarity_matrix(side3: _Side, side2: _Side, frames=slice(None)) -> np.ndarray:
    """Mean cosine similarity (n3d, n2d) of the ``_side`` stacks' flattened body
    poses over the co-valid ``frames`` of each pair; NO_OVERLAP_SIMILARITY without one."""
    shape = (len(side3.valid), len(side2.valid))
    if 0 in shape:
        return np.full(shape, NO_OVERLAP_SIMILARITY)

    def unit_poses(side):
        valid = side.valid[:, frames]
        flat = flatten_body_pose(side.poses[:, frames])
        norm = np.linalg.norm(flat, axis=-1, keepdims=True)
        return flat / np.where(valid[..., None], norm, 1.0), valid

    a, valid3 = unit_poses(side3)
    b, valid2 = unit_poses(side2)
    common = valid3[:, None, :] & valid2[None, :, :]
    cos = np.einsum("itk,jtk->ijt", a, b)
    counts = common.sum(axis=-1)
    sims = np.full(shape, NO_OVERLAP_SIMILARITY)
    np.divide(np.where(common, cos, 0.0).sum(axis=-1), counts, out=sims, where=counts > 0)
    return sims


def pose_similarity(track3d: PersonTrack3D, track2d: PersonTrack2D) -> float:
    """Mean cosine similarity of flattened body poses over co-valid frames."""
    sides = _side([track3d], track3d.frames, 3), _side([track2d], track2d.frames, 2)
    similarity = float(pose_similarity_matrix(*sides)[0, 0])
    if similarity == NO_OVERLAP_SIMILARITY:
        raise NoCommonFrames(
            f"tracks {track3d.person_id!r} and {track2d.person_id!r} share no valid frame"
        )
    return similarity


# ---------------------------------------------------------------------------
# Optimal assignment


def hungarian(cost: CostMatrix) -> MatchSet:
    """Optimal injective assignment of min(n3d, n2d) pairs.

    Among equal-cost optima (totals within a small relative tolerance) the
    assignment that is lexicographically smallest in (idx3d, idx2d) is
    returned, so outputs are reproducible. Empty inputs yield the empty
    MatchSet. The one-matrix case of ``_assign_stack``.
    """
    values = cost.values
    n, m = values.shape
    if n == 0 or m == 0:
        return MatchSet.empty(n, m)
    pairs = _assign_stack((-values if cost.maximize else values)[None])[0]
    return build_match_set(pairs, [values[i, j] for i, j in pairs], n, m)


def _assign_stack(costs: np.ndarray) -> list[tuple]:
    """The minimizing assignment of each (n, m) matrix of a (k, n, m) stack,
    as ``hungarian`` picks it: per matrix, its pairs sorted by row.

    Where at most ENUMERATED_MAPS_MAX injective maps exist, every one is
    totalled and the first in ``_assignment_table`` order whose total is
    within 0.5 * ASSIGNMENT_TIE_RTOL * max(1, max|c|) of the minimum wins;
    matrices run in slices whose gathered (matrix, map, pair) costs hold at
    most STACK_FLOATS values. Larger matrices are assigned one at a time by
    ``_lexicographic_pairs``.
    """
    k, n, m = costs.shape
    if math.perm(max(n, m), min(n, m)) > ENUMERATED_MAPS_MAX:
        return [tuple(_lexicographic_pairs(c)) for c in costs]
    rows, cols, maps = _assignment_table(n, m)
    scale = np.maximum(1.0, np.abs(costs).max(axis=(1, 2), initial=0.0))
    chosen = []
    step = max(1, STACK_FLOATS // max(1, rows.size))
    for lo in range(0, k, step):
        totals = costs[lo:lo + step, rows, cols].sum(axis=-1)  # (matrix, map)
        tol = 0.5 * ASSIGNMENT_TIE_RTOL * scale[lo:lo + step, None]
        chosen.extend((totals <= totals.min(axis=1, keepdims=True) + tol).argmax(axis=1).tolist())
    return [maps[a] for a in chosen]


@functools.cache
def _assignment_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Every injective map of min(n, m) pairs of an (n, m) matrix, in
    lexicographic order of its sorted pair sequence: row and column indices
    (map, pair), read-only since they are cached, and the maps as pair
    tuples."""
    maps = tuple(sorted(
        tuple(sorted(zip(range(n), p) if n <= m else zip(p, range(m))))
        for p in itertools.permutations(range(max(n, m)), min(n, m))
    ))
    index = np.array(maps, dtype=int).reshape(len(maps), min(n, m), 2)
    index.setflags(write=False)
    return index[..., 0], index[..., 1], maps


def _lexicographic_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimize total cost; break ties toward the lexicographically smallest
    pair sequence by deciding one row at a time.

    Each step solves the remaining subproblem with a tiny bias: a bonus for
    matching the lowest-indexed undecided row and an ascending penalty across
    its columns. The bias is far below the tie tolerance times the matrix
    scale, so it can only reorder assignments whose true totals are tied.
    """
    n, m = cost.shape
    scale = max(1.0, float(np.abs(cost).max()))
    kappa_row = 0.25 * ASSIGNMENT_TIE_RTOL * scale
    kappa_col = kappa_row / (m + 1)

    remaining_cols = list(range(m))
    pairs: list[tuple[int, int]] = []
    sub = np.asarray(cost, dtype=float).copy()
    row_offset = 0
    target = min(n, m)
    while len(pairs) < target and sub.shape[0] > 0 and sub.shape[1] > 0:
        biased = sub.copy()
        biased[0, :] -= kappa_row
        biased[0, :] += kappa_col * np.arange(1, sub.shape[1] + 1)
        rows, cols = linear_sum_assignment(biased)
        chosen = dict(zip(rows.tolist(), cols.tolist()))
        if 0 in chosen:
            j = chosen[0]
            pairs.append((row_offset, remaining_cols[j]))
            sub = np.delete(sub, j, axis=1)
            remaining_cols.pop(j)
        sub = sub[1:]
        row_offset += 1
    return pairs


# ---------------------------------------------------------------------------
# Reprojection costs


def reprojection_cost(
    track3d: PersonTrack3D,
    track2d: PersonTrack2D,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
    frame: int,
) -> float:
    """Confidence-weighted mean pixel distance between the projected 3D joints
    and the observed 2D joints at one frame.

    2D joints that are not finite carry no weight; 3D joints that are not
    finite or lie behind the camera cost the image diagonal.
    """
    if not (track3d.valid[frame] and track2d.valid[frame]):
        raise ValueError("both tracks must be valid at the frame")
    side3, side2 = _side([track3d], 1, 3, [frame]), _side([track2d], 1, 2, [frame])
    cam = extrinsics.transform(side3.joints[0, 0])
    return float(_reprojection_costs(cam, side3.weights[0, 0], side2.joints[0, 0],
                                     side2.weights[0, 0], intrinsics))


def body_pose_cost(
    pose3d,
    pose2d,
    root,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
) -> float:
    """Mean pixel distance between the projected canonical-skeleton joints of
    two body poses, both rooted at the same world point.

    Co-locating the roots isolates pose disagreement from position: the cost
    is zero iff the two poses articulate the skeleton identically as seen by
    this camera.
    """
    rotations = np.stack([rotations_of(pose3d), rotations_of(pose2d)])
    fk = fk_points(default_skeleton(), rotations, np.zeros((2, 3)))
    roots = np.asarray(root, dtype=float).reshape(1, 1, 3)
    r, t = extrinsics.rotation[None], extrinsics.translation[None]
    return float(_body_pose_costs(fk[None, :1] + roots[:, :, None], fk[None, 1:], roots, r, t,
                                  intrinsics)[0, 0, 0])


def weighted_cost(
    track3d: PersonTrack3D,
    track2d: PersonTrack2D,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
    frame: int,
    lambda0: float,
) -> float:
    """Keypoint reprojection cost plus lambda0 times the body-pose cost."""
    keypoint = reprojection_cost(track3d, track2d, extrinsics, intrinsics, frame)
    if lambda0 == 0.0:
        return keypoint
    pose = body_pose_cost(
        track3d.body_pose[frame],
        track2d.body_pose[frame],
        track3d.joints[frame, 0],
        extrinsics,
        intrinsics,
    )
    return keypoint + lambda0 * pose


# ---------------------------------------------------------------------------
# Per-frame data and vectorized cost matrices


@dataclass(frozen=True)
class FrameData:
    """Per-frame slices of every usable person, with original track indices."""

    frame: int
    n3d: int
    n2d: int
    idx3d: np.ndarray  # (p3,)
    joints3d: np.ndarray  # (p3, 24, 3) NaNs replaced by zeros
    mask3d: np.ndarray  # (p3, 24) finite-joint mask
    pose3d: np.ndarray  # (p3, 24, 3, 3)
    idx2d: np.ndarray  # (p2,)
    joints2d: np.ndarray  # (p2, 24, 2)
    conf2d: np.ndarray  # (p2, 24) zeroed where the 2D joint is unusable
    pose2d: np.ndarray  # (p2, 24, 3, 3)

    @property
    def usable(self) -> bool:
        return len(self.idx3d) > 0 and len(self.idx2d) > 0


def frame_slice(side3: _Side, side2: _Side, frame: int) -> FrameData:
    """Collect the persons of the ``_side`` stacks that can take part in this
    frame's costs.

    Persons with fewer than MIN_CORRESPONDENCES usable joints are excluded
    entirely (below the pose-estimation identifiability floor).
    """

    def persons(side):  # one side's FrameData fields, in field order
        usable = (side.weights[:, frame] > 0).sum(axis=-1) >= MIN_CORRESPONDENCES
        idx = np.flatnonzero(side.valid[:, frame] & usable)
        return idx, side.joints[idx, frame], side.weights[idx, frame], side.poses[idx, frame]

    return FrameData(frame, len(side3.valid), len(side2.valid), *persons(side3), *persons(side2))


def _reprojection_costs(cam, mask3d, joints2d, conf2d, intrinsics: Intrinsics) -> np.ndarray:
    """Confidence-weighted mean pixel distances (...) between camera-frame 3D
    joints ``cam`` (..., 24, 3) and observed 2D joints (..., 24, 2).

    The arrays broadcast over their leading axes and are zero-filled and
    masked as in FrameData. A 3D joint that is masked out or lies behind the
    camera costs the image diagonal, and so does a 2D person with zero total
    confidence.
    """
    penalty = intrinsics.diagonal
    uv, front = pinhole(intrinsics, cam)
    dist = np.where(front & mask3d, _pixel_distances(uv, joints2d), penalty)
    weighted = (conf2d * dist).sum(axis=-1)
    totals = conf2d.sum(axis=-1)
    return np.where(totals > 0, weighted / np.where(totals > 0, totals, 1.0), penalty)


def _body_pose_costs(skeletons3d, fk2_origin, roots, rotations, translations, intrinsics):
    """(pose, p3, p2) mean pixel distances, under each pose, between the 3D
    persons' posed skeletons (pose, p3, 24, 3) and the 2D persons' skeletons
    posed at the origin (pose, p2, 24, 3), each pair rooted at the 3D
    person's root (pose, p3, 3); joints behind the camera cost the image
    diagonal."""
    uv3, front3 = pinhole(intrinsics, camera_points(skeletons3d, rotations, translations))
    pts2 = fk2_origin[:, None] + roots[:, :, None, None, :]  # (pose, p3, p2, 24, 3)
    uv2, front2 = pinhole(intrinsics, camera_points(pts2, rotations, translations))
    dist = _pixel_distances(uv3[:, :, None], uv2)
    return np.where(front3[:, :, None] & front2, dist, intrinsics.diagonal).mean(axis=-1)


def _pixel_distances(uv: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Distances between broadcasting pixel arrays (..., 2); equal bit for bit
    to ``np.linalg.norm(uv - observed, axis=-1)``, without its slow reduction
    over a length-2 axis."""
    du, dv = uv[..., 0] - observed[..., 0], uv[..., 1] - observed[..., 1]
    return np.sqrt(du * du + dv * dv)


def _cost_stack(fds, at, poses, intrinsics, lambda0) -> tuple[np.ndarray, np.ndarray]:
    """(pose, p3, p2) keypoint costs (``reprojection_cost``), and the totals
    that add lambda0 times the body-pose costs (``body_pose_cost``), of frames
    that share their person counts (p3, p2), pose k (Extrinsics) costed on
    frame ``fds[at[k]]``. At lambda0 0 the totals are the keypoint array.

    Every slice equals that frame's one-pose evaluation bit for bit. Poses
    run in slices whose (pose, p3, p2, 24, 3) temporaries hold at most
    STACK_FLOATS values.
    """
    p3, p2 = len(fds[0].idx3d), len(fds[0].idx2d)
    joints3d, mask3d, joints2d, conf2d = (
        np.stack([getattr(fd, name) for fd in fds])
        for name in ("joints3d", "mask3d", "joints2d", "conf2d")
    )
    if lambda0 != 0.0:
        # Both sides' skeletons rooted at the origin, in one pass over every person.
        bodies = np.stack([np.concatenate([fd.pose3d, fd.pose2d]) for fd in fds])
        fk = fk_points(default_skeleton(), bodies, np.zeros(bodies.shape[:2] + (3,)))
        fk2, roots = fk[:, p3:], joints3d[:, :, 0]
        skeletons3d = fk[:, :p3] + roots[:, :, None, :]
    at = np.asarray(at, dtype=int)
    rotations = np.array([e.rotation for e in poses]).reshape(-1, 3, 3)
    translations = np.array([e.translation for e in poses]).reshape(-1, 3)
    keypoint = np.empty((len(poses), p3, p2))
    total = keypoint if lambda0 == 0.0 else np.empty_like(keypoint)
    step = max(1, STACK_FLOATS // (p3 * p2 * JOINTS * 3))
    for lo in range(0, len(poses), step):
        take = functools.partial(np.take, indices=at[lo:lo + step], axis=0)
        r, t = rotations[lo:lo + step], translations[lo:lo + step]
        cam = camera_points(take(joints3d), r, t)[:, :, None]  # (pose, p3, 1, 24, 3)
        run = _reprojection_costs(cam, take(mask3d)[:, :, None], take(joints2d)[:, None],
                                  take(conf2d)[:, None], intrinsics)
        keypoint[lo:lo + step] = run
        if lambda0 != 0.0:
            pose = _body_pose_costs(take(skeletons3d), take(fk2), take(roots), r, t, intrinsics)
            total[lo:lo + step] = run + lambda0 * pose
    return keypoint, total


def _pairing_scores(costs, pairings, threshold) -> tuple[np.ndarray, list[float]]:
    """Mean cost of each pairing's (local) pairs under its slice of the
    (pose, p3, p2) ``costs``, and its frame score exp(-mean / threshold); the
    pairings hold equally many pairs."""
    index = np.array(pairings, dtype=int).reshape(len(pairings), -1, 2)
    means = costs[np.arange(len(costs))[:, None], index[..., 0], index[..., 1]].mean(axis=1)
    return means, [math.exp(-mean / threshold) for mean in means.tolist()]


# ---------------------------------------------------------------------------
# Per-frame optimal matching (proposal search)


@dataclass
class FrameMatchResult:
    match: MatchSet  # in original track indices
    extrinsics: Extrinsics
    score: float  # exp(-mean matched cost / reject threshold), in (0, 1]


def _fit_pairs(fds, poses: dict, requests, intrinsics, stats: PcmStats | None = None) -> None:
    """Fit, in one batch, the pose of every requested ``(k, pairs)``, pairs
    local to frame ``fds[k]``, that ``poses`` does not hold yet.

    ``poses`` maps ``(k, sorted pairs)`` to the fitted Extrinsics, or None
    where the fit failed; each distinct key is fit once. A frame's pending
    pairings, which hold equally many pairs, are gathered together."""
    by_frame: dict = {}
    for k, pairs in requests:
        key = (k, tuple(sorted(pairs)))
        if key not in poses:
            by_frame.setdefault(k, {})[key] = None
    if not by_frame:
        return
    keys, packs = [], []
    for k, pending in by_frame.items():
        fd = fds[k]
        rows, cols = np.moveaxis(np.array([pairs for _, pairs in pending], dtype=int), -1, 0)
        packs.append(_packed(fd.joints3d[rows], fd.mask3d[rows], fd.joints2d[cols], fd.conf2d[cols]))
        keys.extend(pending)
    poses.update(zip(keys, _fit_packed(*map(np.concatenate, zip(*packs)), intrinsics, stats)))


def _usable(mask3d, conf2d) -> np.ndarray:
    """The joints a pose fit uses: a finite 3D joint whose 2D joint is confident."""
    return mask3d & (conf2d > 0)


def _packed(joints3d, mask3d, joints2d, conf2d) -> tuple[np.ndarray, ...]:
    """The usable points of (problem, pair, joint) arrays masked as in FrameData,
    in that order, and each problem's count: a pack for ``_fit_packed``."""
    usable = _usable(mask3d, conf2d)
    return joints3d[usable], joints2d[usable], usable.sum(axis=(1, 2))


def _fit_packed(points3d, points2d, counts, intrinsics, stats: PcmStats | None = None) -> list:
    """Camera poses fit, in one batch, to usable points packed as for
    ``solve_pnp_packed``. A problem whose fit fails gets None; one with fewer
    than MIN_CORRESPONDENCES points fails as InsufficientCorrespondences.
    ``stats`` counts the fits, their failures by kind and the Gauss-Newton
    iterations of the fits that succeeded."""
    outcomes = solve_pnp_packed(points3d, points2d, counts, intrinsics)
    failures = [type(o).__name__ for o in outcomes if isinstance(o, GeometryError)]
    if stats is not None:
        stats.pnp_attempted += len(outcomes)
        stats.pnp_iterations += sum(
            o.iterations for o in outcomes if not isinstance(o, GeometryError)
        )
        for kind in failures:
            stats.pnp_failed[kind] = stats.pnp_failed.get(kind, 0) + 1
    return [None if isinstance(o, GeometryError) else o.extrinsics for o in outcomes]


def optimize_frame_match(
    fd: FrameData, intrinsics: Intrinsics, config: PcmConfig
) -> FrameMatchResult:
    """Best assignment for one frame by seeded proposal search.

    The search runs in stages of one fit -> cost -> assign step. At stage -1
    every candidate pair (i, j) with enough jointly valid joints seeds a pose
    fit to that single person, whose reprojection-cost matrix is assigned into
    a proposal. Stages 0 ... ``n_iter`` - 1 are the refinement sweeps: each
    re-fits every distinct proposal's pose on all its pairs, scores it under
    the combined keypoint + body-pose matrix and assigns that matrix into its
    next pairs. The first best-scoring (proposal, sweep) wins; its pairs whose
    reprojection residual exceeds the reject threshold are moved to the
    unmatched lists.

    The one-frame case of ``_search_frames``.
    """
    outcome = _search_frames([fd], intrinsics, config)[0]
    if isinstance(outcome, NoViableProposal):
        raise outcome
    return outcome


def _search_frames(fds, intrinsics, config, seed_rows=None, stats=None) -> list:
    """The proposal search of ``optimize_frame_match`` over many frames at once.

    One loop runs stages -1 (the seeds) to ``n_iter`` - 1 (the sweeps); each
    stage fits the live pairings of every frame in one batch and costs them
    in one stack per frame shape, and every stage but the last assigns each
    stack, in one call, into the next stage's pairings.
    One pass then decides each frame's outcome, so every frame gets the result
    it gets alone. Returns per frame a FrameMatchResult or the NoViableProposal
    that ended its search; ``stats`` counts the pose fits and the frames
    skipped by reason.

    ``seed_rows[k]`` restricts which 3D persons may seed proposals in frame
    ``fds[k]`` (used by the single-seed benchmark strategy); the refinement
    always considers everyone.
    """
    threshold = config.resolved_reject_threshold(intrinsics)
    poses: dict = {}
    # Frame position -> its live (proposal, pairs): seeds are numbered in order,
    # and an assignment keeps the number of the first pairing that gave it.
    # Pairs are looked up as fitted: seeds hold one pair, assignments sort.
    live = {}
    for k, fd in enumerate(fds):
        if fd.usable:
            rows = range(len(fd.idx3d)) if seed_rows is None else seed_rows[k]
            seeds = _usable(fd.mask3d[:, None], fd.conf2d).sum(axis=-1) >= MIN_CORRESPONDENCES
            live[k] = list(enumerate(
                ((a, b),) for a in rows for b in np.flatnonzero(seeds[a]).tolist()
            ))
    # Frame position -> the sweeps' (proposal, sweep, score, pairs, pose,
    # keypoint matrix); a frame enters once a seed fit gives it a pose.
    entries: dict = {}
    for stage in range(-1, config.n_iter):
        _fit_pairs(fds, poses, [(k, p) for k in live for _, p in live[k]], intrinsics, stats)
        groups: dict = {}  # frame shape (p3, p2) -> its frames' fitted pairings
        for k, pairings in live.items():
            fitted = [(k, q, pairs, poses[k, pairs]) for q, pairs in pairings
                      if poses[k, pairs] is not None]
            if fitted:
                entries.setdefault(k, [])
                groups.setdefault((len(fds[k].idx3d), len(fds[k].idx2d)), []).extend(fitted)
        following: dict = {}
        for group in groups.values():
            ks, qs, pairings, extrs = zip(*group)
            frames, at = np.unique(ks, return_inverse=True)
            keypoint, costs = _cost_stack(  # seeds are costed by their keypoints alone
                [fds[k] for k in frames], at, extrs, intrinsics, 0.0 if stage < 0 else config.lambda0
            )
            if stage >= 0:
                scores = _pairing_scores(costs, pairings, threshold)[1]
                for k, q, pairs, extr, score, residuals in zip(ks, qs, pairings, extrs, scores,
                                                               keypoint):
                    entries[k].append((q, stage, score, pairs, extr, residuals))
            if stage + 1 < config.n_iter:
                for k, q, assigned in zip(ks, qs, _assign_stack(costs)):
                    following.setdefault(k, {}).setdefault(assigned, q)
        live = {k: [(q, pairs) for pairs, q in following[k].items()] for k in sorted(following)}

    outcomes = []
    for k, fd in enumerate(fds):
        ordered = sorted(entries.get(k, ()), key=lambda e: e[:2])
        best = max(ordered, key=lambda e: e[2], default=None)  # the first best entry
        if best is not None:
            _, _, score, pairs, extr, residuals = best
            kept = [(a, b) for a, b in pairs if residuals[a, b] <= threshold]
            match = build_match_set([(fd.idx3d[a], fd.idx2d[b]) for a, b in kept],
                                    [residuals[ab] for ab in kept], fd.n3d, fd.n2d)
            outcomes.append(FrameMatchResult(match, extr, score))
            continue
        if not fd.usable:
            reason, message = NoViableProposal.NO_USABLE_PERSON, "no usable person on one side"
        elif k not in entries:
            reason, message = NoViableProposal.SEED_FITS_FAILED, "every seed pose estimate failed"
        else:
            reason = NoViableProposal.NO_VALID_PROPOSAL
            message = "no proposal produced a valid pose"
        outcomes.append(NoViableProposal(f"frame {fd.frame}: {message}", reason))
        if stats is not None:
            stats.frames_skipped[reason] += 1
    return outcomes


# ---------------------------------------------------------------------------
# Sequence-level matching


def variance_of_translations(extrinsics) -> float:
    """Sum of per-axis sample variances (ddof=1) of the translations, m^2."""
    ts = np.array([e.translation for e in extrinsics], dtype=float)
    if ts.shape[0] <= 1:
        return 0.0
    return float(ts.var(axis=0, ddof=1).sum())


def _pair_frames(side3: _Side, side2: _Side, pairs) -> tuple[np.ndarray, ...]:
    """Every pair's rows of the ``_side`` stacks over the whole timeline:
    arrays joints3d, mask3d, joints2d, conf2d of shape (pair, frame, 24, ...),
    and the (pair, frame) mask of where both tracks are valid."""
    rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
    return (side3.joints[rows], side3.weights[rows], side2.joints[cols], side2.weights[cols],
            side3.valid[rows] & side2.valid[cols])


def _poses_for_pairs(arrays, intrinsics, stats=None) -> list:
    """Per-frame camera poses fit, in one batch, to the pairs valid at each
    frame of the ``_pair_frames`` arrays; None where no pair is valid or the
    fit fails."""
    joints3d, mask3d, joints2d, conf2d, valid = arrays
    slots = np.flatnonzero(valid.any(axis=0))
    # Frame-major (frame, pair, joint) order gives each frame's points in a
    # block, pair by pair; frames without a valid pair add no point.
    points3d, points2d, counts = _packed(*(a.swapaxes(0, 1) for a in (
        joints3d, valid[..., None] & mask3d, joints2d, conf2d)))
    poses = [None] * valid.shape[1]
    for t, pose in zip(slots, _fit_packed(points3d, points2d, counts[slots], intrinsics, stats)):
        poses[t] = pose
    return poses


def smooth_extrinsics(sequence, window: int):
    """Centered median smoothing: translations per axis, rotations by
    hemisphere-aligned quaternion component medians renormalized back to a
    unit quaternion. Gaps are filled from whatever the window can see.

    Rotations are converted to quaternions and back once per sequence; the
    windows that see equally many poses take their medians together."""
    if window <= 1:
        return list(sequence)
    half = window // 2
    out = [None] * len(sequence)
    known = [t for t, e in enumerate(sequence) if e is not None]
    if not known:
        return out
    poses = np.column_stack([  # (known, 7): quaternion, translation
        batch_quat_wxyz_from_matrices(np.array([sequence[t].rotation for t in known])),
        np.array([sequence[t].translation for t in known]),
    ])
    times = np.arange(len(sequence))
    first = np.searchsorted(known, times - half)
    seen = np.searchsorted(known, times + half, side="right") - first
    targets, medians = [], []
    for count in np.unique(seen[seen > 0]):
        targets.append(np.flatnonzero(seen == count))
        window_poses = poses[first[targets[-1], None] + np.arange(count)]
        quats = window_poses[..., :4]
        quats[(quats @ quats[:, 0, :, None])[..., 0] < 0] *= -1.0
        medians.append(np.median(window_poses, axis=1))
    medians = np.concatenate(medians)
    rotations = batch_matrices_from_quat_wxyz(medians[:, :4])
    for t, pose in zip(np.concatenate(targets), Extrinsics.from_stack(rotations, medians[:, 4:])):
        out[t] = pose
    return out


@dataclass
class PcmStats:
    """Instrumentation counters for gate / fallback behavior and pose fits.

    ``gate_variance`` is taken over the initial pairing's per-frame fits that
    converged within ``geometry.PNP_MAX_ITERATIONS``, so a cap change can move
    it: cap 100 -> 20 moved it on 6 of 16 ``twins4`` scenes, by up to 17%,
    with no path change.
    ``pnp_attempted`` counts the pose fits tried and ``pnp_failed`` their
    failures by kind; a fit with fewer than MIN_CORRESPONDENCES usable joints
    fails as InsufficientCorrespondences. ``pnp_iterations`` sums the
    Gauss-Newton iterations of the fits that returned a pose.
    ``frames_failed`` counts the keypoint-search frames without a winner and
    ``frames_skipped`` splits them by NoViableProposal reason.
    ``pairs_rejected`` counts the assigned pairs that the residual filter
    drops: their mean reprojection residual exceeds the reject threshold, or
    no frame can measure it.
    """

    gate_variance: float = math.nan
    keypoint_path: bool = False
    frames_total: int = 0
    frames_accumulated: int = 0
    frames_failed: int = 0
    frames_skipped: dict = field(
        default_factory=lambda: dict.fromkeys(NoViableProposal.REASONS, 0)
    )
    fallback_to_pose: bool = False
    pnp_attempted: int = 0
    pnp_failed: dict = field(default_factory=lambda: dict.fromkeys(PNP_FAILURE_KINDS, 0))
    pnp_iterations: int = 0
    pairs_rejected: int = 0


@dataclass
class SequenceMatchResult:
    match: MatchSet
    extrinsics: list  # per-frame Extrinsics | None, median-smoothed
    stats: PcmStats = field(default_factory=PcmStats)


def _common_timeline(tracks3d, tracks2d) -> int:
    """Shared timeline length; it may be 0 only when one side has no tracks."""
    lengths = {t.frames for t in tracks3d} | {t.frames for t in tracks2d}
    if len(lengths) > 1:
        raise ValueError(f"tracks disagree on timeline length: {sorted(lengths)}")
    t = lengths.pop() if lengths else 0
    if t < 1 and tracks3d and tracks2d:
        raise ValueError("timeline must have at least one frame")
    return t


def match_sequences(
    tracks3d,
    tracks2d,
    intrinsics: Intrinsics,
    config: PcmConfig | None = None,
) -> SequenceMatchResult:
    """Sequence-level identity matching with per-frame extrinsic recovery.

    Pose-similarity assignment plus per-frame pose estimation give the
    initial solution; if the translation variance across frames exceeds the
    gate, the per-frame keypoint search runs instead, each frame's winning
    score accumulating onto its winning pairs, and the final assignment
    maximizes the accumulated evidence. Per-frame extrinsics of the returned
    match are median-smoothed, and pairs with large mean reprojection
    residuals are excluded.
    """
    config = config if config is not None else PcmConfig()
    frames = _common_timeline(tracks3d, tracks2d)
    n3, n2 = len(tracks3d), len(tracks2d)
    stats = PcmStats(frames_total=frames)
    if n3 == 0 or n2 == 0:
        return SequenceMatchResult(MatchSet.empty(n3, n2), [None] * frames, stats)

    side3, side2 = _side(tracks3d, frames, 3), _side(tracks2d, frames, 2)
    c_init = hungarian(CostMatrix(pose_similarity_matrix(side3, side2), maximize=True))
    arrays = _pair_frames(side3, side2, c_init.pairs)
    m_init = _poses_for_pairs(arrays, intrinsics, stats)
    available = [e for e in m_init if e is not None]
    stats.gate_variance = variance_of_translations(available) if available else math.inf

    c_final, m_final = c_init, m_init  # the pose-only result, unless the keypoint search wins
    use_keypoints = config.delta == 0 or stats.gate_variance > config.delta
    stats.keypoint_path = use_keypoints
    if use_keypoints:
        logger.info(
            "translation variance %.3g exceeds gate %.3g: running keypoint search",
            stats.gate_variance,
            config.delta,
        )
        fds = [frame_slice(side3, side2, t) for t in range(frames)]
        outcomes = _search_frames(fds, intrinsics, config, stats=stats)
        accumulated = _accumulated_match(n3, n2, [_frame_winner(o) for o in outcomes], stats)
        if accumulated is None:
            logger.warning("keypoint search failed on every frame; keeping pose-only match")
            stats.fallback_to_pose = True
        else:
            c_final, arrays = accumulated, _pair_frames(side3, side2, accumulated.pairs)
            m_final = _poses_for_pairs(arrays, intrinsics, stats)

    smoothed = smooth_extrinsics(m_final, config.smoothing_window)
    threshold = config.resolved_reject_threshold(intrinsics)
    kept, residuals = [], []
    for pair, res in zip(c_final.pairs, _pair_residuals(arrays, smoothed, intrinsics)):
        if res <= threshold:
            kept.append(pair)
            residuals.append(res)
    stats.pairs_rejected = len(c_final.pairs) - len(kept)
    match = build_match_set(kept, residuals, n3, n2)
    return SequenceMatchResult(match, smoothed, stats)


def extrinsics_for_match(tracks3d, tracks2d, pairs, intrinsics, smoothing_window: int):
    """The match a fixed pairing implies, and the per-frame smoothed
    extrinsics its pairs give. A pair keeps its mean reprojection residual
    under those extrinsics; a pair without one (never measurable on a common
    frame) goes to the unmatched lists, as ``match_sequences`` drops it."""
    frames = _common_timeline(tracks3d, tracks2d)
    arrays = _pair_frames(_side(tracks3d, frames, 3), _side(tracks2d, frames, 2), pairs)
    smoothed = smooth_extrinsics(_poses_for_pairs(arrays, intrinsics), smoothing_window)
    kept = [(pair, r) for pair, r in zip(pairs, _pair_residuals(arrays, smoothed, intrinsics))
            if math.isfinite(r)]
    match = build_match_set([pair for pair, _ in kept], [r for _, r in kept],
                            len(tracks3d), len(tracks2d))
    return match, smoothed


def _pair_residuals(arrays, extrinsics_seq, intrinsics) -> list[float]:
    """Each pair's mean ``reprojection_cost`` over the frames where the pose
    and both tracks exist, or inf where there is none.

    Every pair's joints on every posed frame of the ``_pair_frames`` arrays
    are projected in one masked pass over (pair, frame, joint) arrays."""
    n_pairs = len(arrays[0])
    posed = [t for t, e in enumerate(extrinsics_seq) if e is not None]
    if not n_pairs or not posed:
        return [math.inf] * n_pairs
    rotations = np.array([extrinsics_seq[t].rotation for t in posed])  # (f, 3, 3)
    translations = np.array([extrinsics_seq[t].translation for t in posed])  # (f, 3)
    joints3d, mask3d, joints2d, conf2d, measured = (np.take(a, posed, axis=1) for a in arrays)
    cam = camera_points(joints3d.swapaxes(0, 1), rotations, translations).swapaxes(0, 1)
    costs = _reprojection_costs(cam, mask3d, joints2d, conf2d, intrinsics)  # (pair, f)
    # Each pair's measured frames are compacted before the mean: a masked row
    # sum would group the terms differently and change the last bits.
    return [float(np.mean(c[m])) if m.any() else math.inf for c, m in zip(costs, measured)]


# ---------------------------------------------------------------------------
# Benchmark strategies (restricted matchers sharing the same machinery)


def match_with_strategy(
    strategy: str,
    tracks3d,
    tracks2d,
    intrinsics: Intrinsics,
    config: PcmConfig | None = None,
    seed: int = 0,
) -> MatchSet:
    """Dispatch to one of the benchmark matching strategies.

    KPs    exhaustive search over every injective pairing, per frame, with a
           pose fit per pairing; frame winners accumulate sequence evidence.
    KP     proposals seeded from one randomly chosen 3D person per frame.
    Pose   single-frame body-pose similarity only (middle frame).
    P&K    single-frame keypoint + pose search (middle frame).
    P&T    sequence body-pose similarity only.
    P&T&K  the full sequence matcher.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    config = config if config is not None else PcmConfig()
    frames = _common_timeline(tracks3d, tracks2d)
    n3, n2 = len(tracks3d), len(tracks2d)
    if n3 == 0 or n2 == 0:
        return MatchSet.empty(n3, n2)

    if strategy == "P&T&K":
        return match_sequences(tracks3d, tracks2d, intrinsics, config).match
    side3, side2 = _side(tracks3d, frames, 3), _side(tracks2d, frames, 2)
    if strategy == "P&T":
        return hungarian(CostMatrix(pose_similarity_matrix(side3, side2), maximize=True))
    if strategy == "Pose":
        sims = pose_similarity_matrix(side3, side2, slice(frames // 2, frames // 2 + 1))
        return hungarian(CostMatrix(sims, maximize=True))
    if strategy == "P&K":
        fd = frame_slice(side3, side2, frames // 2)
        try:
            return optimize_frame_match(fd, intrinsics, config).match
        except NoViableProposal:
            return MatchSet.empty(n3, n2)
    fds = [frame_slice(side3, side2, t) for t in range(frames)]
    if strategy == "KP":
        seed_rows = []
        for fd in fds:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, fd.frame])))
            seed_rows.append([int(rng.integers(len(fd.idx3d)))] if fd.usable else [])
        outcomes = _search_frames(fds, intrinsics, config, seed_rows)
        winners = [_frame_winner(outcome) for outcome in outcomes]
    else:
        winners = [_kps_frame(fd, intrinsics, config) for fd in fds]
    match = _accumulated_match(n3, n2, winners, PcmStats())
    return match if match is not None else MatchSet.empty(n3, n2)


def _accumulated_match(n3: int, n2: int, winners, stats: PcmStats) -> MatchSet | None:
    """Assignment maximizing the evidence summed over frames.

    ``winners`` holds, per frame, the frame's winning pairs (track indices)
    and score, or None when the frame has no winner; the score accumulates
    onto each winning pair. Frames are counted in ``stats``. Returns None
    when no frame had a winner.
    """
    evidence = np.zeros((n3, n2))
    for winner in winners:
        if winner is None:
            stats.frames_failed += 1
            continue
        pairs, score = winner
        for i, j in pairs:
            evidence[i, j] += score
        stats.frames_accumulated += 1
    if stats.frames_accumulated == 0:
        return None
    return hungarian(CostMatrix(evidence, maximize=True))


def _frame_winner(outcome):
    """Winning pairs (track indices) and score of one frame's proposal
    search, or None when the frame had no viable proposal."""
    if isinstance(outcome, NoViableProposal):
        logger.debug("frame skipped: %s", outcome)
        return None
    return outcome.match.pairs, outcome.score


def _kps_frame(fd, intrinsics, config):
    """Exhaustive per-frame search: every injective full-size pairing gets its
    own pose fit and combined cost; the cheapest pairing wins the frame."""
    if not fd.usable:
        return None
    p3, p2 = len(fd.idx3d), len(fd.idx2d)
    count = math.perm(max(p3, p2), min(p3, p2))
    if count > KPS_MAX_PAIRINGS:
        raise InvalidConfig(
            f"exhaustive strategy would enumerate {count} pairings; reduce the person count"
        )
    threshold = config.resolved_reject_threshold(intrinsics)
    if p3 <= p2:
        candidates = [tuple(zip(range(p3), cols)) for cols in itertools.permutations(range(p2), p3)]
    else:
        candidates = [tuple(zip(rows, range(p2))) for rows in itertools.permutations(range(p3), p2)]
    poses: dict = {}
    _fit_pairs([fd], poses, [(0, pairs) for pairs in candidates], intrinsics)
    fitted = [(pairs, poses[0, tuple(sorted(pairs))]) for pairs in candidates]
    fitted = [(pairs, extr) for pairs, extr in fitted if extr is not None]
    if not fitted:
        return None
    extrs = [extr for _, extr in fitted]
    costs = _cost_stack([fd], [0] * len(extrs), extrs, intrinsics, config.lambda0)[1]
    means, scores = _pairing_scores(costs, [pairs for pairs, _ in fitted], threshold)
    best = int(np.argmin(means))  # the first cheapest pairing
    return tuple((int(fd.idx3d[a]), int(fd.idx2d[b])) for a, b in fitted[best][0]), scores[best]
