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

import itertools
import logging
import math
from dataclasses import dataclass, field

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
    Extrinsics,
    Intrinsics,
    ProjectionMatrix,
    project_masked,
    solve_pnp,
    solve_pnp_batch,
)
from .rotations import batch_matrices_from_quat_wxyz, batch_quat_wxyz_from_matrices
from .skeleton import CanonicalSkeleton, default_skeleton, fk_points, rotations_of

logger = logging.getLogger(__name__)

JOINTS = 24

# Similarity assigned to track pairs that are never simultaneously valid;
# sits strictly below the cosine range so such pairs lose every comparison.
NO_OVERLAP_SIMILARITY = -2.0

# Minimum jointly-valid joints for a person to take part in a frame's costs
# (the pose-estimation identifiability floor).
MIN_JOINT_OVERLAP = 6

# Pose-fit failures counted in PcmStats.pnp_failed.
PNP_FAILURE_KINDS = tuple(
    e.__name__ for e in (InsufficientCorrespondences, DegenerateConfiguration, NoConvergence)
)

# Relative tolerance under which two assignment totals count as tied.
ASSIGNMENT_TIE_RTOL = 1e-9

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

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


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
        if math.isnan(self.delta) or self.delta < 0:
            raise InvalidConfig("delta must be >= 0 (0 disables the variance gate)")
        if not self.lambda0 >= 0:
            raise InvalidConfig("lambda0 must be >= 0")
        if self.n_iter < 1:
            raise InvalidConfig("n_iter must be >= 1")
        if self.reject_threshold is not None and not self.reject_threshold > 0:
            raise InvalidConfig("reject_threshold must be positive")
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


def _pose_similarities(tracks3d, tracks2d, frames=slice(None)) -> np.ndarray:
    """Mean cosine similarity (n3d, n2d) of flattened body poses over the
    co-valid ``frames`` of each pair; NO_OVERLAP_SIMILARITY without one."""
    shape = (len(tracks3d), len(tracks2d))
    if 0 in shape:
        return np.full(shape, NO_OVERLAP_SIMILARITY)

    def unit_poses(tracks):
        valid = np.array([t.valid[frames] for t in tracks])
        flat = flatten_body_pose(np.array([t.body_pose[frames] for t in tracks]))
        norm = np.linalg.norm(flat, axis=-1, keepdims=True)
        return flat / np.where(valid[..., None], norm, 1.0), valid

    a, valid3 = unit_poses(tracks3d)
    b, valid2 = unit_poses(tracks2d)
    common = valid3[:, None, :] & valid2[None, :, :]
    cos = np.einsum("itk,jtk->ijt", a, b)
    counts = common.sum(axis=-1)
    sims = np.full(shape, NO_OVERLAP_SIMILARITY)
    np.divide(np.where(common, cos, 0.0).sum(axis=-1), counts, out=sims, where=counts > 0)
    return sims


def pose_similarity(track3d: PersonTrack3D, track2d: PersonTrack2D) -> float:
    """Mean cosine similarity of flattened body poses over co-valid frames."""
    similarity = float(_pose_similarities([track3d], [track2d])[0, 0])
    if similarity == NO_OVERLAP_SIMILARITY:
        raise NoCommonFrames(
            f"tracks {track3d.person_id!r} and {track2d.person_id!r} share no valid frame"
        )
    return similarity


def pose_similarity_matrix(tracks3d, tracks2d) -> np.ndarray:
    """(n3d, n2d) similarity scores; non-overlapping pairs get the sentinel."""
    return _pose_similarities(tracks3d, tracks2d)


# ---------------------------------------------------------------------------
# Optimal assignment


def hungarian(cost: CostMatrix) -> MatchSet:
    """Optimal injective assignment of min(n3d, n2d) pairs.

    Among equal-cost optima (totals within a small relative tolerance) the
    assignment that is lexicographically smallest in (idx3d, idx2d) is
    returned, so outputs are reproducible. Empty inputs yield the empty
    MatchSet.
    """
    values = cost.values
    n, m = values.shape
    if n == 0 or m == 0:
        return MatchSet.empty(n, m)
    canonical = -values if cost.maximize else values
    pairs = _lexicographic_pairs(canonical)
    residuals = [values[i, j] for i, j in pairs]
    return build_match_set(pairs, residuals, n, m)


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
    joints3d, mask3d = _usable3d(track3d.joints[frame][None])
    joints2d, conf2d = _usable2d(track2d.joints[frame][None], track2d.confidence[frame][None])
    costs = _reprojection_matrix(joints3d, mask3d, joints2d, conf2d, extrinsics, intrinsics)
    return float(costs[0, 0])


def body_pose_cost(
    pose3d,
    pose2d,
    root,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
    skeleton: CanonicalSkeleton | None = None,
) -> float:
    """Mean pixel distance between the projected canonical-skeleton joints of
    two body poses, both rooted at the same world point.

    Co-locating the roots isolates pose disagreement from position: the cost
    is zero iff the two poses articulate the skeleton identically as seen by
    this camera.
    """
    skeleton = skeleton if skeleton is not None else default_skeleton()
    rotations = np.stack([rotations_of(pose3d), rotations_of(pose2d)])
    fk = fk_points(skeleton, rotations, np.zeros((2, 3)))
    roots = np.asarray(root, dtype=float).reshape(1, 3)
    return float(_body_pose_matrix(roots, fk[:1], fk[1:], extrinsics, intrinsics)[0, 0])


def weighted_cost(
    track3d: PersonTrack3D,
    track2d: PersonTrack2D,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
    frame: int,
    lambda0: float,
    skeleton: CanonicalSkeleton | None = None,
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
        skeleton,
    )
    return keypoint + lambda0 * pose


# ---------------------------------------------------------------------------
# Per-frame data and vectorized cost matrices


@dataclass
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


def _usable3d(joints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3D joints (..., 24, 3) zero-filled where not finite, and the finite mask."""
    finite = np.isfinite(joints).all(axis=-1)
    return np.where(finite[..., None], joints, 0.0), finite


def _usable2d(joints: np.ndarray, confidence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2D joints (..., 24, 2) zero-filled where not finite, and the confidences
    (..., 24), zeroed there."""
    finite = np.isfinite(joints).all(axis=-1)
    return np.where(finite[..., None], joints, 0.0), np.where(finite, confidence, 0.0)


def frame_slice(tracks3d, tracks2d, frame: int) -> FrameData:
    """Collect the persons that can take part in this frame's costs.

    Persons with fewer than MIN_JOINT_OVERLAP usable joints are excluded
    entirely (below the pose-estimation identifiability floor).
    """

    def at_frame(tracks, name, shape):
        values = [getattr(t, name)[frame] for t in tracks if t.valid[frame]]
        return np.stack(values) if values else np.zeros((0,) + shape)

    joints3d, mask3d = _usable3d(at_frame(tracks3d, "joints", (JOINTS, 3)))
    joints2d, conf2d = _usable2d(
        at_frame(tracks2d, "joints", (JOINTS, 2)), at_frame(tracks2d, "confidence", (JOINTS,))
    )
    keep3 = mask3d.sum(axis=1) >= MIN_JOINT_OVERLAP
    keep2 = (conf2d > 0).sum(axis=1) >= MIN_JOINT_OVERLAP
    return FrameData(
        frame=frame,
        n3d=len(tracks3d),
        n2d=len(tracks2d),
        idx3d=np.flatnonzero([t.valid[frame] for t in tracks3d])[keep3],
        joints3d=joints3d[keep3],
        mask3d=mask3d[keep3],
        pose3d=at_frame(tracks3d, "body_pose", (JOINTS, 3, 3))[keep3],
        idx2d=np.flatnonzero([t.valid[frame] for t in tracks2d])[keep2],
        joints2d=joints2d[keep2],
        conf2d=conf2d[keep2],
        pose2d=at_frame(tracks2d, "body_pose", (JOINTS, 3, 3))[keep2],
    )


def _reprojection_matrix(
    joints3d: np.ndarray,
    mask3d: np.ndarray,
    joints2d: np.ndarray,
    conf2d: np.ndarray,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
) -> np.ndarray:
    """(p3, p2) confidence-weighted mean pixel distances under one camera pose.

    Inputs are zero-filled and masked as in FrameData. A 2D person with zero
    total confidence costs the image diagonal.
    """
    penalty = intrinsics.diagonal
    proj = ProjectionMatrix.from_camera(intrinsics, extrinsics)
    uv, front = project_masked(proj, joints3d)  # (p3, 24, 2), (p3, 24)
    ok = front & mask3d
    dist = np.linalg.norm(uv[:, None, :, :] - joints2d[None, :, :, :], axis=-1)
    dist = np.where(ok[:, None, :], dist, penalty)  # (p3, p2, 24)
    weighted = (conf2d[None, :, :] * dist).sum(axis=-1)
    totals = conf2d.sum(axis=1)
    return np.where(totals > 0, weighted / np.where(totals > 0, totals, 1.0), penalty)


def _body_pose_matrix(
    roots: np.ndarray,
    fk3_origin: np.ndarray,
    fk2_origin: np.ndarray,
    extrinsics: Extrinsics,
    intrinsics: Intrinsics,
) -> np.ndarray:
    """(p3, p2) mean pixel distances between skeleton poses posed at the
    origin, each pair rooted at the 3D person's root joint (roots (p3, 3))."""
    penalty = intrinsics.diagonal
    proj = ProjectionMatrix.from_camera(intrinsics, extrinsics)
    uv3, front3 = project_masked(proj, fk3_origin + roots[:, None, :])
    pts2 = fk2_origin[None, :, :, :] + roots[:, None, None, :]  # (p3, p2, 24, 3)
    uv2, front2 = project_masked(proj, pts2)
    ok = front3[:, None, :] & front2
    dist = np.linalg.norm(uv3[:, None, :, :] - uv2, axis=-1)
    return np.where(ok, dist, penalty).mean(axis=-1)


def _weighted_matrix(fd, extrinsics, intrinsics, lambda0, fk3_origin, fk2_origin) -> np.ndarray:
    costs = _reprojection_matrix(
        fd.joints3d, fd.mask3d, fd.joints2d, fd.conf2d, extrinsics, intrinsics
    )
    if lambda0 != 0.0:
        pose = _body_pose_matrix(fd.joints3d[:, 0], fk3_origin, fk2_origin, extrinsics, intrinsics)
        costs = costs + lambda0 * pose
    return costs


# ---------------------------------------------------------------------------
# Per-frame optimal matching (proposal search)


@dataclass
class FrameMatchResult:
    match: MatchSet  # in original track indices
    extrinsics: Extrinsics
    score: float  # exp(-mean matched cost / reject threshold), in (0, 1]


class _FramePnp:
    """Pose-estimation cache of one frame, keyed by the (local) pair set each
    pose was fit to; ``_fit_pairs`` fills it."""

    def __init__(self, fd: FrameData):
        self.fd = fd
        self.poses: dict[tuple, Extrinsics | None] = {}

    def __getitem__(self, pairs) -> Extrinsics | None:
        return self.poses[tuple(sorted(pairs))]


def _fit_pairs(requests, intrinsics: Intrinsics, stats: PcmStats | None = None) -> None:
    """Fit, in one batch, every requested ``(cache, pairs)`` pose that is not
    yet in its frame's cache."""
    pending: dict = {}
    for cache, pairs in requests:
        key = tuple(sorted(pairs))
        if key not in cache.poses:
            pending.setdefault((id(cache), key), (cache, key))

    def correspondences(cache, key):
        fd, rows, cols = cache.fd, [a for a, _ in key], [b for _, b in key]
        return fd.joints3d[rows], fd.mask3d[rows], fd.joints2d[cols], fd.conf2d[cols]

    sets = (correspondences(cache, key) for cache, key in pending.values())
    for (cache, key), pose in zip(pending.values(), _fit_poses(sets, intrinsics, stats)):
        cache.poses[key] = pose


def _fit_poses(correspondences, intrinsics: Intrinsics, stats: PcmStats | None = None) -> list:
    """Camera poses fit, in one batch, to the usable joints of each of an
    iterable of sets of k paired persons.

    Each set is ``(joints3d, mask3d, joints2d, conf2d)``, arrays (k, 24, ...),
    pair-aligned, zero-filled and masked as in FrameData; a joint is usable
    where its 3D position is finite and its 2D confidence positive. A set whose
    fit fails gets None; one with fewer than MIN_JOINT_OVERLAP usable joints
    fails as InsufficientCorrespondences. ``stats`` counts the fits and their
    failures by kind.
    """

    def usable_pairs():
        for joints3d, mask3d, joints2d, conf2d in correspondences:
            usable = mask3d & (conf2d > 0)
            yield joints3d[usable], joints2d[usable]

    outcomes = solve_pnp_batch(usable_pairs(), intrinsics)
    failures = [type(o).__name__ for o in outcomes if isinstance(o, GeometryError)]
    if stats is not None:
        stats.pnp_attempted += len(outcomes)
        for kind in failures:
            stats.pnp_failed[kind] = stats.pnp_failed.get(kind, 0) + 1
    return [None if isinstance(o, GeometryError) else o.extrinsics for o in outcomes]


def optimize_frame_match(
    fd: FrameData,
    intrinsics: Intrinsics,
    config: PcmConfig,
    skeleton: CanonicalSkeleton | None = None,
) -> FrameMatchResult:
    """Best assignment for one frame by seeded proposal search.

    Every candidate pair (i, j) with enough jointly valid joints seeds a
    camera pose fit to that single person; the full reprojection-cost matrix
    under that pose is assigned to produce a proposal. Each distinct
    proposal is then refined ``n_iter`` times (re-fit pose on all its pairs,
    re-cost with the combined keypoint + body-pose matrix, re-assign) while
    the best-scoring assignment seen anywhere is tracked. Pairs of the winner
    whose reprojection residual exceeds the reject threshold are moved to the
    unmatched lists.

    The one-frame case of ``_search_frames``.
    """
    outcome = _search_frames([fd], intrinsics, config, skeleton)[0]
    if isinstance(outcome, NoViableProposal):
        raise outcome
    return outcome


def _search_frames(fds, intrinsics, config, skeleton=None, seed_rows=None, stats=None) -> list:
    """The proposal search of ``optimize_frame_match`` over many frames at once.

    Every frame's seed fits go into one batch, then each refinement sweep's
    re-fits of all frames into one more; the winner is picked in proposal
    order, so every frame gets the result it gets alone. Returns per frame a
    FrameMatchResult or the NoViableProposal that ended its search.

    ``seed_rows`` restricts which 3D persons may seed proposals (used by the
    single-seed benchmark strategy); the refinement always considers everyone.
    """
    skeleton = skeleton if skeleton is not None else default_skeleton()
    threshold = config.resolved_reject_threshold(intrinsics)
    outcomes: list = [None] * len(fds)
    searches = []  # (position in fds, pose cache, seed pair sets)
    for k, fd in enumerate(fds):
        p3, p2 = len(fd.idx3d), len(fd.idx2d)
        if p3 == 0 or p2 == 0:
            outcomes[k] = NoViableProposal(f"frame {fd.frame}: no usable person on one side")
            continue
        rows = range(p3) if seed_rows is None else seed_rows
        seeds = [
            ((a, b),)
            for a in rows
            for b in range(p2)
            if (fd.mask3d[a] & (fd.conf2d[b] > 0)).sum() >= MIN_JOINT_OVERLAP
        ]
        searches.append((k, _FramePnp(fd), seeds))
    _fit_pairs([(pnp, seed) for _, pnp, seeds in searches for seed in seeds], intrinsics, stats)

    live = []  # (search, proposal, current pairs) of the proposals still refining
    fk = {}
    for s, (k, pnp, seeds) in enumerate(searches):
        fd = pnp.fd
        proposals: list[tuple[tuple[int, int], ...]] = []
        seen = set()
        for seed in seeds:
            extr = pnp[seed]
            if extr is None:
                continue
            costs = _reprojection_matrix(
                fd.joints3d, fd.mask3d, fd.joints2d, fd.conf2d, extr, intrinsics
            )
            proposal = hungarian(CostMatrix(costs)).pairs
            if proposal and proposal not in seen:
                seen.add(proposal)
                proposals.append(proposal)
        if not proposals:
            outcomes[k] = NoViableProposal(f"frame {fd.frame}: every seed pose estimate failed")
            continue
        fk[s] = (
            fk_points(skeleton, fd.pose3d, np.zeros((len(fd.idx3d), 3))),
            fk_points(skeleton, fd.pose2d, np.zeros((len(fd.idx2d), 3))),
        )
        live += [(s, q, proposal) for q, proposal in enumerate(proposals)]

    scored: list[list] = [[] for _ in searches]  # (proposal, sweep, score, pairs, extr)
    for sweep in range(config.n_iter):
        _fit_pairs([(searches[s][1], pairs) for s, _, pairs in live], intrinsics, stats)
        following = []
        for s, q, pairs in live:
            pnp = searches[s][1]
            extr = pnp[pairs]
            if extr is None:
                continue
            costs = _weighted_matrix(pnp.fd, extr, intrinsics, config.lambda0, *fk[s])
            matched_mean = float(np.mean([costs[a, b] for a, b in pairs]))
            scored[s].append((q, sweep, math.exp(-matched_mean / threshold), pairs, extr))
            if sweep + 1 < config.n_iter:
                following.append((s, q, hungarian(CostMatrix(costs)).pairs))
        live = following

    for s, (k, pnp, _) in enumerate(searches):
        if outcomes[k] is not None:
            continue
        fd = pnp.fd
        best_score, best_pairs, best_extr = -math.inf, None, None
        for _, _, score, pairs, extr in sorted(scored[s], key=lambda entry: entry[:2]):
            if score > best_score:
                best_score, best_pairs, best_extr = score, pairs, extr
        if best_pairs is None:
            outcomes[k] = NoViableProposal(f"frame {fd.frame}: no proposal produced a valid pose")
            continue
        residual_matrix = _reprojection_matrix(
            fd.joints3d, fd.mask3d, fd.joints2d, fd.conf2d, best_extr, intrinsics
        )
        kept, residuals = [], []
        for a, b in best_pairs:
            res = float(residual_matrix[a, b])
            if res <= threshold:
                kept.append((int(fd.idx3d[a]), int(fd.idx2d[b])))
                residuals.append(res)
        match = build_match_set(kept, residuals, fd.n3d, fd.n2d)
        outcomes[k] = FrameMatchResult(match, best_extr, best_score)
    return outcomes


# ---------------------------------------------------------------------------
# Sequence-level matching


def variance_of_translations(extrinsics) -> float:
    """Sum of per-axis sample variances (ddof=1) of the translations, m^2."""
    ts = np.array([e.translation for e in extrinsics], dtype=float)
    if ts.shape[0] <= 1:
        return 0.0
    return float(ts.var(axis=0, ddof=1).sum())


def _poses_for_pairs(tracks3d, tracks2d, pairs, intrinsics, frames, stats=None) -> list:
    """Per-frame camera poses fit, in one batch, to the pairs valid at each
    frame; None where no pair is valid or the fit fails."""
    sets, slots = [], []
    for t in range(frames):
        both = [(tracks3d[i], tracks2d[j]) for i, j in pairs]
        both = [(t3, t2) for t3, t2 in both if t3.valid[t] and t2.valid[t]]
        if not both:
            continue
        joints3d, mask3d = _usable3d(np.stack([t3.joints[t] for t3, _ in both]))
        joints2d, conf2d = _usable2d(
            np.stack([t2.joints[t] for _, t2 in both]),
            np.stack([t2.confidence[t] for _, t2 in both]),
        )
        sets.append((joints3d, mask3d, joints2d, conf2d))
        slots.append(t)
    poses = [None] * frames
    for t, pose in zip(slots, _fit_poses(sets, intrinsics, stats)):
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
    for t, rotation, translation in zip(np.concatenate(targets), rotations, medians[:, 4:]):
        out[t] = Extrinsics(rotation, translation)
    return out


@dataclass
class PcmStats:
    """Instrumentation counters for gate / fallback behavior and pose fits.

    ``pnp_attempted`` counts the pose fits tried and ``pnp_failed`` their
    failures by kind; a fit with fewer than MIN_JOINT_OVERLAP usable joints
    fails as InsufficientCorrespondences.
    """

    gate_variance: float = math.nan
    keypoint_path: bool = False
    frames_total: int = 0
    frames_accumulated: int = 0
    frames_failed: int = 0
    fallback_to_pose: bool = False
    pnp_attempted: int = 0
    pnp_failed: dict = field(default_factory=lambda: dict.fromkeys(PNP_FAILURE_KINDS, 0))


@dataclass
class SequenceMatchResult:
    match: MatchSet
    extrinsics: list  # per-frame Extrinsics | None, median-smoothed
    stats: PcmStats = field(default_factory=PcmStats)


def _common_timeline(tracks3d, tracks2d) -> int:
    lengths = {t.frames for t in tracks3d} | {t.frames for t in tracks2d}
    if len(lengths) > 1:
        raise ValueError(f"tracks disagree on timeline length: {sorted(lengths)}")
    if not lengths:
        return 0
    t = lengths.pop()
    if t < 1:
        raise ValueError("timeline must have at least one frame")
    return t


def match_sequences(
    tracks3d,
    tracks2d,
    intrinsics: Intrinsics,
    config: PcmConfig | None = None,
    skeleton: CanonicalSkeleton | None = None,
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
    skeleton = skeleton if skeleton is not None else default_skeleton()
    frames = _common_timeline(tracks3d, tracks2d)
    n3, n2 = len(tracks3d), len(tracks2d)
    stats = PcmStats(frames_total=frames)
    if n3 == 0 or n2 == 0:
        return SequenceMatchResult(MatchSet.empty(n3, n2), [None] * frames, stats)

    similarity = pose_similarity_matrix(tracks3d, tracks2d)
    c_init = hungarian(CostMatrix(similarity, maximize=True))
    m_init = _poses_for_pairs(tracks3d, tracks2d, c_init.pairs, intrinsics, frames, stats)
    available = [e for e in m_init if e is not None]
    stats.gate_variance = variance_of_translations(available) if available else math.inf

    use_keypoints = config.delta == 0 or stats.gate_variance > config.delta
    stats.keypoint_path = use_keypoints
    if use_keypoints:
        logger.info(
            "translation variance %.3g exceeds gate %.3g: running keypoint search",
            stats.gate_variance,
            config.delta,
        )
        c_final = _accumulated_match(
            tracks3d,
            tracks2d,
            frames,
            lambda fds: [
                _frame_winner(outcome)
                for outcome in _search_frames(fds, intrinsics, config, skeleton, stats=stats)
            ],
            stats,
        )
        if c_final is None:
            logger.warning("keypoint search failed on every frame; keeping pose-only match")
            stats.fallback_to_pose = True
            c_final, m_final = c_init, m_init
        else:
            m_final = _poses_for_pairs(
                tracks3d, tracks2d, c_final.pairs, intrinsics, frames, stats
            )
    else:
        c_final, m_final = c_init, m_init

    smoothed = smooth_extrinsics(m_final, config.smoothing_window)
    threshold = config.resolved_reject_threshold(intrinsics)
    kept, residuals = [], []
    for i, j in c_final.pairs:
        res = _mean_pair_residual(tracks3d[i], tracks2d[j], smoothed, intrinsics)
        if res <= threshold:
            kept.append((i, j))
            residuals.append(res)
    match = build_match_set(kept, residuals, n3, n2)
    return SequenceMatchResult(match, smoothed, stats)


def extrinsics_for_match(tracks3d, tracks2d, pairs, intrinsics, smoothing_window: int = 9):
    """Per-frame smoothed extrinsics implied by a fixed pairing, with each
    pair's mean reprojection residual under them."""
    frames = _common_timeline(tracks3d, tracks2d)
    raw = _poses_for_pairs(tracks3d, tracks2d, pairs, intrinsics, frames)
    smoothed = smooth_extrinsics(raw, smoothing_window)
    residuals = [
        _mean_pair_residual(tracks3d[i], tracks2d[j], smoothed, intrinsics) for i, j in pairs
    ]
    return smoothed, residuals


def _mean_pair_residual(track3d, track2d, extrinsics_seq, intrinsics) -> float:
    values = []
    for t, extr in enumerate(extrinsics_seq):
        if extr is None or not (track3d.valid[t] and track2d.valid[t]):
            continue
        values.append(reprojection_cost(track3d, track2d, extr, intrinsics, t))
    return float(np.mean(values)) if values else math.inf


# ---------------------------------------------------------------------------
# Benchmark strategies (restricted matchers sharing the same machinery)


def match_with_strategy(
    strategy: str,
    tracks3d,
    tracks2d,
    intrinsics: Intrinsics,
    config: PcmConfig | None = None,
    skeleton: CanonicalSkeleton | None = None,
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
    skeleton = skeleton if skeleton is not None else default_skeleton()
    frames = _common_timeline(tracks3d, tracks2d)
    n3, n2 = len(tracks3d), len(tracks2d)
    if n3 == 0 or n2 == 0:
        return MatchSet.empty(n3, n2)

    if strategy == "P&T&K":
        return match_sequences(tracks3d, tracks2d, intrinsics, config, skeleton).match
    if strategy == "P&T":
        return hungarian(CostMatrix(pose_similarity_matrix(tracks3d, tracks2d), maximize=True))
    if strategy == "Pose":
        sims = _pose_similarities(tracks3d, tracks2d, slice(frames // 2, frames // 2 + 1))
        return hungarian(CostMatrix(sims, maximize=True))
    if strategy == "P&K":
        fd = frame_slice(tracks3d, tracks2d, frames // 2)
        try:
            return optimize_frame_match(fd, intrinsics, config, skeleton).match
        except NoViableProposal:
            return MatchSet.empty(n3, n2)
    frame_fn = (
        (lambda fd: _kp_frame(fd, intrinsics, config, skeleton, seed))
        if strategy == "KP"
        else (lambda fd: _kps_frame(fd, intrinsics, config, skeleton))
    )
    match = _accumulated_match(
        tracks3d, tracks2d, frames, lambda fds: [frame_fn(fd) for fd in fds], PcmStats()
    )
    return match if match is not None else MatchSet.empty(n3, n2)


def _accumulated_match(tracks3d, tracks2d, frames, frames_fn, stats: PcmStats) -> MatchSet | None:
    """Assignment maximizing the evidence summed over frames.

    ``frames_fn(fds)`` returns, per frame of ``fds``, the frame's winning pairs
    (track indices) and score, or None when the frame has no winner; the
    score accumulates onto each winning pair. Frames are counted in
    ``stats``. Returns None when no frame had a winner.
    """
    evidence = np.zeros((len(tracks3d), len(tracks2d)))
    fds = [frame_slice(tracks3d, tracks2d, t) for t in range(frames)]
    for result in frames_fn(fds):
        if result is None:
            stats.frames_failed += 1
            continue
        pairs, score = result
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


def _kp_frame(fd, intrinsics, config, skeleton, seed):
    if not fd.usable:
        return None
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, fd.frame])))
    row = int(rng.integers(len(fd.idx3d)))
    return _frame_winner(_search_frames([fd], intrinsics, config, skeleton, [row])[0])


def _kps_frame(fd, intrinsics, config, skeleton):
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
    pnp = _FramePnp(fd)
    fk3 = fk_points(skeleton, fd.pose3d, np.zeros((p3, 3)))
    fk2 = fk_points(skeleton, fd.pose2d, np.zeros((p2, 3)))
    threshold = config.resolved_reject_threshold(intrinsics)

    if p3 <= p2:
        candidates = [tuple(zip(range(p3), cols)) for cols in itertools.permutations(range(p2), p3)]
    else:
        candidates = [tuple(zip(rows, range(p2))) for rows in itertools.permutations(range(p3), p2)]
    _fit_pairs([(pnp, pairs) for pairs in candidates], intrinsics)
    best_cost, best_pairs = math.inf, None
    for pairs in candidates:
        extr = pnp[pairs]
        if extr is None:
            continue
        costs = _weighted_matrix(fd, extr, intrinsics, config.lambda0, fk3, fk2)
        mean_cost = float(np.mean([costs[a, b] for a, b in pairs]))
        if mean_cost < best_cost:
            best_cost, best_pairs = mean_cost, pairs
    if best_pairs is None:
        return None
    original = [(int(fd.idx3d[a]), int(fd.idx2d[b])) for a, b in best_pairs]
    return tuple(original), math.exp(-best_cost / threshold)
