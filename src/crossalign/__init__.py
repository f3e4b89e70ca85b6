"""crossalign: calibration-free alignment of 3D and 2D multi-person keypoint streams."""

__version__ = "0.1.0"

from .errors import CrossAlignError
from .geometry import (
    Extrinsics,
    Intrinsics,
    PnpResult,
    geodesic_rotation_error,
    project,
    solve_pnp,
)
from .harness import BenchSpec, MetricsReport, export_report, run_bench
from .matching import (
    CostMatrix,
    MatchSet,
    PcmConfig,
    PersonTrack2D,
    PersonTrack3D,
    SequenceMatchResult,
    body_pose_cost,
    hungarian,
    match_sequences,
    match_with_strategy,
    optimize_frame_match,
    pose_similarity,
    reprojection_cost,
    variance_of_translations,
    weighted_cost,
)
from .refiner import CameraObservation, RefineProblem, RefineResult, refine, refine_batch
from .simulator import Scene, SceneConfig, SceneTruth, accuracy, generate
from .skeleton import (
    BodyPose,
    CanonicalSkeleton,
    default_skeleton,
    forward_kinematics,
)

__all__ = [
    "CrossAlignError",
    "Intrinsics",
    "Extrinsics",
    "PnpResult",
    "project",
    "solve_pnp",
    "geodesic_rotation_error",
    "BodyPose",
    "CanonicalSkeleton",
    "default_skeleton",
    "forward_kinematics",
    "PersonTrack3D",
    "PersonTrack2D",
    "MatchSet",
    "CostMatrix",
    "PcmConfig",
    "SequenceMatchResult",
    "pose_similarity",
    "hungarian",
    "reprojection_cost",
    "body_pose_cost",
    "weighted_cost",
    "optimize_frame_match",
    "match_sequences",
    "match_with_strategy",
    "variance_of_translations",
    "CameraObservation",
    "RefineProblem",
    "RefineResult",
    "refine",
    "refine_batch",
    "Scene",
    "SceneConfig",
    "SceneTruth",
    "generate",
    "accuracy",
    "BenchSpec",
    "MetricsReport",
    "run_bench",
    "export_report",
    "__version__",
]
