"""Exception hierarchy shared by all crossalign modules."""


class CrossAlignError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(CrossAlignError):
    """Base class for camera-geometry failures."""


class NonPositiveDepth(GeometryError):
    """A world point sits at or behind the camera plane.

    Signals a correspondence that must be excluded from cost computation
    (cost builders substitute a fixed pixel penalty instead of raising).
    """


class InsufficientCorrespondences(GeometryError):
    """Fewer valid 2D-3D pairs than the pose estimator can use."""


class DegenerateConfiguration(GeometryError):
    """Rank-deficient normal equations (collinear / under-constrained points)."""


class NoConvergence(GeometryError):
    """Iterative refinement exceeded its iteration cap while still improving."""


class MatchingError(CrossAlignError):
    """Base class for track-association failures."""


class NoCommonFrames(MatchingError):
    """Two tracks are never simultaneously valid; the pair cannot be scored."""


class NoViableProposal(MatchingError):
    """A frame's proposal search found no winner; ``reason`` says where it
    stopped: one side has no usable person, every seed pose estimate failed,
    or no proposal produced a valid pose."""

    NO_USABLE_PERSON = "no_usable_person"
    SEED_FITS_FAILED = "seed_fits_failed"
    NO_VALID_PROPOSAL = "no_valid_proposal"
    REASONS = (NO_USABLE_PERSON, SEED_FITS_FAILED, NO_VALID_PROPOSAL)

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class InvalidConfig(CrossAlignError):
    """A configuration value violates its documented range."""


class InvalidSpec(CrossAlignError):
    """A benchmark specification is empty or out of range."""


class StreamFormatError(CrossAlignError):
    """Base class for stream-file parsing failures; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MalformedHeader(StreamFormatError):
    """The stream header line is missing or structurally invalid."""


class FrameOrderViolation(StreamFormatError):
    """Frame indices in a stream file are not strictly increasing."""


class JointArityMismatch(StreamFormatError):
    """A person record does not carry exactly the canonical joint count."""


class HashMismatch(CrossAlignError):
    """Inputs reference different canonical-skeleton versions."""


class IoFailure(CrossAlignError):
    """A report or stream file could not be written or read."""
