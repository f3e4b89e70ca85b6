"""Multi-camera 3D keypoint refinement by direct nonlinear least squares.

Given a person's initial 3D joints and any number of camera observations, the
refiner minimizes

    lambda1 * ||x - initial||^2                         (anchor, m^2)
  + sum_cameras lambda2 * sum_j conf_j ||proj(x_j) - obs_j||^2   (data, px^2)
  + sum_cameras lambda3 * sum_j ||proj(x_j) - obs_j||^2          (regularizer, px^2)

over the 72 free joint coordinates with damped Gauss-Newton (same step
schedule as the pose refiner). The anchor keeps the solution near the input
estimate where cameras are silent; with zero cameras refinement is the
identity. Units are mixed by design: the weights absorb the scale.

No term couples two joints, so the normal equations are block diagonal, as
in sparse bundle adjustment: JᵀJ is 24 independent 3x3 blocks, lambda1·I
plus sum_cameras w·duvᵀduv with w = lambda2·conf + lambda3 per observed
joint, and Jᵀr is (24, 3). ``refine_batch`` solves many person-frames in one
solver pass over normal equations of shape (k, 24, 3, 3); each keeps its own
damping and stopping rule, and ``refine`` is its one-problem case.

Joints behind a camera contribute that camera's squared image diagonal as a
fixed penalty (no gradient), keeping the objective finite everywhere. A 2D
joint that is not finite was not observed: it carries no weight in the data,
regularizer or penalty terms of its camera.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig
from .geometry import Extrinsics, Intrinsics, pinhole, pinhole_jacobian
# ``damped_least_squares`` stays bound here for perfbench's tracer.
from .leastsq import damped_least_squares, damped_least_squares_batch  # noqa: F401
from .skeleton import JOINT_COUNT

REFINE_MAX_ITERATIONS = 50

# Most padded camera views (person-frame x camera slot) one solver pass
# covers; bounds its working memory (a few kilobytes per view). Larger passes
# were no faster on fuse4 and raised its peak RSS by 4.5%.
REFINE_BATCH_VIEWS = 512

DEFAULT_LAMBDA1 = 1.0
DEFAULT_LAMBDA2 = 1.0
DEFAULT_LAMBDA3 = 0.01


@dataclass(frozen=True)
class CameraObservation:
    """One camera's view of the person's joints."""

    intrinsics: Intrinsics
    extrinsics: Extrinsics
    joints2d: np.ndarray  # (24, 2) pixels
    confidence: np.ndarray  # (24,) in [0, 1]

    def __post_init__(self):
        joints = np.asarray(self.joints2d, dtype=float)
        conf = np.asarray(self.confidence, dtype=float)
        if joints.shape != (JOINT_COUNT, 2) or conf.shape != (JOINT_COUNT,):
            raise ValueError("observation arrays have wrong shapes")
        if not ((conf >= 0.0) & (conf <= 1.0)).all():
            raise ValueError("confidences must be finite and lie in [0, 1]")
        object.__setattr__(self, "joints2d", joints)
        object.__setattr__(self, "confidence", conf)


@dataclass(frozen=True)
class RefineProblem:
    initial3d: np.ndarray  # (24, 3) meters
    observations: tuple[CameraObservation, ...] = ()
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    lambda3: float = DEFAULT_LAMBDA3

    def __post_init__(self):
        initial = np.asarray(self.initial3d, dtype=float)
        if initial.shape != (JOINT_COUNT, 3):
            raise ValueError(f"initial3d must be ({JOINT_COUNT}, 3)")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial3d contains non-finite values")
        if not (self.lambda1 >= 0 and self.lambda2 >= 0 and self.lambda3 >= 0):
            raise InvalidConfig("weights must be >= 0")
        object.__setattr__(self, "initial3d", initial)
        object.__setattr__(self, "observations", tuple(self.observations))


@dataclass
class RefineResult:
    refined3d: np.ndarray
    objective_trace: list[float]
    converged: bool


class _Lens(NamedTuple):
    """The pinhole parameters ``pinhole`` reads of an ``Intrinsics``, one per
    problem, shaped (k, 1) to broadcast over joints."""

    fx: np.ndarray
    fy: np.ndarray
    cx: np.ndarray
    cy: np.ndarray


class _Batch:
    """Refine problems packed into arrays, camera slots padded to the largest
    camera count with unobserved views (zero weight, no penalty).

    ``objective`` and ``system`` take candidates ``x`` (n, 24, 3) of the
    problems ``rows``; a camera's terms are summed in camera order, so the
    padding adds exact zeros last and a problem's values do not depend on the
    rest of its batch.
    """

    def __init__(self, problems):
        count, cams = len(problems), max((len(p.observations) for p in problems), default=0)
        self.initial = np.stack([p.initial3d for p in problems])
        self.lambdas = np.array([(p.lambda1, p.lambda2, p.lambda3) for p in problems]).T
        self.rotation = np.tile(np.eye(3), (count, cams, 1, 1))
        self.translation = np.zeros((count, cams, 3))
        self.lens = np.tile([1.0, 1.0, 0.0, 0.0], (count, cams, 1))  # fx, fy, cx, cy
        self.penalty = np.zeros((count, cams, 1))  # squared image diagonal
        self.joints2d = np.full((count, cams, JOINT_COUNT, 2), np.nan)
        confidence = np.zeros((count, cams, JOINT_COUNT))
        for i, problem in enumerate(problems):
            for c, obs in enumerate(problem.observations):
                k = obs.intrinsics
                self.rotation[i, c] = obs.extrinsics.rotation
                self.translation[i, c] = obs.extrinsics.translation
                self.lens[i, c] = k.fx, k.fy, k.cx, k.cy
                self.penalty[i, c] = k.diagonal**2
                self.joints2d[i, c] = obs.joints2d
                confidence[i, c] = obs.confidence
        self.seen = np.isfinite(self.joints2d).all(axis=-1)  # unobserved joints weigh nothing
        self.confidence = np.where(self.seen, confidence, 0.0)
        _, lambda2, lambda3 = self.lambdas[:, :, None, None]
        self.weight = lambda2 * self.confidence + lambda3 * self.seen  # data + regularizer

    def _lens(self, c, rows):
        return _Lens(*self.lens[rows, c].T[..., None])

    def _camera_terms(self, c, x, rows):
        """Camera slot ``c``'s view: projection errors (n, 24, 2), zeroed where
        a joint is unobserved or behind the camera; the mask of the others;
        camera-frame points (n, 24, 3); the in-front mask. The behind-camera
        penalty carries no gradient and is added by ``objective`` alone."""
        cam = x @ self.rotation[rows, c].swapaxes(-1, -2) + self.translation[rows, c, None]
        uv, front = pinhole(self._lens(c, rows), cam)
        live = self.seen[rows, c] & front
        return np.where(live[..., None], uv - self.joints2d[rows, c], 0.0), live, cam, front

    def objective(self, x, rows):
        """Objective values (n,) of the candidates."""
        lambda1, lambda2, lambda3 = self.lambdas[:, rows]
        total = lambda1 * ((x - self.initial[rows]) ** 2).reshape(len(rows), -1).sum(axis=1)
        for c in range(self.seen.shape[1]):
            err, _, _, front = self._camera_terms(c, x, rows)
            sq = np.where(self.seen[rows, c] & ~front, self.penalty[rows, c], (err**2).sum(axis=-1))
            total += lambda2 * (self.confidence[rows, c] * sq).sum(axis=1)
            total += lambda3 * sq.sum(axis=1)
        return total

    def system(self, x, rows):
        """Normal equations of the objective's differentiable part as 24
        independent per-joint blocks: JᵀJ (n, 24, 3, 3) is lambda1·I plus, per
        camera, w·duvᵀduv, and Jᵀr (n, 24, 3) is lambda1·(x - initial) plus
        w·duvᵀ·err, with w = lambda2·conf + lambda3 on observed joints."""
        lambda1 = self.lambdas[0, rows, None, None]
        hess = np.zeros(x.shape + (3,)) + lambda1[..., None] * np.eye(3)
        grad = lambda1 * (x - self.initial[rows])
        for c in range(self.seen.shape[1]):
            err, live, cam, _ = self._camera_terms(c, x, rows)
            duv_dcam = pinhole_jacobian(self._lens(c, rows), cam, live)
            duv = duv_dcam @ self.rotation[rows, c, None]  # chain through cam = R x + t
            weighted_t = np.where(live[..., None, None], self.weight[rows, c, :, None, None] * duv,
                                  0.0).swapaxes(-1, -2)
            hess += weighted_t @ duv
            grad += (weighted_t @ err[..., None])[..., 0]
        return hess, grad


def objective(problem: RefineProblem, candidate3d: np.ndarray) -> float:
    """Total weighted squared error of a candidate joint set."""
    candidate = np.asarray(candidate3d, dtype=float).reshape(1, JOINT_COUNT, 3)
    return float(_Batch([problem]).objective(candidate, np.zeros(1, dtype=int))[0])


def objective_gradient(problem: RefineProblem, candidate3d: np.ndarray) -> np.ndarray:
    """Gradient 2·Jᵀr of the objective with respect to the (24, 3) joints,
    taken from the same block system the solver steps with."""
    candidate = np.asarray(candidate3d, dtype=float).reshape(1, JOINT_COUNT, 3)
    return 2.0 * _Batch([problem]).system(candidate, np.zeros(1, dtype=int))[1][0]


def refine(problem: RefineProblem) -> RefineResult:
    """Minimize the objective from the initial joints; accepted steps strictly
    decrease it, so the trace is non-increasing. Returns the best iterate with
    ``converged=False`` if REFINE_MAX_ITERATIONS was hit while still improving."""
    return refine_batch([problem])[0]


def refine_batch(problems) -> list[RefineResult]:
    """``refine`` every problem, in one damped Gauss-Newton pass per run of
    at most REFINE_BATCH_VIEWS padded camera views; one result per problem,
    in order. A problem's result does not depend on the rest of the batch."""
    problems = list(problems)
    cams = max((len(p.observations) for p in problems), default=0)
    step = max(1, REFINE_BATCH_VIEWS // max(cams, 1))
    results = []
    for lo in range(0, len(problems), step):
        batch = _Batch(problems[lo : lo + step])
        fits = damped_least_squares_batch(
            batch.initial.copy(),
            batch.system,
            lambda x, delta, rows: x + delta,
            batch.objective,
            max_iterations=REFINE_MAX_ITERATIONS,
        )
        results += [RefineResult(fit.x, fit.objective_trace, fit.converged) for fit in fits]
    return results
