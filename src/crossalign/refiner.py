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

Joints behind a camera contribute that camera's squared image diagonal as a
fixed penalty (no gradient), keeping the objective finite everywhere. A 2D
joint that is not finite was not observed: it carries no weight in the data,
regularizer or penalty terms of its camera.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .geometry import Extrinsics, Intrinsics, pinhole, pinhole_jacobian
from .leastsq import damped_least_squares
from .skeleton import JOINT_COUNT

REFINE_MAX_ITERATIONS = 50

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
        if np.nanmin(conf, initial=0.0) < 0.0 or np.nanmax(conf, initial=0.0) > 1.0:
            raise ValueError("confidences must lie in [0, 1]")
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
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda3 < 0:
            raise InvalidConfig("weights must be >= 0")
        object.__setattr__(self, "initial3d", initial)
        object.__setattr__(self, "observations", tuple(self.observations))


@dataclass
class RefineResult:
    refined3d: np.ndarray
    objective_trace: list[float]
    converged: bool


def _camera_terms(obs: CameraObservation, candidate: np.ndarray):
    """Projection errors of the candidate in one camera.

    Returns (errors (24, 2), in-front mask (24,), cam-frame points (24, 3),
    observed mask (24,)). Errors of behind-camera and unobserved (non-finite)
    joints are zeroed; the behind-camera penalty is added separately because
    it carries no gradient.
    """
    cam = candidate @ obs.extrinsics.rotation.T + obs.extrinsics.translation
    uv, front = pinhole(obs.intrinsics, cam)
    seen = np.isfinite(obs.joints2d).all(axis=1)
    err = np.where(seen[:, None], uv - obs.joints2d, 0.0)
    err[~front] = 0.0
    return err, front, cam, seen


def objective(problem: RefineProblem, candidate3d: np.ndarray) -> float:
    """Total weighted squared error of a candidate joint set."""
    candidate = np.asarray(candidate3d, dtype=float).reshape(JOINT_COUNT, 3)
    total = problem.lambda1 * float(((candidate - problem.initial3d) ** 2).sum())
    for obs in problem.observations:
        err, front, _, seen = _camera_terms(obs, candidate)
        sq = (err**2).sum(axis=1)
        sq[~front & seen] = obs.intrinsics.diagonal**2
        total += problem.lambda2 * float((np.where(seen, obs.confidence, 0.0) * sq).sum())
        total += problem.lambda3 * float(sq.sum())
    return total


def _system(problem: RefineProblem, candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian (m, 72) and residual (m,) of the differentiable part of the
    objective at the (24, 3) candidate: the solver's own linearization.

    Rows are the anchor block, then per camera the confidence-weighted data
    block and the regularizer block; each camera block couples a joint's two
    pixel residuals only to that joint's three coordinates.
    """
    anchor = np.sqrt(problem.lambda1)
    rows_j = [anchor * np.eye(3 * JOINT_COUNT)]
    rows_r = [anchor * (candidate - problem.initial3d).reshape(-1)]
    joints = np.arange(JOINT_COUNT)
    for obs in problem.observations:
        err, front, cam, seen = _camera_terms(obs, candidate)
        # Chain through cam = R x + t.
        duv_dx = np.einsum(
            "jab,bc->jac", pinhole_jacobian(obs.intrinsics, cam, front), obs.extrinsics.rotation
        )
        duv_dx[~front] = 0.0
        for weight_sq in (
            problem.lambda2 * np.where(seen, obs.confidence, 0.0),
            np.where(seen, problem.lambda3, 0.0),
        ):
            scale = np.sqrt(weight_sq)
            jac = np.zeros((2 * JOINT_COUNT, 3 * JOINT_COUNT))
            jac.reshape(JOINT_COUNT, 2, JOINT_COUNT, 3)[joints, :, joints, :] = (
                scale[:, None, None] * duv_dx
            )
            rows_j.append(jac)
            rows_r.append((scale[:, None] * err).reshape(-1))
    return np.vstack(rows_j), np.concatenate(rows_r)


def objective_gradient(problem: RefineProblem, candidate3d: np.ndarray) -> np.ndarray:
    """Gradient 2·Jᵀr of the objective with respect to the (24, 3) joints,
    taken from the same ``_system`` the solver steps with."""
    candidate = np.asarray(candidate3d, dtype=float).reshape(JOINT_COUNT, 3)
    jac, res = _system(problem, candidate)
    return (2.0 * (jac.T @ res)).reshape(JOINT_COUNT, 3)


def refine(problem: RefineProblem, max_iterations: int = REFINE_MAX_ITERATIONS) -> RefineResult:
    """Minimize the objective from the initial joints; accepted steps strictly
    decrease it, so the trace is non-increasing. Returns the best iterate with
    ``converged=False`` if the iteration cap was hit while still improving."""
    fit = damped_least_squares(
        problem.initial3d.copy(),
        lambda x: _system(problem, x),
        lambda x, delta: x + delta.reshape(JOINT_COUNT, 3),
        lambda x: objective(problem, x),
        max_iterations=max_iterations,
    )
    return RefineResult(np.asarray(fit.x), fit.objective_trace, fit.converged)
