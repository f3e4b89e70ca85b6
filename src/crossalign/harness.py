"""Benchmark runner: strategy-by-scene accuracy/throughput sweeps plus
refinement improvement statistics, exported as a versioned CSV report.

Accuracy numbers are deterministic for fixed seeds; wall-clock and FPS
figures time the same pass that measures accuracy (every scene of a cell,
matched once) and carry no determinism guarantee.
Failures inside a sweep cell are recorded, never raised, so a large grid
always completes.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .errors import CrossAlignError, InvalidSpec, IoFailure
from .matching import STRATEGIES, PcmConfig, match_with_strategy
from .refiner import CameraObservation, RefineProblem, refine_batch
from .simulator import SceneConfig, accuracy, generate

logger = logging.getLogger(__name__)

REPORT_VERSION = 1

@dataclass(frozen=True)
class BenchSpec:
    """Sweep definition: the scene grid is the cross product of person
    counts, pixel-noise levels and synchronization flags; every cell runs
    every mode on every (seed, repetition) scene."""

    modes: tuple[str, ...]
    person_counts: tuple[int, ...]
    pixel_noise_sigmas: tuple[float, ...] = (0.0,)
    synchronized: tuple[bool, ...] = (False,)
    seeds: tuple[int, ...] = (0,)
    repetitions: int = 1
    duration_frames: int = 32
    dropout_rate: float = SceneConfig.dropout_rate
    pose_noise_degrees: float = SceneConfig.pose_noise_degrees
    fov_degrees: float = SceneConfig.fov_degrees
    delta: float = PcmConfig.delta
    lambda0: float = PcmConfig.lambda0
    n_iter: int = PcmConfig.n_iter
    refine_trials: int = 0
    refine_noise_m: float = 0.05
    refine_cameras: int = 2

    def __post_init__(self):
        for name in ("modes", "person_counts", "pixel_noise_sigmas", "synchronized", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.modes:
            raise InvalidSpec("modes must be non-empty")
        for mode in self.modes:
            if mode not in STRATEGIES:
                raise InvalidSpec(f"unknown mode {mode!r}; expected one of {STRATEGIES}")
        if not self.person_counts or not self.pixel_noise_sigmas or not self.synchronized:
            raise InvalidSpec("scene grid must be non-empty")
        if not self.seeds:
            raise InvalidSpec("seeds must be non-empty")
        if self.repetitions < 1:
            raise InvalidSpec("repetitions must be >= 1")
        if any(self.synchronized) and min(self.person_counts) < 2:
            raise InvalidSpec("synchronized scenes need at least 2 persons")
        if self.refine_trials < 0 or self.refine_cameras < 1 or not self.refine_noise_m >= 0:
            raise InvalidSpec("refinement settings out of range")

    def match_config(self) -> PcmConfig:
        return PcmConfig(delta=self.delta, lambda0=self.lambda0, n_iter=self.n_iter)

    def scene_config(self, person_count, noise, synchronized, seed, rep) -> SceneConfig:
        groups = ((0, 1),) if synchronized else ()
        return SceneConfig(
            person_count=person_count,
            duration_frames=self.duration_frames,
            pixel_noise_sigma=noise,
            dropout_rate=self.dropout_rate,
            pose_noise_degrees=self.pose_noise_degrees,
            fov_degrees=self.fov_degrees,
            synchronized_pose_groups=groups,
            seed=seed * 1000 + rep,
        )


@dataclass
class BenchRow:
    mode: str
    person_count: int
    pixel_noise_sigma: float
    synchronized: bool
    scenes: int
    failures: int
    accuracy_mean: float
    accuracy_std: float
    fps: float
    wall_seconds: float


CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


@dataclass
class RefinementStats:
    trials: int
    input_error_m: float
    refined_error_m: float
    improvement_ratio: float
    nonconverged: int = 0  # refinements that hit the iteration cap while still improving


@dataclass
class MetricsReport:
    rows: list[BenchRow]
    refinement: RefinementStats | None
    failures: list[str] = field(default_factory=list)


def run_bench(spec: BenchSpec) -> MetricsReport:
    """Execute the sweep in grid order. Each scene is matched once per mode;
    a cell's wall time spans all its scenes, and its FPS counts the frames of
    the scenes that matched without error."""
    config = spec.match_config()
    cells = [
        (pc, noise, sync)
        for pc in spec.person_counts
        for noise in spec.pixel_noise_sigmas
        for sync in spec.synchronized
    ]
    rows: list[BenchRow] = []
    failures: list[str] = []
    for mode in spec.modes:
        for pc, noise, sync in cells:
            scenes = [
                generate(spec.scene_config(pc, noise, sync, seed, rep))
                for seed in spec.seeds
                for rep in range(spec.repetitions)
            ]
            accuracies = []
            timed_frames = 0
            start = time.perf_counter()
            for scene in scenes:
                try:
                    match = match_with_strategy(
                        mode, scene.tracks3d, scene.tracks2d[0], scene.intrinsics, config
                    )
                except CrossAlignError as exc:
                    failures.append(f"{mode}/pc{pc}/noise{noise}/sync{sync}: {exc}")
                    continue
                accuracies.append(accuracy(match, scene.truth, 0))
                timed_frames += scene.config.duration_frames
            wall = time.perf_counter() - start
            fps = timed_frames / wall if wall > 0 and timed_frames else 0.0

            rows.append(
                BenchRow(
                    mode=mode,
                    person_count=pc,
                    pixel_noise_sigma=noise,
                    synchronized=sync,
                    scenes=len(scenes),
                    failures=len(scenes) - len(accuracies),
                    accuracy_mean=float(np.mean(accuracies)) if accuracies else math.nan,
                    accuracy_std=float(np.std(accuracies)) if accuracies else math.nan,
                    fps=fps,
                    wall_seconds=wall,
                )
            )
    refinement = _refinement_stats(spec) if spec.refine_trials > 0 else None
    return MetricsReport(rows=rows, refinement=refinement, failures=failures)


def _refinement_stats(spec: BenchSpec) -> RefinementStats:
    """Error-reduction statistics: perturbed true joints refined against
    clean projections through the true extrinsics."""
    problems, truths = [], []
    rng = np.random.default_rng(spec.seeds[0])
    for trial in range(spec.refine_trials):
        scene = generate(
            SceneConfig(
                person_count=1,
                duration_frames=1,
                camera_count=spec.refine_cameras,
                seed=spec.seeds[0] * 7919 + trial,
            )
        )
        truth = scene.truth.joints[0, 0]
        noisy = truth + rng.normal(0.0, spec.refine_noise_m, size=truth.shape)
        observations = []
        for cam in range(spec.refine_cameras):
            if not scene.truth.visible[cam, 0, 0]:
                continue
            track = scene.tracks2d[cam][scene.truth.correspondence[cam][0]]
            observations.append(
                CameraObservation(
                    scene.intrinsics,
                    scene.truth.extrinsics[cam][0],
                    track.joints[0],
                    track.confidence[0],
                )
            )
        problems.append(RefineProblem(noisy, tuple(observations)))
        truths.append(truth)
    results = refine_batch(problems)
    input_errors, refined_errors = [], []
    for problem, result, truth in zip(problems, results, truths):
        input_errors.append(float(np.linalg.norm(problem.initial3d - truth, axis=1).mean()))
        refined_errors.append(float(np.linalg.norm(result.refined3d - truth, axis=1).mean()))
    input_mean = statistics.mean(input_errors)
    refined_mean = statistics.mean(refined_errors)
    return RefinementStats(
        trials=spec.refine_trials,
        input_error_m=input_mean,
        refined_error_m=refined_mean,
        improvement_ratio=refined_mean / input_mean if input_mean > 0 else math.nan,
        nonconverged=sum(not result.converged for result in results),
    )


def _fmt(value) -> str:
    """Locale-independent cell formatting; floats keep 17 significant digits
    so parsing the report reproduces them bit-exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def export_report(report: MetricsReport, path) -> None:
    """Write the report: commented summary lines, then one CSV row per
    (mode, scene configuration)."""
    summary = {
        "report_version": REPORT_VERSION,
        "rows": len(report.rows),
        "failures": report.failures,
        "refinement": asdict(report.refinement) if report.refinement else None,
    }
    buffer = io.StringIO()
    buffer.write(f"# crossalign-bench-report v{REPORT_VERSION}\n")
    buffer.write(f"# summary {json.dumps(summary, sort_keys=True)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([_fmt(getattr(row, name)) for name in CSV_COLUMNS])
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from None


def load_report(path) -> tuple[list[BenchRow], dict]:
    """Parse a report back; the inverse of export_report for the data rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read report from {path}: {exc}") from None
    summary: dict = {}
    data_lines = []
    for line in lines:
        if line.startswith("# summary "):
            summary = json.loads(line[len("# summary "):])
        elif not line.startswith("#") and line:
            data_lines.append(line)
    types = get_type_hints(BenchRow)
    rows = [
        BenchRow(**{
            name: entry[name] == "true" if types[name] is bool else types[name](entry[name])
            for name in CSV_COLUMNS
        })
        for entry in csv.DictReader(data_lines)
    ]
    return rows, summary
