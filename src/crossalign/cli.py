"""Command-line entry point: simulate, match, refine, bench, version.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error
(malformed streams, configs, hash mismatches), 3 numerical failure. All
commands are deterministic for fixed inputs and seeds (timing fields in bench
reports excepted), and every output file embeds the configuration it was
produced with.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (
    CrossAlignError,
    GeometryError,
    HashMismatch,
    InvalidConfig,
    InvalidSpec,
    IoFailure,
    MatchingError,
    StreamFormatError,
)
from .harness import BenchSpec, export_report, run_bench
from .matching import (
    PcmConfig,
    build_match_set,
    extrinsics_for_match,
    match_sequences,
    match_with_strategy,
)
from .refiner import CameraObservation, RefineProblem, refine
from .rotations import quat_wxyz_from_matrix
from .simulator import SceneConfig, generate
from .skeleton import default_skeleton
from .streams import (
    KIND_2D,
    KIND_3D,
    load_match_output,
    match_output_payload,
    parse_stream,
    require_same_hash,
    resample_to_timeline,
    write_match_output,
    write_stream,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_DATA_ERRORS = (StreamFormatError, HashMismatch, InvalidConfig, InvalidSpec, IoFailure)
_NUMERICAL_ERRORS = (GeometryError, MatchingError)

_MATCH_CONFIG_KEYS = {
    "delta",
    "lambda0",
    "n_iter",
    "reject_threshold",
    "smoothing_window",
    "lambda1",
    "lambda2",
    "lambda3",
}


@dataclass
class RunConfig:
    """Config-file contents: matcher tuning plus refinement weights.

    Defaults are the published operating point: delta=100, lambda0=0.1,
    n_iter=2, lambda1=1, lambda2=1, lambda3=0.01.
    """

    pcm: PcmConfig
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.01


def _load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path} is not valid JSON: {exc}") from None


def load_run_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig(pcm=PcmConfig())
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")
    unknown = set(payload) - _MATCH_CONFIG_KEYS
    if unknown:
        raise InvalidConfig(f"{path}: unknown config fields {sorted(unknown)}")
    try:
        pcm = PcmConfig(
            delta=float(payload.get("delta", 100.0)),
            lambda0=float(payload.get("lambda0", 0.1)),
            n_iter=int(payload.get("n_iter", 2)),
            reject_threshold=(
                None
                if payload.get("reject_threshold") is None
                else float(payload["reject_threshold"])
            ),
            smoothing_window=int(payload.get("smoothing_window", 9)),
        )
        weights = {k: float(payload.get(k, d)) for k, d in
                   (("lambda1", 1.0), ("lambda2", 1.0), ("lambda3", 0.01))}
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{path}: non-numeric config value: {exc}") from None
    if any(v < 0 for v in weights.values()):
        raise InvalidConfig("refinement weights must be >= 0")
    return RunConfig(pcm=pcm, **weights)


def load_scene_config(path: str | Path, seed_override: int | None) -> SceneConfig:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise InvalidConfig(f"{path}: scene config must be a JSON object")
    fields = {f.name for f in SceneConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(payload) - fields
    if unknown:
        raise InvalidConfig(f"{path}: unknown scene fields {sorted(unknown)}")
    if "synchronized_pose_groups" in payload and payload["synchronized_pose_groups"] is not None:
        payload["synchronized_pose_groups"] = tuple(
            tuple(g) for g in payload["synchronized_pose_groups"]
        )
    try:
        config = SceneConfig(**payload)
    except TypeError as exc:
        raise InvalidConfig(f"{path}: {exc}") from None
    if seed_override is not None:
        config = SceneConfig(**{**payload, "seed": seed_override})
    return config


def load_bench_spec(path: str | Path) -> BenchSpec:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise InvalidSpec(f"{path}: bench spec must be a JSON object")
    fields = {f.name for f in BenchSpec.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(payload) - fields
    if unknown:
        raise InvalidSpec(f"{path}: unknown bench fields {sorted(unknown)}")
    for key, kind in typing.get_type_hints(BenchSpec).items():
        if key in payload and not _has_json_type(payload[key], kind):
            raise InvalidSpec(f"{path}: {key} must be {_type_label(kind)}, got {payload[key]!r}")
        if key in payload and typing.get_origin(kind) is tuple:
            payload[key] = tuple(payload[key])
    try:
        return BenchSpec(**payload)
    except TypeError as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


def _has_json_type(value, kind) -> bool:
    """Whether a parsed JSON value fits a field of type ``kind``: bool, int,
    float (an int is accepted), str, or tuple[X, ...] (a JSON list)."""
    if typing.get_origin(kind) is tuple:
        element = typing.get_args(kind)[0]
        return isinstance(value, list) and all(_has_json_type(v, element) for v in value)
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, (int, float) if kind is float else kind)


def _type_label(kind) -> str:
    if typing.get_origin(kind) is tuple:
        return f"a list of {typing.get_args(kind)[0].__name__}"
    return f"a JSON {kind.__name__}"


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    config = load_scene_config(args.config, args.seed)
    scene = generate(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    skeleton = scene.skeleton

    write_stream(
        out / "lidar.jsonl",
        KIND_3D,
        scene.tracks3d,
        skeleton.content_hash,
        frame_rate=config.frame_rate,
    )
    for c, tracks in enumerate(scene.tracks2d):
        write_stream(
            out / f"camera_{c:02d}.jsonl",
            KIND_2D,
            tracks,
            skeleton.content_hash,
            frame_rate=config.frame_rate,
            intrinsics=scene.intrinsics,
        )
    _write_truth(out / "truth.jsonl", scene)
    logger.info(
        "wrote 1 lidar stream, %d camera streams and truth to %s", config.camera_count, out
    )
    return EXIT_OK


def _write_truth(path: Path, scene) -> None:
    config = scene.config
    header = {
        "kind": "scene_truth",
        "stream_format_version": 1,
        "skeleton_hash": scene.skeleton.content_hash,
        "config": {
            "person_count": config.person_count,
            "duration_frames": config.duration_frames,
            "camera_count": config.camera_count,
            "pixel_noise_sigma": config.pixel_noise_sigma,
            "joint3d_noise_sigma": config.joint3d_noise_sigma,
            "dropout_rate": config.dropout_rate,
            "fov_degrees": config.fov_degrees,
            "pose_noise_degrees": config.pose_noise_degrees,
            "synchronized_pose_groups": [list(g) for g in config.synchronized_pose_groups],
            "seed": config.seed,
            "frame_rate": config.frame_rate,
        },
        "correspondence": [
            sorted([i, j] for i, j in scene.truth.correspondence[c].items())
            for c in range(config.camera_count)
        ],
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for t in range(config.duration_frames):
        record = {
            "frame": t,
            "cameras": [
                {
                    "camera": c,
                    "quat_wxyz": quat_wxyz_from_matrix(
                        scene.truth.extrinsics[c][t].rotation
                    ).tolist(),
                    "translation_m": scene.truth.extrinsics[c][t].translation.tolist(),
                }
                for c in range(config.camera_count)
            ],
            "visible": [
                sorted([i, j] for i, j in scene.truth.frame_correspondence[c][t])
                for c in range(config.camera_count)
            ],
            "joints": scene.truth.joints[:, t].tolist(),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# match


def cmd_match(args) -> int:
    run_config = load_run_config(args.config)
    lidar = parse_stream(args.lidar)
    if lidar.kind != KIND_3D:
        raise StreamFormatError(f"{args.lidar}: expected a {KIND_3D} stream, got {lidar.kind}")
    cameras = []
    for cam_path in args.camera:
        cam = parse_stream(cam_path)
        if cam.kind != KIND_2D:
            raise StreamFormatError(f"{cam_path}: expected a {KIND_2D} stream, got {cam.kind}")
        cameras.append((cam_path, cam))
    require_same_hash(lidar.skeleton_hash, *(cam.skeleton_hash for _, cam in cameras))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def recorded(path) -> str:
        # A relative stream path is stored relative to `out`, where `refine` resolves it.
        return str(path) if os.path.isabs(path) else os.path.relpath(path, out)

    def run_camera(index_and_cam):
        index, (cam_path, cam) = index_and_cam
        tracks2d = resample_to_timeline(cam, lidar.frame_indices, lidar.frame_rate)
        if not tracks2d:
            logger.warning("%s: no persons in camera stream; writing empty match", cam_path)
        if args.mode == "P&T&K":
            result = match_sequences(lidar.tracks, tracks2d, cam.intrinsics, run_config.pcm)
            match, extrinsics = result.match, result.extrinsics
            variance = result.stats.gate_variance
            stats = {
                "gate_variance": variance if math.isfinite(variance) else None,
                "keypoint_path": result.stats.keypoint_path,
                "frames_total": result.stats.frames_total,
                "frames_accumulated": result.stats.frames_accumulated,
                "frames_failed": result.stats.frames_failed,
                "fallback_to_pose": result.stats.fallback_to_pose,
                "pnp_attempted": result.stats.pnp_attempted,
                "pnp_failed": dict(result.stats.pnp_failed),
            }
        else:
            raw = match_with_strategy(
                args.mode, lidar.tracks, tracks2d, cam.intrinsics, run_config.pcm, seed=args.seed or 0
            )
            extrinsics, residuals = extrinsics_for_match(
                lidar.tracks,
                tracks2d,
                raw.pairs,
                cam.intrinsics,
                run_config.pcm.smoothing_window,
            )
            match = build_match_set(
                raw.pairs, residuals, len(lidar.tracks), len(tracks2d)
            )
            stats = {"strategy": args.mode}
        payload = match_output_payload(
            match,
            extrinsics,
            run_config.pcm,
            args.mode,
            lidar.skeleton_hash,
            recorded(args.lidar),
            recorded(cam_path),
            [t.person_id for t in lidar.tracks],
            [t.person_id for t in tracks2d],
            stats,
        )
        target = out / f"match_{index:02d}_{Path(cam_path).stem}.json"
        return target, payload

    jobs = list(enumerate(cameras))
    errors: list[Exception] = []
    outputs = []
    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            futures = [pool.submit(run_camera, job) for job in jobs]
            for future in futures:
                try:
                    outputs.append(future.result())
                except CrossAlignError as exc:
                    errors.append(exc)
                    outputs.append(None)
    else:
        for job in jobs:
            try:
                outputs.append(run_camera(job))
            except CrossAlignError as exc:
                errors.append(exc)
                outputs.append(None)

    # Writes are serialized here, in camera order, regardless of threads.
    written = 0
    for output in outputs:
        if output is None:
            continue
        target, payload = output
        write_match_output(target, payload)
        written += 1
    for exc in errors:
        logger.error("camera failed: %s", exc)
    if written == 0 and errors:
        first = errors[0]
        return EXIT_DATA if isinstance(first, _DATA_ERRORS) else EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine


def cmd_refine(args) -> int:
    run_config = load_run_config(args.config)
    lidar = parse_stream(args.lidar)
    if lidar.kind != KIND_3D:
        raise StreamFormatError(f"{args.lidar}: expected a {KIND_3D} stream, got {lidar.kind}")

    views = []  # (doc, intrinsics, resampled 2D tracks)
    for match_path in args.match:
        doc = load_match_output(match_path)
        require_same_hash(lidar.skeleton_hash, doc.skeleton_hash)
        cam_file = Path(doc.camera_stream)
        if not cam_file.is_absolute():
            cam_file = Path(match_path).parent / cam_file
        cam = parse_stream(cam_file)
        if cam.kind != KIND_2D:
            raise StreamFormatError(f"{cam_file}: expected a {KIND_2D} stream")
        require_same_hash(lidar.skeleton_hash, cam.skeleton_hash)
        tracks2d = resample_to_timeline(cam, lidar.frame_indices, lidar.frame_rate)
        views.append((doc, cam.intrinsics, tracks2d))

    frames = len(lidar.frame_indices)
    refined_tracks = []
    refined_person_frames = 0
    not_converged = 0
    for idx3, track in enumerate(lidar.tracks):
        matched = []
        for doc, intrinsics, tracks2d in views:
            for i, j in doc.pairs:
                if i == idx3 and j < len(tracks2d):
                    matched.append((doc, intrinsics, tracks2d[j]))
        new_joints = track.joints.copy()
        for t in range(frames):
            if not track.valid[t]:
                continue
            observations = []
            for doc, intrinsics, track2d in matched:
                extr = doc.extrinsics.get(t)
                if extr is None or not track2d.valid[t]:
                    continue
                observations.append(
                    CameraObservation(intrinsics, extr, track2d.joints[t], track2d.confidence[t])
                )
            if not observations:
                continue
            problem = RefineProblem(
                track.joints[t],
                tuple(observations),
                lambda1=run_config.lambda1,
                lambda2=run_config.lambda2,
                lambda3=run_config.lambda3,
            )
            result = refine(problem)
            new_joints[t] = result.refined3d
            refined_person_frames += 1
            not_converged += not result.converged
        refined_tracks.append(
            type(track)(track.person_id, new_joints, track.body_pose, track.valid)
        )

    write_stream(
        Path(args.out),
        KIND_3D,
        refined_tracks,
        lidar.skeleton_hash,
        frame_rate=lidar.frame_rate,
        frame_indices=lidar.frame_indices,
    )
    if not_converged:
        logger.warning("%d of %d person-frame refinements hit the iteration cap while still "
                       "improving", not_converged, refined_person_frames)
    logger.info("refined %d person-frames into %s", refined_person_frames, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    spec = load_bench_spec(args.spec)
    report = run_bench(spec, threads=args.threads)
    export_report(report, args.out)
    logger.info("wrote %d rows to %s", len(report.rows), args.out)
    return EXIT_OK


def cmd_version(args) -> int:
    print(f"crossalign {__version__}")
    print(f"canonical skeleton {default_skeleton().content_hash}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossalign",
        description="Calibration-free matching of 3D and 2D multi-person keypoint streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic streams plus ground truth")
    p_sim.add_argument("--config", required=True, help="scene config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_match = sub.add_parser("match", help="match a lidar stream against camera streams")
    p_match.add_argument("--lidar", required=True)
    p_match.add_argument("--camera", action="append", required=True)
    p_match.add_argument("--config", default=None, help="matcher config JSON")
    p_match.add_argument("--mode", default="P&T&K", help="matching strategy")
    p_match.add_argument("--out", required=True, help="output directory")
    p_match.add_argument("--seed", type=int, default=0)
    p_match.add_argument("--threads", type=int, default=1)
    p_match.set_defaults(func=cmd_match)

    p_refine = sub.add_parser("refine", help="refine 3D joints using matched camera streams")
    p_refine.add_argument("--lidar", required=True)
    p_refine.add_argument("--match", action="append", required=True, help="match output JSON")
    p_refine.add_argument("--config", default=None)
    p_refine.add_argument("--out", required=True, help="refined stream file")
    p_refine.set_defaults(func=cmd_refine)

    p_bench = sub.add_parser("bench", help="run an accuracy/throughput sweep")
    p_bench.add_argument("--spec", required=True, help="bench spec JSON")
    p_bench.add_argument("--out", required=True, help="report CSV path")
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_version = sub.add_parser("version", help="print version and skeleton hash")
    p_version.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except _NUMERICAL_ERRORS as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
