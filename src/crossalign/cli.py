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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

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
    STRATEGIES,
    PcmConfig,
    build_match_set,
    extrinsics_for_match,
    match_sequences,
    match_with_strategy,
)
from .refiner import (
    DEFAULT_LAMBDA1,
    DEFAULT_LAMBDA2,
    DEFAULT_LAMBDA3,
    CameraObservation,
    RefineProblem,
    refine,  # noqa: F401  (bound for perfbench's tracer)
    refine_batch,
)
from .rotations import batch_quat_wxyz_from_matrices
from .simulator import SceneConfig, generate
from .skeleton import default_skeleton
from .streams import (
    KIND_2D,
    KIND_3D,
    load_match_output,
    match_output_payload,
    parse_stream,
    read_json_object,
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


@dataclass
class RunConfig:
    """Config-file contents: matcher tuning plus refinement weights. The
    defaults are the published operating point."""

    pcm: PcmConfig = field(default_factory=PcmConfig)
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    lambda3: float = DEFAULT_LAMBDA3

    def __post_init__(self):
        if not (self.lambda1 >= 0 and self.lambda2 >= 0 and self.lambda3 >= 0):
            raise InvalidConfig("refinement weights must be >= 0")


def _from_json(cls, payload: dict, path, error: type[CrossAlignError], **given):
    """A ``cls`` built from a parsed JSON object, typed by ``cls``'s field
    annotations (see ``_json_value``); ``given`` sets the fields that do not
    come from the object. An unknown field, a mistyped value or a value the
    constructor refuses raises ``error``."""
    hints = {k: v for k, v in typing.get_type_hints(cls).items() if k not in given}
    unknown = set(payload) - set(hints)
    if unknown:
        raise error(f"{path}: unknown fields {sorted(unknown)}")
    values = {}
    for key, value in payload.items():
        try:
            values[key] = _json_value(value, hints[key])
        except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise error(f"{path}: {key}: {exc}") from None
    try:
        return cls(**values, **given)
    except (TypeError, ValueError, InvalidConfig, InvalidSpec) as exc:
        raise error(f"{path}: {exc}") from None


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _json_value(value, kind):
    """``value`` as a field of type ``kind``: bool, int, float (an int is stored
    as a float), str, tuple[X, ...] (a JSON list) or Optional (null). Numbers
    must be finite; anything else raises ValueError."""
    args = typing.get_args(kind)
    if type(None) in args:
        if value is None:
            return None
        (kind,) = set(args) - {type(None)}
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(_json_value(v, typing.get_args(kind)[0]) for v in value)
    numeric = (int, float) if kind is float else kind
    fits = isinstance(value, bool) == (kind is bool) and isinstance(value, numeric)
    if not fits or (kind is float and not math.isfinite(value)):
        raise ValueError(f"expected {_JSON_TYPES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def load_run_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    payload = read_json_object(path, InvalidConfig)
    pcm = {f.name: payload.pop(f.name) for f in fields(PcmConfig) if f.name in payload}
    pcm_config = _from_json(PcmConfig, pcm, path, InvalidConfig)
    return _from_json(RunConfig, payload, path, InvalidConfig, pcm=pcm_config)


def load_scene_config(path: str | Path, seed_override: int | None) -> SceneConfig:
    config = _from_json(SceneConfig, read_json_object(path, InvalidConfig), path, InvalidConfig)
    return config if seed_override is None else replace(config, seed=seed_override)


def load_bench_spec(path: str | Path) -> BenchSpec:
    return _from_json(BenchSpec, read_json_object(path, InvalidSpec), path, InvalidSpec)


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
        "config": asdict(config),
        "correspondence": [
            sorted([i, j] for i, j in scene.truth.correspondence[c].items())
            for c in range(config.camera_count)
        ],
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    quats = batch_quat_wxyz_from_matrices(np.array(
        [[extr.rotation for extr in camera] for camera in scene.truth.extrinsics]
    )).tolist()  # [camera][frame]
    for t in range(config.duration_frames):
        record = {
            "frame": t,
            "cameras": [
                {
                    "camera": c,
                    "quat_wxyz": quats[c][t],
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


def _read_stream(path, kind: str):
    """The stream parsed from ``path``; one of another kind is a StreamFormatError."""
    stream = parse_stream(path)
    if stream.kind != kind:
        raise StreamFormatError(f"{path}: expected a {kind} stream, got {stream.kind}")
    return stream


def cmd_match(args) -> int:
    run_config = load_run_config(args.config)
    lidar = _read_stream(args.lidar, KIND_3D)
    cameras = [(cam_path, _read_stream(cam_path, KIND_2D)) for cam_path in args.camera]
    # The matcher articulates the packaged skeleton, so the streams must reference it.
    require_same_hash(
        default_skeleton().content_hash,
        lidar.skeleton_hash,
        *(cam.skeleton_hash for _, cam in cameras),
    )

    if not lidar.tracks:
        logger.warning("%s: no persons in LiDAR stream; writing empty matches", args.lidar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def recorded(path) -> str:
        # A relative stream path is stored relative to `out`, where `refine` resolves it.
        return str(path) if os.path.isabs(path) else os.path.relpath(path, out)

    def match_payload(cam_path, cam) -> dict:
        tracks2d = resample_to_timeline(cam, lidar.frame_indices, lidar.frame_rate)
        if not tracks2d:
            logger.warning("%s: no persons in camera stream; writing empty match", cam_path)
        if args.mode == "P&T&K":
            result = match_sequences(lidar.tracks, tracks2d, cam.intrinsics, run_config.pcm)
            match, extrinsics = result.match, result.extrinsics
            stats = asdict(result.stats)
            if not math.isfinite(stats["gate_variance"]):
                stats["gate_variance"] = None
        else:
            raw = match_with_strategy(
                args.mode, lidar.tracks, tracks2d, cam.intrinsics, run_config.pcm, seed=args.seed
            )
            extrinsics, residuals = extrinsics_for_match(
                lidar.tracks,
                tracks2d,
                raw.pairs,
                cam.intrinsics,
                run_config.pcm.smoothing_window,
            )
            # A pair never measurable on a common frame has no finite residual: unmatched.
            kept = [(pair, r) for pair, r in zip(raw.pairs, residuals) if math.isfinite(r)]
            match = build_match_set(
                [pair for pair, _ in kept], [r for _, r in kept], len(lidar.tracks), len(tracks2d)
            )
            stats = {"strategy": args.mode}
        return match_output_payload(
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

    written = 0
    first_error = None
    for index, (cam_path, cam) in enumerate(cameras):
        try:
            payload = match_payload(cam_path, cam)
        except CrossAlignError as exc:
            logger.error("camera failed: %s", exc)
            first_error = first_error or exc
            continue
        write_match_output(out / f"match_{index:02d}_{Path(cam_path).stem}.json", payload)
        written += 1
    if written == 0 and first_error is not None:
        return EXIT_DATA if isinstance(first_error, _DATA_ERRORS) else EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# refine


def cmd_refine(args) -> int:
    run_config = load_run_config(args.config)
    lidar = _read_stream(args.lidar, KIND_3D)
    # Refinement starts from, and writes back, every valid 3D joint: all must be finite.
    for track in lidar.tracks:
        bad = track.valid & ~np.isfinite(track.joints).all(axis=(1, 2))
        if bad.any():
            frame = lidar.frame_indices[int(np.argmax(bad))]
            raise StreamFormatError(
                f"{args.lidar}: person {track.person_id!r} has a non-finite 3D joint in "
                f"frame {frame}; refine needs finite joints"
            )

    frames = len(lidar.frame_indices)
    # Per LiDAR person, its matched (doc, intrinsics, resampled 2D track), in document order.
    matched = [[] for _ in lidar.tracks]
    documents_of = {}  # resolved camera stream -> the match document naming it
    for match_path in args.match:
        doc = load_match_output(match_path)
        require_same_hash(lidar.skeleton_hash, doc.skeleton_hash)
        # The document's stream paths are relative to the document's directory.
        lidar_file = Path(match_path).parent / doc.lidar_stream
        cam_file = Path(match_path).parent / doc.camera_stream
        try:
            same_lidar = os.path.samefile(lidar_file, args.lidar)
        except OSError:
            same_lidar = False
        if not same_lidar:
            raise StreamFormatError(
                f"{match_path} was matched against LiDAR stream {lidar_file}, not {args.lidar}"
            )
        # A camera counted twice would weigh twice in every refinement.
        resolved = cam_file.resolve()
        if resolved in documents_of:
            raise StreamFormatError(
                f"{match_path} and {documents_of[resolved]} both match camera stream {cam_file}"
            )
        documents_of[resolved] = match_path
        cam = _read_stream(cam_file, KIND_2D)
        require_same_hash(lidar.skeleton_hash, cam.skeleton_hash)
        tracks2d = resample_to_timeline(cam, lidar.frame_indices, lidar.frame_rate)
        for (i, j), ids in zip(doc.pairs, doc.ids):
            if i >= len(lidar.tracks) or j >= len(tracks2d):
                raise StreamFormatError(
                    f"{match_path}: pair ({i}, {j}) is out of range for {len(lidar.tracks)} "
                    f"LiDAR and {len(tracks2d)} camera tracks"
                )
            held = (lidar.tracks[i].person_id, tracks2d[j].person_id)
            if ids != held:
                raise StreamFormatError(
                    f"{match_path}: pair ({i}, {j}) names persons {ids[0]!r} and {ids[1]!r}, "
                    f"but the streams hold {held[0]!r} and {held[1]!r} there"
                )
            matched[i].append((doc, cam.intrinsics, tracks2d[j]))
        beyond = [t for t in doc.extrinsics if t >= frames]
        if beyond:
            raise StreamFormatError(
                f"{match_path}: extrinsics frame {min(beyond)} is beyond the {frames}-frame "
                "LiDAR timeline"
            )

    problems, slots = [], []  # every person-frame with a camera view, and its (track, frame)
    for idx3, track in enumerate(lidar.tracks):
        for t in range(frames):
            if not track.valid[t]:
                continue
            observations = []
            for doc, intrinsics, track2d in matched[idx3]:
                extr = doc.extrinsics.get(t)
                if extr is None or not track2d.valid[t]:
                    continue
                observations.append(
                    CameraObservation(intrinsics, extr, track2d.joints[t], track2d.confidence[t])
                )
            if not observations:
                continue
            problems.append(RefineProblem(
                track.joints[t],
                tuple(observations),
                lambda1=run_config.lambda1,
                lambda2=run_config.lambda2,
                lambda3=run_config.lambda3,
            ))
            slots.append((idx3, t))

    new_joints = [track.joints.copy() for track in lidar.tracks]
    results = refine_batch(problems)
    for (idx3, t), result in zip(slots, results):
        new_joints[idx3][t] = result.refined3d
    not_converged = sum(not result.converged for result in results)
    refined_tracks = [
        type(track)(track.person_id, joints, track.body_pose, track.valid)
        for track, joints in zip(lidar.tracks, new_joints)
    ]

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
                       "improving", not_converged, len(results))
    logger.info("refined %d person-frames into %s", len(results), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    spec = load_bench_spec(args.spec)
    report = run_bench(spec)
    export_report(report, args.out)
    logger.info("wrote %d rows to %s", len(report.rows), args.out)
    return EXIT_OK


def cmd_version(args) -> int:
    print(f"crossalign {__version__}")
    print(f"canonical skeleton {default_skeleton().content_hash}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """A non-negative integer seed (an argparse type)."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossalign",
        description="Calibration-free matching of 3D and 2D multi-person keypoint streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic streams plus ground truth")
    p_sim.add_argument("--config", required=True, help="scene config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_match = sub.add_parser("match", help="match a lidar stream against camera streams")
    p_match.add_argument("--lidar", required=True)
    p_match.add_argument("--camera", action="append", required=True)
    p_match.add_argument("--config", default=None, help="matcher config JSON")
    p_match.add_argument("--mode", default="P&T&K", choices=STRATEGIES, help="matching strategy")
    p_match.add_argument("--out", required=True, help="output directory")
    p_match.add_argument("--seed", type=_seed, default=0)
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
