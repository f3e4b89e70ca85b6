"""Line-delimited stream files and match-output serialization.

A stream file is UTF-8 text, one JSON object per line. The first line is the
header (sensor kind, frame rate, canonical-skeleton hash, camera intrinsics
for 2D streams); every following line is one frame record carrying the frame
index and the persons observed in it. Frame indices must be strictly
increasing. Rotations are serialized as unit quaternions in (w, x, y, z)
order. Unknown fields are ignored with a warning, so the format can grow.

Match outputs are single JSON documents: the pair list with residuals, the
unmatched index lists, per-frame extrinsics, a config echo, and the skeleton
hash, so every result names exactly what produced it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FrameOrderViolation,
    HashMismatch,
    JointArityMismatch,
    MalformedHeader,
    StreamFormatError,
)
from .geometry import Extrinsics, Intrinsics
from .matching import JOINTS, MatchSet, PcmConfig, PersonTrack2D, PersonTrack3D
from .rotations import (
    batch_matrices_from_quat_wxyz,
    batch_quat_wxyz_from_matrices,
    matrix_from_quat_wxyz,
    quat_wxyz_from_matrix,
)

logger = logging.getLogger(__name__)

STREAM_FORMAT_VERSION = 1
MATCH_FORMAT_VERSION = 1

KIND_3D = "lidar3d"
KIND_2D = "camera2d"

_HEADER_FIELDS = {"stream_format_version", "kind", "frame_rate", "skeleton_hash", "intrinsics"}
_RECORD_FIELDS = {"frame", "persons"}
_PERSON_FIELDS = {"id", "joints", "confidence", "body_pose"}


@dataclass
class ParsedStream:
    kind: str
    frame_rate: float
    skeleton_hash: str
    intrinsics: Intrinsics | None
    frame_indices: list[int]
    tracks: list  # PersonTrack3D or PersonTrack2D on the record timeline


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _intrinsics_payload(k: Intrinsics) -> dict:
    return {
        "fx": k.fx,
        "fy": k.fy,
        "cx": k.cx,
        "cy": k.cy,
        "width": k.width,
        "height": k.height,
    }


def _intrinsics_from(payload, line_number: int) -> Intrinsics:
    try:
        return Intrinsics(
            fx=float(payload["fx"]),
            fy=float(payload["fy"]),
            cx=float(payload["cx"]),
            cy=float(payload["cy"]),
            width=int(payload["width"]),
            height=int(payload["height"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHeader(f"bad intrinsics: {exc}", line_number) from None


def write_stream(
    path: str | Path,
    kind: str,
    tracks,
    skeleton_hash: str,
    frame_rate: float = 10.0,
    intrinsics: Intrinsics | None = None,
    frame_indices: list[int] | None = None,
) -> None:
    """Serialize tracks to a stream file; persons appear only in frames where
    their track is valid."""
    if kind not in (KIND_3D, KIND_2D):
        raise ValueError(f"unknown stream kind {kind!r}")
    if kind == KIND_2D and intrinsics is None:
        raise ValueError("camera streams must carry intrinsics")
    frames = tracks[0].frames if tracks else 0
    indices = list(range(frames)) if frame_indices is None else list(frame_indices)
    if len(indices) != frames:
        raise ValueError("frame_indices must match the track timeline length")

    header = {
        "stream_format_version": STREAM_FORMAT_VERSION,
        "kind": kind,
        "frame_rate": frame_rate,
        "skeleton_hash": skeleton_hash,
        "intrinsics": _intrinsics_payload(intrinsics) if intrinsics is not None else None,
    }
    lines = [_dump(header)]
    for t in range(frames):
        persons = []
        for track in tracks:
            if not track.valid[t]:
                continue
            quats = batch_quat_wxyz_from_matrices(track.body_pose[t])
            entry = {
                "id": track.person_id,
                "joints": np.asarray(track.joints[t]).tolist(),
                "body_pose": quats.tolist(),
            }
            if kind == KIND_2D:
                entry["confidence"] = np.asarray(track.confidence[t]).tolist()
            persons.append(entry)
        lines.append(_dump({"frame": indices[t], "persons": persons}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_stream(path: str | Path) -> ParsedStream:
    """Parse a stream file back into typed tracks on the record timeline."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise MalformedHeader("empty stream file", 1)

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"header is not valid JSON: {exc}", 1) from None
    if not isinstance(header, dict) or "kind" not in header:
        raise MalformedHeader("header must be an object with a 'kind' field", 1)
    _warn_unknown(header, _HEADER_FIELDS, 1)
    kind = header.get("kind")
    if kind not in (KIND_3D, KIND_2D):
        raise MalformedHeader(f"unknown stream kind {kind!r}", 1)
    if header.get("stream_format_version") != STREAM_FORMAT_VERSION:
        raise MalformedHeader(
            f"unsupported stream_format_version {header.get('stream_format_version')!r}", 1
        )
    frame_rate = _finite_number(header.get("frame_rate", 10.0))
    if frame_rate is None:
        raise MalformedHeader(
            f"frame_rate must be a finite number, got {header.get('frame_rate')!r}", 1
        )
    skeleton_hash = str(header.get("skeleton_hash", ""))
    intrinsics = None
    if kind == KIND_2D:
        if not isinstance(header.get("intrinsics"), dict):
            raise MalformedHeader("camera streams must carry intrinsics", 1)
        intrinsics = _intrinsics_from(header["intrinsics"], 1)

    frame_indices: list[int] = []
    records: list[dict] = []
    for offset, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"record is not valid JSON: {exc}", offset) from None
        if not isinstance(record, dict) or "frame" not in record:
            raise StreamFormatError("record must be an object with a 'frame' field", offset)
        _warn_unknown(record, _RECORD_FIELDS, offset)
        frame = record["frame"]
        if isinstance(frame, bool) or not isinstance(frame, int):
            raise StreamFormatError(f"frame must be an integer, got {frame!r}", offset)
        if frame_indices and frame <= frame_indices[-1]:
            raise FrameOrderViolation(
                f"frame {frame} follows frame {frame_indices[-1]}", offset
            )
        frame_indices.append(frame)
        record["_line"] = offset
        records.append(record)

    tracks = _tracks_from_records(kind, records, len(frame_indices), intrinsics)
    return ParsedStream(kind, frame_rate, skeleton_hash, intrinsics, frame_indices, tracks)


def _finite_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _warn_unknown(obj: dict, known: set, line_number: int) -> None:
    for key in obj:
        if key not in known and not key.startswith("_"):
            logger.warning("line %d: ignoring unknown field %r", line_number, key)


def _tracks_from_records(kind, records, frames, intrinsics):
    ids: list[str] = []
    slots: dict[str, int] = {}
    per_person: dict[str, list[tuple[int, int, dict]]] = {}
    for slot, record in enumerate(records):
        line = record["_line"]
        persons = record.get("persons", [])
        if not isinstance(persons, list):
            raise StreamFormatError("'persons' must be a list", line)
        in_record = set()
        for person in persons:
            if not isinstance(person, dict) or "id" not in person:
                raise StreamFormatError("person record must be an object with an 'id' field", line)
            _warn_unknown(person, _PERSON_FIELDS, line)
            pid = str(person["id"])
            if pid in in_record:
                raise StreamFormatError(f"person {pid!r} appears twice in one frame", line)
            in_record.add(pid)
            if pid not in slots:
                slots[pid] = len(ids)
                ids.append(pid)
                per_person[pid] = []
            per_person[pid].append((slot, line, person))

    diag = intrinsics.diagonal if intrinsics is not None else None
    tracks = []
    for pid in ids:
        joints = np.zeros((frames, JOINTS, 3 if kind == KIND_3D else 2))
        pose = np.broadcast_to(np.eye(3), (frames, JOINTS, 3, 3)).copy()
        conf = np.zeros((frames, JOINTS))
        valid = np.zeros(frames, dtype=bool)
        for slot, line, person in per_person[pid]:
            j = np.asarray(person.get("joints", []), dtype=float)
            if j.shape != (JOINTS, 3 if kind == KIND_3D else 2):
                raise JointArityMismatch(
                    f"person {pid!r} carries joint array of shape {j.shape}", line
                )
            quats = np.asarray(person.get("body_pose", []), dtype=float)
            if quats.shape != (JOINTS, 4):
                raise JointArityMismatch(
                    f"person {pid!r} carries {quats.shape} body-pose quaternions", line
                )
            try:
                pose[slot] = batch_matrices_from_quat_wxyz(quats)
            except ValueError as exc:
                raise StreamFormatError(str(exc), line) from None
            if kind == KIND_2D:
                c = np.asarray(person.get("confidence", []), dtype=float)
                if c.shape != (JOINTS,):
                    raise JointArityMismatch(
                        f"person {pid!r} carries confidence array of shape {c.shape}", line
                    )
                if c.size and (np.nanmin(c) < 0 or np.nanmax(c) > 1):
                    raise StreamFormatError(f"person {pid!r} confidence outside [0, 1]", line)
                if np.isfinite(j).all() and (
                    j.min() < -0.5 * diag or j.max() > 1.5 * diag
                ):
                    raise StreamFormatError(
                        f"person {pid!r} pixel coordinates outside the allowed box", line
                    )
                conf[slot] = c
            joints[slot] = j
            valid[slot] = True
        if kind == KIND_3D:
            tracks.append(PersonTrack3D(pid, joints, pose, valid))
        else:
            tracks.append(PersonTrack2D(pid, joints, conf, pose, valid))
    return tracks


def resample_to_timeline(
    parsed: ParsedStream,
    target_indices: list[int],
    target_rate: float,
) -> list:
    """Map a camera stream onto the reference (LiDAR) timeline by nearest
    timestamp; camera frames further than half a reference period from any
    reference frame are dropped with a warning."""
    if parsed.frame_rate <= 0 or target_rate <= 0:
        raise StreamFormatError("frame rates must be positive")
    source_times = np.asarray(parsed.frame_indices, dtype=float) / parsed.frame_rate
    target_times = np.asarray(target_indices, dtype=float) / target_rate
    frames = len(target_indices)
    half_period = 0.5 / target_rate

    source_for_target = np.full(frames, -1, dtype=int)
    if len(source_times):
        for t, time in enumerate(target_times):
            s = int(np.argmin(np.abs(source_times - time)))
            if abs(source_times[s] - time) <= half_period:
                source_for_target[t] = s
    used = set(source_for_target[source_for_target >= 0].tolist())
    dropped = len(source_times) - len(used)
    if dropped > 0:
        logger.warning("%d camera frames have no timeline counterpart and were dropped", dropped)

    resampled = []
    for track in parsed.tracks:
        joints = np.zeros((frames,) + track.joints.shape[1:])
        pose = np.broadcast_to(np.eye(3), (frames, JOINTS, 3, 3)).copy()
        conf = np.zeros((frames, JOINTS))
        valid = np.zeros(frames, dtype=bool)
        for t in range(frames):
            s = source_for_target[t]
            if s < 0 or not track.valid[s]:
                continue
            joints[t] = track.joints[s]
            pose[t] = track.body_pose[s]
            conf[t] = track.confidence[s]
            valid[t] = True
        resampled.append(PersonTrack2D(track.person_id, joints, conf, pose, valid))
    return resampled


# ---------------------------------------------------------------------------
# Match output documents


def match_output_payload(
    match: MatchSet,
    extrinsics,
    config: PcmConfig,
    strategy: str,
    skeleton_hash: str,
    lidar_stream: str,
    camera_stream: str,
    ids3d,
    ids2d,
    stats: dict | None = None,
) -> dict:
    pairs = [
        {
            "idx3d": i,
            "id3d": ids3d[i],
            "idx2d": j,
            "id2d": ids2d[j],
            "residual_px": float(r),
        }
        for (i, j), r in zip(match.pairs, match.residuals)
    ]
    frames = []
    for t, extr in enumerate(extrinsics):
        if extr is None:
            continue
        frames.append(
            {
                "frame": t,
                "quat_wxyz": quat_wxyz_from_matrix(extr.rotation).tolist(),
                "translation_m": extr.translation.tolist(),
            }
        )
    return {
        "match_format_version": MATCH_FORMAT_VERSION,
        "lidar_stream": lidar_stream,
        "camera_stream": camera_stream,
        "skeleton_hash": skeleton_hash,
        "strategy": strategy,
        "config": {
            "delta": config.delta,
            "lambda0": config.lambda0,
            "n_iter": config.n_iter,
            "reject_threshold": config.reject_threshold,
            "smoothing_window": config.smoothing_window,
        },
        "pairs": pairs,
        "unmatched3d": list(match.unmatched3d),
        "unmatched2d": list(match.unmatched2d),
        "extrinsics": frames,
        "stats": stats or {},
    }


def write_match_output(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n", encoding="utf-8"
    )


@dataclass
class MatchDocument:
    payload: dict
    pairs: list[tuple[int, int]]
    residuals: list[float]
    extrinsics: dict  # frame -> Extrinsics
    skeleton_hash: str
    lidar_stream: str
    camera_stream: str


def load_match_output(path: str | Path) -> MatchDocument:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"match output is not valid JSON: {exc}") from None
    if payload.get("match_format_version") != MATCH_FORMAT_VERSION:
        raise StreamFormatError("unsupported match_format_version")
    pairs = [(int(p["idx3d"]), int(p["idx2d"])) for p in payload.get("pairs", [])]
    if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
        raise StreamFormatError("match pairs are not injective")
    residuals = [float(p["residual_px"]) for p in payload.get("pairs", [])]
    extrinsics = {}
    for entry in payload.get("extrinsics", []):
        quat = np.asarray(entry["quat_wxyz"], dtype=float)
        if abs(np.linalg.norm(quat) - 1.0) > 1e-9:
            raise StreamFormatError(f"non-unit quaternion in frame {entry.get('frame')}")
        extrinsics[int(entry["frame"])] = Extrinsics(
            matrix_from_quat_wxyz(quat), np.asarray(entry["translation_m"], dtype=float)
        )
    return MatchDocument(
        payload=payload,
        pairs=pairs,
        residuals=residuals,
        extrinsics=extrinsics,
        skeleton_hash=str(payload.get("skeleton_hash", "")),
        lidar_stream=str(payload.get("lidar_stream", "")),
        camera_stream=str(payload.get("camera_stream", "")),
    )


def require_same_hash(*hashes: str) -> None:
    distinct = {h for h in hashes if h}
    if len(distinct) > 1:
        raise HashMismatch(f"inputs reference different skeletons: {sorted(distinct)}")
