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
from dataclasses import asdict, dataclass
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
from .rotations import batch_matrices_from_quat_wxyz, batch_quat_wxyz_from_matrices

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


def _intrinsics_from(payload: dict, line_number: int) -> Intrinsics:
    """Header intrinsics: fx, fy, cx, cy finite JSON numbers, width and height
    JSON integers; nothing is coerced."""
    values = {name: _finite_number(payload.get(name)) for name in ("fx", "fy", "cx", "cy")}
    for name in ("width", "height"):
        value = payload.get(name)
        values[name] = value if isinstance(value, int) and not isinstance(value, bool) else None
    bad = [name for name, value in values.items() if value is None]
    if bad:
        raise MalformedHeader(
            f"bad intrinsics: {', '.join(bad)} missing or mistyped (fx, fy, cx, cy are finite "
            f"numbers, width and height integers)",
            line_number,
        )
    try:
        return Intrinsics(**values)
    except ValueError as exc:
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
        "intrinsics": asdict(intrinsics) if intrinsics is not None else None,
    }
    lines = [_dump(header)]
    # Every written body pose, in record order, converted in one call.
    poses = [track.body_pose[t] for t in range(frames) for track in tracks if track.valid[t]]
    quats = iter(batch_quat_wxyz_from_matrices(
        np.array(poses, dtype=float).reshape(-1, JOINTS, 3, 3)
    ).tolist())
    for t in range(frames):
        persons = []
        for track in tracks:
            if not track.valid[t]:
                continue
            entry = {
                "id": track.person_id,
                "joints": np.asarray(track.joints[t]).tolist(),
                "body_pose": next(quats),
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
    per_person: dict[str, list[tuple[int, int, dict]]] = {}  # in order of first appearance
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
            per_person.setdefault(pid, []).append((slot, line, person))

    # Each person record is checked where it stands; the body poses of the
    # whole stream are then converted in one call.
    diag = intrinsics.diagonal if intrinsics is not None else None
    width = 3 if kind == KIND_3D else 2
    joints, quats, confs, owners = [], [], [], []  # per person record, person-major
    for pid, entries in per_person.items():
        for slot, line, person in entries:
            try:
                j = np.asarray(person.get("joints", []), dtype=float)
                q = np.asarray(person.get("body_pose", []), dtype=float)
                if kind == KIND_2D:
                    c = np.asarray(person.get("confidence", []), dtype=float)
            except (TypeError, ValueError) as exc:
                raise StreamFormatError(f"person {pid!r} carries non-numeric data: {exc}",
                                        line) from None
            shapes = [("joint", j, (JOINTS, width)), ("body-pose quaternion", q, (JOINTS, 4))]
            if kind == KIND_2D:
                shapes.append(("confidence", c, (JOINTS,)))
            for name, array, shape in shapes:
                if array.shape != shape:
                    raise JointArityMismatch(
                        f"person {pid!r} carries {name} array of shape {array.shape}", line
                    )
            if kind == KIND_2D:
                if not ((c >= 0) & (c <= 1)).all():
                    raise StreamFormatError(
                        f"person {pid!r} confidence not finite or outside [0, 1]", line
                    )
                if np.isfinite(j).all() and (j.min() < -0.5 * diag or j.max() > 1.5 * diag):
                    raise StreamFormatError(
                        f"person {pid!r} pixel coordinates outside the allowed box", line
                    )
                confs.append(c)
            joints.append(j)
            quats.append(q)
            owners.append((pid, line))

    quats = np.array(quats, dtype=float).reshape(-1, JOINTS, 4)
    norms = np.linalg.norm(quats, axis=-1)
    bad = ~(np.isfinite(norms) & (norms > 0)).all(axis=1)
    if bad.any():
        pid, line = owners[np.argmax(bad)]
        raise StreamFormatError(f"person {pid!r} carries a zero or non-finite quaternion", line)
    matrices = batch_matrices_from_quat_wxyz(quats)

    tracks = []
    start = 0
    for pid, entries in per_person.items():
        slots = [slot for slot, _, _ in entries]
        rows = slice(start, start + len(slots))
        start += len(slots)
        track_joints = np.zeros((frames, JOINTS, width))
        track_joints[slots] = joints[rows]
        pose = np.broadcast_to(np.eye(3), (frames, JOINTS, 3, 3)).copy()
        pose[slots] = matrices[rows]
        valid = np.zeros(frames, dtype=bool)
        valid[slots] = True
        if kind == KIND_3D:
            tracks.append(PersonTrack3D(pid, track_joints, pose, valid))
        else:
            conf = np.zeros((frames, JOINTS))
            conf[slots] = confs[rows]
            tracks.append(PersonTrack2D(pid, track_joints, conf, pose, valid))
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
        valid = source_for_target >= 0
        valid[valid] = track.valid[source_for_target[valid]]
        rows = source_for_target[valid]
        joints = np.zeros((frames,) + track.joints.shape[1:])
        joints[valid] = track.joints[rows]
        pose = np.broadcast_to(np.eye(3), (frames, JOINTS, 3, 3)).copy()
        pose[valid] = track.body_pose[rows]
        conf = np.zeros((frames, JOINTS))
        conf[valid] = track.confidence[rows]
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
    known = [(t, extr) for t, extr in enumerate(extrinsics) if extr is not None]
    quats = batch_quat_wxyz_from_matrices(
        np.array([extr.rotation for _, extr in known]).reshape(-1, 3, 3)
    ).tolist()
    frames = [
        {"frame": t, "quat_wxyz": quat, "translation_m": extr.translation.tolist()}
        for (t, extr), quat in zip(known, quats)
    ]
    return {
        "match_format_version": MATCH_FORMAT_VERSION,
        "lidar_stream": lidar_stream,
        "camera_stream": camera_stream,
        "skeleton_hash": skeleton_hash,
        "strategy": strategy,
        "config": asdict(config),
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
    if not isinstance(payload, dict):
        raise StreamFormatError(f"{path}: match output must be a JSON object")
    if payload.get("match_format_version") != MATCH_FORMAT_VERSION:
        raise StreamFormatError("unsupported match_format_version")
    try:
        entries = payload.get("pairs", [])
        pairs = [(_index(p["idx3d"]), _index(p["idx2d"])) for p in entries]
        residuals = [float(p["residual_px"]) for p in entries]
        records = payload.get("extrinsics", [])
        frames = [_index(record["frame"]) for record in records]
        quats = np.array([record["quat_wxyz"] for record in records], dtype=float)
        quats = quats.reshape(len(frames), 4)
        off_unit = np.abs(np.linalg.norm(quats, axis=1) - 1.0) > 1e-9
        if off_unit.any():
            raise StreamFormatError(f"non-unit quaternion in frame {frames[np.argmax(off_unit)]}")
        extrinsics = {
            frame: Extrinsics(rotation, np.asarray(record["translation_m"], dtype=float))
            for frame, record, rotation in zip(
                frames, records, batch_matrices_from_quat_wxyz(quats)
            )
        }
    except KeyError as exc:
        raise StreamFormatError(f"{path}: match output entry lacks field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise StreamFormatError(f"{path}: malformed match output: {exc}") from None
    if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
        raise StreamFormatError("match pairs are not injective")
    return MatchDocument(
        payload=payload,
        pairs=pairs,
        residuals=residuals,
        extrinsics=extrinsics,
        skeleton_hash=str(payload.get("skeleton_hash", "")),
        lidar_stream=str(payload.get("lidar_stream", "")),
        camera_stream=str(payload.get("camera_stream", "")),
    )


def _index(value) -> int:
    """A person or frame index of a match output: a non-negative JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"index must be a non-negative integer, got {value!r}")
    return value


def require_same_hash(*hashes: str) -> None:
    distinct = {h for h in hashes if h}
    if len(distinct) > 1:
        raise HashMismatch(f"inputs reference different skeletons: {sorted(distinct)}")
