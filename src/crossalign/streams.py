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
    CrossAlignError,
    FrameOrderViolation,
    HashMismatch,
    IoFailure,
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
    JSON integers that a float holds; nothing is coerced."""
    values = {name: _finite_number(payload.get(name)) for name in ("fx", "fy", "cx", "cy")}
    for name in ("width", "height"):
        value = payload.get(name)
        values[name] = value if type(value) is int and _finite_number(value) is not None else None
    bad = [name for name, value in values.items() if value is None]
    if bad:
        raise MalformedHeader(
            f"bad intrinsics: {', '.join(bad)} missing or mistyped (fx, fy, cx, cy are finite "
            f"numbers, width and height integers a float holds)",
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
        present = [track for track in tracks if track.valid[t]]
        # The frame's joints (and confidences) as nested lists, one ``tolist``
        # per field: holding every frame's lists at once would cost memory.
        joints = np.array([track.joints[t] for track in present]).tolist()
        confidence = (np.array([track.confidence[t] for track in present]).tolist()
                      if kind == KIND_2D else None)
        persons = []
        for i, track in enumerate(present):
            entry = {"id": track.person_id, "joints": joints[i], "body_pose": next(quats)}
            if confidence is not None:
                entry["confidence"] = confidence[i]
            persons.append(entry)
        lines.append(_dump({"frame": indices[t], "persons": persons}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_utf8(path: str | Path, error: type[CrossAlignError]) -> str:
    """The text of ``path``; a file that is not UTF-8 raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_json_object(path: str | Path, error: type[CrossAlignError]) -> dict:
    """The JSON object in ``path``; a file that is not one raises ``error``,
    one that cannot be read IoFailure."""
    try:
        payload = json.loads(read_utf8(path, error))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: must be a JSON object")
    return payload


def parse_stream(path: str | Path) -> ParsedStream:
    """Parse a stream file back into typed tracks on the record timeline. A
    format error names ``path`` before its line."""
    lines = read_utf8(path, StreamFormatError).splitlines()
    try:
        return _parse_lines(path, lines)
    except StreamFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _parse_lines(path: str | Path, lines: list[str]) -> ParsedStream:
    if not lines:
        raise MalformedHeader("empty stream file", 1)

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"header is not valid JSON: {exc}", 1) from None
    if not isinstance(header, dict) or "kind" not in header:
        raise MalformedHeader("header must be an object with a 'kind' field", 1)
    warned: set = set()  # (level, field) pairs already warned about
    _warn_unknown(path, header, _HEADER_FIELDS, "header", 1, warned)
    kind = header.get("kind")
    if kind not in (KIND_3D, KIND_2D):
        raise MalformedHeader(f"unknown stream kind {kind!r}", 1)
    if header.get("stream_format_version") != STREAM_FORMAT_VERSION:
        raise MalformedHeader(
            f"unsupported stream_format_version {header.get('stream_format_version')!r}", 1
        )
    frame_rate = _finite_number(header.get("frame_rate", 10.0))
    if frame_rate is None or frame_rate <= 0:
        raise MalformedHeader(
            f"frame_rate must be a positive finite number, got {header.get('frame_rate')!r}", 1
        )
    skeleton_hash = str(header.get("skeleton_hash", ""))
    intrinsics = None
    if kind == KIND_2D:
        if not isinstance(header.get("intrinsics"), dict):
            raise MalformedHeader("camera streams must carry intrinsics", 1)
        intrinsics = _intrinsics_from(header["intrinsics"], 1)

    # Every record and person record is checked where it stands, in file order.
    box = intrinsics.pixel_box if intrinsics is not None else None
    width = 3 if kind == KIND_3D else 2
    frame_indices: list[int] = []
    owners, joints, quats, confs = [], [], [], []  # per person record: (id, slot, line), arrays
    for line, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"record is not valid JSON: {exc}", line) from None
        if not isinstance(record, dict) or "frame" not in record:
            raise StreamFormatError("record must be an object with a 'frame' field", line)
        _warn_unknown(path, record, _RECORD_FIELDS, "record", line, warned)
        frame = record["frame"]
        if isinstance(frame, bool) or not isinstance(frame, int):
            raise StreamFormatError(f"frame must be an integer, got {frame!r}", line)
        if frame_indices and frame <= frame_indices[-1]:
            raise FrameOrderViolation(f"frame {frame} follows frame {frame_indices[-1]}", line)
        # Streams are aligned by frame time, index / frame_rate as a float.
        time = frame / frame_rate if _finite_number(frame) is not None else math.inf
        if not math.isfinite(time):
            raise StreamFormatError(f"frame {frame} has no finite time at {frame_rate} Hz", line)
        if frame_indices and time <= frame_indices[-1] / frame_rate:
            raise FrameOrderViolation(f"frame {frame} has frame {frame_indices[-1]}'s time", line)
        frame_indices.append(frame)
        persons = record.get("persons", [])
        if not isinstance(persons, list):
            raise StreamFormatError("'persons' must be a list", line)
        in_record = set()
        # numpy reads a JSON boolean among numbers as a number, so the values of a
        # line that may hold one are walked: true holds a "u", false an "l".
        walk = "u" in raw or "l" in raw
        for person in persons:
            if not isinstance(person, dict) or "id" not in person:
                raise StreamFormatError("person record must be an object with an 'id' field", line)
            _warn_unknown(path, person, _PERSON_FIELDS, "person", line, warned)
            pid = person["id"]
            if not isinstance(pid, str):
                raise StreamFormatError(f"person id must be a string, got {pid!r}", line)
            if pid in in_record:
                raise StreamFormatError(f"person {pid!r} appears twice in one frame", line)
            in_record.add(pid)
            try:
                j = _numbers(person.get("joints", []), walk)
                q = _numbers(person.get("body_pose", []), walk)
                if kind == KIND_2D:
                    c = _numbers(person.get("confidence", []), walk)
            except (TypeError, ValueError, OverflowError) as exc:
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
                if not (c.min() >= 0 and c.max() <= 1):  # a NaN fails both
                    raise StreamFormatError(
                        f"person {pid!r} confidence not finite or outside [0, 1]", line
                    )
                # A joint with a non-finite coordinate is unobserved; every other is boxed.
                # Only a record with a coordinate off the box or not finite needs the mask.
                if not (j.min() >= box[0] and j.max() <= box[1]):
                    seen = j[np.isfinite(j).all(axis=1)]
                    if seen.size and (seen.min() < box[0] or seen.max() > box[1]):
                        raise StreamFormatError(
                            f"person {pid!r} pixel coordinates outside the allowed box", line
                        )
                confs.append(c)
            owners.append((pid, len(frame_indices) - 1, line))
            joints.append(j)
            quats.append(q)

    # The body poses of the whole stream are converted in one call.
    quats = np.array(quats, dtype=float).reshape(-1, JOINTS, 4)
    norms = np.linalg.norm(quats, axis=-1)
    bad = ~(np.isfinite(norms) & (norms > 0)).all(axis=1)
    if bad.any():
        pid, _, line = owners[np.argmax(bad)]
        raise StreamFormatError(f"person {pid!r} carries a zero or non-finite quaternion", line)
    matrices = batch_matrices_from_quat_wxyz(quats)

    rows_of: dict[str, list[int]] = {}  # in order of first appearance
    for row, (pid, _, _) in enumerate(owners):
        rows_of.setdefault(pid, []).append(row)
    slots = np.array([slot for _, slot, _ in owners], dtype=int)
    joints = np.array(joints, dtype=float).reshape(-1, JOINTS, width)
    confs = np.array(confs, dtype=float).reshape(-1, JOINTS) if kind == KIND_2D else None
    tracks = [
        _scatter_track(pid, len(frame_indices), slots[rows], joints[rows], matrices[rows],
                       None if confs is None else confs[rows])
        for pid, rows in rows_of.items()
    ]
    return ParsedStream(kind, frame_rate, skeleton_hash, intrinsics, frame_indices, tracks)


def _numbers(value, walk: bool = True) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float array; ``null``
    reads as NaN. Any other entry (a string, true or false) raises ValueError.
    Entries are checked one by one only where numpy's own reading leaves a
    doubt: it did not read numbers alone, or ``walk`` says a boolean may hide
    among them."""
    array = np.asarray(value)
    if walk or array.dtype.kind not in "iuf":
        _require_numbers(value)
        if array.dtype.kind not in "iuf":
            array = np.asarray(value, dtype=float)
    return array.astype(float, copy=False)


def _require_numbers(value) -> None:
    """Raise ValueError unless every entry of nested lists ``value`` is a JSON number or null."""
    if isinstance(value, list):
        for item in value:
            _require_numbers(item)
    elif value is not None:
        _number(value)


def _number(value):
    """``value`` if it is a JSON number (an int or a float, not a boolean); else ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _finite_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _warn_unknown(path, obj: dict, known: set, level: str, line_number: int, warned: set) -> None:
    """Warn about the fields of ``obj`` that its level does not define, once
    per stream, level and field, naming the line it first appears on."""
    for key in obj:
        if key not in known and (level, key) not in warned:
            warned.add((level, key))
            logger.warning("%s: ignoring unknown %s field %r, first on line %d",
                           path, level, key, line_number)


def _scatter_track(pid, frames, slots, joints, body_pose, confidence=None):
    """A ``frames``-long track holding the given rows at ``slots`` (indices or a
    mask) and invalid elsewhere: zero joints and confidences, identity poses.
    With confidences it is a PersonTrack2D, else a PersonTrack3D."""
    valid = np.zeros(frames, dtype=bool)
    valid[slots] = True
    track_joints = np.zeros((frames,) + joints.shape[1:])
    track_joints[slots] = joints
    pose = np.broadcast_to(np.eye(3), (frames, JOINTS, 3, 3)).copy()
    pose[slots] = body_pose
    if confidence is None:
        return PersonTrack3D(pid, track_joints, pose, valid)
    conf = np.zeros((frames, JOINTS))
    conf[slots] = confidence
    return PersonTrack2D(pid, track_joints, conf, pose, valid)


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
        # Times increase: the nearer of the two sources around a target wins, the earlier on a tie.
        after = np.minimum(np.searchsorted(source_times, target_times), len(source_times) - 1)
        around = np.stack([np.maximum(after - 1, 0), after])  # (2, frame)
        gaps = np.abs(source_times[around] - target_times)
        near = gaps.min(axis=0) <= half_period
        source_for_target[near] = around[gaps.argmin(axis=0), np.arange(frames)][near]
    dropped = len(source_times) - len(np.unique(source_for_target[source_for_target >= 0]))
    if dropped > 0 and frames > 0:  # an empty timeline drops all, and is no misalignment
        logger.warning("%d camera frames have no timeline counterpart and were dropped", dropped)

    resampled = []
    for track in parsed.tracks:
        valid = source_for_target >= 0
        valid[valid] = track.valid[source_for_target[valid]]
        rows = source_for_target[valid]
        resampled.append(_scatter_track(track.person_id, frames, valid, track.joints[rows],
                                        track.body_pose[rows], track.confidence[rows]))
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
        # JSON has no non-finite number: such a stat (a gate variance with no pose) is null.
        "stats": {key: None if isinstance(value, float) and not math.isfinite(value) else value
                  for key, value in (stats or {}).items()},
    }


def write_match_output(path: str | Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n", encoding="utf-8"
    )


@dataclass
class MatchDocument:
    payload: dict
    pairs: list[tuple[int, int]]
    ids: list[tuple]  # (id3d, id2d) as written, parallel to pairs
    residuals: list[float]
    extrinsics: dict  # frame -> Extrinsics
    skeleton_hash: str
    lidar_stream: str
    camera_stream: str


def load_match_output(path: str | Path) -> MatchDocument:
    payload = read_json_object(path, StreamFormatError)
    if payload.get("match_format_version") != MATCH_FORMAT_VERSION:
        raise StreamFormatError(f"{path}: unsupported match_format_version")
    try:
        entries = payload.get("pairs", [])
        pairs = [(_index(p["idx3d"]), _index(p["idx2d"])) for p in entries]
        ids = [(p["id3d"], p["id2d"]) for p in entries]
        residuals = [float(_number(p["residual_px"])) for p in entries]
        records = payload.get("extrinsics", [])
        frames = [_index(record["frame"]) for record in records]
        if len(set(frames)) != len(frames):
            repeated = next(f for i, f in enumerate(frames) if f in frames[:i])
            raise StreamFormatError(f"{path}: extrinsics list frame {repeated} twice")
        quats = _numbers([record["quat_wxyz"] for record in records]).reshape(len(frames), 4)
        off_unit = np.abs(np.linalg.norm(quats, axis=1) - 1.0) > 1e-9
        if off_unit.any():
            raise StreamFormatError(
                f"{path}: non-unit quaternion in frame {frames[np.argmax(off_unit)]}"
            )
        translations = [_numbers(record["translation_m"]).reshape(3) for record in records]
        poses = Extrinsics.from_stack(batch_matrices_from_quat_wxyz(quats), translations)
        extrinsics = dict(zip(frames, poses))
    except KeyError as exc:
        raise StreamFormatError(f"{path}: match output entry lacks field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise StreamFormatError(f"{path}: malformed match output: {exc}") from None
    if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
        raise StreamFormatError(f"{path}: match pairs are not injective")
    return MatchDocument(
        payload=payload,
        pairs=pairs,
        ids=ids,
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
