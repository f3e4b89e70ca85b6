import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossalign import streams
from crossalign.errors import (
    FrameOrderViolation,
    HashMismatch,
    IoFailure,
    JointArityMismatch,
    MalformedHeader,
    StreamFormatError,
)
from crossalign.matching import MatchSet, PcmConfig, PersonTrack2D
from crossalign.geometry import Extrinsics
from crossalign.simulator import SceneConfig, generate
from crossalign.streams import (
    KIND_2D,
    KIND_3D,
    ParsedStream,
    load_match_output,
    match_output_payload,
    parse_stream,
    require_same_hash,
    resample_to_timeline,
    write_match_output,
    write_stream,
)

from helpers import random_rotation


@pytest.fixture(scope="module")
def scene():
    return generate(
        SceneConfig(
            person_count=3,
            duration_frames=6,
            seed=41,
            pixel_noise_sigma=1.0,
            dropout_rate=0.1,
            pose_noise_degrees=2.0,
        )
    )


def assert_tracks_equal(a, b, atol=1e-12):
    assert a.person_id == b.person_id
    assert np.array_equal(a.valid, b.valid)
    mask = a.valid
    assert np.allclose(a.joints[mask], b.joints[mask], atol=atol)
    assert np.allclose(a.body_pose[mask], b.body_pose[mask], atol=atol)
    if hasattr(a, "confidence"):
        assert np.allclose(a.confidence[mask], b.confidence[mask], atol=atol)


class TestStreamRoundTrip:
    def test_lidar_round_trip(self, scene, tmp_path):
        path = tmp_path / "lidar.jsonl"
        write_stream(path, KIND_3D, scene.tracks3d, "hash3d")
        parsed = parse_stream(path)
        assert parsed.kind == KIND_3D
        assert parsed.skeleton_hash == "hash3d"
        assert parsed.frame_indices == list(range(6))
        assert len(parsed.tracks) == len(scene.tracks3d)
        for a, b in zip(scene.tracks3d, parsed.tracks):
            assert_tracks_equal(a, b)

    def test_camera_round_trip(self, scene, tmp_path):
        path = tmp_path / "cam.jsonl"
        write_stream(
            path, KIND_2D, scene.tracks2d[0], "hash2d", intrinsics=scene.intrinsics
        )
        parsed = parse_stream(path)
        assert parsed.intrinsics == scene.intrinsics
        for a, b in zip(scene.tracks2d[0], parsed.tracks):
            assert_tracks_equal(a, b)

    def test_write_is_deterministic(self, scene, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_stream(p1, KIND_3D, scene.tracks3d, "h")
        write_stream(p2, KIND_3D, scene.tracks3d, "h")
        assert p1.read_bytes() == p2.read_bytes()

    def test_each_stream_is_converted_in_one_call(self, scene, tmp_path, monkeypatch):
        calls = {"parse": 0, "write": 0}

        def counted(name, convert):
            def wrapper(values):
                calls[name] += 1
                return convert(values)
            return wrapper

        monkeypatch.setattr(streams, "batch_quat_wxyz_from_matrices",
                            counted("write", streams.batch_quat_wxyz_from_matrices))
        monkeypatch.setattr(streams, "batch_matrices_from_quat_wxyz",
                            counted("parse", streams.batch_matrices_from_quat_wxyz))
        path = tmp_path / "cam.jsonl"
        write_stream(path, KIND_2D, scene.tracks2d[0], "h", intrinsics=scene.intrinsics)
        parsed = parse_stream(path)
        assert sum(track.valid.sum() for track in parsed.tracks) > 10
        assert calls == {"parse": 1, "write": 1}

    def test_camera_stream_requires_intrinsics(self, scene, tmp_path):
        with pytest.raises(ValueError):
            write_stream(tmp_path / "c.jsonl", KIND_2D, scene.tracks2d[0], "h")


class TestParseErrors:
    def _header(self, kind=KIND_3D):
        return json.dumps(
            {
                "stream_format_version": 1,
                "kind": kind,
                "frame_rate": 10.0,
                "skeleton_hash": "h",
                "intrinsics": None,
            }
        )

    def _person(self, joints=24):
        return {
            "id": "p",
            "joints": [[0.0, 0.0, 2.0]] * joints,
            "body_pose": [[1.0, 0.0, 0.0, 0.0]] * 24,
        }

    def test_missing_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("")
        with pytest.raises(MalformedHeader):
            parse_stream(path)

    def test_header_must_be_json(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("not json\n")
        with pytest.raises(MalformedHeader):
            parse_stream(path)

    def test_frame_order_violation_names_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        records = [
            self._header(),
            json.dumps({"frame": 3, "persons": []}),
            json.dumps({"frame": 2, "persons": []}),
        ]
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(FrameOrderViolation) as err:
            parse_stream(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("rate", ["abc", None, [10], float("nan"), 0, -10.0])
    def test_non_numeric_frame_rate_is_a_header_error(self, tmp_path, rate):
        header = json.loads(self._header())
        header["frame_rate"] = rate
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(MalformedHeader) as err:
            parse_stream(path)
        assert err.value.line_number == 1

    def test_errors_name_the_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        records = [self._header()] + [json.dumps({"frame": 0, "persons": []})] * 2
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(FrameOrderViolation) as err:
            parse_stream(path)
        assert err.value.line_number == 3
        assert str(err.value) == f"{path}: line 3: frame 0 follows frame 0"

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # Line 2 carries a 23-joint person, line 4 repeats frame 1.
        records = [
            self._header(),
            json.dumps({"frame": 0, "persons": [self._person(joints=23)]}),
            json.dumps({"frame": 1, "persons": [self._person()]}),
            json.dumps({"frame": 1, "persons": []}),
        ]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(JointArityMismatch) as err:
            parse_stream(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("frame", ["x", "3", 2.5, None, True])
    def test_non_integer_frame_names_line(self, tmp_path, frame):
        path = tmp_path / "s.jsonl"
        records = [self._header(), json.dumps({"frame": 0, "persons": []}),
                   json.dumps({"frame": frame, "persons": []})]
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 3

    def test_person_without_id_names_line(self, tmp_path):
        person = self._person()
        del person["id"]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join([self._header(), json.dumps({"frame": 0, "persons": [person]})]) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("pid", [7, None, True])
    def test_non_string_id_names_line(self, tmp_path, pid):
        # An integer id would otherwise share a track with its string form.
        other = dict(self._person(), id=pid)
        records = [self._header(), json.dumps({"frame": 0, "persons": [self._person()]}),
                   json.dumps({"frame": 1, "persons": [self._person(), other]})]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(StreamFormatError, match="person id must be a string") as err:
            parse_stream(path)
        assert err.value.line_number == 3

    def test_string_id_parses(self, tmp_path):
        records = [self._header(), json.dumps({"frame": 0, "persons": [dict(self._person(), id="7")]})]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(records) + "\n")
        assert [t.person_id for t in parse_stream(path).tracks] == ["7"]

    def test_repeated_id_in_one_frame_is_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record = {"frame": 0, "persons": [self._person(), self._person()]}
        path.write_text("\n".join([self._header(), json.dumps(record)]) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 2

    def test_joint_arity_mismatch(self, tmp_path):
        path = tmp_path / "s.jsonl"
        records = [
            self._header(),
            json.dumps({"frame": 0, "persons": [self._person(joints=23)]}),
        ]
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(JointArityMismatch) as err:
            parse_stream(path)
        assert err.value.line_number == 2

    def test_unknown_fields_warn_but_parse(self, tmp_path, caplog):
        path = tmp_path / "s.jsonl"
        header = json.loads(self._header())
        header["vendor_extra"] = 42
        record = {"frame": 0, "persons": [self._person()], "note": "x"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with caplog.at_level("WARNING"):
            parsed = parse_stream(path)
        assert len(parsed.tracks) == 1
        assert "vendor_extra" in caplog.text
        assert "note" in caplog.text

    def test_underscore_fields_warn_too(self, tmp_path, caplog):
        person = dict(self._person(), _note="person")
        record = {"frame": 0, "persons": [person], "_note": "record"}
        path = tmp_path / "s.jsonl"
        path.write_text(self._header() + "\n" + json.dumps(record) + "\n")
        with caplog.at_level("WARNING"):
            parse_stream(path)
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warned == [
            f"{path}: ignoring unknown record field '_note', first on line 2",
            f"{path}: ignoring unknown person field '_note', first on line 2",
        ]

    def test_unknown_fields_warn_once_per_level(self, tmp_path, caplog):
        person = dict(self._person(), _note="person")
        second = dict(self._person(), id="p1", _note="person")
        lines = [self._header()] + [
            json.dumps({"frame": frame, "persons": [person, second], "_note": "record"})
            for frame in range(3)
        ]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING"):
            parsed = parse_stream(path)
        assert len(parsed.tracks) == 2
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warned == [
            f"{path}: ignoring unknown record field '_note', first on line 2",
            f"{path}: ignoring unknown person field '_note', first on line 2",
        ]

    @pytest.mark.parametrize("field", ["joints", "confidence", "body_pose"])
    def test_non_numeric_person_data_names_line(self, tmp_path, field):
        header = json.loads(self._header(KIND_2D))
        header["intrinsics"] = {
            "fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480
        }
        person = {
            "id": "p",
            "joints": [[100.0, 100.0] for _ in range(24)],
            "confidence": [1.0] * 24,
            "body_pose": [[1.0, 0.0, 0.0, 0.0] for _ in range(24)],
        }
        if field == "confidence":
            person[field][3] = "x"
        else:
            person[field][3][0] = "x"
        path = tmp_path / "s.jsonl"
        record = {"frame": 0, "persons": [person]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 2

    def test_bad_quaternion_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        person = self._person()
        person["body_pose"][3] = [0.0, 0.0, 0.0, 0.0]
        path.write_text(
            self._header() + "\n" + json.dumps({"frame": 0, "persons": [person]}) + "\n"
        )
        with pytest.raises(StreamFormatError):
            parse_stream(path)

    def test_zero_quaternion_of_second_person_names_its_line(self, tmp_path):
        records = [self._header()]
        for frame in range(3):
            persons = [dict(self._person(), id=pid) for pid in ("a", "b")]
            if frame == 1:
                persons[1]["body_pose"][5] = [0.0, 0.0, 0.0, 0.0]
            records.append(json.dumps({"frame": frame, "persons": persons}))
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 3
        assert "'b'" in str(err.value)

    def test_nan_confidence_literal_names_line(self, scene, tmp_path):
        path = tmp_path / "cam.jsonl"
        write_stream(path, KIND_2D, scene.tracks2d[0], "h", intrinsics=scene.intrinsics)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["persons"][0]["confidence"][4] = float("nan")
        lines[3] = json.dumps(record)
        assert "NaN" in lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError) as err:
            parse_stream(path)
        assert err.value.line_number == 4

    def test_pixel_coordinates_outside_loose_box_rejected(self, scene, tmp_path):
        header = json.dumps(
            {
                "stream_format_version": 1,
                "kind": KIND_2D,
                "frame_rate": 10.0,
                "skeleton_hash": "h",
                "intrinsics": {
                    "fx": 1000.0,
                    "fy": 1000.0,
                    "cx": 960.0,
                    "cy": 540.0,
                    "width": 1920,
                    "height": 1080,
                },
            }
        )
        person = {
            "id": "p",
            "joints": [[1e6, 0.0]] * 24,  # far beyond 1.5x the image diagonal
            "confidence": [1.0] * 24,
            "body_pose": [[1.0, 0.0, 0.0, 0.0]] * 24,
        }
        path = tmp_path / "s.jsonl"
        path.write_text(header + "\n" + json.dumps({"frame": 0, "persons": [person]}) + "\n")
        with pytest.raises(StreamFormatError):
            parse_stream(path)


    @pytest.mark.parametrize("unobserved", [[float("nan"), float("nan")], [float("nan"), 0.0]])
    def test_pixel_box_covers_every_finite_joint(self, scene, tmp_path, unobserved):
        path = tmp_path / "cam.jsonl"
        write_stream(path, KIND_2D, scene.tracks2d[0], "h", intrinsics=scene.intrinsics)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["persons"][0]["joints"][0] = unobserved
        record["persons"][0]["joints"][1] = [1e300, 1e300]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StreamFormatError, match="outside the allowed box") as err:
            parse_stream(path)
        assert err.value.line_number == 3


class TestResample:
    def test_identity_when_rates_match(self, scene, tmp_path):
        path = tmp_path / "cam.jsonl"
        write_stream(path, KIND_2D, scene.tracks2d[0], "h", intrinsics=scene.intrinsics)
        parsed = parse_stream(path)
        resampled = resample_to_timeline(parsed, list(range(6)), 10.0)
        for a, b in zip(parsed.tracks, resampled):
            assert_tracks_equal(a, b)

    def test_far_frames_are_dropped(self, scene, tmp_path):
        path = tmp_path / "cam.jsonl"
        write_stream(path, KIND_2D, scene.tracks2d[0], "h", intrinsics=scene.intrinsics)
        parsed = parse_stream(path)
        # The target timeline extends beyond the camera recording: trailing
        # frames have no counterpart within half a period and stay invalid.
        resampled = resample_to_timeline(parsed, list(range(12)), 10.0)
        for track in resampled:
            assert not track.valid[8:].any()

    @staticmethod
    def _nearest_source(source_indices, source_rate, target_indices, target_rate):
        """Brute force: per target frame, the nearest source frame in time (the
        lower index on a tie), or -1 beyond half a target period."""
        picks = []
        for t in target_indices:
            gaps = [abs(s / source_rate - t / target_rate) for s in source_indices]
            best = min(range(len(gaps)), key=lambda s: (gaps[s], s), default=-1)
            picks.append(best if best >= 0 and gaps[best] <= 0.5 / target_rate else -1)
        return picks

    @settings(max_examples=100, deadline=None)
    @given(
        source=st.lists(st.integers(0, 40), max_size=12, unique=True).map(sorted),
        target=st.lists(st.integers(0, 40), max_size=12, unique=True).map(sorted),
        source_rate=st.sampled_from([5.0, 10.0, 15.0, 30.0]),
        target_rate=st.sampled_from([5.0, 10.0, 15.0, 30.0]),
        present=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    # Exact in floating point: a gap of half a target period, and a tie.
    @example(source=[1], target=[0], source_rate=10.0, target_rate=5.0, present=[True] * 12)
    @example(source=[5, 7], target=[3], source_rate=10.0, target_rate=5.0, present=[True] * 12)
    def test_mismatched_rates_match_a_brute_force_reference(
        self, source, target, source_rate, target_rate, present
    ):
        frames = len(source)
        joints = np.arange(frames * 24 * 2, dtype=float).reshape(frames, 24, 2) + 1.0
        valid = np.array(present[:frames], dtype=bool)
        pose = np.broadcast_to(np.eye(3), (frames, 24, 3, 3))
        track = PersonTrack2D("p", joints, np.full((frames, 24), 0.5), pose, valid)
        parsed = ParsedStream(KIND_2D, source_rate, "h", None, source, [track])
        (resampled,) = resample_to_timeline(parsed, target, target_rate)
        picks = self._nearest_source(source, source_rate, target, target_rate)
        expected_valid = [s >= 0 and bool(valid[s]) for s in picks]
        assert resampled.valid.tolist() == expected_valid
        for t, s in enumerate(picks):
            expected = joints[s] if expected_valid[t] else np.zeros((24, 2))
            assert np.array_equal(resampled.joints[t], expected)


DROP = object()  # marks a key to delete in a document edit


class TestMatchOutput:
    @staticmethod
    def _payload():
        """A valid document: two pairs, extrinsics for frame 0."""
        rng = np.random.default_rng(3)
        return match_output_payload(
            MatchSet(((0, 1), (1, 0)), (0.5, 0.75), (2,), ()),
            [Extrinsics(random_rotation(rng), rng.normal(size=3)), None],
            PcmConfig(),
            "P&T&K",
            "skhash",
            "lidar.jsonl",
            "cam.jsonl",
            ["a", "b", "c"],
            ["x", "y"],
        )

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        match = MatchSet(((0, 1), (1, 0)), (0.5, 0.75), (2,), ())
        extr = [Extrinsics(random_rotation(rng), rng.normal(size=3)), None]
        payload = match_output_payload(
            match,
            extr,
            PcmConfig(),
            "P&T&K",
            "skhash",
            "lidar.jsonl",
            "cam.jsonl",
            ["a", "b", "c"],
            ["x", "y"],
            {"keypoint_path": True},
        )
        path = tmp_path / "match.json"
        write_match_output(path, payload)
        doc = load_match_output(path)
        assert doc.pairs == [(0, 1), (1, 0)]
        assert doc.residuals == [0.5, 0.75]
        assert doc.skeleton_hash == "skhash"
        assert set(doc.extrinsics) == {0}
        assert np.allclose(doc.extrinsics[0].rotation, extr[0].rotation, atol=1e-12)
        assert doc.payload["config"]["delta"] == 100.0

    @pytest.mark.parametrize(
        "where, value",
        [
            ((), ["not", "an", "object"]),
            (("pairs",), 5),
            (("pairs", 0, "idx3d"), DROP),
            (("pairs", 0, "idx2d"), DROP),
            (("pairs", 0, "idx3d"), 0.5),
            (("pairs", 0, "idx2d"), "1"),
            (("pairs", 0, "idx2d"), None),
            (("pairs", 0, "idx2d"), -1),
            (("extrinsics", 0, "quat_wxyz"), DROP),
            (("extrinsics", 0, "translation_m"), [0.0, 1.0]),
            (("extrinsics", 0, "translation_m"), [0.0, "x", 1.0]),
            (("extrinsics", 0, "translation_m"), [0.0, float("nan"), 1.0]),
        ],
    )
    def test_malformed_document_is_a_format_error(self, tmp_path, where, value):
        path = tmp_path / "match.json"
        write_match_output(path, self._payload())
        doc = load_match_output(path).payload  # the unedited document loads
        if not where:
            doc = value
        else:
            *parents, key = where
            target = doc
            for step in parents:
                target = target[step]
            if value is DROP:
                del target[key]
            else:
                target[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(StreamFormatError):
            load_match_output(path)

    def test_rejects_non_injective_pairs(self, tmp_path):
        path = tmp_path / "match.json"
        payload = {
            "match_format_version": 1,
            "pairs": [
                {"idx3d": 0, "idx2d": 1, "id3d": "a", "id2d": "b", "residual_px": 1.0},
                {"idx3d": 0, "idx2d": 0, "id3d": "a", "id2d": "c", "residual_px": 1.0},
            ],
            "extrinsics": [],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(StreamFormatError):
            load_match_output(path)

    @pytest.mark.parametrize("fault", ["version", "injective", "quaternion"])
    def test_errors_name_the_file(self, tmp_path, fault):
        doc = self._payload()
        if fault == "version":
            doc["match_format_version"] = 99
        elif fault == "injective":
            doc["pairs"][1]["idx3d"] = 0
        else:
            doc["extrinsics"][0]["quat_wxyz"] = [2.0, 0.0, 0.0, 0.0]
        path = tmp_path / "match.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StreamFormatError) as err:
            load_match_output(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_missing_document_is_an_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="absent.json"):
            load_match_output(tmp_path / "absent.json")

    def test_repeated_extrinsics_frame_is_a_format_error(self, tmp_path):
        doc = self._payload()
        doc["extrinsics"].append(dict(doc["extrinsics"][0], translation_m=[1.0, 2.0, 3.0]))
        path = tmp_path / "match.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(StreamFormatError, match="frame 0 twice"):
            load_match_output(path)

    def test_hash_guard(self):
        require_same_hash("a", "a", "")
        with pytest.raises(HashMismatch):
            require_same_hash("a", "b")
