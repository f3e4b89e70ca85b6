import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crossalign
from crossalign import cli, geometry, harness, simulator
from crossalign.cli import load_run_config, main
from crossalign.errors import InvalidConfig
from crossalign.refiner import CameraObservation, RefineProblem, RefineResult, refine_batch
from crossalign.streams import (
    KIND_2D,
    KIND_3D,
    load_match_output,
    parse_stream,
    resample_to_timeline,
    write_stream,
)


DROP = object()  # marks a key to delete in a document edit
IMAGE_SIZE_BOUND = "image width and height must be at least 1 and at most 2**53"


def run_cli(*argv) -> int:
    return main(list(argv))


def scene_config_payload(**overrides):
    payload = {
        "person_count": 3,
        "duration_frames": 8,
        "camera_count": 1,
        "pixel_noise_sigma": 0.0,
        "dropout_rate": 0.0,
        "seed": 5,
    }
    payload.update(overrides)
    return payload


def edit_header(stream, field, value):
    """Set one intrinsics field of a camera stream's header, in place."""
    lines = stream.read_text().splitlines()
    header = json.loads(lines[0])
    header["intrinsics"][field] = value
    stream.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")


@pytest.fixture()
def scene_dir(tmp_path):
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(scene_config_payload()))
    out = tmp_path / "scene"
    assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
    return out


class TestSimulate:
    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(camera_count=2, pixel_noise_sigma=1.5)))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(config), "--out", str(out1)) == 0
        assert run_cli("simulate", "--config", str(config), "--out", str(out2)) == 0
        for name in ("lidar.jsonl", "camera_00.jsonl", "camera_01.jsonl", "truth.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_file_fanout_matches_camera_count(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(
            json.dumps(scene_config_payload(person_count=4, camera_count=4, duration_frames=4))
        )
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "camera_00.jsonl",
            "camera_01.jsonl",
            "camera_02.jsonl",
            "camera_03.jsonl",
            "lidar.jsonl",
            "truth.jsonl",
        ]

    def test_invalid_config_exits_2(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(dropout_rate=1.5)))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x")) == 2

    def test_unknown_field_exits_2(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(extra_field=1)))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize(
        "field, value", [("person_count", 2.5), ("seed", 1.5), ("duration_frames", True)]
    )
    def test_mistyped_field_exits_2(self, tmp_path, field, value):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(**{field: value})))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "x")) == 2

    def test_image_size_a_float_cannot_hold_exits_2(self, tmp_path, caplog):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(image_width=10**400)))
        out = tmp_path / "x"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{config}: image width and height must be at least 2 and fit in a float" in message

    def test_image_size_past_the_intrinsics_bound_exits_2(self, tmp_path, caplog):
        # A float holds 10**300, but the squared image diagonal overflows.
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(image_width=10**300)))
        out = tmp_path / "x"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{config}: {IMAGE_SIZE_BOUND}" in message

    def test_truth_header_config_reproduces_the_streams(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(
            scene_config_payload(image_width=800, image_height=600, arena_radius=2.5)
        ))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", str(config), "--out", str(out1)) == 0
        header = json.loads((out1 / "truth.jsonl").read_text().splitlines()[0])
        echoed = header["config"]
        assert (echoed["image_width"], echoed["image_height"], echoed["arena_radius"]) == (800, 600, 2.5)
        config.write_text(json.dumps(echoed))
        assert run_cli("simulate", "--config", str(config), "--out", str(out2)) == 0
        for name in ("lidar.jsonl", "camera_00.jsonl", "truth.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_output(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload()))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(config), "--out", str(out1))
        run_cli("simulate", "--config", str(config), "--out", str(out2), "--seed", "99")
        assert (out1 / "lidar.jsonl").read_bytes() != (out2 / "lidar.jsonl").read_bytes()


class TestMatch:
    def test_streams_of_another_skeleton_exit_2(self, scene_dir, tmp_path):
        # Both streams agree on a skeleton, but it is not the one the matcher articulates.
        for name in ("lidar.jsonl", "camera_00.jsonl"):
            lines = (scene_dir / name).read_text().splitlines()
            header = json.loads(lines[0])
            header["skeleton_hash"] = "0" * 64
            (scene_dir / name).write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        out = tmp_path / "match"
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"), "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_match_recovers_truth_correspondence(self, scene_dir, tmp_path):
        out = tmp_path / "match"
        assert (
            run_cli(
                "match",
                "--lidar",
                str(scene_dir / "lidar.jsonl"),
                "--camera",
                str(scene_dir / "camera_00.jsonl"),
                "--out",
                str(out),
            )
            == 0
        )
        outputs = sorted(out.iterdir())
        assert len(outputs) == 1
        doc = load_match_output(outputs[0])
        truth_header = json.loads(
            (scene_dir / "truth.jsonl").read_text().splitlines()[0]
        )
        expected = {tuple(pair) for pair in truth_header["correspondence"][0]}
        assert set(doc.pairs) == expected
        assert doc.payload["config"]["delta"] == 100.0
        assert doc.payload["strategy"] == "P&T&K"

    def test_match_is_deterministic_across_runs(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(
            json.dumps(
                scene_config_payload(person_count=4, camera_count=3, pixel_noise_sigma=1.0)
            )
        )
        scene = tmp_path / "scene"
        run_cli("simulate", "--config", str(config), "--out", str(scene))
        cameras = sorted(str(p) for p in scene.glob("camera_*.jsonl"))
        args = ["match", "--lidar", str(scene / "lidar.jsonl")]
        for cam in cameras:
            args += ["--camera", cam]
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_multiple_cameras_fan_out(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(camera_count=4, duration_frames=6)))
        scene = tmp_path / "scene"
        run_cli("simulate", "--config", str(config), "--out", str(scene))
        args = ["match", "--lidar", str(scene / "lidar.jsonl")]
        for cam in sorted(scene.glob("camera_*.jsonl")):
            args += ["--camera", str(cam)]
        out = tmp_path / "match"
        assert run_cli(*args, "--out", str(out)) == 0
        assert len(list(out.iterdir())) == 4

    def test_alternate_mode_runs(self, scene_dir, tmp_path):
        out = tmp_path / "match_pose"
        assert (
            run_cli(
                "match",
                "--lidar",
                str(scene_dir / "lidar.jsonl"),
                "--camera",
                str(scene_dir / "camera_00.jsonl"),
                "--mode",
                "P&T",
                "--out",
                str(out),
            )
            == 0
        )
        doc = load_match_output(next(iter(sorted(out.iterdir()))))
        assert doc.payload["strategy"] == "P&T"

    def test_empty_camera_stream_warns_but_succeeds(self, scene_dir, tmp_path):
        lidar_lines = (scene_dir / "lidar.jsonl").read_text().splitlines()
        cam_lines = (scene_dir / "camera_00.jsonl").read_text().splitlines()
        empty_cam = tmp_path / "empty_cam.jsonl"
        header = cam_lines[0]
        records = [json.loads(line) for line in cam_lines[1:]]
        for record in records:
            record["persons"] = []
        empty_cam.write_text(
            "\n".join([header] + [json.dumps(r, sort_keys=True) for r in records]) + "\n"
        )
        out = tmp_path / "match_empty"
        code = run_cli(
            "match",
            "--lidar",
            str(scene_dir / "lidar.jsonl"),
            "--camera",
            str(empty_cam),
            "--out",
            str(out),
        )
        assert code == 0
        doc = load_match_output(next(iter(sorted(out.iterdir()))))
        assert doc.pairs == []

    @pytest.mark.parametrize("mode", [None, "KPs"])
    def test_empty_lidar_stream_warns_once_but_succeeds(self, scene_dir, tmp_path, mode, caplog):
        empty_lidar = tmp_path / "empty_lidar.jsonl"
        empty_lidar.write_text((scene_dir / "lidar.jsonl").read_text().splitlines()[0] + "\n")
        camera = scene_dir / "camera_00.jsonl"
        out = tmp_path / "match_empty"
        args = ["--mode", mode] if mode else []
        code = run_cli(
            "match", "--lidar", str(empty_lidar), "--camera", str(camera), "--camera", str(camera),
            "--out", str(out), *args,
        )
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "no persons in LiDAR stream" in warnings[0]
        documents = sorted(out.iterdir())
        assert len(documents) == 2
        for path in documents:
            doc = load_match_output(path)
            assert (doc.pairs, doc.extrinsics) == ([], {})
            assert doc.payload["unmatched3d"] == [] and len(doc.payload["unmatched2d"]) == 3

    def test_wrong_kind_exits_2(self, scene_dir, tmp_path):
        code = run_cli(
            "match",
            "--lidar",
            str(scene_dir / "camera_00.jsonl"),
            "--camera",
            str(scene_dir / "camera_00.jsonl"),
            "--out",
            str(tmp_path / "x"),
        )
        assert code == 2

    def test_nan_joint_without_confidence_keeps_every_pair(self, scene_dir, tmp_path):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        edited = [lines[0]]
        for line in lines[1:]:
            record = json.loads(line)
            for person in record["persons"]:
                if person["id"] == "cam0_t00":
                    person["joints"][5] = [float("nan"), float("nan")]
                    person["confidence"][5] = 0.0
            edited.append(json.dumps(record))
        camera.write_text("\n".join(edited) + "\n")
        out = tmp_path / "match"
        assert run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--out", str(out),
        ) == 0
        doc = load_match_output(sorted(out.iterdir())[0])
        truth_header = json.loads((scene_dir / "truth.jsonl").read_text().splitlines()[0])
        assert set(doc.pairs) == {tuple(pair) for pair in truth_header["correspondence"][0]}
        assert len(doc.pairs) == 3

    def test_stats_block_counts_pose_fits(self, scene_dir, tmp_path):
        out = tmp_path / "match"
        assert run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"), "--out", str(out),
        ) == 0
        stats = json.loads(sorted(out.iterdir())[0].read_text())["stats"]
        assert stats["pnp_attempted"] >= stats["frames_total"]
        assert set(stats["pnp_failed"]) == {
            "InsufficientCorrespondences", "DegenerateConfiguration", "NoConvergence"
        }
        assert all(isinstance(count, int) for count in stats["pnp_failed"].values())
        assert stats["pairs_rejected"] == 0
        assert set(stats["frames_skipped"]) == {
            "no_usable_person", "seed_fits_failed", "no_valid_proposal"
        }
        assert sum(stats["frames_skipped"].values()) == stats["frames_failed"]

    @staticmethod
    def _bad_frame_rate(lines):
        header = json.loads(lines[0])
        header["frame_rate"] = "abc"
        return [json.dumps(header)] + lines[1:]

    @staticmethod
    def _bad_frame(lines):
        record = json.loads(lines[2])
        record["frame"] = "x"
        return lines[:2] + [json.dumps(record)] + lines[3:]

    @staticmethod
    def _missing_ids(lines):
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            for person in record["persons"]:
                if person["id"] != "cam0_t02":
                    del person["id"]
        return lines[:1] + [json.dumps(record) for record in records]

    @staticmethod
    def _integer_id(lines):
        record = json.loads(lines[2])
        record["persons"][0]["id"] = 7
        return lines[:2] + [json.dumps(record)] + lines[3:]

    @pytest.mark.parametrize("edit", ["_bad_frame_rate", "_bad_frame", "_missing_ids", "_integer_id"])
    def test_malformed_camera_stream_exits_2(self, scene_dir, tmp_path, edit, caplog):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        camera.write_text("\n".join(getattr(self, edit)(lines)) + "\n")
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        assert any(r.levelname == "ERROR" and "line" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "field, value",
        [("fx", True), ("fy", "1000"), ("cx", float("nan")), ("cy", None), ("cy", DROP),
         ("width", 1920.7), ("width", True), ("height", "1080"), ("height", 1080.0),
         ("width", 0), ("height", 0)],
    )
    def test_mistyped_intrinsics_exit_2(self, scene_dir, tmp_path, field, value, caplog):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        header = json.loads(lines[0])
        if value is DROP:
            del header["intrinsics"][field]
        else:
            header["intrinsics"][field] = value
        camera.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        assert any(r.levelname == "ERROR" and "line 1:" in r.getMessage() for r in caplog.records)

    def test_nan_confidence_exits_2(self, scene_dir, tmp_path, caplog):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        record = json.loads(lines[2])
        record["persons"][0]["confidence"][0] = float("nan")
        lines[2] = json.dumps(record)
        camera.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        assert any(r.levelname == "ERROR" and "line 3:" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("field, value", [("n_iter", "two"), ("delta", "x")])
    def test_non_numeric_config_value_exits_2(self, scene_dir, tmp_path, field, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({field: value}))
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_iter", 2.7),
            ("smoothing_window", True),
            ("delta", "0.5"),
            ("delta", math.inf),
            ("lambda0", math.nan),
        ],
    )
    def test_mistyped_or_non_finite_config_value_exits_2(self, scene_dir, tmp_path, field, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({field: value}))
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"),
            "--config", str(config), "--out", str(tmp_path / "x"),
        )
        assert code == 2

    def test_integer_config_value_is_echoed_as_float(self, scene_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"delta": 1}))
        out = tmp_path / "match"
        assert run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"),
            "--config", str(config), "--out", str(out),
        ) == 0
        assert '"delta": 1.0,' in sorted(out.iterdir())[0].read_text()

    def test_pose_mode_leaves_unmeasurable_pairs_unmatched(self, scene_dir, tmp_path):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            for person in record["persons"]:
                person["confidence"] = [0.0] * len(person["confidence"])
        camera.write_text("\n".join(lines[:1] + [json.dumps(r) for r in records]) + "\n")
        out = tmp_path / "match"
        assert run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--mode", "Pose", "--out", str(out),
        ) == 0
        text = sorted(out.iterdir())[0].read_text()
        doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"document holds {name}"))
        assert doc["pairs"] == []
        assert doc["unmatched3d"] == [0, 1, 2]

    def test_string_and_boolean_lidar_entries_exit_2(self, scene_dir, tmp_path, caplog):
        lidar = scene_dir / "lidar.jsonl"
        lines = lidar.read_text().splitlines()
        record = json.loads(lines[1])
        record["persons"][0]["joints"][0] = ["1.5", True, "nan"]
        record["persons"][0]["body_pose"][0] = [True, False, False, False]
        lines[1] = json.dumps(record)
        lidar.write_text("\n".join(lines) + "\n")
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(lidar), "--camera", str(scene_dir / "camera_00.jsonl"),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        pid = record["persons"][0]["id"]
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{lidar}: line 2: person {pid!r} carries non-numeric data" in message

    def test_joint_outside_the_pixel_box_beside_an_unobserved_one_exits_2(
        self, scene_dir, tmp_path, caplog
    ):
        camera = scene_dir / "camera_00.jsonl"
        lines = camera.read_text().splitlines()
        record = json.loads(lines[2])
        record["persons"][0]["joints"][0] = [float("nan"), float("nan")]
        record["persons"][0]["joints"][1] = [1e300, 1e300]
        lines[2] = json.dumps(record)
        camera.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(camera),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        assert any(r.levelname == "ERROR" and "line 3:" in r.getMessage() for r in caplog.records)

    def test_malformed_second_camera_is_named(self, scene_dir, tmp_path, caplog):
        first, second = scene_dir / "camera_00.jsonl", scene_dir / "camera_01.jsonl"
        lines = first.read_text().splitlines()
        second.write_text("\n".join(lines[:3] + lines[2:]) + "\n")  # line 4 repeats frame 1
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(first),
            "--camera", str(second), "--out", str(tmp_path / "match"),
        )
        assert code == 2
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{second}: line 4: frame 1 follows frame 1" in message
        assert str(first) not in message

    @pytest.mark.parametrize("field", [
        "frame", "width", "height", "joints", "confidence", "body_pose",
    ])
    def test_number_a_float_cannot_hold_exits_2(self, scene_dir, tmp_path, field, caplog):
        # The LiDAR stream's last frame index, a camera header's image size or
        # a camera person's first value is 10**400.
        name = "lidar.jsonl" if field == "frame" else "camera_00.jsonl"
        stream = scene_dir / name
        lines = stream.read_text().splitlines()
        index = {"frame": len(lines) - 1, "width": 0, "height": 0}.get(field, 2)
        document = json.loads(lines[index])
        if field == "frame":
            document["frame"] = 10**400
        elif index == 0:
            document["intrinsics"][field] = 10**400
        else:
            values = document["persons"][0][field]
            values[0] = 10**400 if field == "confidence" else [10**400] + values[0][1:]
        lines[index] = json.dumps(document)
        stream.write_text("\n".join(lines) + "\n")
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"), "--out", str(tmp_path / "match"),
        )
        assert code == 2
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{stream}: line {index + 1}: " in message

    @pytest.mark.parametrize("field", ["width", "height"])
    def test_image_size_past_the_intrinsics_bound_exits_2(self, scene_dir, tmp_path, field, caplog):
        # A float holds 10**300, but the squared image diagonal overflows.
        stream = scene_dir / "camera_00.jsonl"
        edit_header(stream, field, 10**300)
        out = tmp_path / "match"
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"), "--camera", str(stream),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{stream}: line 1: bad intrinsics: {IMAGE_SIZE_BOUND}" in message

    def test_frame_times_that_are_one_float_exit_2(self, scene_dir, tmp_path, caplog):
        # Indices 2**53 ... 2**53 + 5 increase, but at 10 Hz 2**53 and 2**53 + 1
        # give one float time: the camera frames would collapse onto one slot.
        for name in ("lidar.jsonl", "camera_00.jsonl"):
            lines = (scene_dir / name).read_text().splitlines()[:7]
            records = [json.loads(line) for line in lines[1:]]
            for k, record in enumerate(records):
                record["frame"] = 2**53 + k
            (scene_dir / name).write_text(
                "\n".join(lines[:1] + [json.dumps(r) for r in records]) + "\n"
            )
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(scene_dir / "lidar.jsonl"),
            "--camera", str(scene_dir / "camera_00.jsonl"), "--out", str(tmp_path / "match"),
        )
        assert code == 2
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        lidar = scene_dir / "lidar.jsonl"
        assert f"{lidar}: line 3: frame {2**53 + 1} has frame {2**53}'s time" in message

    @pytest.mark.parametrize("rate", [0, -10.0])
    def test_non_positive_lidar_frame_rate_is_a_header_error(
        self, scene_dir, tmp_path, rate, caplog
    ):
        lidar = scene_dir / "lidar.jsonl"
        lines = lidar.read_text().splitlines()
        header = json.loads(lines[0])
        header["frame_rate"] = rate
        lidar.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        caplog.clear()
        code = run_cli(
            "match", "--lidar", str(lidar), "--camera", str(scene_dir / "camera_00.jsonl"),
            "--out", str(tmp_path / "match"),
        )
        assert code == 2
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{lidar}: line 1: frame_rate must be a positive finite number" in message


class TestRefine:
    @pytest.fixture()
    def noisy_scene(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(
            json.dumps(
                scene_config_payload(
                    person_count=3,
                    camera_count=2,
                    duration_frames=6,
                    joint3d_noise_sigma=0.05,
                    seed=13,
                )
            )
        )
        out = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
        return out

    def _run_match(self, scene_dir, out):
        args = ["match", "--lidar", str(scene_dir / "lidar.jsonl")]
        for cam in sorted(scene_dir.glob("camera_*.jsonl")):
            args += ["--camera", str(cam)]
        assert run_cli(*args, "--out", str(out)) == 0
        return sorted(out.iterdir())

    def test_refine_reduces_error_against_truth(self, noisy_scene, tmp_path):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        refined_path = tmp_path / "refined.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl")]
        for m in matches:
            args += ["--match", str(m)]
        assert run_cli(*args, "--out", str(refined_path)) == 0

        truth_lines = (noisy_scene / "truth.jsonl").read_text().splitlines()
        truth_joints = {
            json.loads(line)["frame"]: np.asarray(json.loads(line)["joints"])
            for line in truth_lines[1:]
        }
        original = parse_stream(noisy_scene / "lidar.jsonl")
        refined = parse_stream(refined_path)
        before, after = [], []
        for p, (orig, new) in enumerate(zip(original.tracks, refined.tracks)):
            for t in range(6):
                truth = truth_joints[t][p]
                before.append(np.linalg.norm(orig.joints[t] - truth, axis=1).mean())
                after.append(np.linalg.norm(new.joints[t] - truth, axis=1).mean())
        assert np.mean(after) < np.mean(before)

    def test_unmatched_person_passes_through(self, noisy_scene, tmp_path):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        # Strip every pair from the first match output: those cameras then
        # contribute nothing and refinement must be the identity.
        doc = json.loads(matches[0].read_text())
        doc["pairs"] = []
        doc["unmatched3d"] = [0, 1, 2]
        doc["unmatched2d"] = sorted(
            set(p["idx2d"] for p in json.loads(matches[1].read_text())["pairs"])
        ) if len(matches) > 1 else []
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(doc, sort_keys=True))

        refined_path = tmp_path / "refined_identity.jsonl"
        assert (
            run_cli(
                "refine",
                "--lidar",
                str(noisy_scene / "lidar.jsonl"),
                "--match",
                str(stripped),
                "--out",
                str(refined_path),
            )
            == 0
        )
        original = parse_stream(noisy_scene / "lidar.jsonl")
        refined = parse_stream(refined_path)
        for orig, new in zip(original.tracks, refined.tracks):
            assert np.array_equal(orig.joints[orig.valid], new.joints[new.valid])

    def test_hash_mismatch_exits_2(self, noisy_scene, tmp_path):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        doc["skeleton_hash"] = "different"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True))
        code = run_cli(
            "refine",
            "--lidar",
            str(noisy_scene / "lidar.jsonl"),
            "--match",
            str(bad),
            "--out",
            str(tmp_path / "never.jsonl"),
        )
        assert code == 2


    def test_malformed_match_document_exits_2(self, noisy_scene, tmp_path):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        del doc["pairs"][0]["idx2d"]
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        code = run_cli(
            "refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--match", str(matches[0]),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field", ["translation_m", "quat_wxyz", "residual_px"])
    def test_number_a_float_cannot_hold_exits_2_before_writing(
        self, noisy_scene, tmp_path, field, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        if field == "residual_px":
            doc["pairs"][0][field] = 10**400
        else:
            doc["extrinsics"][0][field][0] = 10**400
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        caplog.clear()
        code = run_cli(
            "refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--match", str(matches[0]),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{matches[0]}: malformed match output" in message

    def test_string_translation_and_boolean_residual_exit_2_before_writing(
        self, noisy_scene, tmp_path, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        doc["extrinsics"][0]["translation_m"][0] = str(doc["extrinsics"][0]["translation_m"][0])
        doc["pairs"][0]["residual_px"] = True
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        caplog.clear()
        code = run_cli(
            "refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--match", str(matches[0]),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{matches[0]}: malformed match output" in message

    @pytest.mark.parametrize("field, fault", [
        ("quat_wxyz", "non-unit quaternion"),
        ("translation_m", "non-finite translation"),
    ])
    def test_null_pose_entry_exits_2_naming_its_frame(
        self, noisy_scene, tmp_path, field, fault, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        record = doc["extrinsics"][1]
        record[field][1] = None
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        caplog.clear()
        code = run_cli(
            "refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--match", str(matches[0]),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{matches[0]}: {fault} in frame {record['frame']}" in message

    def test_camera_image_size_past_the_intrinsics_bound_exits_2_before_writing(
        self, noisy_scene, tmp_path, caplog
    ):
        # The camera stream a match document names is edited after the match.
        matches = self._run_match(noisy_scene, tmp_path / "match")
        camera = noisy_scene / "camera_00.jsonl"
        edit_header(camera, "width", 10**300)
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{camera}: line 1: bad intrinsics: {IMAGE_SIZE_BOUND}" in message

    def test_repeated_extrinsics_frame_exits_2_before_writing(self, noisy_scene, tmp_path):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        doc["extrinsics"][1]["frame"] = doc["extrinsics"][0]["frame"]
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        assert run_cli(*args) == 2
        assert not out.exists()

    def test_non_finite_lidar_joint_exits_2_before_writing(self, noisy_scene, tmp_path, caplog):
        lidar = noisy_scene / "lidar.jsonl"
        lines = lidar.read_text().splitlines()
        record = json.loads(lines[3])
        person = record["persons"][0]
        person["joints"][4][1] = float("nan")
        lidar.write_text("\n".join(lines[:3] + [json.dumps(record)] + lines[4:]) + "\n")
        matches = self._run_match(noisy_scene, tmp_path / "match")
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(lidar), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"person {person['id']!r}" in message
        assert f"frame {record['frame']}" in message

    @pytest.mark.parametrize("field", ["idx3d", "idx2d"])
    def test_out_of_range_pair_index_exits_2_before_writing(self, noisy_scene, tmp_path, field):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        for pair in doc["pairs"]:
            pair[field] += 10
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        assert run_cli(*args) == 2
        assert not out.exists()

    def test_extrinsics_frame_beyond_the_timeline_exits_2_before_writing(
        self, noisy_scene, tmp_path, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        doc["extrinsics"][0]["frame"] = 999
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert str(matches[0]) in message
        assert "frame 999" in message

    @pytest.mark.parametrize("field", ["id3d", "id2d"])
    def test_pair_ids_that_differ_from_the_streams_exit_2_before_writing(
        self, noisy_scene, tmp_path, field, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        doc = json.loads(matches[0].read_text())
        for pair in doc["pairs"]:
            pair[field] = "nobody"
        matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert str(matches[0]) in message
        assert "'nobody'" in message

    @pytest.mark.parametrize("second", ["same file", "copy"])
    def test_two_documents_of_one_camera_exit_2_before_writing(
        self, noisy_scene, tmp_path, second, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        other = matches[0]
        if second == "copy":
            other = tmp_path / "elsewhere" / "copy.json"
            other.parent.mkdir()
            other.write_bytes(matches[0].read_bytes())
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl"), "--out", str(out)]
        for m in matches + [other]:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{other} and {matches[0]}" in message

    @pytest.mark.parametrize("lidar", ["another scene", "missing"])
    def test_document_of_another_lidar_stream_exits_2_before_writing(
        self, noisy_scene, tmp_path, lidar, caplog
    ):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        if lidar == "another scene":
            config = tmp_path / "other.json"
            config.write_text(json.dumps(scene_config_payload(
                person_count=3, camera_count=2, duration_frames=6, joint3d_noise_sigma=0.05,
                seed=14,
            )))
            other = tmp_path / "other"
            assert run_cli("simulate", "--config", str(config), "--out", str(other)) == 0
            given = other / "lidar.jsonl"
        else:
            given = noisy_scene / "lidar.jsonl"
            doc = json.loads(matches[0].read_text())
            doc["lidar_stream"] = "nowhere.jsonl"
            matches[0].write_text(json.dumps(doc))
        out = tmp_path / "never.jsonl"
        args = ["refine", "--lidar", str(given), "--out", str(out)]
        for m in matches:
            args += ["--match", str(m)]
        caplog.clear()
        assert run_cli(*args) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{matches[0]} was matched against LiDAR stream" in message

    def test_refine_after_match_with_relative_paths(self, noisy_scene, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["match", "--lidar", "scene/lidar.jsonl", "--camera", "scene/camera_00.jsonl"]
        assert run_cli(*args, "--out", "m2") == 0
        doc = load_match_output("m2/match_00_camera_00.json")
        assert doc.camera_stream == "../scene/camera_00.jsonl"
        assert doc.lidar_stream == "../scene/lidar.jsonl"
        assert run_cli(
            "refine", "--lidar", "scene/lidar.jsonl", "--match", "m2/match_00_camera_00.json",
            "--out", "refined.jsonl",
        ) == 0
        # Absolute paths are recorded exactly as given.
        camera = str(tmp_path / "scene" / "camera_00.jsonl")
        assert run_cli("match", "--lidar", "scene/lidar.jsonl", "--camera", camera, "--out", "m3") == 0
        assert load_match_output("m3/match_00_camera_00.json").camera_stream == camera

    def test_match_numbers_extrinsics_by_timeline_position(self, tmp_path):
        # Records numbered 100-105: the document's extrinsics frames count
        # positions on the LiDAR timeline, and refine reads them that way,
        # writing the LiDAR records' own numbers back.
        scene = simulator.generate(simulator.SceneConfig(person_count=3, duration_frames=6, seed=13))
        numbers = list(range(100, 106))
        lidar, camera = tmp_path / "lidar.jsonl", tmp_path / "camera.jsonl"
        skeleton_hash = scene.skeleton.content_hash
        write_stream(lidar, KIND_3D, scene.tracks3d, skeleton_hash, frame_indices=numbers)
        write_stream(camera, KIND_2D, scene.tracks2d[0], skeleton_hash,
                     intrinsics=scene.intrinsics, frame_indices=numbers)
        out = tmp_path / "match"
        assert run_cli("match", "--lidar", str(lidar), "--camera", str(camera), "--out", str(out)) == 0
        (document,) = out.iterdir()
        frames = [entry["frame"] for entry in json.loads(document.read_text())["extrinsics"]]
        assert frames == list(range(6))
        refined = tmp_path / "refined.jsonl"
        assert run_cli("refine", "--lidar", str(lidar), "--match", str(document),
                       "--out", str(refined)) == 0
        assert parse_stream(refined).frame_indices == numbers

    def test_views_follow_the_match_order(self, tmp_path):
        # Each person-frame's camera views reach the refiner in --match order,
        # and that order fixes the refined bits: whatever the order, the output
        # equals a reference built here, problem by problem in (track, frame)
        # order.
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload(
            person_count=3, camera_count=3, duration_frames=6, joint3d_noise_sigma=0.05,
            pixel_noise_sigma=1.0, seed=13,
        )))
        scene = tmp_path / "scene"
        assert run_cli("simulate", "--config", str(config), "--out", str(scene)) == 0
        matches = self._run_match(scene, tmp_path / "match")
        assert len(matches) == 3
        lidar = parse_stream(scene / "lidar.jsonl")
        for name, order in (("given", matches), ("reversed", matches[::-1])):
            out = tmp_path / f"{name}.jsonl"
            args = ["refine", "--lidar", str(scene / "lidar.jsonl"), "--out", str(out)]
            for m in order:
                args += ["--match", str(m)]
            assert run_cli(*args) == 0

            cameras = []  # (document, camera intrinsics, resampled tracks), in --match order
            for m in order:
                doc = load_match_output(m)
                cam = parse_stream(m.parent / doc.camera_stream)
                cameras.append((doc, cam.intrinsics, resample_to_timeline(
                    cam, lidar.frame_indices, lidar.frame_rate)))
            problems, slots = [], []
            for i, track in enumerate(lidar.tracks):
                for t in range(len(lidar.frame_indices)):
                    views = tuple(
                        CameraObservation(k, doc.extrinsics[t], tracks2d[j].joints[t],
                                          tracks2d[j].confidence[t])
                        for doc, k, tracks2d in cameras
                        for i3, j in doc.pairs
                        if i3 == i and track.valid[t] and tracks2d[j].valid[t]
                        and t in doc.extrinsics
                    )
                    if views:
                        problems.append(RefineProblem(track.joints[t], views))
                        slots.append((i, t))
            assert max(len(p.observations) for p in problems) == 3
            joints = [track.joints.copy() for track in lidar.tracks]
            for (i, t), result in zip(slots, refine_batch(problems)):
                joints[i][t] = result.refined3d
            reference = tmp_path / f"{name}_reference.jsonl"
            write_stream(
                reference, KIND_3D,
                [replace(track, joints=j) for track, j in zip(lidar.tracks, joints)],
                lidar.skeleton_hash, frame_rate=lidar.frame_rate,
                frame_indices=lidar.frame_indices,
            )
            assert out.read_bytes() == reference.read_bytes()

    def test_non_converged_refinements_are_counted(self, noisy_scene, tmp_path, monkeypatch, caplog):
        matches = self._run_match(noisy_scene, tmp_path / "match")
        args = ["refine", "--lidar", str(noisy_scene / "lidar.jsonl")]
        for m in matches:
            args += ["--match", str(m)]
        assert run_cli(*args, "--out", str(tmp_path / "converged.jsonl")) == 0
        real = cli.refine_batch
        calls = []

        def capped(problems):
            results = real(problems)
            calls.extend(results)
            return [RefineResult(r.refined3d, r.objective_trace, False) for r in results]

        monkeypatch.setattr(cli, "refine_batch", capped)
        caplog.clear()
        assert run_cli(*args, "--out", str(tmp_path / "capped.jsonl")) == 0
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].getMessage().startswith(f"{len(calls)} of {len(calls)} ")
        assert (tmp_path / "capped.jsonl").read_bytes() == (tmp_path / "converged.jsonl").read_bytes()


class TestBench:
    def test_bench_smoke(self, tmp_path):
        spec = tmp_path / "bench.json"
        spec.write_text(
            json.dumps(
                {
                    "modes": ["P&T"],
                    "person_counts": [2],
                    "pixel_noise_sigmas": [0.0],
                    "synchronized": [False],
                    "seeds": [1],
                    "duration_frames": 4,
                }
            )
        )
        out = tmp_path / "report.csv"
        assert run_cli("bench", "--spec", str(spec), "--out", str(out)) == 0
        assert out.exists()
        text = out.read_text()
        assert text.startswith("# crossalign-bench-report")

    @pytest.mark.parametrize(
        "field, value",
        [("duration_frames", "x"), ("person_counts", ["2"]), ("synchronized", [1]), ("delta", None)],
    )
    def test_mistyped_field_exits_2(self, tmp_path, field, value):
        payload = {"modes": ["P&T"], "person_counts": [2], "seeds": [1], "duration_frames": 4}
        payload[field] = value
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps(payload))
        assert run_cli("bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")) == 2

    def test_empty_modes_exit_2(self, tmp_path):
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps({"modes": [], "person_counts": [2]}))
        assert run_cli("bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize(
        "field, value", [("pixel_noise_sigmas", [0.0, -1.0]), ("dropout_rate", 1.5), ("modes", [])]
    )
    def test_out_of_range_field_exits_2_naming_file_and_field_before_any_scene(
        self, tmp_path, monkeypatch, caplog, field, value
    ):
        def generate(config):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(harness, "generate", generate)
        payload = {"modes": ["Pose"], "person_counts": [2], "seeds": [1], "duration_frames": 4}
        payload[field] = value
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "r.csv"
        caplog.clear()
        assert run_cli("bench", "--spec", str(spec), "--out", str(out)) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{spec}: " in message
        assert field in message

    def test_repetitions_that_would_reuse_a_scene_seed_exit_2_before_any_scene(
        self, tmp_path, monkeypatch, caplog
    ):
        def generate(config):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(harness, "generate", generate)
        spec = tmp_path / "bench.json"
        spec.write_text(json.dumps(
            {"modes": ["Pose"], "person_counts": [2], "seeds": [1, 2], "repetitions": 1001}
        ))
        out = tmp_path / "r.csv"
        caplog.clear()
        assert run_cli("bench", "--spec", str(spec), "--out", str(out)) == 2
        assert not out.exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{spec}: " in message and "repetitions" in message


class TestUsage:
    def test_version_runs(self, capsys):
        assert run_cli("version") == 0
        out = capsys.readouterr().out
        assert "crossalign" in out

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "missing.json", "--out", "out"],
            ["match", "--lidar", "missing.jsonl", "--camera", "missing.jsonl", "--out", "out"],
            ["bench", "--spec", "missing.json", "--out", "report.csv"],
        ],
    )
    def test_retired_threads_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2  # the inputs are missing: a data error
        assert run_cli(*argv, "--threads", "2") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("simulate", "--nope") == 1

    @pytest.mark.parametrize("flags", [["--mode", "bogus"], ["--mode", "KP", "--seed", "-5"]])
    def test_bad_mode_or_seed_is_usage_error_before_any_output(self, scene_dir, tmp_path, flags):
        out = tmp_path / "never"
        lidar, camera = str(scene_dir / "lidar.jsonl"), str(scene_dir / "camera_00.jsonl")
        argv = ["match", "--lidar", lidar, "--camera", camera, "--out", str(out), *flags]
        assert run_cli(*argv) == 1
        assert not out.exists()

    def test_negative_simulate_seed_is_usage_error_before_any_output(self, tmp_path):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(scene_config_payload()))
        out = tmp_path / "never"
        assert run_cli("simulate", "--config", str(config), "--out", str(out), "--seed", "-3") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "target", ["stream", "match document", "run config", "scene config", "bench spec"]
    )
    def test_input_that_is_not_utf8_is_data_error(self, scene_dir, tmp_path, target, caplog):
        lidar, camera = str(scene_dir / "lidar.jsonl"), str(scene_dir / "camera_00.jsonl")
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"seed": "caf\u00e9"}\n'.encode("latin-1"))
        out = str(tmp_path / "never")
        argv = {
            "stream": ["match", "--lidar", str(bad), "--camera", camera, "--out", out],
            "match document": ["refine", "--lidar", lidar, "--match", str(bad), "--out", out],
            "run config": [
                "match", "--lidar", lidar, "--camera", camera, "--config", str(bad), "--out", out
            ],
            "scene config": ["simulate", "--config", str(bad), "--out", out],
            "bench spec": ["bench", "--spec", str(bad), "--out", out],
        }[target]
        caplog.clear()
        assert run_cli(*argv) == 2
        assert not (tmp_path / "never").exists()
        message = " ".join(r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert f"{bad} is not UTF-8" in message

    def test_missing_file_is_data_error(self, tmp_path):
        assert (
            run_cli(
                "simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")
            )
            == 2
        )

    @pytest.mark.parametrize("payload", [{"delta": -1}, {"lambda1": -1}])
    def test_run_config_out_of_range_names_its_file(self, tmp_path, payload):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfig) as info:
            load_run_config(config)
        assert str(info.value).startswith(f"{config}: ")


class TestBlasThreads:
    def test_written_files_are_identical_at_one_and_two_threads(self, tmp_path):
        # simulate -> match (keypoint search forced on) -> refine, once per
        # OpenBLAS thread count, each in one fresh interpreter. Paths are
        # relative so that the match documents record the same stream paths.
        (tmp_path / "scene.json").write_text(json.dumps(scene_config_payload(
            person_count=3, camera_count=2, duration_frames=6, pixel_noise_sigma=1.5,
            joint3d_noise_sigma=0.03,
        )))
        (tmp_path / "run.json").write_text(json.dumps({"delta": 0.0}))
        # Eight persons without dropout: each frame's pose fit holds at least
        # 6 pairs of 24 joints, more than one BLAS block of the normal equations.
        (tmp_path / "crowd.json").write_text(json.dumps(scene_config_payload(
            person_count=8, duration_frames=4, pixel_noise_sigma=1.5, joint3d_noise_sigma=0.03,
        )))
        cameras = ["--camera", "scene/camera_00.jsonl", "--camera", "scene/camera_01.jsonl"]
        commands = [
            ["simulate", "--config", "../scene.json", "--out", "scene"],
            ["match", "--lidar", "scene/lidar.jsonl", *cameras, "--config", "../run.json",
             "--out", "match"],
            ["refine", "--lidar", "scene/lidar.jsonl", "--match",
             "match/match_00_camera_00.json", "--match", "match/match_01_camera_01.json",
             "--out", "refined.jsonl"],
            ["simulate", "--config", "../crowd.json", "--out", "crowd"],
            ["match", "--lidar", "crowd/lidar.jsonl", "--camera", "crowd/camera_00.jsonl",
             "--out", "crowd_match"],
        ]
        script = (
            "import json, sys\n"
            "from crossalign.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
        )
        src = str(Path(crossalign.__file__).resolve().parents[1])
        written = {}
        for threads in ("1", "2"):
            run = tmp_path / f"threads{threads}"
            run.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", script, json.dumps(commands)], cwd=run, env=env,
                           check=True, timeout=120)
            written[threads] = {
                str(path.relative_to(run)): path.read_bytes()
                for path in sorted(run.rglob("*")) if path.is_file()
            }
        assert "refined.jsonl" in written["1"] and "match/match_01_camera_01.json" in written["1"]
        crowd = json.loads(written["1"]["crowd_match/match_00_camera_00.json"])
        assert len(crowd["pairs"]) * 24 > geometry.PNP_BLOCK_POINTS
        assert written["1"] == written["2"]
