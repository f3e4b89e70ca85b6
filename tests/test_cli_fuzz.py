"""Fuzzing the CLI's file inputs: an edited stream record or match document
ends in exit code 0, 2 (data) or 3 (numerical), never in an exception; an
edited config file loads or raises its typed error."""

import copy
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossalign.cli import load_bench_spec, load_run_config, load_scene_config, main
from crossalign.errors import InvalidConfig, InvalidSpec

# Values an edit puts in place of a field: wrong types, non-finite and out-of-range numbers.
VALUES = [None, True, "x", -1, 0, 0.5, 1e9, math.nan, math.inf, [], {}, [0.0], {"x": 1}]

# An edit goes one level deeper into the document with probability 3/4.
DESCEND = st.integers(0, 3).map(bool)

FUZZ = settings(max_examples=30, deadline=None)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A seed-5 scene (3 persons, 8 frames, 1 camera) and its match document."""
    base = tmp_path_factory.mktemp("fuzz")
    config = base / "scene.json"
    config.write_text(json.dumps({
        "person_count": 3, "duration_frames": 8, "camera_count": 1,
        "pixel_noise_sigma": 0.0, "dropout_rate": 0.0, "seed": 5,
    }))
    assert main(["simulate", "--config", str(config), "--out", str(base / "scene")]) == 0
    assert main(["match", "--lidar", str(base / "scene" / "lidar.jsonl"),
                 "--camera", str(base / "scene" / "camera_00.jsonl"),
                 "--out", str(base / "match")]) == 0
    return base


def _edited(data, root, values=VALUES):
    """``root`` with one drawn edit applied somewhere inside it: a field dropped,
    replaced by one of ``values``, or a list shortened or lengthened."""
    holder = {"root": root}
    parent, key = holder, "root"
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(DESCEND):
        node = parent[key]
        parent = node
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
    node = parent[key]
    op = data.draw(st.sampled_from(["drop", "replace", "resize"]))
    if op == "drop":
        del parent[key]
    elif op == "replace" or not isinstance(node, list):
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(values)))
    elif node and data.draw(st.booleans()):
        node.pop()
    else:
        node.append(node[-1] if node else 0.0)
    return holder.get("root")


def _edit_times(data, root, values=VALUES):
    for _ in range(data.draw(st.integers(1, 3))):
        root = _edited(data, root, values)
    return root


def _refine_args(lidar, matches, out):
    args = ["refine", "--lidar", str(lidar), "--out", str(out)]
    for match in matches:
        args += ["--match", str(match)]
    return args


@FUZZ
@given(data=st.data())
def test_edited_stream_record_never_raises(scene, data):
    name = data.draw(st.sampled_from(["lidar.jsonl", "camera_00.jsonl"]))
    lines = (scene / "scene" / name).read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    lines[index] = json.dumps(_edit_times(data, json.loads(lines[index])))
    with tempfile.TemporaryDirectory(dir=scene) as work:
        work = Path(work)
        for stream in ("lidar.jsonl", "camera_00.jsonl"):
            text = (scene / "scene" / stream).read_text()
            (work / stream).write_text("\n".join(lines) + "\n" if stream == name else text)
        code = main(["match", "--lidar", str(work / "lidar.jsonl"),
                     "--camera", str(work / "camera_00.jsonl"), "--out", str(work / "match")])
        assert code in (0, 2, 3)
        matches = sorted((work / "match").glob("*.json")) if code == 0 else []
        if matches:
            assert main(_refine_args(work / "lidar.jsonl", matches, work / "r.jsonl")) in (0, 2, 3)


@FUZZ
@given(data=st.data())
def test_edited_match_document_never_raises(scene, data):
    (original,) = sorted((scene / "match").glob("*.json"))
    doc = _edit_times(data, json.loads(original.read_text()))
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=scene / "match") as edited:
        edited.write(json.dumps(doc))
        edited.flush()
        refined = Path(edited.name).with_suffix(".jsonl")
        code = main(_refine_args(scene / "scene" / "lidar.jsonl", [edited.name], refined))
    assert code in (0, 2, 3)


# A valid file of each config kind, its loader and the error that loader raises.
CONFIGS = {
    "scene": (
        {"person_count": 3, "duration_frames": 8, "camera_count": 2, "pixel_noise_sigma": 1.5,
         "synchronized_pose_groups": [[0, 1]], "fov_degrees": 70, "seed": 5},
        lambda path: load_scene_config(path, None),
        InvalidConfig,
    ),
    "run": (
        {"delta": 0.5, "lambda0": 0.1, "n_iter": 2, "reject_threshold": None,
         "smoothing_window": 9, "lambda1": 1, "lambda3": 0.01},
        load_run_config,
        InvalidConfig,
    ),
    "bench": (
        {"modes": ["P&T", "Pose"], "person_counts": [2, 4], "pixel_noise_sigmas": [0, 2.0],
         "synchronized": [False, True], "seeds": [1], "duration_frames": 4, "delta": 0.5},
        load_bench_spec,
        InvalidSpec,
    ),
}

CONFIG_VALUES = VALUES + [-math.inf, "0.5", 2.7, [[0, 1]], [[0, "1"]]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edited_config_loads_or_raises_its_typed_error(data):
    kind = data.draw(st.sampled_from(sorted(CONFIGS)))
    valid, load, error = CONFIGS[kind]
    payload = _edit_times(data, copy.deepcopy(valid), CONFIG_VALUES)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(payload))
        try:
            config = load(path)
        except error:
            return
    # A loaded config echoes as strict JSON: every number in it is finite.
    json.dumps(asdict(config), allow_nan=False)
