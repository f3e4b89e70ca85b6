"""The benchmark's tracer (perfbench/tracing.py) replaces layer functions at the
module bindings their callers look up; every name it wraps must stay bound."""

import importlib.util
from pathlib import Path

from crossalign import cli, geometry, matching, refiner, simulator, skeleton, streams
from crossalign.simulator import SceneConfig, generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (cli, geometry, matching, refiner, simulator, skeleton, streams)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_restores_every_binding():
    tracing = load_tracing()
    before = [dict(vars(module)) for module in MODULES]
    with tracing.installed(tracing.Tracer()):
        replaced = sum(
            vars(module)[name] is not value
            for module, saved in zip(MODULES, before)
            for name, value in saved.items()
        )
    assert replaced > 0
    for module, saved in zip(MODULES, before):
        assert all(vars(module)[name] is value for name, value in saved.items()), module.__name__


def test_a_gate_firing_match_traces_its_slices_and_similarity():
    # The matcher calls both layers through their module-level names, so the
    # tracer sees one frame_slice span per frame of the keypoint search.
    tracing = load_tracing()
    scene = generate(SceneConfig(person_count=3, duration_frames=6, seed=9, pixel_noise_sigma=1.0))
    with tracing.installed(tracing.Tracer()) as tracer:
        result = matching.match_sequences(
            scene.tracks3d, scene.tracks2d[0], scene.intrinsics, matching.PcmConfig(delta=0.0)
        )
    assert result.stats.keypoint_path
    names = [span[0] for span in tracer.spans]
    assert names.count("matching.frame_slice") == 6
    assert names.count("matching.pose_similarity_matrix") == 1
