import numpy as np
import pytest

import crossalign
from crossalign.cli import RunConfig
from crossalign.errors import InvalidConfig, InvalidSpec
from crossalign.harness import BenchSpec
from crossalign.refiner import RefineProblem
from crossalign.simulator import SceneConfig


def test_every_exported_name_resolves():
    missing = [name for name in crossalign.__all__ if not hasattr(crossalign, name)]
    assert missing == []
    assert len(set(crossalign.__all__)) == len(crossalign.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from crossalign import *", namespace)
    assert set(crossalign.__all__) <= set(namespace)


NAN = float("nan")


def scene(**fields):
    return SceneConfig(person_count=2, duration_frames=4, **fields)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: RefineProblem(np.zeros((24, 3)), lambda1=NAN), InvalidConfig),
        (lambda: RunConfig(lambda2=NAN), InvalidConfig),
        (lambda: scene(frame_rate=NAN), InvalidConfig),
        (lambda: scene(pixel_noise_sigma=NAN), InvalidConfig),
        (lambda: scene(arena_radius=NAN), InvalidConfig),
        (lambda: BenchSpec(modes=("Pose",), person_counts=(2,), refine_noise_m=NAN), InvalidSpec),
    ],
    ids=["lambda1", "lambda2", "frame_rate", "pixel_noise", "arena_radius", "refine_noise_m"],
)
def test_nan_fails_every_range_check(build, error):
    with pytest.raises(error):
        build()
