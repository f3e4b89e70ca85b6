"""The benchmark's tracer (perfbench/tracing.py) replaces layer functions at the
module bindings their callers look up; every name it wraps must stay bound."""

import importlib.util
from pathlib import Path

from crossalign import cli, geometry, matching, refiner, simulator, skeleton, streams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (cli, geometry, matching, refiner, simulator, skeleton, streams)


def test_tracer_installs_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
