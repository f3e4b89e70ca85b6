"""In-memory span tracing of crossalign's layers, installed from outside the package.

Each public layer function is replaced, for the duration of an ``installed``
block, at every module binding its callers look it up through (for example
``crossalign.matching.solve_pnp`` as well as ``crossalign.geometry.solve_pnp``).
A wrapper records one span: name, parent span, start, end, the exception it
raised if any, and a few per-call attributes. Spans stay in memory; the
benchmark turns them into per-layer metrics and writes them out at exit.

A layer's self time is its span minus the spans directly nested in it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
from time import perf_counter

import numpy as np


class Tracer:
    """Span store with a stack of open spans; one per traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, error, attrs]
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None, None, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[4] = error
        self._stack.pop()

    def dump(self, handle, phase: str) -> None:
        for index, (name, parent, start, end, error, attrs) in enumerate(self.spans):
            record = {"phase": phase, "id": index, "parent": parent, "name": name,
                      "start": start, "end": end}
            if error:
                record["error"] = error
            if attrs:
                record["attrs"] = attrs
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """Span-recording stand-in for ``fn``.

    ``before(args, kwargs)`` returns the span's attribute dict (or None) and
    the arguments to call ``fn`` with; ``after(attrs, args, result)`` adds
    attributes from the result.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = {} if after is not None else None
        if before is not None:
            attrs, args, kwargs = before(args, kwargs)
        index = tracer.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, type(exc).__name__)
            raise
        tracer.close(index)
        if after is not None:
            after(attrs, args, result)
        return result

    return traced


def _timed_callable(fn, attrs: dict, key: str):
    """Count and time the calls of a callable handed to the least-squares solver."""

    def timed(*args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            attrs[key + "_s"] += perf_counter() - start
            attrs[key + "_calls"] += 1

    return timed


def _leastsq_before(args, kwargs):
    x0, system, apply_step, objective = args
    attrs = {key: 0 for key in ("system_calls", "apply_step_calls", "objective_calls")}
    attrs.update({key: 0.0 for key in ("system_s", "apply_step_s", "objective_s")})
    args = (
        x0,
        _timed_callable(system, attrs, "system"),
        _timed_callable(apply_step, attrs, "apply_step"),
        _timed_callable(objective, attrs, "objective"),
    )
    return attrs, args, kwargs


def _leastsq_after(attrs, args, result):
    attrs["iterations"] = result.iterations
    attrs["accepted"] = len(result.objective_trace) - 1


def _points_before(args, kwargs):
    return {"points": int(np.asarray(args[0]).reshape(-1, 3).shape[0])}, args, kwargs


def _hungarian_before(args, kwargs):
    values = args[0].values
    return {"size": int(min(values.shape))}, args, kwargs


def _hungarian_tiebreak(lsa):
    """Mark calls whose lexicographic tie-break picked a different assignment
    than one plain solve would. ``lsa`` is the unwrapped solver, so the extra
    solve is tracing overhead only and is not counted in ``lsa_calls``."""

    def after(attrs, args, match):
        cost = args[0]
        if not attrs["size"]:
            attrs["differs"] = False
            return
        rows, cols = lsa(-cost.values if cost.maximize else cost.values)
        attrs["differs"] = sorted(zip(rows.tolist(), cols.tolist())) != sorted(match.pairs)

    return after


def _refine_before(args, kwargs):
    return {"cameras": len(args[0].observations)}, args, kwargs


def _refine_after(attrs, args, result):
    attrs["converged"] = bool(result.converged)


def _match_sequences_after(attrs, args, result):
    attrs["gate_fired"] = bool(result.stats.keypoint_path)


def _parse_before(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}, args, kwargs


def _bindings(tracer: Tracer):
    """(module, attribute, replacement) for every traced binding."""
    from crossalign import cli, geometry, matching, refiner, simulator, skeleton, streams

    def wrap(name, fn, before=None, after=None):
        return _wrap(tracer, name, fn, before, after)

    pnp = wrap("geometry.solve_pnp", geometry.solve_pnp, _points_before)
    fk = wrap("skeleton.fk_points", skeleton.fk_points)
    match_seq = wrap("matching.match_sequences", matching.match_sequences,
                     after=_match_sequences_after)
    refine = wrap("refiner.refine", refiner.refine, _refine_before, _refine_after)
    out = [
        (geometry, "solve_pnp", pnp),
        (matching, "solve_pnp", pnp),
        (geometry, "damped_least_squares",
         wrap("leastsq.pnp", geometry.damped_least_squares, _leastsq_before, _leastsq_after)),
        (refiner, "damped_least_squares",
         wrap("leastsq.refine", refiner.damped_least_squares, _leastsq_before, _leastsq_after)),
        (matching, "match_sequences", match_seq),
        (cli, "match_sequences", match_seq),
        (matching, "optimize_frame_match",
         wrap("matching.optimize_frame_match", matching.optimize_frame_match)),
        (matching, "hungarian",
         wrap("matching.hungarian", matching.hungarian, _hungarian_before,
              _hungarian_tiebreak(matching.linear_sum_assignment))),
        (matching, "linear_sum_assignment",
         wrap("matching.linear_sum_assignment", matching.linear_sum_assignment)),
        (matching, "pose_similarity_matrix",
         wrap("matching.pose_similarity_matrix", matching.pose_similarity_matrix)),
        (matching, "frame_slice", wrap("matching.frame_slice", matching.frame_slice)),
        (matching, "smooth_extrinsics",
         wrap("matching.smooth_extrinsics", matching.smooth_extrinsics)),
        (matching, "fk_points", fk),
        (skeleton, "fk_points", fk),
        (refiner, "refine", refine),
        (cli, "refine", refine),
        (simulator, "generate", wrap("simulator.generate", simulator.generate)),
        (cli, "cmd_match", wrap("cli.cmd_match", cli.cmd_match)),
        (cli, "cmd_refine", wrap("cli.cmd_refine", cli.cmd_refine)),
    ]
    for attr, before in (
        ("parse_stream", _parse_before),
        ("resample_to_timeline", None),
        ("write_stream", None),
        ("write_match_output", None),
        ("load_match_output", None),
    ):
        traced = wrap(f"streams.{attr}", getattr(streams, attr), before)
        out += [(streams, attr, traced), (cli, attr, traced)]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced binding through ``tracer``; restore them on exit."""
    bindings = _bindings(tracer)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    try:
        for module, attr, replacement in bindings:
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


def tail(values) -> tuple[float, str]:
    """The highest order statistic with at least ten samples beyond it, and its label.

    With ten samples or fewer no such percentile exists and the maximum is
    returned, labelled as such.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0, "n=0"
    if n <= 10:
        return data[-1], f"max, n={n} (fewer than 11 samples)"
    k = n - 10
    return data[k - 1], f"p{100.0 * k / n:.1f}, n={n}, 10 beyond"


# Layer metrics that are counts or ratios of counts: two traced passes over
# the same inputs must reproduce them exactly.
COUNT_METRICS = (
    "geometry.solve_pnp.calls",
    "geometry.solve_pnp.points_mean",
    "geometry.solve_pnp.fail.InsufficientCorrespondences",
    "geometry.solve_pnp.fail.DegenerateConfiguration",
    "geometry.solve_pnp.fail.NoConvergence",
    "leastsq.pnp.iterations",
    "leastsq.pnp.system_calls",
    "leastsq.pnp.objective_calls",
    "leastsq.pnp.accept_ratio",
    "leastsq.refine.iterations",
    "leastsq.refine.system_calls",
    "leastsq.refine.objective_calls",
    "leastsq.refine.accept_ratio",
    "matching.optimize_frame_match.calls",
    "matching.optimize_frame_match.pnp_per_call",
    "matching.optimize_frame_match.fail.NoViableProposal",
    "matching.hungarian.calls",
    "matching.hungarian.size_mean",
    "matching.hungarian.lsa_calls",
    "matching.hungarian.tiebreak_ratio",
    "matching.match_sequences.gate_fired",
    "skeleton.fk_points.calls",
    "refiner.refine.calls",
    "refiner.refine.nonconverged",
    "refiner.refine.calls.c1",
    "refiner.refine.calls.c2",
    "refiner.refine.calls.c3",
    "refiner.refine.calls.c4",
    "streams.parse_stream.calls",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_total(spans: list[list], name: str) -> float:
    """Summed duration of the spans of one layer."""
    return sum(s[3] - s[2] for s in spans if s[0] == name)


def unit_of(metric: str) -> str:
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(("_ratio", "per_call")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for index, (name, parent, start, end, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent >= 0:
            child_time[parent] += end - start

    def of(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(s[3] - s[2] for s in of(name))

    def self_time(name):
        return sum(spans[i][3] - spans[i][2] - child_time[i] for i in by_name.get(name, []))

    def fails(name, error):
        return sum(1 for s in of(name) if s[4] == error)

    def attr_sum(name, key):
        return sum(s[5][key] for s in of(name) if s[5] and key in s[5])

    m: dict[str, float] = {}

    pnp = of("geometry.solve_pnp")
    m["geometry.solve_pnp.calls"] = len(pnp)
    m["geometry.solve_pnp.s"] = total("geometry.solve_pnp")
    m["geometry.solve_pnp.self_s"] = self_time("geometry.solve_pnp")
    m["geometry.solve_pnp.points_mean"] = _ratio(attr_sum("geometry.solve_pnp", "points"), len(pnp))
    for error in ("InsufficientCorrespondences", "DegenerateConfiguration", "NoConvergence"):
        m[f"geometry.solve_pnp.fail.{error}"] = fails("geometry.solve_pnp", error)

    for label in ("pnp", "refine"):
        name = f"leastsq.{label}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.iterations"] = attr_sum(name, "iterations")
        m[f"{name}.system_calls"] = attr_sum(name, "system_calls")
        m[f"{name}.objective_calls"] = attr_sum(name, "objective_calls")
        # Every objective call after the first evaluates one trial step.
        trials = attr_sum(name, "objective_calls") - len(of(name))
        m[f"{name}.accept_ratio"] = _ratio(attr_sum(name, "accepted"), trials)
        m[f"{name}.system_s"] = attr_sum(name, "system_s")
        m[f"{name}.objective_s"] = attr_sum(name, "objective_s")
        if label == "pnp":
            m[f"{name}.apply_step_s"] = attr_sum(name, "apply_step_s")

    ofm = "matching.optimize_frame_match"
    ofm_spans = by_name.get(ofm, [])
    durations = [spans[i][3] - spans[i][2] for i in ofm_spans]
    ofm_set = set(ofm_spans)
    pnp_in_ofm = sum(1 for s in pnp if s[1] in ofm_set)
    m[f"{ofm}.calls"] = len(ofm_spans)
    m[f"{ofm}.s"] = total(ofm)
    m[f"{ofm}.self_s"] = self_time(ofm)
    m[f"{ofm}.p50_s"] = statistics.median(durations) if durations else 0.0
    m[f"{ofm}.tail_s"] = tail(durations)[0]
    m[f"{ofm}.pnp_per_call"] = _ratio(pnp_in_ofm, len(ofm_spans))
    m[f"{ofm}.fail.NoViableProposal"] = fails(ofm, "NoViableProposal")

    hung = of("matching.hungarian")
    m["matching.hungarian.calls"] = len(hung)
    m["matching.hungarian.s"] = total("matching.hungarian")
    m["matching.hungarian.size_mean"] = _ratio(attr_sum("matching.hungarian", "size"), len(hung))
    m["matching.hungarian.lsa_calls"] = len(of("matching.linear_sum_assignment"))
    m["matching.hungarian.tiebreak_ratio"] = _ratio(
        attr_sum("matching.hungarian", "differs"), len(hung)
    )

    m["matching.match_sequences.gate_fired"] = attr_sum("matching.match_sequences", "gate_fired")
    for name in ("pose_similarity_matrix", "frame_slice", "smooth_extrinsics"):
        m[f"matching.{name}.s"] = total(f"matching.{name}")

    m["skeleton.fk_points.calls"] = len(of("skeleton.fk_points"))
    m["skeleton.fk_points.s"] = total("skeleton.fk_points")

    refines = of("refiner.refine")
    m["refiner.refine.calls"] = len(refines)
    m["refiner.refine.s"] = total("refiner.refine")
    m["refiner.refine.nonconverged"] = sum(
        1 for s in refines if s[5].get("converged") is False
    )
    for cameras in range(1, 5):
        m[f"refiner.refine.calls.c{cameras}"] = sum(
            1 for s in refines if s[5].get("cameras") == cameras
        )

    parse_s = total("streams.parse_stream")
    m["streams.parse_stream.calls"] = len(of("streams.parse_stream"))
    m["streams.parse_stream.s"] = parse_s
    m["streams.parse_stream.mb_per_s"] = _ratio(attr_sum("streams.parse_stream", "bytes") / 1e6, parse_s)
    for name in ("resample_to_timeline", "write_stream", "write_match_output", "load_match_output"):
        m[f"streams.{name}.s"] = total(f"streams.{name}")

    m["cli.cmd_match.s"] = total("cli.cmd_match")
    m["cli.cmd_refine.s"] = total("cli.cmd_refine")
    return m
