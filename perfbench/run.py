"""crossalign benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload pose10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload twins4 --seed 1 --seconds 20 --trace 1

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run measures set-up time in fresh interpreters, warms up,
then times units of work cycling over the workload's scenes for about
``--seconds`` seconds, with a fixed calibration kernel timed between them,
and prints the end-to-end metrics in reference seconds (see
``calibration.py``). With ``--trace 1`` it makes one
untraced pass and two traced passes, checks that the two traced passes give
the same counts and that all three give the same outputs, and prints the
per-layer metrics. The last line of stdout is one JSON object; the lines
above it are the readable report. Exit status 1 means an output check, a
digest comparison or a count comparison failed; 2 means the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread unless the caller chose otherwise. At OpenBLAS's default of
# one thread per core, its threads spin on the pipeline's tiny matrices: a
# process burns two cores for no speed-up, and pass times scatter about three
# times as widely. Set before numpy loads; set-up probes inherit it.
BLAS_THREADS_SET_BY = "caller" if "OPENBLAS_NUM_THREADS" in os.environ else "benchmark"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 3
SETUP_TICKS = 50  # calibration kernel runs before and after each set-up probe
WORKLOADS = ("pose10", "twins4", "fuse4")


def fail(message: str):
    """Stop without a result: the benchmark itself could not run."""
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import crossalign from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "crossalign" / "__init__.py").is_file():
        fail(f"no crossalign package under {src}")
    sys.path.insert(0, str(src))
    import crossalign

    if Path(crossalign.__file__).resolve().parent != (src / "crossalign").resolve():
        fail(f"imported crossalign from {crossalign.__file__}, not {src}")
    return crossalign


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="relabelling seed of this run")
    parser.add_argument("--seconds", type=int, default=20, help="timed passes run for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=("default", "heldout"), default="default",
                        help="scene pool: the default one, or the held-out one for checking a claim")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": env_threads,
        "blas_threads_set_by": BLAS_THREADS_SET_BY,
        "blas_threads": _openblas_threads(numpy),
        "workload": args.workload,
        "seed": args.seed,
        "seed_set": args.seed_set,
    }


def _openblas_threads(numpy):
    """Thread count numpy's bundled OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_pass(wl, spec, items) -> list:
    return [wl.run_unit(spec, item) for item in items]


def workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(args) -> int:
    """Child side of ``setup_s``: import, build the inputs, run the first unit."""
    start = perf_counter()
    _import_package()
    import workloads as wl

    imported = perf_counter()
    spec = wl.SPECS[args.workload]
    directory = workdir()
    try:
        items = wl.build(spec, args.seed, args.seed_set, directory)
        built = perf_counter()
        unit = wl.run_unit(spec, items[0], refine=False)
        done = perf_counter()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported,
                      "first_unit_s": done - built, "error": unit.error}))
    return 0


def measure_setup(args, speed) -> tuple[float, dict]:
    """Median time of fresh interpreters doing the set-up, run one at a time,
    each in reference seconds by the calibration kernel's NumPy half, run
    just before and after it."""
    import calibration

    times, parts = [], []
    for _ in range(SETUP_RUNS):
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seed-set", args.seed_set]
        around = [speed.sample()[0] for _ in range(SETUP_TICKS)]
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        around += [speed.sample()[0] for _ in range(SETUP_TICKS)]
        if done.returncode != 0:
            fail(f"set-up probe failed:\n{done.stderr[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if report["error"]:
            fail(f"first unit failed in set-up probe: {report['error']}")
        times.append(wall * calibration.numpy_scale(around))
        parts.append(report)
    breakdown = {key: statistics.median(p[key] for p in parts)
                 for key in ("import_s", "inputs_s", "first_unit_s")}
    return statistics.median(times), breakdown


# ---------------------------------------------------------------------------
# Checks and metrics


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def check_digests(checks: Checks, reference: list, *runs) -> str:
    """Every run of a unit must reproduce the reference unit's outputs bit for bit.

    ``runs`` are (label, units) with ``units`` in the reference's order."""
    for label, units in runs:
        for ref, unit in zip(reference, units):
            checks.require(ref.digest == unit.digest,
                           f"{label}: {unit.name} digest {unit.digest[:12]} != {ref.digest[:12]}")
    return hashlib.sha256("".join(u.digest for u in reference).encode()).hexdigest()


def output_metrics(spec, units, checks: Checks) -> dict:
    """Accuracy and extrinsic/refinement errors of one pass, gated against the spec."""
    accuracy = statistics.fmean(
        statistics.fmean(u.accuracy) if u.accuracy and not u.error else 0.0 for u in units
    )
    rot = [e for u in units for e in u.rot_err_deg]
    trans = [e for u in units for e in u.trans_err_m]
    out = {
        "accuracy": accuracy,
        "rot_err_deg": statistics.median(rot) if rot else float("inf"),
        "trans_err_m": statistics.median(trans) if trans else float("inf"),
    }
    checks.require(out["accuracy"] >= spec.min_accuracy,
                   f"accuracy {out['accuracy']:.4f} < {spec.min_accuracy}")
    checks.require(out["rot_err_deg"] <= spec.max_rot_err_deg,
                   f"rot_err_deg {out['rot_err_deg']:.4f} > {spec.max_rot_err_deg}")
    checks.require(out["trans_err_m"] <= spec.max_trans_err_m,
                   f"trans_err_m {out['trans_err_m']:.4f} > {spec.max_trans_err_m}")
    if spec.refine:
        err_in = sum(u.joint_err_in for u in units)
        ratio = sum(u.joint_err_out for u in units) / err_in if err_in else float("inf")
        out["refine_err_ratio"] = ratio
        checks.require(ratio <= spec.max_refine_err_ratio,
                       f"refine_err_ratio {ratio:.4f} > {spec.max_refine_err_ratio}")
    return out


def timing_metrics(spec, samples, scale: float) -> tuple[dict, dict]:
    """End-to-end timings in reference seconds from each item's median unit
    time over the run, and the labels printed beside them."""
    import tracing

    match_s = [statistics.median(u.match_s for u in runs) for runs in samples]
    refine_s = [statistics.median(u.refine_s for u in runs) for runs in samples]
    frames = sum(runs[0].camera_frames for runs in samples)
    wall = {
        "frames_per_s": frames / sum(match_s),
        "scene_p50_s": statistics.median(match_s),
        "pass_p50_s": sum(match_s) + sum(refine_s),
    }
    tail_s, tail_label = tracing.tail([u.match_s for runs in samples for u in runs])
    metrics = {
        "frames_per_s": wall["frames_per_s"] / scale,
        "scene_p50_s": wall["scene_p50_s"] * scale,
        "scene_tail_s": tail_s * scale,
        "pass_p50_s": wall["pass_p50_s"] * scale,
    }
    counts = [len(runs) for runs in samples]
    labels = {name: f"wall {value:.6g}" for name, value in wall.items()}
    labels["pass_p50_s"] += f"; sum of per-scene medians, {min(counts)}-{max(counts)} runs each"
    labels["scene_tail_s"] = tail_label
    if spec.refine:
        metrics["person_frames_per_s"] = (
            sum(runs[0].person_frames for runs in samples) / (sum(refine_s) * scale)
        )
    return metrics, labels


UNITS = {
    "setup_s": "s", "frames_per_s": "frames/s", "scene_p50_s": "s", "scene_tail_s": "s",
    "pass_p50_s": "s", "person_frames_per_s": "1/s", "accuracy": "fraction",
    "rot_err_deg": "deg", "trans_err_m": "m", "refine_err_ratio": "ratio",
    "failed_frac": "fraction", "peak_rss_mb": "MiB",
}


def print_report(title: str, metrics: dict, units: dict, labels: dict) -> None:
    print(title)
    for name, value in metrics.items():
        label = f"  ({labels[name]})" if name in labels else ""
        print(f"  {name:<52} {value:>14.6g} {units.get(name, ''):<9}{label}")


def finish(checks: Checks, attempted: int, failed: int, metrics: dict, units: dict) -> int:
    for message in checks.failures:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not checks.failures else 1


# ---------------------------------------------------------------------------
# Runs


def timed_units(wl, spec, items, seconds: float, speed) -> list[list]:
    """Units cycling over the pool, with the calibration kernel sampling the
    host's speed, until ``seconds`` have passed and every item has run once;
    each item's units."""
    samples = [[] for _ in items]
    start = perf_counter()
    k = 0
    with speed.sampling():
        while k < len(items) or perf_counter() - start < seconds:
            samples[k % len(items)].append(wl.run_unit(spec, items[k % len(items)],
                                                       clock=speed.clock))
            k += 1
    return samples


def end_to_end(args, env: dict) -> int:
    import calibration
    import workloads as wl

    spec = wl.SPECS[args.workload]
    setup_s, setup_parts = measure_setup(args, calibration.Speed())
    speed = calibration.Speed()
    directory = workdir()
    try:
        items = wl.build(spec, args.seed, args.seed_set, directory)
        warm = wl.run_unit(spec, items[0])
        samples = timed_units(wl, spec, items, args.seconds, speed)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checks = Checks()
    first = [runs[0] for runs in samples]
    repeats = max(len(runs) for runs in samples)
    digest = check_digests(
        checks, first, ("warm-up", [warm]),
        *((f"run {k + 1}", [runs[min(k, len(runs) - 1)] for runs in samples])
          for k in range(1, repeats)),
    )
    units = [u for runs in samples for u in runs]
    failed = [f"{u.name}: {u.error}" for u in units if u.error]
    timings, labels = timing_metrics(spec, samples, speed.scale)
    outputs = output_metrics(spec, first, checks)
    report = {"setup_s": setup_s, **timings, **outputs,
              "failed_frac": len(failed) / len(units), "peak_rss_mb": peak_rss_mb()}
    labels["setup_s"] = "median of {} fresh interpreters; wall parts: {}".format(
        SETUP_RUNS, ", ".join(f"{k} {v:.3f}" for k, v in setup_parts.items()))
    labels["failed_frac"] = f"{len(failed)}/{len(units)} failed" + (
        ": " + "; ".join(failed) if failed else "")
    env["calibration_ticks"] = len(speed.ticks)
    env["calibration_halves_s"] = speed.halves_s
    env["reference_s_per_wall_s"] = speed.scale
    print("env " + json.dumps(env))
    print_report(f"{spec.name}: end-to-end, {len(units)} units over {len(items)} scenes, "
                 f"times in reference seconds, digest {digest}", report, UNITS, labels)
    contract = ("setup_s", "frames_per_s", "scene_p50_s", "pass_p50_s",
                "accuracy", "rot_err_deg", "trans_err_m", "peak_rss_mb")
    return finish(checks, len(units), len(failed), {k: report[k] for k in contract}, UNITS)


def traced(args, env: dict) -> int:
    import tracing
    import workloads as wl

    spec = wl.SPECS[args.workload]
    directory = workdir()
    setup_tracer, tracers, walls = tracing.Tracer(), [], []
    try:
        with tracing.installed(setup_tracer):
            items = wl.build(spec, args.seed, args.seed_set, directory)
        wl.run_unit(spec, items[0])
        start = perf_counter()
        untraced = run_pass(wl, spec, items)
        walls.append(perf_counter() - start)
        passes = []
        for _ in range(2):
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                start = perf_counter()
                passes.append(run_pass(wl, spec, items))
                walls.append(perf_counter() - start)
            tracers.append(tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checks = Checks()
    digest = check_digests(checks, untraced, ("traced pass 1", passes[0]),
                           ("traced pass 2", passes[1]))
    output_metrics(spec, untraced, checks)
    layers = [tracing.layer_metrics(t.spans) for t in tracers]
    for name in tracing.COUNT_METRICS:
        checks.require(layers[0][name] == layers[1][name],
                       f"{name} differs between traced passes: {layers[0][name]} != {layers[1][name]}")
    metrics = dict(layers[0])
    metrics["simulator.generate.s"] = tracing.layer_total(setup_tracer.spans, "simulator.generate")
    metrics["trace.overhead_s"] = walls[1] - walls[0]

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{spec.name}.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"env": env}) + "\n")
        setup_tracer.dump(handle, "setup")
        tracers[0].dump(handle, "pass")

    units = {name: tracing.unit_of(name) for name in metrics}
    all_units = untraced + passes[0] + passes[1]
    failed = [u for u in all_units if u.error]
    print("env " + json.dumps(env))
    for unit in failed:
        print(f"failed unit: {unit.name}: {unit.error}")
    print_report(
        f"{spec.name}: per-layer, traced pass of {len(items)} scenes (untraced {walls[0]:.3f} s, "
        f"traced {walls[1]:.3f} s and {walls[2]:.3f} s), digest {digest}",
        metrics, units, {})
    return finish(checks, len(all_units), len(failed), metrics, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    _import_package()
    env = environment(args)
    return traced(args, env) if args.trace else end_to_end(args, env)


if __name__ == "__main__":
    sys.exit(main())
