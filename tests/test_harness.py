import math

import numpy as np
import pytest

from crossalign import harness, refiner
from crossalign.errors import InvalidSpec, IoFailure
from crossalign.harness import (
    BenchRow,
    BenchSpec,
    MetricsReport,
    RefinementStats,
    export_report,
    load_report,
    run_bench,
)


def tiny_spec(**overrides):
    defaults = dict(
        modes=("P&T&K",),
        person_counts=(3,),
        pixel_noise_sigmas=(0.0,),
        synchronized=(False,),
        seeds=(1,),
        repetitions=1,
        duration_frames=8,
    )
    defaults.update(overrides)
    return BenchSpec(**defaults)


class TestBenchSpec:
    def test_empty_modes_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_spec(modes=())

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_spec(modes=("nope",))

    def test_synchronized_needs_two_persons(self):
        with pytest.raises(InvalidSpec):
            tiny_spec(person_counts=(1,), synchronized=(True,))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(InvalidSpec):
            tiny_spec(repetitions=0)

    def test_repetitions_that_would_reuse_a_scene_seed_rejected(self):
        # Repetition 1000 of seed 1 would be the scene of seed 2, repetition 0.
        with pytest.raises(InvalidSpec, match="repetitions"):
            tiny_spec(seeds=(1, 2), repetitions=1001)

    def test_every_scene_of_a_spec_gets_its_own_seed(self):
        spec = tiny_spec(person_counts=(2, 3), seeds=(0, 1, 2), repetitions=1000)
        for cell in spec.cells():
            scene_seeds = [
                spec.scene_config(*cell, seed, rep).seed
                for seed in spec.seeds
                for rep in range(spec.repetitions)
            ]
            assert len(set(scene_seeds)) == len(scene_seeds) == 3000
        assert spec.scene_config(3, 0.0, False, 2, 5).seed == 2005  # unchanged

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pixel_noise_sigmas", (0.0, -1.0)),
            ("pose_noise_degrees", -1.0),
            ("dropout_rate", 1.5),
            ("fov_degrees", 5.0),
            ("duration_frames", 0),
            ("person_counts", (3, 0)),
            ("seeds", (1, -2)),
            ("delta", -1.0),
            ("n_iter", 0),
        ],
    )
    def test_out_of_range_field_is_named_on_construction(self, field, value):
        with pytest.raises(InvalidSpec, match=field):
            tiny_spec(**{field: value})


class TestRunBench:
    def test_noiseless_grid_is_perfect(self):
        report = run_bench(tiny_spec(seeds=(1, 2), repetitions=2))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.scenes == 4
        assert row.failures == 0
        assert row.accuracy_mean == 1.0
        assert row.fps > 0
        assert report.failures == []

    def test_row_per_mode_and_cell(self):
        report = run_bench(
            tiny_spec(
                modes=("Pose", "P&T"),
                person_counts=(2, 3, 4),
                duration_frames=6,
            )
        )
        assert len(report.rows) == 6
        keys = {(r.mode, r.person_count) for r in report.rows}
        assert keys == {(m, p) for m in ("Pose", "P&T") for p in (2, 3, 4)}

    def test_accuracy_deterministic_across_runs(self):
        spec = tiny_spec(seeds=(3, 4), pixel_noise_sigmas=(2.0,), duration_frames=8)
        first = run_bench(spec)
        second = run_bench(spec)
        for a, b in zip(first.rows, second.rows):
            assert a.accuracy_mean == b.accuracy_mean
            assert a.accuracy_std == b.accuracy_std

    @pytest.mark.parametrize("repetitions", [1, 4])
    def test_each_scene_is_matched_once_per_mode(self, monkeypatch, repetitions):
        calls = []
        real = harness.match_with_strategy

        def counting(mode, tracks3d, *args, **kwargs):
            calls.append((mode, len(tracks3d)))
            return real(mode, tracks3d, *args, **kwargs)

        monkeypatch.setattr(harness, "match_with_strategy", counting)
        spec = tiny_spec(modes=("Pose", "P&T"), person_counts=(2, 3), seeds=(1, 2),
                         repetitions=repetitions)
        report = run_bench(spec)
        scenes_per_cell = len(spec.seeds) * spec.repetitions
        assert sorted(calls) == sorted(
            (mode, pc) for mode in spec.modes for pc in spec.person_counts
            for _ in range(scenes_per_cell)
        )
        assert all(row.fps > 0 for row in report.rows)

    def test_refinement_stats_report_improvement(self):
        report = run_bench(tiny_spec(refine_trials=5))
        stats = report.refinement
        assert stats is not None
        assert stats.trials == 5
        assert stats.refined_error_m < stats.input_error_m
        assert stats.improvement_ratio < 1.0
        assert stats.nonconverged == 0

    def test_refinement_stats_count_capped_refinements(self, monkeypatch):
        monkeypatch.setattr(refiner, "REFINE_MAX_ITERATIONS", 1)
        stats = run_bench(tiny_spec(refine_trials=5)).refinement
        assert stats.nonconverged == 5


class TestExportReport:
    def sample_report(self):
        rows = [
            BenchRow("P&T&K", 10, 2.0, False, 4, 0, 0.975, 0.05, 159.49, 0.251),
            BenchRow("Pose", 10, 2.0, True, 4, 1, 1 / 3, 0.1, 127.47, 0.002),
        ]
        return MetricsReport(rows=rows, refinement=RefinementStats(10, 0.05, 0.002, 0.04))

    def test_round_trip_is_exact(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "report.csv"
        export_report(report, path)
        rows, summary = load_report(path)
        assert rows == report.rows
        assert summary["report_version"] == 1
        assert summary["refinement"]["trials"] == 10
        assert summary["refinement"]["nonconverged"] == 0

    def test_row_count_matches_grid(self, tmp_path):
        report = run_bench(
            tiny_spec(modes=("Pose", "P&T"), person_counts=(2, 3, 4), duration_frames=4)
        )
        path = tmp_path / "report.csv"
        export_report(report, path)
        rows, _ = load_report(path)
        assert len(rows) == 6

    def test_numbers_use_17_significant_digits(self, tmp_path):
        value = 1.0 / 3.0
        report = MetricsReport(
            rows=[BenchRow("Pose", 1, value, False, 1, 0, value, value, value, value)],
            refinement=None,
        )
        path = tmp_path / "report.csv"
        export_report(report, path)
        text = path.read_text()
        assert "0.33333333333333331" in text
        rows, _ = load_report(path)
        assert rows[0].accuracy_mean == value

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        report = self.sample_report()
        with pytest.raises(IoFailure):
            export_report(report, tmp_path / "missing_dir" / "report.csv")

    def test_nan_cells_survive_round_trip(self, tmp_path):
        report = MetricsReport(
            rows=[BenchRow("Pose", 1, 0.0, False, 1, 1, math.nan, math.nan, 0.0, 0.0)],
            refinement=None,
        )
        path = tmp_path / "report.csv"
        export_report(report, path)
        rows, _ = load_report(path)
        assert math.isnan(rows[0].accuracy_mean)
