"""Executor equivalence and observability: parallel ≡ serial, manifests.

The acceptance bar of the runner subsystem: ``--jobs N`` must be a pure
performance knob (identical numbers), a warm cache must serve >90% of
an unchanged sweep and finish measurably faster, and every run must
leave an accurate ``runs/<timestamp>.json`` manifest behind.
"""

import pytest

from repro.experiments import (
    run_baseline_comparison,
    run_fig4,
    run_rank_comparison,
    run_temperature_study,
)
from repro.runner import (
    Cell,
    ExperimentRunner,
    ResultCache,
    latest_manifest,
    load_manifest,
    shared_build_cache_info,
    tech_params,
)
from repro.service import LocalClient
from repro.technology import BankGeometry, DEFAULT_TECH

GEO = BankGeometry(256, 16)
BENCHES = ["swaptions", "canneal"]


def _via(runner, driver, **kwargs):
    """Run ``driver`` through an in-process client around ``runner``."""
    with LocalClient(runner=runner) as client:
        return driver(client=client, **kwargs)


def _fig4(runner=None, **kwargs):
    return _via(
        runner, run_fig4,
        geometry=GEO, duration_seconds=0.1, benchmarks=BENCHES, **kwargs,
    )


class TestParallelEqualsSerial:
    def test_fig4_rows_identical(self):
        serial = _fig4()
        parallel = _fig4(runner=ExperimentRunner(jobs=3))
        assert parallel.rows == serial.rows
        assert parallel.headers == serial.headers

    def test_cached_rerun_identical(self, tmp_path):
        cold = _fig4(runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)))
        warm = _fig4(runner=ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)))
        assert warm.rows == cold.rows == _fig4().rows

    def test_rank_study_identical(self, tmp_path):
        serial = run_rank_comparison(duration_seconds=0.2)
        parallel = _via(
            ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)),
            run_rank_comparison,
            duration_seconds=0.2,
        )
        assert parallel.rows == serial.rows

    def test_baselines_identical(self, tmp_path):
        serial = run_baseline_comparison(geometry=GEO, duration_seconds=0.2)
        parallel = _via(
            ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)),
            run_baseline_comparison,
            geometry=GEO,
            duration_seconds=0.2,
        )
        assert parallel.rows == serial.rows

    def test_temperature_identical(self, tmp_path):
        serial = run_temperature_study(geometry=GEO)
        parallel = _via(
            ExperimentRunner(jobs=2, cache=ResultCache(tmp_path)),
            run_temperature_study,
            geometry=GEO,
        )
        assert parallel.rows == serial.rows


class TestWarmCache:
    def test_hit_rate_and_speed(self, tmp_path):
        cache_dir, runs = tmp_path / "cache", tmp_path / "runs"
        cold_runner = ExperimentRunner(jobs=2, cache=ResultCache(cache_dir), runs_dir=runs)
        _fig4(runner=cold_runner)
        cold = load_manifest(latest_manifest(runs))
        assert cold["cache"]["hit_rate"] == 0.0

        warm_runner = ExperimentRunner(jobs=2, cache=ResultCache(cache_dir), runs_dir=runs)
        _fig4(runner=warm_runner)
        warm = load_manifest(latest_manifest(runs))
        assert warm["cache"]["hit_rate"] > 0.9
        assert warm["cache"]["misses"] == 0
        assert warm["elapsed_seconds"] < cold["elapsed_seconds"]

    def test_partial_invalidation_only_recomputes_changed_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fig4(runner=ExperimentRunner(cache=cache))
        report_notes = _fig4(
            runner=ExperimentRunner(cache=cache), nbits=3
        ).notes["runner"]
        # nbits feeds every policy cell's key, including raidr's, so the
        # whole grid recomputes; a seed-only fig4 change behaves the same.
        assert "6 computed" in report_notes
        rerun = _fig4(runner=ExperimentRunner(cache=cache))
        assert "6 cached" in rerun.notes["runner"]


class TestManifest:
    def test_contents(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path / "c"), runs_dir=tmp_path / "r"
        )
        result = _fig4(runner=runner)
        manifest = load_manifest(latest_manifest(tmp_path / "r"))
        assert manifest["experiment"] == "fig4"
        assert manifest["jobs"] == 2
        assert len(manifest["cells"]) == 6
        for cell in manifest["cells"]:
            assert cell["kind"] == "refresh-overhead"
            assert cell["wall_seconds"] >= 0
            assert len(cell["key"]) == 64
            assert cell["cache_hit"] is False
        assert 0 <= manifest["workers"]["utilization"] <= 1
        assert manifest["workers"]["busy_seconds"] > 0
        # The cache dir must be recorded even on a cold (empty, hence
        # falsy — ResultCache defines __len__) cache.
        assert manifest["cache"]["dir"] == str(tmp_path / "c")
        # observability also lands in the result notes
        assert "runner" in result.notes
        assert "runner manifest" in result.notes

    def test_manifests_do_not_collide(self, tmp_path):
        runner = ExperimentRunner(runs_dir=tmp_path)
        cell = Cell(
            "temperature-point",
            {"tech": tech_params(DEFAULT_TECH), "rows": 64, "cols": 8,
             "temperature": 55.0, "seed": 11},
        )
        paths = {runner.run([cell]).manifest_path for _ in range(3)}
        assert len(paths) == 3


class TestRunnerValidation:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(jobs=-1)

    def test_jobs_zero_means_cpu_count(self):
        assert ExperimentRunner(jobs=0).jobs >= 1

    def test_unknown_cell_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            Cell("no-such-kind", {})

    def test_empty_cell_list(self, tmp_path):
        report = ExperimentRunner(runs_dir=tmp_path).run([], experiment="noop")
        assert report.results == []
        assert report.hit_rate == 0.0
        assert load_manifest(report.manifest_path)["cells"] == []


class TestSharedBuilds:
    def test_traces_built_once_per_process(self):
        """Cells of the same sweep share one trace build per workload
        (the run_all fix: no per-cell trace regeneration)."""
        before = shared_build_cache_info()["trace"]
        _fig4()  # serial: 3 policies x 2 benchmarks in this process
        after = shared_build_cache_info()["trace"]
        new_calls = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        new_misses = after["misses"] - before["misses"]
        assert new_calls == 6
        assert new_misses <= 2  # at most one build per workload
