"""Fault containment on the fused paths: strict kernels, engine fallback.

The fused timeline itself is strict: any failure propagates.  Its two
consumers contain unexpected failures (anything but input validation
or a finite-value guard) by replaying on their cycle-level loop,
bit-identically, with the downgrade recorded in telemetry:

* :class:`RefreshOverheadEvaluator` replays on the engine and records
  ``{"from": "fused", "to": "engine", ...}`` in ``downgrades``;
* :meth:`RankSimulator.run` under ``backend="auto"`` replays on the
  event loop and stamps ``downgraded_from`` on the result, while
  ``backend="fused"`` stays strict.

Failures are injected by monkeypatching the fused kernels in the test.
"""

import numpy as np
import pytest

from repro.controller import build_policy
from repro.guard import NumericalError
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    FusedTimeline,
    MemoryTrace,
    RankSimulator,
    RefreshOverheadEvaluator,
)
from repro.sim import timeline as timeline_module
from repro.technology import BankGeometry, DEFAULT_TECH

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)
GEOMETRY = BankGeometry(64, 8)
DURATION = 400_000


def _policy(seed=5, name="vrl"):
    profile = RetentionProfiler(seed=seed).profile(GEOMETRY)
    binning = RefreshBinning().assign(profile)
    return build_policy(name, DEFAULT_TECH, profile, binning)


def _stats_key(stats):
    return (stats.full_refreshes, stats.partial_refreshes, stats.refresh_cycles)


def _exploding_kernel(*args, **kwargs):
    raise RuntimeError("kernel exploded")


class TestValidateBackend:
    def test_unknown_backend_is_a_one_line_value_error(self):
        sim = RankSimulator([_policy()], TIMING, GEOMETRY)
        with pytest.raises(ValueError, match="backend must be one of") as info:
            sim.run(duration_cycles=DURATION, backend="gpu")
        assert "\n" not in str(info.value)


class TestTimelineDowngrade:
    def test_forced_backend_stays_strict(self, monkeypatch):
        """The fused timeline has no fallback of its own: it raises."""
        timeline = FusedTimeline(_policy(), TIMING)
        monkeypatch.setattr(timeline_module, "segmented_fulls", _exploding_kernel)
        with pytest.raises(RuntimeError, match="kernel exploded"):
            timeline.evaluate(DURATION)

    def test_input_validation_is_never_swallowed_as_a_downgrade(self):
        with pytest.raises(ValueError, match="duration must be positive"):
            FusedTimeline(_policy(), TIMING).evaluate(0)
        evaluator = RefreshOverheadEvaluator(_policy(), TIMING)
        with pytest.raises(ValueError, match="duration must be positive"):
            evaluator.evaluate(0)
        assert evaluator.downgrades == []
        assert evaluator.timeline is not None


class TestEvaluatorDowngrade:
    def test_fused_failure_downgrades_to_engine(self, monkeypatch):
        rng = np.random.default_rng(3)
        trace = MemoryTrace(
            np.sort(rng.integers(0, DURATION, 300)).astype(np.int64),
            rng.integers(0, GEOMETRY.rows, 300).astype(np.int64),
            rng.random(300) < 0.5,
            name="downgrade",
        )
        engine = BankSimulator(_policy(name="vrl-access"), TIMING).run(
            trace, DURATION
        ).refresh
        evaluator = RefreshOverheadEvaluator(_policy(name="vrl-access"), TIMING)
        monkeypatch.setattr(timeline_module, "segmented_fulls", _exploding_kernel)
        stats = evaluator.evaluate(DURATION, trace)
        assert _stats_key(stats) == _stats_key(engine)
        assert evaluator.timeline is None
        assert evaluator.downgrades == [
            {"from": "fused", "to": "engine", "reason": "RuntimeError: kernel exploded"}
        ]
        # Subsequent evaluations stay on the engine, without new records.
        assert _stats_key(evaluator.evaluate(DURATION, trace)) == _stats_key(engine)
        assert len(evaluator.downgrades) == 1

    def test_guard_errors_are_not_downgrades(self, monkeypatch):
        def poisoned(*args, **kwargs):
            raise NumericalError("injected", boundary="test", injected=True)

        evaluator = RefreshOverheadEvaluator(_policy(), TIMING)
        monkeypatch.setattr(timeline_module, "segmented_fulls", poisoned)
        with pytest.raises(NumericalError):
            evaluator.evaluate(DURATION)
        assert evaluator.downgrades == []


class TestRankDowngrade:
    def test_fused_failure_falls_back_to_the_event_loop(self, monkeypatch):
        policies = [_policy(seed=5), _policy(seed=6)]
        oracle = RankSimulator(policies, TIMING, GEOMETRY).run(
            duration_cycles=DURATION, backend="loop"
        )

        sim = RankSimulator([_policy(seed=5), _policy(seed=6)], TIMING, GEOMETRY)

        def boom(duration_cycles, refresh_stats):
            # Mimic a kernel that dies after partially mutating state.
            refresh_stats[0].refresh_cycles = 123
            sim.policies[0].refresh_row(0)
            raise RuntimeError("fused walk exploded")

        monkeypatch.setattr(sim, "_run_per_bank_fused", boom)
        result = sim.run(duration_cycles=DURATION, backend="auto")
        assert result.downgraded_from == "fused"
        assert "fused walk exploded" in result.downgrade_reason
        # The replayed event loop is bit-identical to a clean loop run.
        assert result.blocked_cycles == oracle.blocked_cycles
        for got, want in zip(result.per_bank_refresh, oracle.per_bank_refresh):
            assert _stats_key(got) == _stats_key(want)

    def test_forced_fused_backend_stays_strict(self, monkeypatch):
        sim = RankSimulator([_policy()], TIMING, GEOMETRY)

        def boom(duration_cycles, refresh_stats):
            raise RuntimeError("fused walk exploded")

        monkeypatch.setattr(sim, "_run_per_bank_fused", boom)
        with pytest.raises(RuntimeError, match="fused walk exploded"):
            sim.run(duration_cycles=DURATION, backend="fused")

    def test_clean_run_reports_no_downgrade(self):
        result = RankSimulator([_policy()], TIMING, GEOMETRY).run(
            duration_cycles=DURATION
        )
        assert result.downgraded_from is None
        assert result.downgrade_reason == ""
