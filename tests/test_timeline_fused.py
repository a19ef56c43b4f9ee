"""Unit tests of the fused timeline: kernels, epochs, rank path, fallback.

The three-way differential harness
(``tests/test_differential_engine_fastpath.py``) pins the fused
timeline against the engine end to end; this module tests its parts:

* **kernel equivalence** — the loop-form kernel oracles in
  ``tests/oracles.py`` and the vectorized numpy scatter kernels are
  bit-identical on randomized inputs, and both match a brute-force walk
  of Algorithm 1's counter;
* **epoch windowing** — chunked evaluation is bit-neutral vs the
  one-shot pass, for any epoch size;
* **busy-chain closed forms** — :func:`service_starts` matches the
  FCFS recurrence and :func:`union_length` matches the rank
  simulator's interval-union bookkeeping;
* **rank fused path** — per-bank and all-bank refresh-only runs match
  the event loop bit for bit (stats, blocked cycles, counter state);
* **scalar fallback** — a policy customizing only scalar hooks (the
  ``examples/custom_policy.py`` VRL-Temp) reports
  ``supports_fused_timeline() == False``, the evaluator prices it on
  the engine (bit-identical to ``BankSimulator.run``), and building a
  ``FusedTimeline`` for it raises.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.controller import KIND_FULL, build_policy
from repro.retention import RefreshBinning, RetentionProfiler
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    FusedTimeline,
    MemoryTrace,
    RankSimulator,
    RefreshOverheadEvaluator,
    service_starts,
    union_length,
)
from repro.sim._timeline_kernels import crossing_kinds, segmented_fulls
from repro.sim.rank import _union_length
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.oracles import crossing_kinds_loop, segmented_fulls_loop

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)


def _policy(name, geometry, profile_seed=5, nbits=2):
    profile = RetentionProfiler(seed=profile_seed).profile(geometry)
    binning = RefreshBinning().assign(profile)
    return build_policy(name, DEFAULT_TECH, profile, binning, nbits=nbits)


def _random_segments(rng, n_rows):
    """Randomized (counts, phase, cycle_len, reset_rows, reset_ordinals)."""
    counts = rng.integers(0, 40, size=n_rows)
    cycle_len = rng.integers(1, 9, size=n_rows)
    phase = rng.integers(0, cycle_len)
    reset_rows, reset_ordinals = [], []
    for row in range(n_rows):
        if counts[row] == 0 or rng.random() < 0.3:
            continue
        n_resets = int(rng.integers(1, 6))
        ordinals = np.unique(rng.integers(0, counts[row], size=n_resets))
        reset_rows.extend([row] * len(ordinals))
        reset_ordinals.extend(ordinals.tolist())
    return (
        counts.astype(np.int64),
        phase.astype(np.int64),
        cycle_len.astype(np.int64),
        np.asarray(reset_rows, dtype=np.int64),
        np.asarray(reset_ordinals, dtype=np.int64),
    )


def _bruteforce_fulls(counts, phase, cycle_len, reset_rows, reset_ordinals):
    """Walk Algorithm 1's counter crossing by crossing (the oracle)."""
    n = len(counts)
    fulls = np.zeros(n, dtype=np.int64)
    final_phase = np.empty(n, dtype=np.int64)
    resets = {
        (int(r), int(o)) for r, o in zip(reset_rows, reset_ordinals)
    }
    for row in range(n):
        rcount = int(phase[row])
        mprsf = int(cycle_len[row]) - 1
        for ordinal in range(int(counts[row])):
            if (row, ordinal) in resets:
                rcount = 0
            if rcount == mprsf:
                fulls[row] += 1
                rcount = 0
            else:
                rcount += 1
        final_phase[row] = rcount
    return fulls, final_phase


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_segmented_fulls_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        counts, phase, cycle_len, rrows, rords = _random_segments(rng, 32)
        want = _bruteforce_fulls(counts, phase, cycle_len, rrows, rords)
        got = segmented_fulls(counts, phase, cycle_len, rrows, rords)
        assert np.array_equal(got[0], want[0]), f"fulls differ, seed={seed}"
        assert np.array_equal(got[1], want[1]), f"phase differs, seed={seed}"

    @pytest.mark.parametrize("seed", range(10))
    def test_loop_kernel_matches_numpy_kernel(self, seed):
        """The loop-form oracle ≡ the vectorized scatter form."""
        rng = np.random.default_rng(100 + seed)
        counts, phase, cycle_len, rrows, rords = _random_segments(rng, 24)
        numpy_fulls, numpy_phase = segmented_fulls(
            counts, phase, cycle_len, rrows, rords
        )
        loop_fulls, loop_phase = segmented_fulls_loop(
            counts, phase, cycle_len, rrows, rords
        )
        assert np.array_equal(loop_fulls, numpy_fulls), f"seed={seed}"
        assert np.array_equal(loop_phase, numpy_phase), f"seed={seed}"

    @pytest.mark.parametrize("seed", range(5))
    def test_crossing_kinds_loop_matches_numpy(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_rows = 16
        cycle_len = rng.integers(1, 9, size=n_rows).astype(np.int64)
        phase = rng.integers(0, cycle_len).astype(np.int64)
        rows = rng.integers(0, n_rows, size=300).astype(np.int64)
        ordinals = rng.integers(0, 50, size=300).astype(np.int64)
        numpy_kinds = crossing_kinds(rows, ordinals, phase, cycle_len)
        loop_kinds = crossing_kinds_loop(rows, ordinals, phase, cycle_len)
        assert np.array_equal(numpy_kinds, loop_kinds), f"seed={seed}"

    def test_crossing_kinds_matches_cadence(self):
        """Crossing ``k`` is full exactly when the counter saturates."""
        cycle_len = np.array([3], dtype=np.int64)
        phase = np.array([1], dtype=np.int64)
        rows = np.zeros(6, dtype=np.int64)
        ordinals = np.arange(6, dtype=np.int64)
        kinds = crossing_kinds(rows, ordinals, phase, cycle_len)
        # phase 1, mprsf 2: partial, full, partial, partial, full, ...
        assert (kinds == KIND_FULL).tolist() == [
            False, True, False, False, True, False,
        ]


class TestEpochWindowing:
    @pytest.mark.parametrize("n_epochs", [2, 7, 64])
    def test_chunked_evaluation_is_bit_neutral(self, n_epochs):
        geometry = BankGeometry(48, 8)
        duration = TIMING.cycles(900 * MS)
        rng = np.random.default_rng(11)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 800)).astype(np.int64),
            rng.integers(0, geometry.rows, 800).astype(np.int64),
            rng.random(800) < 0.5,
            name="epochs",
        )
        policy_a = _policy("vrl-access", geometry)
        whole = FusedTimeline(policy_a, TIMING).evaluate(duration, trace)
        policy_b = _policy("vrl-access", geometry)
        timeline = FusedTimeline(
            policy_b, TIMING, epoch_cycles=max(1, duration // n_epochs)
        )
        chunked = timeline.evaluate(duration, trace)
        assert (whole.full_refreshes, whole.partial_refreshes,
                whole.refresh_cycles) == (
            chunked.full_refreshes, chunked.partial_refreshes,
            chunked.refresh_cycles,
        )
        assert np.array_equal(policy_a.rcount.values, policy_b.rcount.values)
        assert timeline.last_report.epochs >= n_epochs

    def test_report_telemetry(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl", geometry)
        timeline = FusedTimeline(policy, TIMING)
        stats = timeline.evaluate(TIMING.cycles(700 * MS))
        report = timeline.last_report
        assert report.crossings == stats.full_refreshes + stats.partial_refreshes
        assert report.resets == 0
        assert report.epochs == 1


class TestBusyChainClosedForms:
    @pytest.mark.parametrize("seed", range(8))
    def test_service_starts_matches_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        dues = np.sort(rng.integers(0, 10_000, size=n)).astype(np.int64)
        busy = rng.integers(1, 50, size=n).astype(np.int64)
        starts = service_starts(dues, busy)
        finish = 0
        for i in range(n):
            expected = max(int(dues[i]), finish)
            assert starts[i] == expected, f"i={i} seed={seed}"
            finish = expected + int(busy[i])

    @pytest.mark.parametrize("seed", range(8))
    def test_union_length_matches_rank_bookkeeping(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(1, 150))
        starts = rng.integers(0, 5_000, size=n).astype(np.int64)
        ends = starts + rng.integers(1, 200, size=n)
        horizon = int(rng.integers(1, 6_000))
        want = _union_length(
            [(int(s), int(e)) for s, e in zip(starts, ends)], horizon
        )
        assert union_length(starts, ends, horizon) == want, f"seed={seed}"

    def test_empty_inputs(self):
        assert len(service_starts(np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.int64))) == 0
        assert union_length(np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64), 100) == 0


class TestRankFusedPath:
    @pytest.mark.parametrize("all_bank", [False, True])
    @pytest.mark.parametrize("policy_name", ["raidr", "vrl"])
    def test_fused_matches_loop(self, all_bank, policy_name):
        geometry = BankGeometry(64, 8)
        duration = TIMING.cycles(800 * MS)
        loop_policies = [
            _policy(policy_name, geometry, profile_seed=s) for s in range(1, 5)
        ]
        fused_policies = [
            _policy(policy_name, geometry, profile_seed=s) for s in range(1, 5)
        ]
        loop = RankSimulator(
            loop_policies, TIMING, geometry, all_bank_refresh=all_bank
        ).run(duration_cycles=duration, backend="loop")
        fused = RankSimulator(
            fused_policies, TIMING, geometry, all_bank_refresh=all_bank
        ).run(duration_cycles=duration, backend="fused")
        assert fused.blocked_cycles == loop.blocked_cycles
        assert fused.mode == loop.mode
        for got, want in zip(fused.per_bank_refresh, loop.per_bank_refresh):
            assert got.full_refreshes == want.full_refreshes
            assert got.partial_refreshes == want.partial_refreshes
            assert got.refresh_cycles == want.refresh_cycles
        if not all_bank and policy_name == "vrl":
            for got, want in zip(fused_policies, loop_policies):
                assert np.array_equal(got.rcount.values, want.rcount.values)

    def test_auto_uses_fused_for_refresh_only(self):
        """auto ≡ loop on a refresh-only run (the fused path serves it)."""
        geometry = BankGeometry(48, 8)
        duration = TIMING.cycles(600 * MS)
        policies = [_policy("vrl", geometry, profile_seed=s) for s in (1, 2)]
        auto = RankSimulator(policies, TIMING, geometry).run(
            duration_cycles=duration
        )
        loop = RankSimulator(
            [_policy("vrl", geometry, profile_seed=s) for s in (1, 2)],
            TIMING, geometry,
        ).run(duration_cycles=duration, backend="loop")
        assert auto.blocked_cycles == loop.blocked_cycles
        assert [s.refresh_cycles for s in auto.per_bank_refresh] == [
            s.refresh_cycles for s in loop.per_bank_refresh
        ]

    def test_fused_rejects_traced_runs(self):
        geometry = BankGeometry(32, 8)
        policies = [_policy("vrl", geometry)]
        trace = MemoryTrace(
            np.array([10], dtype=np.int64), np.array([3], dtype=np.int64),
            np.array([False]), name="one",
        )
        with pytest.raises(ValueError, match="refresh-only"):
            RankSimulator(policies, TIMING, geometry).run(
                trace=trace, backend="fused",
                duration_cycles=TIMING.cycles(100 * MS),
            )

    def test_invalid_backend_rejected(self):
        geometry = BankGeometry(32, 8)
        policies = [_policy("vrl", geometry)]
        with pytest.raises(ValueError, match="backend"):
            RankSimulator(policies, TIMING, geometry).run(
                duration_cycles=1000, backend="warp"
            )


class TestEvaluatorBackends:
    def test_invalid_backend_rejected(self):
        """No refresh entry point takes a backend knob any more."""
        policy = _policy("vrl", BankGeometry(32, 8))
        for build in (
            lambda: FusedTimeline(policy, TIMING, backend="numpy"),
            lambda: RefreshOverheadEvaluator(policy, TIMING, backend="fused"),
            lambda: BankSimulator(policy, TIMING).refresh_stats(1000, backend="auto"),
        ):
            with pytest.raises(TypeError, match="backend"):
                build()

    def test_refresh_stats_matches_run(self):
        """BankSimulator.refresh_stats ≡ run().refresh (fused vs engine)."""
        geometry = BankGeometry(48, 8)
        duration = TIMING.cycles(700 * MS)
        policy = _policy("vrl", geometry)
        simulator = BankSimulator(policy, TIMING)
        fused = simulator.refresh_stats(duration)
        engine = simulator.run(duration_cycles=duration).refresh
        assert fused.full_refreshes == engine.full_refreshes
        assert fused.partial_refreshes == engine.partial_refreshes
        assert fused.refresh_cycles == engine.refresh_cycles


def _load_custom_policy_module():
    path = Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
    spec = importlib.util.spec_from_file_location("custom_policy_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScalarFallback:
    """A scalar-only subclass is priced by the engine, results unchanged."""

    def _custom_policy(self, geometry, profile_seed=5):
        module = _load_custom_policy_module()
        base = _policy("vrl-access", geometry, profile_seed=profile_seed)
        # Hot every third stretch so the thermal override actually fires.
        return module.VRLTempPolicy(
            base.binning,
            base.mprsf.values,
            tau_full=base.tau_full,
            tau_partial=base.tau_partial,
            nbits=base.nbits,
            hot_windows=lambda index: (index // 100) % 3 == 2,
        )

    def test_scalar_override_is_detected(self):
        policy = self._custom_policy(BankGeometry(32, 8))
        assert not policy.supports_fused_timeline()

    def test_forced_fused_raises(self):
        policy = self._custom_policy(BankGeometry(32, 8))
        with pytest.raises(ValueError, match="timeline_spec"):
            FusedTimeline(policy, TIMING)

    def _evaluator_and_engine(self, geometry, duration, trace, profile_seed=5):
        evaluator = RefreshOverheadEvaluator(
            self._custom_policy(geometry, profile_seed), TIMING
        )
        assert evaluator.timeline is None
        stats = evaluator.evaluate(duration, trace)
        engine = BankSimulator(
            self._custom_policy(geometry, profile_seed), TIMING
        ).run(trace=trace, duration_cycles=duration).refresh
        return [
            (s.full_refreshes, s.partial_refreshes, s.refresh_cycles)
            for s in (stats, engine)
        ]

    def test_auto_falls_back_and_matches_engine(self):
        """The evaluator prices the scalar-only policy exactly as the
        engine does, with a trace."""
        geometry = BankGeometry(32, 8)
        duration = TIMING.cycles(800 * MS)
        rng = np.random.default_rng(3)
        trace = MemoryTrace(
            np.sort(rng.integers(0, duration, 400)).astype(np.int64),
            rng.integers(0, geometry.rows, 400).astype(np.int64),
            rng.random(400) < 0.5,
            name="fallback",
        )
        priced, engine = self._evaluator_and_engine(geometry, duration, trace)
        assert priced == engine

    def test_global_state_priced_in_time_order(self):
        """VRL-Temp's global refresh index sees refreshes in time order.

        With mixed period bins, round ``k`` of a 64 ms row and round
        ``k`` of a 256 ms row fall at different times, so a round-by-
        round walk hands this policy its refreshes out of order (it
        prices 225 full / 584 partial / 7597 cycles here).  The
        evaluator must match the engine: 232 / 577 / 7632.
        """
        geometry = BankGeometry(256, 8)
        duration = TIMING.cycles(800 * MS)
        priced, engine = self._evaluator_and_engine(
            geometry, duration, None, profile_seed=0
        )
        assert priced == engine == (232, 577, 7632)

    def test_builtin_policies_stay_fused(self):
        geometry = BankGeometry(32, 8)
        for name in ("fixed", "raidr", "vrl", "vrl-access"):
            assert _policy(name, geometry).supports_fused_timeline(), name
