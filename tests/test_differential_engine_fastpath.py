"""Three-way differential harness: engine ≡ round walk ≡ fused timeline.

`tests/test_engine_fastpath.py` pins the equivalence on a handful of
hand-picked cases; this harness drives it with seeded *randomized*
configurations — random geometries, policies, counter widths,
temperatures, and adversarial traces — and with the known-nasty event
orderings called out in the fastpath's contract:

* **tie cycles** — a demand access landing exactly on a refresh
  deadline (refresh wins the tie, so the access resets the counter for
  the *next* deadline only);
* **VRL-Access resets** — bursts of accesses inside one interval (one
  reset, not many), accesses one cycle either side of a deadline;
* **empty / out-of-horizon traces** — accesses at or past the
  simulation horizon must not change refresh accounting.

Every case asserts the three refresh statistics are bit-identical
across all three evaluation strategies (invariant 11): the cycle-level
:class:`BankSimulator`, the round-walk oracle
(:func:`tests.oracles.round_walk`), and
:class:`RefreshOverheadEvaluator`, which runs the fused timeline for
every policy here.  Failure messages carry the case's seeds so any
discrepancy reproduces from the log alone.
"""

import numpy as np
import pytest

from repro.controller import build_policy
from repro.retention import RefreshBinning, RetentionProfiler, TemperatureModel
from repro.sim import (
    BankSimulator,
    DRAMTiming,
    MemoryTrace,
    RefreshOverheadEvaluator,
    merge_traces,
)
from repro.technology import BankGeometry, DEFAULT_TECH
from repro.units import MS
from tests.oracles import round_walk

TIMING = DRAMTiming.from_technology(DEFAULT_TECH)

POLICY_NAMES = ("fixed", "raidr", "vrl", "vrl-access")

def _policy(name, geometry, profile_seed, nbits=2, temperature=None):
    profile = RetentionProfiler(seed=profile_seed).profile(geometry)
    if temperature is not None:
        profile = TemperatureModel().scale_profile(profile, temperature)
    binning = RefreshBinning().assign(profile)
    return build_policy(name, DEFAULT_TECH, profile, binning, nbits=nbits)


def _row_deadlines(policy, row, duration_cycles):
    """The exact refresh-due cycles of ``row`` (mirrors both simulators)."""
    period = TIMING.cycles(policy.row_period(row))
    first = (row * period) // policy.n_rows
    return np.arange(first, duration_cycles, period, dtype=np.int64)


def _trace_from_events(cycles, rows, seed):
    cycles = np.asarray(cycles, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(cycles, kind="stable")
    is_write = np.random.default_rng(seed).random(len(cycles)) < 0.5
    return MemoryTrace(cycles[order], rows[order], is_write, name="diff")


def _assert_equivalent(policy, trace, duration_cycles, context=""):
    """Pin the round walk and the fused evaluator bit-identical to the engine.

    ``context`` (seeds, temperatures, geometry) is embedded in the
    failure message so a red case reproduces from the log alone.
    """
    engine = BankSimulator(policy, TIMING).run(
        trace=trace, duration_cycles=duration_cycles
    )
    want = (
        engine.refresh.full_refreshes,
        engine.refresh.partial_refreshes,
        engine.refresh.refresh_cycles,
    )
    evaluator = RefreshOverheadEvaluator(policy, TIMING)
    assert evaluator.timeline is not None, "expected the fused path"
    for label, evaluate in (
        ("round walk", lambda: round_walk(policy, TIMING, duration_cycles, trace)),
        ("fused", lambda: evaluator.evaluate(duration_cycles, trace)),
    ):
        fast = evaluate()
        got = (fast.full_refreshes, fast.partial_refreshes, fast.refresh_cycles)
        assert got == want, (
            f"{label} diverged from engine: "
            f"(full, partial, cycles) {got} != {want} "
            f"[policy={policy.name!r} rows={policy.n_rows} "
            f"duration={duration_cycles} {context}]"
        )


class TestRandomizedDifferential:
    """Fuzzed (geometry, policy, nbits, trace) tuples, bit-compared."""

    @pytest.mark.parametrize("case_seed", range(8))
    def test_random_configuration(self, case_seed):
        rng = np.random.default_rng(1000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 97)), 8)
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        nbits = int(rng.integers(1, 4))
        policy = _policy(name, geometry, profile_seed=int(rng.integers(1, 100)),
                         nbits=nbits)
        duration_cycles = TIMING.cycles(float(rng.uniform(0.3, 1.2)))
        n_requests = int(rng.integers(200, 3000))
        cycles = rng.integers(0, duration_cycles, size=n_requests)
        rows = rng.integers(0, geometry.rows, size=n_requests)
        trace = _trace_from_events(cycles, rows, seed=case_seed)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"case_seed={case_seed} policy={name} nbits={nbits}",
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_refresh_only(self, case_seed):
        """No trace at all: the pure-deadline timeline must agree too."""
        rng = np.random.default_rng(2000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 129)), 8)
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        policy = _policy(name, geometry, profile_seed=int(rng.integers(1, 100)))
        duration_cycles = TIMING.cycles(float(rng.uniform(0.3, 1.5)))
        _assert_equivalent(
            policy, None, duration_cycles, context=f"case_seed={case_seed}"
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_temperature(self, case_seed):
        """Temperature-scaled retention profiles shift every period bin;
        the quantized schedules must still agree across all strategies."""
        rng = np.random.default_rng(3000 + case_seed)
        geometry = BankGeometry(int(rng.integers(16, 97)), 8)
        temperature = float(rng.uniform(30.0, 70.0))
        name = POLICY_NAMES[int(rng.integers(len(POLICY_NAMES)))]
        policy = _policy(
            name, geometry, profile_seed=int(rng.integers(1, 100)),
            temperature=temperature,
        )
        duration_cycles = TIMING.cycles(float(rng.uniform(0.2, 0.8)))
        n_requests = int(rng.integers(100, 1500))
        cycles = rng.integers(0, duration_cycles, size=n_requests)
        rows = rng.integers(0, geometry.rows, size=n_requests)
        trace = _trace_from_events(cycles, rows, seed=case_seed)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"case_seed={case_seed} temperature={temperature:.2f}",
        )

    @pytest.mark.parametrize("case_seed", range(4))
    def test_merged_trace_interleavings(self, case_seed):
        """Multi-programmed interleavings (merge_traces' stable order):
        a hot sequential sweep merged with sparse random traffic."""
        rng = np.random.default_rng(4000 + case_seed)
        geometry = BankGeometry(int(rng.integers(24, 65)), 8)
        policy = _policy("vrl-access", geometry,
                         profile_seed=int(rng.integers(1, 100)))
        duration_cycles = TIMING.cycles(float(rng.uniform(0.4, 1.0)))
        sweep_rows = np.tile(np.arange(geometry.rows), 4)
        sweep_cycles = np.linspace(
            0, duration_cycles - 1, num=len(sweep_rows), dtype=np.int64
        )
        sweep = _trace_from_events(sweep_cycles, sweep_rows, seed=case_seed)
        n_random = int(rng.integers(100, 600))
        random_trace = _trace_from_events(
            rng.integers(0, duration_cycles, size=n_random),
            rng.integers(0, geometry.rows, size=n_random),
            seed=case_seed + 1,
        )
        trace = merge_traces([sweep, random_trace])
        _assert_equivalent(
            policy, trace, duration_cycles, context=f"case_seed={case_seed}"
        )

    @pytest.mark.parametrize("policy_name", ["vrl", "vrl-access"])
    @pytest.mark.parametrize("nbits", [1, 3])
    def test_counter_widths(self, policy_name, nbits):
        rng = np.random.default_rng(77 + nbits)
        geometry = BankGeometry(48, 8)
        policy = _policy(policy_name, geometry, profile_seed=5, nbits=nbits)
        duration_cycles = TIMING.cycles(1500 * MS)
        cycles = rng.integers(0, duration_cycles, size=2000)
        rows = rng.integers(0, geometry.rows, size=2000)
        trace = _trace_from_events(cycles, rows, seed=nbits)
        _assert_equivalent(
            policy, trace, duration_cycles,
            context=f"policy={policy_name} nbits={nbits}",
        )


#: Every mechanism registered by the library itself.
BUILTIN_MECHANISMS = (
    "fixed", "fgr-2x", "fgr-4x", "raidr", "vrl", "vrl-access",
    "darp", "chargecache", "avatar",
)


@pytest.mark.parametrize("name", BUILTIN_MECHANISMS)
def test_every_builtin_mechanism_is_fused_and_exact(name):
    """Every built-in mechanism takes the fused path, priced exactly."""
    rng = np.random.default_rng(5000)
    geometry = BankGeometry(48, 8)
    policy = _policy(name, geometry, profile_seed=17)
    duration_cycles = TIMING.cycles(700 * MS)
    cycles = rng.integers(0, duration_cycles, size=1200)
    rows = rng.integers(0, geometry.rows, size=1200)
    trace = _trace_from_events(cycles, rows, seed=12)
    _assert_equivalent(policy, trace, duration_cycles, context=f"mechanism={name}")


class TestTieCycles:
    """Accesses landing exactly on refresh deadlines (refresh wins)."""

    @pytest.mark.parametrize("policy_name", ["vrl", "vrl-access"])
    def test_accesses_exactly_on_every_deadline(self, policy_name):
        geometry = BankGeometry(32, 8)
        policy = _policy(policy_name, geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        cycles, rows = [], []
        for row in range(geometry.rows):
            for due in _row_deadlines(policy, row, duration_cycles):
                cycles.append(int(due))
                rows.append(row)
        trace = _trace_from_events(cycles, rows, seed=1)
        _assert_equivalent(policy, trace, duration_cycles)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_single_access_around_one_deadline(self, offset):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        row = 7
        dues = _row_deadlines(policy, row, duration_cycles)
        assert len(dues) >= 2, "need a mid-run deadline to perturb"
        target = int(dues[len(dues) // 2]) + offset
        if target < 0 or target >= duration_cycles:
            pytest.skip("offset fell outside the horizon")
        trace = _trace_from_events([target], [row], seed=2)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_mixed_ties_and_random_load(self):
        rng = np.random.default_rng(42)
        geometry = BankGeometry(64, 8)
        policy = _policy("vrl-access", geometry, profile_seed=11)
        duration_cycles = TIMING.cycles(900 * MS)
        cycles = list(rng.integers(0, duration_cycles, size=1500))
        rows = list(rng.integers(0, geometry.rows, size=1500))
        for row in range(0, geometry.rows, 3):
            for due in _row_deadlines(policy, row, duration_cycles)[::2]:
                cycles.append(int(due))
                rows.append(row)
        trace = _trace_from_events(cycles, rows, seed=3)
        _assert_equivalent(policy, trace, duration_cycles)


class TestAccessResetSemantics:
    """VRL-Access burst/reset behaviour, differentially checked."""

    def test_burst_in_single_interval_counts_once(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(1024 * MS)
        row = 3
        dues = _row_deadlines(policy, row, duration_cycles)
        assert len(dues) >= 2
        lo, hi = int(dues[0]) + 1, int(dues[1])
        burst = np.linspace(lo, hi - 1, num=40, dtype=np.int64)
        trace = _trace_from_events(burst, [row] * len(burst), seed=4)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_empty_trace_matches_refresh_only(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(700 * MS)
        trace = _trace_from_events([], [], seed=5)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_accesses_past_horizon_are_inert(self):
        geometry = BankGeometry(32, 8)
        policy = _policy("vrl-access", geometry, profile_seed=9)
        duration_cycles = TIMING.cycles(700 * MS)
        inside = np.random.default_rng(6).integers(0, duration_cycles, size=200)
        beyond = np.arange(duration_cycles, duration_cycles + 50)
        cycles = np.concatenate([inside, beyond])
        rows = np.random.default_rng(7).integers(0, geometry.rows, size=len(cycles))
        trace = _trace_from_events(cycles, rows, seed=8)
        _assert_equivalent(policy, trace, duration_cycles)

    def test_all_rows_hammered_forces_no_full_refreshes(self):
        """Every interval sees an access → VRL-Access stays partial-only
        (after each row's initial full at rcount==mprsf==saturated rows
        it may differ; the assertion is only engine ≡ fastpath)."""
        geometry = BankGeometry(16, 8)
        policy = _policy("vrl-access", geometry, profile_seed=13)
        duration_cycles = TIMING.cycles(1024 * MS)
        cycles, rows = [], []
        for row in range(geometry.rows):
            dues = _row_deadlines(policy, row, duration_cycles)
            mids = (dues[:-1] + dues[1:]) // 2
            cycles.extend(int(c) for c in mids)
            rows.extend([row] * len(mids))
        trace = _trace_from_events(cycles, rows, seed=9)
        _assert_equivalent(policy, trace, duration_cycles)
