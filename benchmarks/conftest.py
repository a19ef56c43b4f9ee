"""Shared fixtures for the benchmark harness.

Each ``test_bench_*`` module regenerates one paper artifact (figure or
table) under ``pytest-benchmark`` timing, asserts the headline shape the
paper reports, and prints the regenerated rows so a benchmark run
doubles as a reproduction log:

    pytest benchmarks/ --benchmark-only
"""

import sys
from pathlib import Path

import pytest

from repro.retention import RefreshBinning, RetentionProfiler

# The timeline benchmark times the round-walk oracle in tests/oracles.py;
# make the repository root importable however pytest is invoked.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def paper_profile():
    """The paper-seeded retention profile of the 8192x32 bank."""
    return RetentionProfiler().profile()


@pytest.fixture(scope="session")
def paper_binning(paper_profile):
    """RAIDR binning of the paper profile (Fig. 3b)."""
    return RefreshBinning().assign(paper_profile)
