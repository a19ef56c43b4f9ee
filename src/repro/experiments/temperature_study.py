"""TEMP: operating-temperature study (extension).

Retention roughly halves per 10 degC.  This study rescales the profile
across an operating range and, at each temperature, re-derives the
whole VRL deployment: RAIDR bins, MPRSF values, and the resulting
refresh overhead — quantifying how the paper's room-temperature numbers
move in a hot server and where the mechanism's benefit erodes.

Rebinned-per-temperature corresponds to a controller with
temperature-compensated refresh (as real controllers implement via the
JEDEC extended-temperature refresh mode).
"""

from __future__ import annotations

from typing import Sequence

from ..retention import RetentionProfiler
from ..service import Query, driver_client
from ..technology import DEFAULT_GEOMETRY, DEFAULT_TECH, BankGeometry, TechnologyParams
from .result import ExperimentResult

#: Operating points swept by default (degC).
DEFAULT_TEMPERATURES = (45.0, 55.0, 65.0, 75.0, 85.0)


def run_temperature_study(
    tech: TechnologyParams = DEFAULT_TECH,
    geometry: BankGeometry = DEFAULT_GEOMETRY,
    temperatures: Sequence[float] = DEFAULT_TEMPERATURES,
    seed: int = RetentionProfiler.DEFAULT_SEED,
    client=None,
) -> ExperimentResult:
    """VRL deployment re-derived at each operating temperature.

    Args:
        tech: technology parameters.
        geometry: bank geometry.
        temperatures: operating points in degC (profiles are referenced
            at 45 degC).
        seed: profiling seed.
        client: service client (local or remote) to sweep through;
            defaults to a transient serial, uncached in-process one.
            Results are bit-identical for any client.
    """
    queries = [
        Query(
            kind="temperature-point",
            tech=tech,
            rows=geometry.rows,
            cols=geometry.cols,
            temperature=float(temperature),
            seed=seed,
        )
        for temperature in temperatures
    ]
    with driver_client(client) as service:
        report = service.sweep(queries, experiment="temperature")

    rows = []
    baseline_raidr = None
    dropped = []
    for temperature, payload in zip(temperatures, report.results):
        if payload is None:  # cell failed every attempt
            dropped.append(f"{temperature:.0f} C")
            continue
        if baseline_raidr is None:
            baseline_raidr = payload["raidr_cycles_per_second"]
        rows.append(
            (
                f"{temperature:.0f} C",
                f"{payload['retention_factor']:.2f}x",
                payload["weak_rows"],
                f"{payload['raidr_cycles_per_second'] / baseline_raidr:.2f}x",
                f"{payload['overhead_vs_raidr']:.3f}",
                f"{payload['mean_mprsf']:.2f}",
            )
        )

    return ExperimentResult(
        experiment_id="TEMP",
        title="Operating temperature vs refresh cost (profiles re-binned per point)",
        headers=[
            "temperature",
            "retention",
            "rows < 128 ms",
            "RAIDR cost vs 45C",
            "VRL/RAIDR",
            "mean MPRSF",
        ],
        rows=rows,
        notes={
            "model": "retention halves per 10 C (JEDEC extended-temperature behaviour)",
            "reading": (
                "heat both multiplies RAIDR's refresh count and erodes VRL's "
                "partial-refresh headroom: with the fixed 64-256 ms bin set, "
                "halved retention leaves most rows barely above their bin period, "
                "so MPRSF collapses (0.72 -> ~1.0 of RAIDR by 55 C).  Extending "
                "the bin set restores headroom — see the bins ablation "
                "(vrl-dram ablation-bins)"
            ),
            **(
                {"temperatures dropped (failed cells)": ", ".join(dropped)}
                if dropped
                else {}
            ),
        },
    ).merge_notes(report.notes())
