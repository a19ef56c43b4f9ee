"""One-shot report: every ``vrl-dram`` verb, timed once, with its dominant layer.

Usage (from the repository root)::

    python3 perfbench/verbs.py

Each verb runs twice in a fresh process with ``--no-cache`` and no
manifest: once plain, for its wall clock, and once with the layer tracer
of ``tracing.py`` installed, to find the layer with the most self time.
Start-up (importing the CLI) competes as a layer of its own.  The
report names the benchmark workload that covers the top layer, so a
verb's cost can be followed in the gated benchmark.  This report is not
gated and is not part of ``BENCHMARK.json``.  It writes
``.perfbench/verbs.json`` and prints a table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import tracing

#: The workload whose traced run measures each layer.
LAYER_WORKLOAD = {
    "sim.engine": "request-path",
    "sim.timeline": "refresh-sweep",
    "workloads.trace": "refresh-sweep",
    "retention.profile": "refresh-sweep",
    "retention.binning": "refresh-sweep",
    "controller.build": "refresh-sweep",
    "mprsf.rows": "refresh-sweep",
    "retention.vrt": "integrity-calibrate",
    "mprsf.optimizer": "integrity-calibrate",
    "circuit.solve": "integrity-calibrate",
    "runner.run": "served-warm",
}
VERB_TIMEOUT_S = 600.0


def traced_child(verb: str, out_path: str) -> int:
    """Run ``verb`` under the tracer in this process; write layer totals."""
    t0 = time.monotonic()
    from repro.experiments import cli

    startup = time.monotonic() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main([verb, "--no-cache", "--runs-dir", ""])
    totals = tracing.layer_totals(tracer.dump()["spans"])
    Path(out_path).write_text(json.dumps(
        {"wall_s": time.monotonic() - t0, "startup_s": startup, "layers": totals}
    ))
    return code


def time_verb(verb: str, work: Path, env: dict) -> dict:
    cwd = Path(tempfile.mkdtemp(prefix=f"{verb}-", dir=work))
    t0 = time.perf_counter()
    plain = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", verb, "--no-cache", "--runs-dir", ""],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=VERB_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    spans = cwd / "layers.json"
    traced = subprocess.run(
        [sys.executable, str(run.BENCH / "verbs.py"), "--traced-child", verb, str(spans)],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=VERB_TIMEOUT_S,
    )
    row = {"verb": verb, "wall_s": wall, "exit": plain.returncode}
    if plain.returncode != 0 or traced.returncode != 0:
        row["error"] = (plain.stderr or traced.stderr)[-500:]
        return row
    record = json.loads(spans.read_text())
    layers = {
        name: entry["self_s"] for name, entry in record["layers"].items()
        if name in LAYER_WORKLOAD
    }
    layers["startup"] = record["startup_s"]
    top = max(layers, key=layers.get)
    row.update(
        layer=top,
        share=layers[top] / record["wall_s"],
        workload=LAYER_WORKLOAD.get(top, "setup_s of every workload"),
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced-child", nargs=2, metavar=("VERB", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced_child:
        return traced_child(*args.traced_child)

    from repro.service import experiment_names

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="verbs-", dir=run.OUT) as tmp:
        work = Path(tmp)
        env = run.child_env(work)
        rows = []
        for verb in sorted(experiment_names()):
            row = time_verb(verb, work, env)
            rows.append(row)
            print(
                f"{verb:18s} {row['wall_s']:7.2f} s  "
                + (f"{row['layer']:18s} {100 * row['share']:5.1f}%  -> {row['workload']}"
                   if "layer" in row else f"FAILED: {row.get('error', '')}"),
                flush=True,
            )
    total = sum(r["wall_s"] for r in rows)
    print(f"{'total':18s} {total:7.2f} s")
    report = {"environment": run.environment(None), "verbs": rows, "total_s": total}
    (run.OUT / "verbs.json").write_text(json.dumps(report, indent=2))
    return 0 if all("error" not in r for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
