"""``vrl-dram serve`` with the layer tracer installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON <serve flags...>``
with ``src`` on ``PYTHONPATH``.  Runs the CLI's ``serve`` verb in this
process with :func:`tracing.install` applied, and when the server has
drained writes its spans, counters and per-process memo counters to
``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[1:]
    from repro.experiments import cli
    from repro.runner import shared_build_cache_info

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main(["serve", *serve_args])
    record = tracer.dump()
    record["memo"] = shared_build_cache_info()
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
