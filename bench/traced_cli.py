"""Run one partkit CLI command with timing wrappers installed.

Usage: python3 bench/traced_cli.py SPANS_JSON <partkit arguments...>

Behaves like the ``partkit`` console script, except that the functions
listed in ``tracing.CLI_SPANS`` record spans while the command runs.  When
``main`` returns, the spans, the counters and the moment ``partkit.cli``
finished importing are written to SPANS_JSON.
"""

import json
import sys
import time

import tracing


def run() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import partkit.cli

    imported = time.monotonic()
    tracer = tracing.Tracer()
    tracing.install_cli(tracer)
    try:
        return partkit.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"imported": imported, "spans": tracer.spans, "counters": tracer.counters}, fh
            )


if __name__ == "__main__":
    sys.exit(run())
