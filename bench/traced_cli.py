"""Run one tempocode CLI command with span tracing, then write the trace.

Usage: ``python3 bench/traced_cli.py TRACE_JSON <cli arguments>``

Times ``import tempocode.cli`` in this fresh interpreter, installs the
tracer, runs ``tempocode.cli.main`` inside a ``cli.main`` span, writes
``{"import_s", "spans", "counts"}`` to TRACE_JSON and exits with the CLI's
exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from workloads import SRC


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import tempocode.cli

    import_s = perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        code = tracer.wrap("cli.main", tempocode.cli.main)(argv)
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
