"""One traced CLI request: ``tracedcli.py SPAWNED_AT TRACE_FILE ARGS...``.

Started by traced ``cli_cold`` runs in place of ``python -m slicepoly.cli``.
It imports the CLI, installs the benchmark's wrappers, runs
``slicepoly.cli.main(ARGS)`` and writes its trace to TRACE_FILE for the parent
to merge.  SPAWNED_AT is the parent's ``perf_counter()`` just before the
process was started (CLOCK_MONOTONIC, shared by all processes), so the
``cli.startup`` span covers interpreter start-up and import.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spawned_at, trace_file, argv = float(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
    from slicepoly import cli, qpoly

    imported_at = perf_counter()
    import tracing

    tracer = tracing.Tracer()
    tracer.enter(tracer.name_id("cli.startup"), spawned_at)
    tracer.leave(imported_at)
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        info = qpoly.expand_q_power.cache_info()
        tracer.count("qpoly.expand_q_power.hits", info.hits)
        tracer.count("qpoly.expand_q_power.misses", info.misses)
        trace_file.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
