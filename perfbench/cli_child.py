"""Run one ``seqident`` command under the tracer.

Usage: python3 cli_child.py <trace-output.json> <seqident arguments...>

Behaves like the ``seqident`` console script (same stdout, stderr and exit
code), and in addition writes the spans and counters of the run, the import
time of ``seqident.cli`` and the self time of ``main`` to the JSON file.
"""

import json
import sys
import time

import tracing  # perfbench/tracing.py; this script's directory is sys.path[0]


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import seqident.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = seqident.cli.main(argv)
    finally:
        sys.stdout.flush()
        main_self = [own for name, *_, own in tracer.spans if name == "cli.main"]
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "max_table_bytes": tracer.max_table_bytes,
                    "import_s": import_s,
                    "main_self_s": sum(main_self),
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
