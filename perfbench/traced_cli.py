"""Run one fracspec CLI command with span tracing, in a fresh interpreter.

    python traced_cli.py SPANS_JSON ARG...

Imports fracspec (recorded as an ``import`` span, so the cold import the
user pays is part of the trace), wraps the public functions of each module,
calls ``fracspec.cli.main(ARG...)``, writes the spans to SPANS_JSON and
exits with main's return code.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import fracspec.cli

    tracer.spans.append(["import", start, time.perf_counter(), -1, 0])
    tracer.install()
    code = fracspec.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
