"""Run the octalg command line once with the benchmark's tracer installed.

    python octbench/traced_cli.py ARGS...

takes the same arguments as ``python -m octalg.cli`` and prints the same
standard output.  The trace summary (counters and spans) is written as the
last line of standard error, after a marker, for the parent to merge.
"""

import json
import sys

from octalg import cli

from tracer import TRACE_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    tracer.enabled = True
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
