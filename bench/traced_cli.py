"""Run one `lowlying` CLI command with its layers traced.

    python3 bench/traced_cli.py SPANS.jsonl COMMAND [FLAGS...]

Behaves as `python3 -m lowlying COMMAND [FLAGS...]` (same exit code, same
output files) and writes the spans to SPANS.jsonl.  Each command runs
in its own process, so the package's module caches start cold exactly as
in an untraced run.
"""

import os
import sys

from tracing import Tracer, instrument, pin_threads


def main(argv):
    spans_path, command = argv[0], argv[1:]
    pin_threads(os.environ)
    from lowlying import cli

    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.span("cli." + command[0]):
            return cli.main(command)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
