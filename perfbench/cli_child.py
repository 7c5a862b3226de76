"""Run one contamest command line with spans recorded (traced runs only).

Usage: python3 cli_child.py SPANS_FILE SPAWN_TIME ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC and shared between
processes, so the ``cli.startup`` span covers interpreter start plus
``import contamest.cli``.  The spans go to SPANS_FILE as JSON lines and the
exit code is the command's own.
"""

import sys
import time

spawn = float(sys.argv[2])
import contamest.cli as cli  # noqa: E402  (the import is what startup measures)

ready = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.record("cli.startup", "cli", spawn, ready)
    tracer.install()
    try:
        code = cli.run_command(sys.argv[3:])
    finally:
        tracer.uninstall()
    tracer.dump(sys.argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
