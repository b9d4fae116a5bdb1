"""Fresh-interpreter set-up probe: import xxzsteer.cli and run one command.

Usage: python3 perfbench/probe.py SRC_DIR ARG...

The exit code is the command's.  After the command, the probe times the
calibration chunk four times in its own process (the first run warms it
up).  The last line of standard error is "calibration CHUNK AFTER": the
median seconds of the last three chunks, and all the seconds spent after
the command.
"""

import statistics
import sys
import time

sys.path.insert(0, sys.argv[1])

from xxzsteer import cli  # noqa: E402

rc = cli.main(sys.argv[2:])
after = time.perf_counter()

from calibration import chunk_seconds  # noqa: E402

chunk_seconds()
chunk = statistics.median(chunk_seconds() for _ in range(3))
print(f"calibration {chunk!r} {time.perf_counter() - after!r}", file=sys.stderr)
sys.exit(rc)
