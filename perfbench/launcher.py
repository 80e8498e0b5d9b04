"""Small child-process launcher, so that each child's peak RSS is its own.

Linux carries a forked process's resident set into the ``ru_maxrss`` that
``wait4`` reports after ``exec``, so a child started straight from the
benchmark (which holds corpora and an index) would report at least the
benchmark's own size.  This launcher is a fresh interpreter with few imports;
children forked from it start from its small footprint.

Protocol: one JSON request per stdin line,
``{"argv", "env", "cwd", "stderr", "timeout"}``; one JSON reply per stdout
line, ``{"exit", "wall_s", "rss_mb"}``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdout=subprocess.DEVNULL, stderr=err, env=req["env"], cwd=req["cwd"]
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
