"""Run one lasergrating CLI command the way the console script does.

    python launch.py ARGS...

The package comes from PYTHONPATH.  At exit a JSON stamp goes to
$PERFBENCH_STAMP with

* `ready`: time.monotonic() right after `import lasergrating.cli`.  The
  clock is system-wide on Linux, so the parent takes set-up time as this
  reading minus the moment it started the process.
* `peak_rss_kib`: the larger of this process's VmHWM and the peak RSS of
  the children it reaped (pool workers).  VmHWM covers this program only;
  the ru_maxrss that the parent's wait4 returns also counts the parent's
  own memory, which the child's address space started from before exec.

When $PERFBENCH_TRACE names a file, the layers are traced and the spans are
written there at exit.
"""

import json
import os
import resource
import sys
import time

import lasergrating.cli

_ready = time.monotonic()


def _peak_rss_kib():
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return max(int(line.split()[1]), children)
    except OSError:
        pass
    return None


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    try:
        if not trace_path:
            return lasergrating.cli.main(sys.argv[1:])
        import tracer
        tracer.install()
        try:
            return lasergrating.cli.main(sys.argv[1:])
        finally:
            tracer.dump(trace_path)
    finally:
        with open(os.environ["PERFBENCH_STAMP"], "w") as fh:
            json.dump({"ready": _ready, "peak_rss_kib": _peak_rss_kib()}, fh)


if __name__ == "__main__":
    sys.exit(main())
