"""Run one command and record its wall time and peak resident set.

    python3 launch.py RESULT.json STDOUT STDERR -- COMMAND...

The benchmark starts every flexsafe command through this small
stdlib-only process.  A child started by a process inherits that
process's high-water resident set at exec, so timing the command from
the benchmark itself (which holds numpy, scipy and the reference data)
would report the benchmark's memory instead of the command's.  Started
from here, the child inherits only this launcher's few megabytes.

``ru_maxrss`` from ``wait4`` is the peak of the command and of every
descendant it waited for, so pool workers are included.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    result, out, err, sep, *command = argv
    if sep != "--" or not command:
        print("usage: launch.py RESULT STDOUT STDERR -- COMMAND...", file=sys.stderr)
        return 2
    with open(out, "wb") as fh_out, open(err, "wb") as fh_err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=fh_out, stderr=fh_err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump(
            {"returncode": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}, fh
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
