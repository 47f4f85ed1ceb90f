"""Run one command; print its exit code, wall and CPU seconds and peak RSS.

    python3 -I -S spawn.py STDOUT_PATH STDERR_PATH -- CMD...

run.py starts every child through this small process.  Linux carries the
spawning process's resident high-water mark into a child across exec, so a
child started straight from run.py would report run.py's own peak RSS
whenever that is the larger one.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    out_path, err_path, dashes, *cmd = argv
    if dashes != "--" or not cmd:
        print("usage: spawn.py STDOUT_PATH STDERR_PATH -- CMD...", file=sys.stderr)
        return 2
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump(
        {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
