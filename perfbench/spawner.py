"""Spawn the program's processes from a small process, one at a time.

A child's ``ru_maxrss`` counts the memory its parent held when the child
was forked, because Linux carries the old address space's high-water mark
across ``exec``. The benchmark process holds corpora, encoded traffic and
references, so a child it spawned directly would report the benchmark's
size, not its own. This helper is started before the benchmark loads
anything, stays small, and spawns every program process, so the
``maxrss_kb`` it reports is the child's own high-water RSS.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``.
The helper answers with two JSON lines on stdout:
``{"pid": n, "t": spawn_time}`` and, when the child has ended,
``{"pid": n, "t": exit_time, "rc": code, "maxrss_kb": kb}``.
Times are ``time.perf_counter()`` readings, which on Linux use the
system-wide monotonic clock, so they compare with the benchmark's own.
"""

import json
import os
import sys
import time


def _spawn(req: dict) -> int:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    for fd, key in ((1, "stdout"), (2, "stderr")):
        actions.append((os.POSIX_SPAWN_OPEN, fd, req.get(key) or os.devnull,
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    return os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                          file_actions=actions)


def main() -> None:
    out = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        pid = _spawn(req)
        out.write(json.dumps({"pid": pid, "t": t0}) + "\n")
        out.flush()
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
        out.write(json.dumps({
            "pid": pid, "t": t1, "rc": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
        }) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
