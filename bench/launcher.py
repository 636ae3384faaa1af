"""Start the benchmark's commands from a process that stays small.

Usage: python3 bench/launcher.py   (requests on stdin, replies on stdout)

``wait4`` reports a child's peak RSS as the largest of its own and that of
every address space it replaced by ``exec``.  A child started by ``vfork``
or ``posix_spawn`` replaces its launcher's address space, so a launcher that
has built a corpus would lend its own peak to every command it starts.
``run.py`` therefore starts this script before it imports partkit, and
every measured command is spawned from here.

A request is one JSON line ``{"argv", "env", "stdout", "stderr"}``; the
command runs with stdin from ``/dev/null`` and its output in the two files.
The reply is one JSON line with the CLOCK_MONOTONIC start and end, the exit
code, the child's rusage and this process's own peak RSS.  The launcher
exits at end of input.  On SIGTERM it kills and reaps the running command,
then exits.
"""

import json
import os
import resource
import signal
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def launch(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], _WRITE, 0o644),
    ]
    argv = request["argv"]
    # flush dirty pages so writeback of earlier output stays out of the timing
    os.sync()
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return {
        "start": start,
        "end": end,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "launcher_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for line in iter(sys.stdin.readline, ""):
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
