"""Spawn commands and report each one's wall time, exit status and peak RSS.

    python3 -I -S bench/launcher.py STDOUT_FILE STDERR_FILE

Reads one command per line on stdin, as a JSON list of arguments.  Runs
it in this process's directory and environment, with stdin from
/dev/null and stdout and stderr written to the two files, and answers
with one JSON line on stdout:

    {"start": t0, "end": t1, "exitcode": n, "maxrss_kb": n}

t0 and t1 are time.perf_counter() (CLOCK_MONOTONIC on Linux) at spawn and
at reap.  The launcher ends at the end of its input.

run.py spawns every command through this process rather than its own,
because on Linux a command's ru_maxrss is at least its parent's peak RSS:
exec records the peak of the memory image it replaces, and a spawned
child starts in a copy of its parent's memory (or, through vfork, in the
parent's memory itself).  run.py holds mpmath and every parsed output,
so a command spawned from it would report at least run.py's peak.  This
process imports only json, os and time and stays at the size of a bare
interpreter, below that of any epilab command.
"""

import json
import os
import sys
import time

_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    stdout_file, stderr_file = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_file, _WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_file, _WRITE, 0o644),
    ]
    while line := sys.stdin.readline():
        argv = json.loads(line)
        start = time.perf_counter()
        pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        print(json.dumps({"start": start, "end": end,
                          "exitcode": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
