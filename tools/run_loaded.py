#!/usr/bin/env python3
"""run_loaded — run a command on a deliberately loaded host.

    tools/run_loaded.py -- <cmd> [args...]

Starts min(os.cpu_count(), 8) busy-loop child processes in a process group
of their own, runs <cmd> while they compete for every hardware thread, and
kills the group on every exit path: normal exit, failure, an exception, and
a SIGTERM/SIGINT/SIGHUP to this script (how a test runner's timeout stops
it). If this script is killed outright (SIGKILL), each busy loop notices it
has been re-parented and exits within milliseconds, so no process outlives
the run.

The multicore suites run under it (ctest `*_loaded` entries) to show that a
verdict of the sharded datapath does not depend on how the host schedules
its threads: a healthy worker that loses the CPU for a while must never be
judged stalled (DESIGN.md §13).

Exit status: the command's own, 128+N on signal N, 2 on usage errors.
"""

import os
import signal
import subprocess
import sys

MAX_BUSY = 8

# Spins in pure Python and re-checks its parent every few milliseconds: a
# busy loop whose parent is gone exits instead of burning a core forever.
BUSY_LOOP = (
    "import os\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


def start_busy(procs, count):
    """Append `count` busy loops to `procs`, all in the first one's new
    process group (appending as they start, so a failed start still leaves
    every started loop where stop_busy can reach it)."""
    for _ in range(count):
        join = os.setpgrp if not procs else \
            (lambda g=procs[0].pid: os.setpgid(0, g))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", BUSY_LOOP], preexec_fn=join,
            stdin=subprocess.DEVNULL))


def stop_busy(procs):
    if procs:
        try:
            os.killpg(procs[0].pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for p in procs:
        p.wait()


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    cmd = sys.argv[1:]
    if cmd[:1] == ["--"]:
        cmd = cmd[1:]
    if not cmd:
        print("usage: run_loaded.py -- <cmd> [args...]", file=sys.stderr)
        return 2

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    count = min(os.cpu_count() or 1, MAX_BUSY)
    procs = []
    child = None
    try:
        start_busy(procs, count)
        print(f"run_loaded: {count} busy loop(s) running; {' '.join(cmd)}",
              flush=True)
        child = subprocess.Popen(cmd)
        return child.wait()
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        stop_busy(procs)


if __name__ == "__main__":
    sys.exit(main())
