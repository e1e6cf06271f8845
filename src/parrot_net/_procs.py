"""Forked helper processes: a campaign's workers and an urban run's gain
helper.  A child writes to its parent through one pipe and is killed and
reaped by the process that forked it; a forked copy of that process only
closes its copy of the pipe."""

from __future__ import annotations

import os
import weakref
from typing import BinaryIO, Callable


def usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class Child:
    """A forked process that runs `body(out)`, `out` the write end of a pipe
    opened as a binary file, and exits.  The parent reads the pipe through
    `reader`; `end()` closes it and ends the child, at most once, and at
    the latest when the `Child` is collected."""

    def __init__(self, body: Callable[[BinaryIO], object]) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    body(out)
            finally:
                os._exit(0)
        os.close(write_fd)
        self.pid = pid
        self.reader = open(read_fd, "rb")
        self.end = weakref.finalize(self, _end, os.getpid(), pid, self.reader)


def _end(owner: int, pid: int, reader: BinaryIO) -> None:
    """Close `reader` and, in process `owner`, kill and reap child `pid`."""
    reader.close()
    if os.getpid() == owner:  # not in a forked copy of the owner
        os.kill(pid, 9)  # SIGKILL, the same number on every POSIX system
        os.waitpid(pid, 0)


def leave_cpu_of(pid: int) -> None:
    """Keep this process off the CPU that process `pid` runs on now, where
    Linux tells which and another usable CPU is left.  A helper left to the
    kernel can share its run's CPU for the whole run, pipe wake-up after
    wake-up, while another CPU idles; the run then waits for most chunks."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)
