"""Facts about the machine and the processes of one run, read from /proc."""

from __future__ import annotations

import os
import platform
from pathlib import Path

SHM_DIR = Path("/dev/shm")
#: Prefix of the program's shared-memory segments.
SHM_PREFIX = "repro-"


def machine() -> dict[str, object]:
    """nproc, CPU model and the interpreter and library versions."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments that exist now."""
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def stop_helpers() -> None:
    """Stop the stdlib shared-memory resource tracker, if this process
    started one, and reap every child that has exited.

    The tracker is a helper process that otherwise outlives the run: it
    only ends once the interpreter exits, after the benchmark is done.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
