"""What the benchmark reads about the machine and its own processes.

Linux-only by design: peak memory comes from ``/proc/<pid>/status``
(``VmHWM``, the resident high-water mark of that process alone), so a
run in a fresh process reports its own peak, not an inherited one; the
run's process tree is tracked through ``/proc`` and ``prctl``, so every
process a run starts has ended when it exits.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import sys
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>
REAP_GRACE_S = 60.0


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of one live process, in KiB (0 once it has exited)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid`` (pool workers, resource tracker)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 is the parent pid; the command name (field 2) may hold
        # spaces, so split after its closing parenthesis.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            out.append(int(entry.name))
    return out


def tree_peak_rss_mib(pid: int) -> float:
    """Summed peak RSS of ``pid`` and its live direct children, in MiB."""
    return sum(peak_rss_kib(p) for p in [pid, *child_pids(pid)]) / 1024.0


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants.

    A process whose parent exits (a pool worker's own resource tracker,
    say) is then re-parented here rather than to init, so
    :func:`reap_children` can wait for it.  Returns whether it took.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait.

    The tracker unlinks any shared-memory segment still registered, then
    exits.  Without this it would outlive the interpreter briefly.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children(grace: float = REAP_GRACE_S) -> list[int]:
    """Wait until this process has no children left; returns those killed.

    Children (and orphans re-parented here) get ``grace`` seconds to end
    on their own; any still alive then are killed and waited for.
    """
    deadline = time.monotonic() + grace
    killed: list[int] = []
    while True:
        kids = child_pids(os.getpid())
        if not kids:
            return killed
        late = time.monotonic() > deadline
        for pid in kids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.02)


def blas_info() -> str:
    """The BLAS numpy was built against, and its thread setting."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: report what we can
        name = "unknown"
    threads = [
        f"{var}={os.environ[var]}"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    ]
    return f"{name}, threads: {', '.join(threads) or 'library default (not pinned)'}"


def environment() -> dict:
    """Everything a later run needs to reproduce a number on another host."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "platform": sys.platform,
    }
