"""Noise control, the environment stamp and memory accounting.

``pin_environment`` must run before NumPy is imported: it fixes the BLAS
thread count (un-pinned OpenBLAS oversubscribes the two vCPUs, and worker
processes inherit the setting) and tells glibc to keep freed memory in
the process heap. The second part matters on the sandbox VM, which
reports free guest pages back to the hypervisor: a 0.5-1 GiB Z-step
temporary that is ``munmap``-ed and re-faulted costs about 5 s/GiB on
first touch, which made identical iterations take 0.4-3 s. With the heap
retained, a worker pays that once (the discarded warm-up fit) and the
measured fits time the program, not the hypervisor.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

__all__ = [
    "pin_environment",
    "environment_stamp",
    "rss_self_mb",
    "rss_children_mb",
    "shm_entries",
]

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4


def pin_environment() -> dict:
    """Pin BLAS to one thread and make the heap retain freed memory.

    Returns what was applied, for the stamp. ``mallopt`` is glibc-only;
    elsewhere the heap setting is reported as not applied and the run
    goes on (noisier, still correct).
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment() must run before numpy is imported")
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    applied = {"blas_threads": 1, "heap_retained": False}
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.mallopt.restype = ctypes.c_int
        ok = libc.mallopt(_M_MMAP_MAX, 0) == 1
        ok = libc.mallopt(_M_TRIM_THRESHOLD, 2**31 - 1) == 1 and ok
        applied["heap_retained"] = bool(ok)
    except (OSError, AttributeError):
        pass
    return applied


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment_stamp(root: Path, pinned: dict) -> dict:
    """Everything needed to tell two result files' hosts apart."""
    import numpy as np

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        # The driver's checkout is not a git repository: commit is null.
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "loadavg_start": list(os.getloadavg()),
        **pinned,
    }


def rss_self_mb() -> float:
    """Peak resident set of this process so far (Linux: ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_children_mb() -> float:
    """Largest peak resident set among the children reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def shm_entries() -> set[str]:
    """Names under /dev/shm (the mp engine's shared-memory residue check)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
