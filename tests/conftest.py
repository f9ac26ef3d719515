"""Shared fixtures: small, deterministic workloads, and the leak check."""

import gc
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.autoencoder import BinaryAutoencoder
from repro.data.synthetic import make_clustered, make_sift_like

# Example budgets of the property tests that do not fix their own;
# ``HYPOTHESIS_PROFILE=nightly`` runs ten times the default's.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("nightly", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_cloud():
    """(200, 12) clustered float data — generic small workload."""
    return make_clustered(200, 12, n_clusters=4, rng=7)


@pytest.fixture(scope="session")
def sift_cloud():
    """(300, 16) SIFT-like non-negative data."""
    return make_sift_like(300, 16, n_clusters=5, rng=11)


@pytest.fixture()
def small_ba():
    """Fresh 12->6-bit linear BA per test."""
    return BinaryAutoencoder.linear(n_features=12, n_bits=6)


@pytest.fixture()
def fitted_ba(small_cloud):
    """A BA quickly fitted on the small cloud (3 MAC iterations)."""
    from repro.core.penalty import GeometricSchedule
    from tests.fits import fit_ba

    ba = BinaryAutoencoder.linear(n_features=12, n_bits=6)
    fit_ba(ba, small_cloud, GeometricSchedule(1e-3, 2.0, 3), seed=0)
    return ba


# ------------------------------------------------------------ leak fixture
def _child_pids() -> set:
    """Live children of this process, the resource tracker aside (it is
    ``multiprocessing``'s own, started once and kept until exit)."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    me, out = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..."; comm may contain spaces.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # raced an exit
        if ppid == me and state != "Z" and int(entry) != tracker:
            out.add(int(entry))
    return out


def _ring_sockets() -> set:
    """Unix-socket names this process's backends handed their workers
    (abstract names, so there is no file or directory to look for)."""
    tag = f"@parmac-{os.getpid()}-"
    with open("/proc/net/unix") as fh:
        return {line.split()[-1] for line in fh if tag in line}


def _leaky_threads() -> list:
    return [
        t.name
        for t in threading.enumerate()
        if t is not threading.main_thread()
        and t.is_alive()
        and (not t.daemon or t.name == "QueueFeederThread")
    ]


@pytest.fixture(scope="session", autouse=True)
def no_leaks_at_session_end():
    """The suite must put back what it took: at session end no child
    process, ``/dev/shm`` entry or ring socket beyond those present at
    session start, and no live non-daemon thread or queue feeder (either
    keeps the interpreter from exiting). Every ``Backend.close`` and
    ``ShardedHammingIndex.close`` path answers to this. (``/dev/shm`` is
    machine-wide: a fit running elsewhere on the box while the session
    ends reads as a leak.)"""
    if not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"):
        yield  # non-Linux: nothing to observe
        return
    children, shm = _child_pids(), set(os.listdir("/dev/shm"))
    yield
    gc.collect()  # a dropped backend closes its pool in __del__
    deadline = time.monotonic() + 5.0
    while True:
        leaks = {
            "child processes": sorted(_child_pids() - children),
            "/dev/shm entries": sorted(set(os.listdir("/dev/shm")) - shm),
            "ring sockets": sorted(_ring_sockets()),
            "threads": _leaky_threads(),
        }
        leaks = {what: found for what, found in leaks.items() if found}
        # Exiting workers and feeder threads get a moment to finish.
        if not leaks or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert not leaks, f"the test session leaked: {leaks}"
