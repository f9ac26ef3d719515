"""The process runtime's channel: one socket per worker.

Commands, replies and heartbeats share each worker's channel. A send
never blocks — what the socket does not take, the gather writes before
its deadline — and a worker leaves its loop when the coordinator's end
goes, so no worker outlives a killed coordinator.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed.pool import WorkerPool


class _Echo:
    """A handler table for the loop: ``echo`` replies with its payload's size."""

    def __init__(self, reply):
        self.handlers = {"echo": lambda payload: ("echoed", len(payload))}

    def close(self) -> None:
        pass


def _alive(pid: int) -> bool:
    """Running or stopped; an exited process waiting to be reaped is not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestChannel:
    def test_round_trip_bigger_than_the_socket_buffer(self):
        pool = WorkerPool()
        try:
            pool.start(0, _Echo)
            pool.send(0, "echo", bytes(3 << 20))
            replies, dead, late = pool.gather([0], ("echoed",), deadline=time.monotonic() + 30)
            assert replies == {0: ("echoed", 3 << 20)} and not dead and not late
        finally:
            pool.close(wait=5.0)
        assert pool.procs == {}

    def test_send_to_stopped_worker_never_blocks(self):
        """A 2 MB command to a SIGSTOPped worker: ``send`` returns at
        once, the gather reports the worker late at its deadline, and
        after ``kill`` the pool has left no thread behind."""
        threads = set(threading.enumerate())
        pool = WorkerPool()
        try:
            pool.start(0, _Echo)
            proc = pool.procs[0]
            os.kill(proc.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            pool.send(0, "echo", bytes(2 << 20))
            assert time.monotonic() - t0 < 0.1
            deadline = time.monotonic() + 1.0
            replies, dead, late = pool.gather([0], ("echoed",), deadline=deadline)
            assert time.monotonic() >= deadline
            assert replies == {} and dead == set() and late == {0}
            pool.kill(0)
            assert not proc.is_alive()
            assert set(threading.enumerate()) == threads
        finally:
            pool.close(force=True)


#: Holds a ``multiprocess`` fit, a ``tcp`` fit and a process-shard index
#: open (each set up, so each holds shared-memory segments), prints the
#: pool workers' pids and its new /dev/shm names, then sleeps until killed.
HOLD_POOLS_OPEN = """
import os, time
import numpy as np
from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices
from repro.serve import ShardedHammingIndex

rng = np.random.default_rng(0)
X = rng.normal(size=(64, 16))
adapter = BAAdapter(BinaryAutoencoder.linear(16, 8))
Z = rng.integers(0, 2, size=(64, 8), dtype=np.uint8)
shards = make_shards(X, adapter.features(X), Z, partition_indices(64, 2, rng=0))
shm_before = set(os.listdir("/dev/shm"))
backends = [get_backend(name)(seed=0) for name in ("multiprocess", "tcp")]
for backend in backends:
    backend.setup(adapter, shards)
    backend.run_iteration(1e-3)
codes = rng.integers(0, 2**63, size=(600, 1), dtype=np.uint64)
idx = ShardedHammingIndex(codes, 64, 2, mode="process")
pids = [pid for b in backends for pid in b.worker_pids]
pids += [proc.pid for proc in idx._workers.procs.values()]
segments = sorted(set(os.listdir("/dev/shm")) - shm_before)
print(" ".join(map(str, pids)), "|", " ".join(segments), flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /proc and /dev/shm")
def test_no_worker_outlives_a_killed_coordinator():
    """SIGKILL a process that holds two fits' pools and a process-shard
    index open: within 5 s every pool worker must be gone, and with the
    workers the last holders of its resource tracker, so its /dev/shm
    segments are unlinked too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", HOLD_POOLS_OPEN], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    pids, segments = [], []
    try:
        line = coordinator.stdout.readline()
        assert "|" in line, "the coordinator did not report its pools"
        left, right = line.split("|")
        pids, segments = [int(p) for p in left.split()], right.split()
        assert len(pids) == 6 and segments
        coordinator.kill()
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            alive = [p for p in pids if _alive(p)]
            kept = [s for s in segments if os.path.exists(f"/dev/shm/{s}")]
            if not alive and not kept:
                break
            time.sleep(0.05)
        assert alive == [], f"workers {alive} outlived their coordinator"
        assert kept == [], f"segments {kept} outlived their coordinator"
    finally:
        coordinator.kill()
        coordinator.wait(timeout=10)
        coordinator.stdout.close()
        for pid in pids:  # what a failure left behind
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while any(os.path.exists(f"/dev/shm/{s}") for s in segments):
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)


def test_worker_exits_when_its_coordinator_end_closes():
    """EOF is a stop: closing a worker's channel ends its loop, and the
    worker exits cleanly with no ``stop`` ever sent."""
    pool = WorkerPool()
    pool.start(0, _Echo)
    proc = pool.procs[0]
    try:
        pool._chans[0].close()
        proc.join(timeout=10)
        assert proc.exitcode == 0
    finally:
        pool.kill(0)
