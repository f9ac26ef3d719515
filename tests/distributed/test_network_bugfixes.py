"""Regressions for the bugs the chaos harness shook out.

Three wall-clock failure modes that only surface under degraded
networks, each pinned by a test:

* the TCP mesh/JOIN handshake dialled each peer exactly once with a
  flat ``connect_timeout`` — a peer slow to reach ``listen()`` (or with
  a momentarily full backlog) failed the whole setup even though it
  would have been ready milliseconds later (now: bounded
  retry-with-backoff);
* ``MultiprocessBackend.worker_timeout`` defaulted to ``None`` — a
  worker that wedged *without dying* (stuck syscall, livelock, paused
  by the operator) hung ``fit()`` forever, because only deaths are
  detected by the liveness poll (now: finite default, and the timeout
  error names the stalled-but-alive workers, distinct from a fault);
* ``_read_frames`` let a mid-handshake ``socket.timeout`` escape as a
  raw OS error instead of a :class:`ProtocolError`, so the drop_shard
  abort-and-recover path never engaged on a *stalled* peer (only on a
  dead one, whose EOF cascade it was written for).

Plus the composed scenario: a worker paused (SIGSTOP) mid-fit and
resumed (SIGCONT) — a partition that heals — must not cost a shard or a
fit, and checkpoint/restore must still work afterwards.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend
from repro.distributed.backends.mp import MultiprocessBackend
from repro.distributed.backends.ring import _connect_with_retry, _read_frames
from repro.distributed.backends.tcp import TCPBackend
from repro.distributed.framing import ProtocolError, encode_hello

from tests.distributed.test_wallclock_faults import (
    FAULT_DETECTION_TIMEOUT_S,
    WALLCLOCK_BACKENDS,
    ba_setup,
)


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


# ------------------------------------------------------- connect with retry
class TestConnectRetry:
    def test_slow_to_accept_peer_is_retried(self):
        """The regression: the listener comes up *after* the first dial.

        A single ``create_connection`` would raise ConnectionRefused on
        attempt one; the retry loop must keep dialling until the peer
        binds, within the overall budget.
        """
        # Reserve a port, then release it so the first dial is refused.
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            addr = probe.getsockname()
        finally:
            probe.close()

        listener = socket.socket()
        accepted = []

        def late_listen():
            time.sleep(0.5)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(addr)
            listener.listen(1)
            conn, _ = listener.accept()
            accepted.append(conn)

        t = threading.Thread(target=late_listen, daemon=True)
        t.start()
        try:
            conn = _connect_with_retry(addr, timeout=10.0)
            conn.close()
            t.join(timeout=5.0)
            assert accepted
        finally:
            listener.close()
            for c in accepted:
                c.close()

    def test_budget_exhaustion_raises_protocol_error(self):
        """Nobody ever listens: the retry loop must give up within the
        budget with a ProtocolError naming the address, not spin."""
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            addr = probe.getsockname()
        finally:
            probe.close()
        t0 = time.monotonic()
        with pytest.raises(ProtocolError, match="could not connect"):
            _connect_with_retry(addr, timeout=0.3)
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.slow
    def test_mesh_setup_tolerates_slow_worker(self, X):
        """End to end: a full TCP fit still comes up when worker bind
        and dial are skewed (the retry makes ordering irrelevant)."""
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter,
            GeometricSchedule(1e-3, 2.0, 2),
            backend="tcp",
            seed=0,
            backend_options={"connect_timeout": 10.0},
        ) as trainer:
            history = trainer.fit(shards)
        assert np.isfinite(history.records[-1].e_q)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
    def test_mesh_setup_of_a_pool_larger_than_a_short_backlog(self, X, name):
        """Every worker dials all its peers before it accepts any, so a
        listener's backlog must hold P - 1 dials: with ``listen(16)`` a
        20-worker mesh deadlocked (workers shut out of one full backlog
        never got to accept the dials filling their own) until
        ``connect_timeout`` failed the setup."""
        adapter, shards = ba_setup(X, P=20)
        backend = get_backend(name)(seed=0, worker_timeout=FAULT_DETECTION_TIMEOUT_S)
        try:
            backend.setup(adapter, shards)
            assert np.isfinite(backend.run_iteration(1e-3).e_q)
        finally:
            backend.close()


# -------------------------------------------------------- handshake stalls
class TestReadFramesStall:
    def test_mid_frame_stall_raises_protocol_error(self):
        """A peer that sends half a frame then stops: ProtocolError (so
        fault handling engages), naming the mid-frame state — not a raw
        socket timeout."""
        a, b = socket.socketpair()
        try:
            a.sendall(encode_hello(3)[:-2])  # header + partial payload
            with pytest.raises(ProtocolError, match="stalled mid-handshake.*mid-frame"):
                _read_frames(b, 1, timeout=0.2)
        finally:
            a.close()
            b.close()

    def test_between_frames_stall_raises_protocol_error(self):
        """A peer that connects then never sends: same normalisation,
        labelled between-frames."""
        a, b = socket.socketpair()
        try:
            with pytest.raises(
                ProtocolError, match="stalled mid-handshake.*between frames"
            ):
                _read_frames(b, 1, timeout=0.2)
        finally:
            a.close()
            b.close()

    def test_timeout_does_not_leak_as_os_error(self):
        """The exact regression: the raised error must be catchable as
        ProtocolError by callers that key fault recovery on it."""
        a, b = socket.socketpair()
        try:
            try:
                _read_frames(b, 1, timeout=0.1)
            except ProtocolError:
                pass  # what the drop_shard path catches
            else:
                pytest.fail("stall did not raise")
        finally:
            a.close()
            b.close()


# --------------------------------------------------------- stalled workers
from dataclasses import dataclass

from repro.autoencoder.adapter import BAAdapter
from repro.distributed.partition import Shard


@dataclass
class StallShard(Shard):
    """A shard whose worker wedges — alive, not dead — in its W step."""

    stall_forever: bool = False


class WedgingAdapter(BAAdapter):
    """Spins forever on a marked shard: the alive-but-unresponsive case
    the liveness poll cannot see (only deaths are detectable)."""

    def w_update_batch(self, specs, thetas, states, shard, mu, **kwargs):
        if getattr(shard, "stall_forever", False):
            while True:  # never returns, never dies
                time.sleep(1.0)
        return super().w_update_batch(specs, thetas, states, shard, mu, **kwargs)


class TestWorkerTimeout:
    def test_finite_default(self):
        """The regression: None meant a wedged worker hung fit() forever."""
        assert MultiprocessBackend().worker_timeout == 300.0
        assert TCPBackend().worker_timeout == 300.0

    def test_none_still_accepted(self):
        assert MultiprocessBackend(worker_timeout=None).worker_timeout is None

    @pytest.mark.slow
    @pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
    def test_stalled_worker_times_out_as_stall_not_fault(self, X, name):
        """A worker alive but wedged in its W step: the gather must end
        at the deadline with an error that names the stalled ranks and
        says they are alive — not hang, and not claim a death."""
        adapter, shards = ba_setup(X, P=3, adapter_cls=WedgingAdapter)
        shards = [
            StallShard(
                X=s.X, F=s.F, Z=s.Z, indices=s.indices, stall_forever=(p == 1)
            )
            for p, s in enumerate(shards)
        ]
        backend = get_backend(name)(seed=0, worker_timeout=3.0)
        try:
            backend.setup(adapter, shards)
            t0 = time.monotonic()
            with pytest.raises(
                RuntimeError, match="alive but unresponsive"
            ) as excinfo:
                backend.run_iteration(1e-3)
            assert time.monotonic() - t0 < FAULT_DETECTION_TIMEOUT_S
            # The wedged rank is named (so are peers stalled behind it
            # on the ring — the coordinator cannot tell them apart, and
            # says so instead of claiming a death).
            import re

            named = re.search(r"worker\(s\) \[([^\]]*)\]", str(excinfo.value))
            assert named and "1" in named.group(1).split(", ")
            assert backend.worker_pids == []  # pool torn down, nothing wedged
        finally:
            backend.close()


# ------------------------------------------------- partition, then healing
@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestPartitionThenHeal:
    def test_paused_worker_heals_without_losing_its_shard(self, X, name):
        """SIGSTOP one worker mid-fit, SIGCONT it before any deadline: a
        partition that heals must cost time, not a shard — drop_shard
        must NOT fire (the machine never died), and the fit finishes on
        all machines. Afterwards checkpoint/restore still round-trips."""
        adapter, shards = ba_setup(X, P=3)
        backend = get_backend(name)(
            seed=0,
            fault_policy="drop_shard",
            worker_timeout=FAULT_DETECTION_TIMEOUT_S * 3,
        )
        try:
            backend.setup(adapter, shards)
            backend.run_iteration(1e-3)
            victim = backend.worker_pids[1]
            os.kill(victim, signal.SIGSTOP)

            result = {}

            def run():
                result["stats"] = backend.run_iteration(2e-3)

            t = threading.Thread(target=run, daemon=True)
            t.start()
            time.sleep(1.0)  # the ring is stalled behind the paused peer
            assert t.is_alive()
            os.kill(victim, signal.SIGCONT)  # heal
            t.join(timeout=FAULT_DETECTION_TIMEOUT_S * 3)
            assert not t.is_alive()
            stats = result["stats"]
            assert stats.shards_lost == 0  # healed, not excised
            assert stats.n_machines == 3
            assert np.isfinite(stats.e_q)

            snapshot = backend.checkpoint()
        finally:
            backend.close()

        with get_backend(name)(seed=0) as restored:
            restored.restore(snapshot)
            stats = restored.run_iteration(4e-3)
            assert np.isfinite(stats.e_q)
            assert stats.n_machines == 3
