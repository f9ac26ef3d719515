"""Faults and resource hygiene on the wall-clock engines.

The simulated cluster has first-class fault *injection*
(:class:`FaultEvent`, `tests/distributed/test_faults.py`); the real
engines get fault *detection*: a worker process that dies mid-iteration
must fail the fit with a raised error and tear down every peer within a
bounded delay — no wedged processes blocked on ring receives that will
never arrive — and a fit that fails for any reason must leave no
``/dev/shm`` residue behind.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend
from repro.distributed.shm import pack_shards as _pack_shards
from repro.distributed.partition import make_shards, partition_indices

WALLCLOCK_BACKENDS = ["multiprocess", "tcp"]

#: Outer bound on "the backend notices and tears down"; the liveness
#: poll runs every 0.5 s, so this is generous.
FAULT_DETECTION_TIMEOUT_S = 20.0


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


def ba_setup(X, P=3, n_bits=4, seed=0, adapter_cls=BAAdapter):
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = adapter_cls(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_shards(X, adapter.features(X), Z, parts)


def shm_entries() -> set:
    """Names of shared-memory segments currently backing /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: fall back to "nothing observed"
        return set()


class ExplodingWUpdateAdapter(BAAdapter):
    """Raises inside the workers' W step — a deterministic mid-fit failure."""

    def w_update_batch(self, *args, **kwargs):
        raise RuntimeError("injected w_update failure")


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestWorkerDeath:
    def test_killed_worker_fails_fit_and_tears_down_peers(self, X, name):
        """SIGKILL one worker; the fit must raise and no peer may wedge."""
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0, worker_timeout=FAULT_DETECTION_TIMEOUT_S)
        backend.setup(adapter, shards)
        pids = list(backend.worker_pids)
        assert len(pids) == 3
        shm_before = shm_entries()
        os.kill(pids[1], signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="died|failed|timed out"):
            # The survivors block on ring receives from the dead peer;
            # the coordinator must detect and abort, not wait forever.
            backend.run_iteration(1e-3)
        elapsed = time.monotonic() - t0
        assert elapsed < FAULT_DETECTION_TIMEOUT_S
        # Every peer is gone (no wedged processes)...
        assert backend.worker_pids == []
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)
        # ...and the fit's shared-memory segments were unlinked.
        assert shm_entries() <= shm_before
        # The backend stays usable: a fresh setup starts a clean pool.
        adapter2, shards2 = ba_setup(X)
        backend.setup(adapter2, shards2)
        stats = backend.run_iteration(1e-3)
        assert np.isfinite(stats.e_q)
        backend.close()

    def test_worker_dead_before_setup_is_detected(self, X, name):
        """A pool member dying between fits must fail the next setup."""
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0, worker_timeout=FAULT_DETECTION_TIMEOUT_S)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        backend.teardown()
        os.kill(backend.worker_pids[0], signal.SIGKILL)
        shm_before = shm_entries()
        adapter2, shards2 = ba_setup(X)
        with pytest.raises(RuntimeError, match="died|failed|timed out"):
            backend.setup(adapter2, shards2)
        assert backend.worker_pids == []
        assert shm_entries() <= shm_before
        backend.close()

    def test_interpreter_exits_after_failed_setup(self, name):
        """After that failed setup the process must still be able to
        exit. The dead worker's command queue holds a setup message too
        big for the pipe buffer (D=960, L=32), so its feeder thread is
        blocked writing to a reader that is gone; a pool close that
        merely dropped the queue left ``multiprocessing``'s exit handler
        joining that thread forever. Closing the pool must end it (exit
        status 8 if it is still alive), without a traceback of its own."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", EXIT_AFTER_FAILED_SETUP, name],
            env=env, timeout=10, capture_output=True, text=True,
        )
        assert done.returncode == 7, done.stderr
        assert "died mid-" in done.stdout
        assert "Traceback" not in done.stderr


#: Exits 7 when the documented error was raised, the pool's close left no
#: queue feeder behind, and ``main`` returned.
EXIT_AFTER_FAILED_SETUP = """
import os, signal, sys, threading, time
import numpy as np
from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices

def main(name):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 960))
    adapter = BAAdapter(BinaryAutoencoder.linear(960, 32))
    Z = rng.integers(0, 2, size=(64, 32), dtype=np.uint8)
    shards = make_shards(X, adapter.features(X), Z, partition_indices(64, 2, rng=0))
    backend = get_backend(name)(seed=0, worker_timeout=20.0)
    backend.setup(adapter, shards)
    backend.run_iteration(1e-3)
    backend.teardown()
    os.kill(backend.worker_pids[0], signal.SIGKILL)
    try:
        backend.setup(adapter, shards)
    except RuntimeError as exc:
        print(exc)
    else:
        return 1
    backend.close(force=True)
    deadline = time.monotonic() + 5.0
    while any(t.name == "QueueFeederThread" for t in threading.enumerate()):
        if time.monotonic() > deadline:
            return 8
        time.sleep(0.05)
    return 7

sys.exit(main(sys.argv[1]))
"""


@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestNoShmResidue:
    def test_failed_fit_leaves_no_segments(self, X, name):
        """A worker-side failure between shard shipping and teardown must
        unlink every shared-memory segment the fit created."""
        adapter, shards = ba_setup(X, adapter_cls=ExplodingWUpdateAdapter)
        shm_before = shm_entries()
        trainer = ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 2), backend=name, seed=0
        )
        with pytest.raises(RuntimeError, match="injected w_update failure"):
            trainer.fit(shards)
        assert trainer.backend._segments == []
        assert shm_entries() <= shm_before
        trainer.close()

    def test_setup_failure_after_packing_releases_segments(self, X, name, monkeypatch):
        """If setup dies after the segments exist (spawn raced a resource
        limit, a worker rejected the shard, ...), they must be unlinked
        before the error propagates — the finally-based unlink."""
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        shm_before = shm_entries()

        def boom(descs):
            raise OSError("injected setup failure after packing")

        monkeypatch.setattr(backend, "_ship_setup", boom)
        with pytest.raises(OSError, match="injected setup failure"):
            backend.setup(adapter, shards)
        assert backend._segments == []
        assert shm_entries() <= shm_before
        backend.close()


class TestPackShards:
    def test_partial_packing_failure_unlinks_created_segments(self, X, monkeypatch):
        """_pack_shards itself must not leak segments it already created
        when a later shard fails to pack (e.g. /dev/shm fills up)."""
        from multiprocessing import shared_memory as shm_mod

        _, shards = ba_setup(X, P=3)
        real = shm_mod.SharedMemory
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("injected segment-creation failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(shm_mod, "SharedMemory", flaky)
        shm_before = shm_entries()
        with pytest.raises(OSError, match="injected segment-creation"):
            _pack_shards(shards)
        assert calls["n"] == 3  # two segments existed before the failure
        assert shm_entries() <= shm_before


# --------------------------------------------------------------- drop_shard
from dataclasses import dataclass

from repro.distributed.partition import Shard


@dataclass
class KillableShard(Shard):
    """A shard that marks its worker for death at a given mu.

    ``kill_in_z=False`` dies on the first W-step touch of the fatal
    iteration (mid-ring: survivors must abort and retry);
    ``kill_in_z=True`` dies in the Z step — after the worker's last ring
    send, so every survivor completes the attempt and the coordinator
    must keep those results instead of re-running the iteration.
    """

    kill_at_mu: float = -1.0
    kill_in_z: bool = False


class SuicidalAdapter(BAAdapter):
    """SIGKILLs its own worker process when it touches a marked shard —
    a deterministic mid-iteration machine death."""

    @staticmethod
    def _fatal(shard, mu, in_z):
        return (
            getattr(shard, "kill_at_mu", -1.0) >= 0
            and mu >= shard.kill_at_mu
            and getattr(shard, "kill_in_z", False) == in_z
        )

    def w_update_batch(self, specs, thetas, states, shard, mu, **kwargs):
        if self._fatal(shard, mu, in_z=False):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().w_update_batch(specs, thetas, states, shard, mu, **kwargs)

    def z_update(self, shard, mu):
        if self._fatal(shard, mu, in_z=True):
            os.kill(os.getpid(), signal.SIGKILL)
        return super().z_update(shard, mu)


def killable_setup(X, P=4, seed=0, kills=None, kill_in_z=False):
    """BA problem whose shard p dies at mu for each (p, mu) in kills."""
    kills = dict(kills or {})
    adapter, shards = ba_setup(X, P=P, seed=seed, adapter_cls=SuicidalAdapter)
    return adapter, [
        KillableShard(
            X=s.X, F=s.F, Z=s.Z, indices=s.indices,
            kill_at_mu=kills.get(p, -1.0), kill_in_z=kill_in_z,
        )
        for p, s in enumerate(shards)
    ]


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestDropShard:
    def test_fit_survives_mid_iteration_kill(self, X, name):
        """The acceptance headline: a SIGKILL'd worker loses its shard,
        not the run — the fit completes on the survivors."""
        adapter, shards = killable_setup(X, P=4, kills={2: 2e-3})
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0,
            fault_policy="drop_shard",
            backend_options={"worker_timeout": FAULT_DETECTION_TIMEOUT_S * 3},
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) == 4  # every scheduled iteration completed
        assert [r.extra["shards_lost"] for r in history.records] == [0, 1, 0, 0]
        assert [r.extra["n_machines"] for r in history.records] == [4, 3, 3, 3]
        assert all(np.isfinite(r.e_q) for r in history.records)
        # The assembled model is sane: every submodel finite.
        for spec in adapter.submodel_specs():
            assert np.all(np.isfinite(adapter.get_params(spec)))

    def test_double_fault_across_iterations(self, X, name):
        adapter, shards = killable_setup(X, P=4, kills={1: 2e-3, 3: 4e-3})
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0,
            fault_policy="drop_shard",
            backend_options={"worker_timeout": FAULT_DETECTION_TIMEOUT_S * 3},
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) == 4
        assert sum(r.extra["shards_lost"] for r in history.records) == 2
        assert history.records[-1].extra["n_machines"] == 2
        assert np.isfinite(history.records[-1].e_q)

    def test_pool_rebuilds_for_next_fit(self, X, name):
        """A pool degraded by a retirement must serve the next fit at
        full strength (fresh workers, full machine count)."""
        adapter, shards = killable_setup(X, P=3, kills={1: 2e-3})
        backend = get_backend(name)(
            seed=0, fault_policy="drop_shard",
            worker_timeout=FAULT_DETECTION_TIMEOUT_S * 3,
        )
        trainer = ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 2), backend=backend,
        )
        try:
            trainer.fit(shards)
            assert len(backend.worker_pids) == 2
            adapter2, shards2 = ba_setup(X, P=3)
            trainer2 = ParMACTrainer(
                adapter2, GeometricSchedule(1e-3, 2.0, 2), backend=backend
            )
            history = trainer2.fit(shards2)
            assert len(backend.worker_pids) == 3
            assert [r.extra["shards_lost"] for r in history.records] == [0, 0]
            assert np.isfinite(history.records[-1].e_q)
        finally:
            backend.close()

    def test_fail_fast_still_default(self, X, name):
        """Without opting into drop_shard, a death still fails the fit."""
        adapter, shards = killable_setup(X, P=3, kills={1: 1e-3})
        backend = get_backend(name)(
            seed=0, worker_timeout=FAULT_DETECTION_TIMEOUT_S
        )
        backend.setup(adapter, shards)
        with pytest.raises(RuntimeError, match="died|failed|timed out"):
            backend.run_iteration(1e-3)
        assert backend.worker_pids == []
        backend.close()

    def test_arrival_for_dead_machine_is_dropped(self, X, name):
        """Streaming + drop_shard compose: an arrival scheduled for a
        machine that has since died is dropped with its shard, while
        arrivals for survivors keep landing."""
        from repro.data.synthetic import make_clustered

        X_new = make_clustered(10, X.shape[1], n_clusters=3, rng=9)
        adapter, shards = killable_setup(X, P=4, kills={2: 2e-3})
        arrivals = {2: [(2, X_new), (0, X_new)], 3: [(2, X_new)]}
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0,
            fault_policy="drop_shard",
            backend_options={"worker_timeout": FAULT_DETECTION_TIMEOUT_S * 3},
        ) as trainer:
            history = trainer.fit(shards, arrivals=arrivals)
        assert len(history) == 4
        assert sum(r.extra["shards_lost"] for r in history.records) == 1
        # Machine 2 died at iteration 1; only machine 0's batch lands.
        assert [r.extra["rows_ingested"] for r in history.records] == [0, 0, 10, 0]

    def test_death_after_last_send_keeps_completed_results(self, X, name):
        """A worker dying in its Z step — after its last ring send — lets
        every survivor finish the attempt; the coordinator must accept
        those results (and still retire the shard) rather than silently
        training the same mu twice."""
        adapter, shards = killable_setup(X, P=3, kills={1: 2e-3}, kill_in_z=True)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0,
            fault_policy="drop_shard",
            backend_options={"worker_timeout": FAULT_DETECTION_TIMEOUT_S * 3},
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) == 4
        assert [r.extra["shards_lost"] for r in history.records] == [0, 1, 0, 0]
        assert [r.extra["n_machines"] for r in history.records] == [3, 2, 2, 2]
        assert all(np.isfinite(r.e_q) for r in history.records)

    def test_model_holder_death_after_last_send(self, X, name):
        """When the model-holding rank (lowest) dies after its last ring
        send, the completed attempt must still be accepted — the model is
        fetched from a survivor (every worker holds the final copies).
        """
        options = {"worker_timeout": FAULT_DETECTION_TIMEOUT_S * 3}
        adapter, shards = killable_setup(X, P=3, kills={0: 2e-3}, kill_in_z=True)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0,
            fault_policy="drop_shard", backend_options=options,
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) == 4
        assert [r.extra["shards_lost"] for r in history.records] == [0, 1, 0, 0]
        assert [r.extra["n_machines"] for r in history.records] == [3, 2, 2, 2]
        for spec in adapter.submodel_specs():
            assert np.all(np.isfinite(adapter.get_params(spec)))


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestDropShardCrashOutcome:
    """A scheduled crash under ``drop_shard`` has one outcome, the
    simulators': a W-point crash retires the machine before the W step, a
    Z-point crash after it. Regression: a survivor still receiving from
    its predecessor used to read the Z-crashed peer's EOF as a mid-W-step
    death, abort, and re-run the iteration — or not, as the race fell."""

    @staticmethod
    def fit(X, backend):
        adapter, shards = ba_setup(X, P=4)
        trainer = ParMACTrainer(adapter, GeometricSchedule(1e-3, 2.0, 3), backend=backend)
        history = trainer.fit(shards)
        params = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
        return [r.extra["shards_lost"] for r in history.records], params

    @pytest.mark.parametrize("point, repeats", [("z", 10), ("w", 1)])
    def test_crash_matches_sync_on_every_repeat(self, X, name, point, repeats):
        options = dict(
            epochs=2, shuffle_within=False, seed=0, fault_policy="drop_shard",
            chaos={"crashes": [(1, 1, point)]},
        )
        lost_ref, ref = self.fit(X, get_backend("sync")(**options))
        assert lost_ref == [0, 1, 0]
        backend = get_backend(name)(worker_timeout=FAULT_DETECTION_TIMEOUT_S * 3, **options)
        try:
            for _ in range(repeats):
                lost, got = self.fit(X, backend)
                assert lost == lost_ref
                for sid in ref:
                    assert np.array_equal(got[sid], ref[sid]), (point, sid)
        finally:
            backend.close()


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestCheckpointSurvivesKill:
    def test_checkpoint_sigkill_restore_reaches_same_model(self, X, name, tmp_path):
        """The restartability contract: snapshot between iterations,
        SIGKILL every worker process (the checkpointed fit dies for
        real), restore into a brand-new backend, and finish — the final
        submodels must match the uninterrupted run bit for bit."""
        mus = [1e-3 * 2.0**i for i in range(5)]
        cut = 2

        def fresh_backend():
            from repro.distributed.backends import get_backend

            return get_backend(name)(epochs=2, shuffle_within=True, seed=0)

        adapter, shards = ba_setup(X)
        with fresh_backend() as backend:
            backend.setup(adapter, shards)
            for mu in mus:
                backend.run_iteration(mu)
        ref = {
            s.sid: adapter.get_params(s).copy()
            for s in adapter.submodel_specs()
        }

        path = tmp_path / "killed.ckpt"
        adapter2, shards2 = ba_setup(X)
        backend = fresh_backend()
        backend.setup(adapter2, shards2)
        for mu in mus[:cut]:
            backend.run_iteration(mu)
        backend.checkpoint().save(path)
        pids = list(backend.worker_pids)
        assert pids
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + FAULT_DETECTION_TIMEOUT_S
        while backend.worker_pids and time.monotonic() < deadline:
            time.sleep(0.05)
        backend.close(force=True)

        from repro.distributed.dataplane import ClusterState

        with fresh_backend() as backend:
            backend.restore(ClusterState.load(path))
            for mu in mus[cut:]:
                backend.run_iteration(mu)
            got = {
                s.sid: backend.adapter.get_params(s).copy()
                for s in backend.adapter.submodel_specs()
            }
        assert set(got) == set(ref)
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestIdleKillRecovery:
    def test_drop_shard_survives_kill_between_iterations(self, X, name):
        """A worker SIGKILLed while *idle* (between iterations) must not
        wedge the next iteration's recovery. Historically this could
        strand every survivor's response: the shared result queue's
        cross-process write lock died with the worker if the kill landed
        inside the feeder's send window; per-worker response channels
        have no shared lock to leak."""
        adapter, shards = ba_setup(X, P=4)
        backend = get_backend(name)(
            seed=0, fault_policy="drop_shard",
            worker_timeout=FAULT_DETECTION_TIMEOUT_S * 3,
        )
        try:
            backend.setup(adapter, shards)
            backend.run_iteration(1e-3)
            os.kill(backend.worker_pids[-1], signal.SIGKILL)
            t0 = time.monotonic()
            stats = backend.run_iteration(2e-3)
            assert time.monotonic() - t0 < FAULT_DETECTION_TIMEOUT_S * 3
            assert stats.shards_lost == 1
            assert stats.n_machines == 3
            stats = backend.run_iteration(4e-3)
            assert np.isfinite(stats.e_q) and stats.shards_lost == 0
        finally:
            backend.close()
