"""Execution-backend layer: registry, cross-backend conformance, pools.

The paper's generality claim, as a test suite: for a fixed seed, the
deterministic visit sequence of the counter protocol and the keyed
minibatch orders and ring plans make **every registered engine** — sync
tick simulation, discrete-event simulation, real OS processes over unix
sockets, real OS processes over TCP sockets — produce *bit-identical*
final submodels under any ``shuffle_within`` x ``shuffle_ring`` setting,
for a binary autoencoder and for a deep net alike.

The conformance classes parametrise over ``available_backends()``, so a
newly registered engine is pulled into the parity contract automatically
— registering a backend *is* opting into the suite.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import (
    AsyncSimBackend,
    Backend,
    MultiprocessBackend,
    SyncSimBackend,
    TCPBackend,
    available_backends,
    get_backend,
)
from repro.distributed.dataplane import ClusterState
from repro.distributed.partition import make_shards, partition_indices
from repro.nets.adapter import NetAdapter, make_net_shards
from repro.nets.deepnet import DeepNet
from repro.nets.mac import init_coords

BACKENDS = available_backends()
#: The reference engine every other backend is compared against.
REFERENCE = "sync"
#: Engines that run real OS processes and report wall-clock time.
WALLCLOCK_BACKENDS = ["multiprocess", "tcp"]


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


@pytest.fixture(scope="module")
def net_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    Y = np.sin(X @ rng.normal(size=(4, 2)))
    return X, Y


def ba_setup(X, P=3, n_bits=4, seed=0):
    """Fresh (adapter, shards) — identical across calls with one seed."""
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_shards(X, adapter.features(X), Z, parts)


def net_setup(X, Y, P=3, seed=0):
    net = DeepNet.create([4, 6, 2], rng=1)
    adapter = NetAdapter(net, z_steps=5)
    Zs = init_coords(net, X)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_net_shards(X, Y, Zs, parts)


def final_params(adapter):
    return {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}


def caching_runner(make_problem, shuffle_within=False, shuffle_ring=False):
    """Run each backend at most once on the same deterministic problem.

    ``make_problem()`` returns (adapter, shards, schedule); the runner
    fits it with backend ``name`` and caches (history, final params).
    """
    cache = {}

    def _run(name):
        if name not in cache:
            adapter, shards, schedule = make_problem()
            trainer = ParMACTrainer(
                adapter,
                schedule,
                backend=name,
                epochs=2,
                shuffle_within=shuffle_within,
                shuffle_ring=shuffle_ring,
                seed=0,
            )
            history = trainer.fit(shards)
            trainer.close()
            cache[name] = (history, final_params(adapter))
        return cache[name]

    return _run


class TestRegistry:
    def test_resolves_all_engines(self):
        assert get_backend("sync") is SyncSimBackend
        assert get_backend("async") is AsyncSimBackend
        assert get_backend("multiprocess") is MultiprocessBackend
        assert get_backend("tcp") is TCPBackend

    def test_available_backends(self):
        assert {"sync", "async", "multiprocess", "tcp"} <= set(BACKENDS)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="smoke"):
            get_backend("smoke-signals")

    @pytest.mark.parametrize("name", BACKENDS)
    def test_instances_satisfy_protocol(self, name):
        assert isinstance(get_backend(name)(), Backend)

    def test_trainer_accepts_instance(self, X):
        adapter, shards = ba_setup(X)
        backend = SyncSimBackend(epochs=1, seed=0)
        h = ParMACTrainer(adapter, "sift10k", backend=backend).fit(shards)
        assert len(h) >= 1
        # A simulated backend is the cluster: still readable after the fit.
        assert backend.n_machines == len(shards)


class TestConformanceBA:
    """Bit-parity of a binary autoencoder fit across every engine."""

    @pytest.fixture(scope="class")
    def run(self, X):
        return caching_runner(lambda: (*ba_setup(X), "sift10k"))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_final_e_ba_identical(self, run, name):
        assert run(name)[0].records[-1].e_ba == run(REFERENCE)[0].records[-1].e_ba

    @pytest.mark.parametrize("name", BACKENDS)
    def test_final_submodels_identical(self, run, name):
        ref = run(REFERENCE)[1]
        params = run(name)[1]
        assert set(params) == set(ref)
        for sid in ref:
            assert np.array_equal(params[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_iteration_counts_match(self, run, name):
        assert len(run(name)[0]) == len(run(REFERENCE)[0])

    @pytest.mark.parametrize("name", BACKENDS)
    def test_stats_carry_no_removed_knobs(self, run, name):
        # Sends are serial and workers unpinned on every engine, so no
        # iteration reports an overlap flag or a cpuset.
        for rec in run(name)[0].records:
            assert not {"overlap_send", "cpusets"} & set(rec.extra)


class CountingAdapter(BAAdapter):
    """Appends one line per ``z_update`` / ``shard_stats`` /
    ``_encode_features`` call to the file at ``log`` — a count that
    survives the trip into worker processes."""

    log = None

    def _note(self, what):
        with open(self.log, "a") as fh:
            fh.write(what + "\n")

    def z_update(self, shard, mu):
        self._note("z_update")
        return super().z_update(shard, mu)

    def shard_stats(self, shard, mu):
        self._note("shard_stats")
        return super().shard_stats(shard, mu)

    def _encode_features(self, F):
        self._note("encode")
        return super()._encode_features(F)


@pytest.mark.parametrize("name", BACKENDS)
def test_one_adapter_call_per_shard_per_iteration(X, name, tmp_path):
    # The Z step reports the statistics: no engine makes a second pass
    # over a shard, and each shard is encoded once per iteration.
    ba = BinaryAutoencoder.linear(X.shape[1], 4)
    adapter = CountingAdapter(ba)
    adapter.log = str(tmp_path / "calls")
    Z, _ = init_codes_pca(X, 4, rng=0)
    shards = make_shards(X, adapter.features(X), Z, partition_indices(len(X), 3, rng=0))
    with ParMACTrainer(
        adapter, GeometricSchedule(1e-3, 2.0, 4), backend=name, seed=0
    ) as trainer:
        trainer.fit(shards)
    calls = (tmp_path / "calls").read_text().split()
    assert {what: calls.count(what) for what in ("z_update", "shard_stats", "encode")} == {
        "z_update": 3 * 4, "shard_stats": 0, "encode": 3 * 4,
    }


class TestConformanceNet:
    """Bit-parity of a deep-net fit across every engine."""

    @pytest.fixture(scope="class")
    def run(self, net_problem):
        X, Y = net_problem
        return caching_runner(
            lambda: (*net_setup(X, Y), GeometricSchedule(0.5, 2.0, 5))
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_final_e_ba_identical(self, run, name):
        assert run(name)[0].records[-1].e_ba == run(REFERENCE)[0].records[-1].e_ba

    @pytest.mark.parametrize("name", BACKENDS)
    def test_final_units_identical(self, run, name):
        ref = run(REFERENCE)[1]
        params = run(name)[1]
        for sid in ref:
            assert np.array_equal(params[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
    def test_deep_net_trains_on_real_processes(self, net_problem, name):
        # The acceptance headline: a DeepNet end-to-end on real processes
        # (unix-socket ring and TCP ring alike).
        X, Y = net_problem
        adapter, shards = net_setup(X, Y)
        before = adapter.model.loss(X, Y)
        with ParMACTrainer(
            adapter, GeometricSchedule(0.5, 2.0, 5), backend=name,
            epochs=2, seed=0,
        ) as trainer:
            history = trainer.fit(shards)
        assert history.records[-1].e_ba < before
        assert np.isfinite(history.records[-1].e_q)


SHUFFLED = [(True, False), (False, True), (True, True)]


@pytest.mark.parametrize(
    "within, ring", SHUFFLED, ids=lambda v: "on" if v else "off"
)
class TestShuffledConformance:
    """The parity contract with shuffles on: every minibatch order and
    ring plan is keyed on where it is drawn, so engines agree bit for bit
    and a repeated fit on the same backend reproduces the first."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {}

    def run(self, runs, X, net_problem, model, within, ring):
        if (model, within, ring) not in runs:
            make = {
                "ba": lambda: (*ba_setup(X), GeometricSchedule(1e-3, 2.0, 3)),
                "net": lambda: (*net_setup(*net_problem), GeometricSchedule(0.5, 2.0, 3)),
            }[model]
            runs[model, within, ring] = caching_runner(make, within, ring)
        return runs[model, within, ring]

    @pytest.mark.parametrize("model", ["ba", "net"])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_finals_identical(self, runs, X, net_problem, model, name, within, ring):
        run = self.run(runs, X, net_problem, model, within, ring)
        history, params = run(name)
        ref_history, ref = run(REFERENCE)
        assert history.records[-1].e_q == ref_history.records[-1].e_q
        for sid in ref:
            assert np.array_equal(params[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_repeated_fit_is_identical(self, X, name, within, ring):
        # Two fits on one backend (one standing pool on the wall-clock
        # engines), each from a fresh model and shards.
        finals = []
        with get_backend(name)(
            epochs=2, shuffle_within=within, shuffle_ring=ring, seed=0
        ) as backend:
            for _ in range(2):
                adapter, shards = ba_setup(X)
                backend.setup(adapter, shards)
                for mu in (1e-3, 2e-3, 4e-3):
                    backend.run_iteration(mu)
                backend.teardown()
                finals.append(final_params(adapter))
        for sid in finals[0]:
            assert np.array_equal(finals[0][sid], finals[1][sid]), (name, sid)


class TestTransportBackpressure:
    def test_simultaneous_large_sends_do_not_deadlock(self):
        """Frames bigger than the kernel socket buffers must not wedge
        the ring: two peers sending each other ~8 MB through 8 KB socket
        buffers, then receiving. A blocking sendall-based transport
        deadlocks here (circular wait on full buffers); the transport
        must interleave reads while waiting for writability."""
        import socket
        import threading

        from repro.distributed.backends.ring import _SocketRingTransport
        from repro.distributed.interfaces import SubmodelSpec
        from repro.distributed.messages import SubmodelMessage
        from repro.optim.sgd import SGDState

        spec = SubmodelSpec(0, "w")
        theta = np.arange(1_000_000, dtype=np.float64)  # ~8 MB payload

        # One directed socketpair per mesh edge, with tiny buffers so
        # the frame vastly exceeds the in-flight capacity.
        def tiny_pair():
            a, b = socket.socketpair()
            for s in (a, b):
                s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
                s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            return a, b

        a_out, b_in = tiny_pair()
        b_out, a_in = tiny_pair()
        transports = {
            0: _SocketRingTransport(0, {1: a_out}, {1: a_in}, {0: spec}, {1: 1}),
            1: _SocketRingTransport(1, {0: b_out}, {0: b_in}, {0: spec}, {0: 1}),
        }
        received, errors = {}, {}

        def node(rank, peer):
            try:
                msg = SubmodelMessage(
                    spec=spec, theta=theta + rank, sgd_state=SGDState()
                )
                transports[rank].send(peer, msg)
                transports[rank].flush()
                received[rank] = transports[rank].recv()
            except Exception as exc:  # pragma: no cover - failure path
                errors[rank] = exc

        threads = [
            threading.Thread(target=node, args=(0, 1), daemon=True),
            threading.Thread(target=node, args=(1, 0), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        try:
            assert not errors, errors
            assert not any(t.is_alive() for t in threads), "transport deadlocked"
            assert np.array_equal(received[0].theta, theta + 1)
            assert np.array_equal(received[1].theta, theta + 0)
        finally:
            for s in (a_out, a_in, b_out, b_in):
                s.close()


class TestTransportPeerEOF:
    """A peer closing its connection is a fault only while the route plan
    says it still owes this worker messages: one that delivered them all
    and died (at its Z step) must not abort a survivor still receiving
    from someone else."""

    @staticmethod
    def receive(owed_by_2):
        """Worker 0 hears from peers 1 and 2; peer 2 sends one message and
        closes, then peer 1 sends one. Returns the received senders."""
        import socket

        from repro.distributed.backends.ring import _SocketRingTransport
        from repro.distributed.framing import encode_batch
        from repro.distributed.interfaces import SubmodelSpec
        from repro.distributed.messages import SubmodelMessage
        from repro.optim.sgd import SGDState

        spec = SubmodelSpec(0, "w")
        pairs = {peer: socket.socketpair() for peer in (1, 2)}
        transport = _SocketRingTransport(
            0, {}, {peer: ends[0] for peer, ends in pairs.items()}, {0: spec},
            {1: 1, 2: owed_by_2},
        )

        def deliver(peer):
            msg = SubmodelMessage(spec=spec, theta=np.full(3, float(peer)), sgd_state=SGDState())
            pairs[peer][1].sendall(encode_batch([msg]))

        try:
            deliver(2)
            pairs[2][1].close()
            got = [transport.recv().theta[0]]
            deliver(1)
            got.append(transport.recv().theta[0])
            return got
        finally:
            transport.close()
            for ends in pairs.values():
                for s in ends:
                    s.close()

    def test_eof_after_everything_owed_is_not_a_fault(self):
        assert self.receive(owed_by_2=1) == [2.0, 1.0]

    def test_eof_while_still_owed_is_a_fault(self):
        from repro.distributed.framing import ProtocolError

        with pytest.raises(ProtocolError, match="machine 2 closed"):
            self.receive(owed_by_2=2)


class TestTCPWire:
    """Socket-ring behaviour: framing stats and hop coalescing (on both
    wall-clock engines — they share the ring), and tcp's port policy."""

    @pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
    def test_wire_stats_surfaced(self, X, name):
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 2), backend=name, seed=0
        ) as trainer:
            history = trainer.fit(shards)
        rec = history.records[-1]
        assert rec.extra["bytes_sent"] > 0
        assert rec.extra["hops"] > 0
        assert rec.extra["frames"] > 0
        # Frame overhead: wire bytes strictly exceed raw payload bytes.
        assert rec.extra["bytes_sent"] > rec.extra["payload_bytes"]

    @pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
    def test_batching_coalesces_frames(self, X, name):
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 2), backend=name,
            epochs=2, shuffle_within=False, seed=0,
        ) as trainer:
            history = trainer.fit(shards)
        rec = history.records[-1]
        # Hops (message count) are protocol-determined; the transport
        # coalesces the messages a worker owes one successor into one
        # frame, so strictly fewer frames than hops travel.
        assert 0 < rec.extra["frames"] < rec.extra["hops"]

    def test_batching_does_not_change_bits(self, X):
        # One coalesced frame per destination, over unix sockets or TCP:
        # same bits either way.
        finals = {}
        for name in ("tcp", "multiprocess"):
            adapter, shards = ba_setup(X)
            with ParMACTrainer(
                adapter, GeometricSchedule(1e-3, 2.0, 2), backend=name,
                epochs=2, shuffle_within=False, seed=0,
            ) as trainer:
                trainer.fit(shards)
            finals[name] = final_params(adapter)
        for sid in finals["tcp"]:
            assert np.array_equal(finals["tcp"][sid], finals["multiprocess"][sid])

    def test_explicit_ports(self, X):
        import socket

        # Grab free ports the OS hands out, then pin the workers to them.
        socks = [socket.socket() for _ in range(3)]
        try:
            for s in socks:
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                s.bind(("127.0.0.1", 0))
            ports = [s.getsockname()[1] for s in socks]
        finally:
            for s in socks:
                s.close()
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 1), backend="tcp", seed=0,
            backend_options={"ports": ports},
        ) as trainer:
            history = trainer.fit(shards)
        assert np.isfinite(history.records[-1].e_q)

    def test_shuffle_ring_over_sockets(self, X):
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, "sift10k", backend="tcp",
            epochs=2, shuffle_ring=True, seed=0,
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) >= 1
        assert all(np.isfinite(r.e_q) for r in history.records)
        assert history.records[-1].e_q < history.records[0].e_q


#: Options that no engine takes any more, with a value each once took.
REMOVED_KNOBS = {"overlap_send": True, "pin_workers": True, "respawn_backoff": 0.0}


@pytest.mark.parametrize("knob", sorted(REMOVED_KNOBS))
@pytest.mark.parametrize("name", BACKENDS)
class TestRemovedKnobs:
    """Ring sends are serial, workers run wherever the OS puts them and a
    respawn rebuilds at once: no engine accepts the options that changed
    that, whether built directly or through ``backend_options``."""

    def test_constructor_rejects(self, name, knob):
        with pytest.raises(TypeError, match=knob):
            get_backend(name)(**{knob: REMOVED_KNOBS[knob]})

    def test_trainer_rejects(self, X, name, knob):
        adapter, _ = ba_setup(X)
        with pytest.raises(TypeError, match=knob):
            ParMACTrainer(
                adapter, GeometricSchedule(1e-2, 2.0, 1), backend=name,
                backend_options={knob: REMOVED_KNOBS[knob]},
            )


@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestWorkerPools:
    def test_pool_persists_across_fits(self, X, name):
        adapter, shards = ba_setup(X)
        trainer = ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 2), backend=name, seed=0
        )
        try:
            trainer.fit(shards)
            pids_first = list(trainer.backend.worker_pids)
            _, shards2 = ba_setup(X)
            trainer.fit(shards2)
            pids_second = list(trainer.backend.worker_pids)
            assert pids_first == pids_second != []
        finally:
            trainer.close()
        assert trainer.backend.worker_pids == []

    def test_dropped_backend_is_freed_and_stops_its_pool(self, X, name):
        """A backend dropped without ``close`` is in no reference cycle:
        it is freed the moment it is unreferenced, and its ``__del__``
        stops the workers. Kept alive until a cyclic collection instead,
        it would hold its fit's arrays, which every worker forked in the
        meantime inherits."""
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        backend.setup(adapter, shards)
        procs = list(backend._pool.procs.values())
        ref = weakref.ref(backend)
        gc.disable()
        try:
            del backend
            assert ref() is None
        finally:
            gc.enable()
        for proc in procs:
            proc.join(timeout=10.0)
            assert not proc.is_alive()

    def test_pool_respawns_on_machine_count_change(self, X, name):
        adapter, shards = ba_setup(X, P=3)
        trainer = ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 1), backend=name, seed=0
        )
        try:
            trainer.fit(shards)
            assert len(trainer.backend.worker_pids) == 3
            _, shards2 = ba_setup(X, P=2)
            trainer.fit(shards2)
            assert len(trainer.backend.worker_pids) == 2
        finally:
            trainer.close()

    def test_worker_error_surfaces(self, X, name):
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        backend.setup(adapter, shards)
        try:
            # (op, mu, ring orders, n_expected, gen, model_rank, crash)
            backend._pool.send(0, "iter", "not-a-mu", [[0, 1, 2]], 0, 1, 0, None)
            with pytest.raises(RuntimeError, match="worker 0 failed"):
                backend._collect("result")
        finally:
            backend.close()

    def test_unknown_op_surfaces_promptly(self, X, name):
        """A mistyped command must come back as a worker error on the
        liveness-poll timescale, not strand the gather until
        ``worker_timeout`` (300 s by default)."""
        import time

        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        backend.setup(adapter, shards)
        try:
            t0 = time.monotonic()
            backend._pool.send(1, "itr", 1e-3)
            with pytest.raises(RuntimeError, match="worker 1 failed(.|\n)*unknown worker op 'itr'"):
                backend._collect("result")
            assert time.monotonic() - t0 < 5.0
            assert backend.worker_pids == []  # error teardown ran
        finally:
            backend.close()


@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestRingBasics:
    """Direct engine-level behaviours, for both ring transports."""

    def run(self, X, name, mus, **kwargs):
        P = kwargs.pop("P", 3)
        adapter, shards = ba_setup(X, P=P)
        with get_backend(name)(seed=0, **kwargs) as backend:
            backend.setup(adapter, shards)
            return adapter, [backend.run_iteration(mu) for mu in mus]

    def test_coordinator_model_synced(self, X, name):
        # Sum of per-worker E_BA must equal E_BA recomputed from the
        # coordinator's assembled model over the full dataset.
        adapter, stats = self.run(X, name, [1e-3, 2e-3])
        assert stats[-1].e_ba == pytest.approx(adapter.model.e_ba(X), rel=1e-9)

    def test_single_machine_ring(self, X, name):
        # The degenerate ring — every hop is a self-hop — still runs the
        # full counter protocol, bit-identically to the reference.
        kwargs = dict(P=1, epochs=2, shuffle_within=False)
        _, stats = self.run(X, name, [1e-3, 2e-3], **kwargs)
        _, ref = self.run(X, REFERENCE, [1e-3, 2e-3], **kwargs)
        assert [s.e_q for s in stats] == [s.e_q for s in ref]

    def test_tworound_scheme(self, X, name):
        _, (stats,) = self.run(X, name, [1e-3], epochs=2, scheme="tworound")
        assert np.isfinite(stats.e_q)

    def test_timing_fields_populated(self, X, name):
        _, (stats,) = self.run(X, name, [1e-3], P=2)
        assert stats.extra["w_time"] > 0 and stats.extra["z_time"] > 0
        assert stats.wall_time > 0

    def test_rejects_empty_shards(self, X, name):
        adapter, _ = ba_setup(X)
        with get_backend(name)(seed=0) as backend:
            with pytest.raises(ValueError, match="at least one shard"):
                backend.setup(adapter, [])


class TestMultiprocessShuffling:
    def test_shuffle_ring_honoured(self, X):
        # The mp path used to silently ignore shuffle_ring; now it must
        # reshuffle the route per epoch and still satisfy the protocol
        # (deterministic termination, finite objectives, convergence).
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, "sift10k", backend="multiprocess",
            epochs=2, shuffle_ring=True, seed=0,
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) >= 1
        assert all(np.isfinite(r.e_q) for r in history.records)
        assert history.records[-1].e_q < history.records[0].e_q

    def test_shuffled_route_changes_result(self, X):
        # With shuffling on, the visiting order (hence SGD stream) differs
        # from the fixed ring — same quality, different bits. At P = 3 a
        # keyed ring is the fixed cycle half the time: at seed 0 both
        # training laps of iterations 0 and 1 draw it, and iteration 2's
        # first lap reverses it.
        finals = {}
        for shuffle in (False, True):
            adapter, shards = ba_setup(X)
            with ParMACTrainer(
                adapter, GeometricSchedule(1e-3, 2.0, 3), backend="multiprocess",
                epochs=2, shuffle_within=False, shuffle_ring=shuffle, seed=0,
            ) as trainer:
                trainer.fit(shards)
            finals[shuffle] = final_params(adapter)
        assert any(
            not np.array_equal(finals[False][sid], finals[True][sid])
            for sid in finals[False]
        )


class TestStreamingConformance:
    """Streaming is a backend capability: the identical arrival schedule
    on every engine — queued via ``Backend.ingest``, drained at epoch
    boundaries, coded by the current nested model — must yield
    bit-identical final submodels (paper section 4.3, form 1)."""

    @pytest.fixture(scope="class")
    def arrivals(self, X):
        from repro.data.synthetic import make_clustered

        X1 = make_clustered(20, X.shape[1], n_clusters=3, rng=11)
        X2 = make_clustered(15, X.shape[1], n_clusters=3, rng=12)
        return {1: [(0, X1)], 3: [(2, X2), (1, X1)]}

    @pytest.fixture(scope="class")
    def run(self, X, arrivals):
        cache = {}

        def _run(name):
            if name not in cache:
                adapter, shards = ba_setup(X)
                trainer = ParMACTrainer(
                    adapter,
                    GeometricSchedule(1e-3, 2.0, 5),
                    backend=name,
                    epochs=2,
                    shuffle_within=False,
                    seed=0,
                )
                history = trainer.fit(shards, arrivals=arrivals)
                trainer.close()
                cache[name] = (history, final_params(adapter))
            return cache[name]

        return _run

    @pytest.mark.parametrize("name", BACKENDS)
    def test_streamed_finals_identical(self, run, name):
        ref = run(REFERENCE)[1]
        params = run(name)[1]
        assert set(params) == set(ref)
        for sid in ref:
            assert np.array_equal(params[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rows_ingested_surfaced(self, run, name, arrivals):
        history = run(name)[0]
        per_iter = [r.extra["rows_ingested"] for r in history.records]
        expected = [
            sum(len(Xa) for _, Xa in arrivals.get(i, []))
            for i in range(len(per_iter))
        ]
        assert per_iter == expected

    @pytest.mark.parametrize("name", BACKENDS)
    def test_streaming_changes_the_model(self, run, name, X):
        # The streamed rows must actually influence training: a run
        # without arrivals ends elsewhere.
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 5), backend=name,
            epochs=2, shuffle_within=False, seed=0,
        ) as trainer:
            trainer.fit(shards)
        plain = final_params(adapter)
        streamed = run(name)[1]
        assert any(
            not np.array_equal(plain[sid], streamed[sid]) for sid in plain
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_ingest_validation_is_eager(self, name, X):
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        backend.setup(adapter, shards)
        try:
            with pytest.raises(KeyError):
                backend.ingest(9, np.zeros((3, X.shape[1])))
            with pytest.raises(ValueError, match="columns"):
                backend.ingest(0, np.zeros((3, X.shape[1] + 1)))
            with pytest.raises(ValueError, match="empty"):
                backend.ingest(0, np.zeros((0, X.shape[1])))
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_pending_ingests_do_not_leak_across_fits(self, name, X):
        # A batch queued but never drained in fit A must not land in
        # fit B's shards.
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        try:
            backend.setup(adapter, shards)
            backend.ingest(0, np.zeros((5, X.shape[1])))
            adapter2, shards2 = ba_setup(X)
            backend.setup(adapter2, shards2)
            stats = backend.run_iteration(1e-3)
            assert stats.rows_ingested == 0
        finally:
            backend.close()

    def test_ingest_requires_setup(self):
        backend = get_backend("sync")()
        with pytest.raises(RuntimeError, match="setup"):
            backend.ingest(0, np.zeros((3, 8)))


class TestElasticConformance:
    """Machine addition is a backend capability: the identical join
    schedule on every engine — queued via ``Backend.add_machine``,
    admitted at the iteration boundary with the current submodels handed
    over (in-process clone, shared-memory ship + replan, or JOIN/WELCOME
    framed hand-off) — must yield bit-identical final submodels (paper
    section 4.3, form 2)."""

    @pytest.fixture(scope="class")
    def joins(self, X):
        from repro.data.synthetic import make_clustered

        X1 = make_clustered(18, X.shape[1], n_clusters=3, rng=21)
        X2 = make_clustered(12, X.shape[1], n_clusters=3, rng=22)
        # One plain append-join early, one mid-ring insertion later.
        return {1: [X1], 3: [(X2, 1)]}

    @pytest.fixture(scope="class")
    def run(self, X, joins):
        cache = {}

        def _run(name):
            if name not in cache:
                adapter, shards = ba_setup(X)
                trainer = ParMACTrainer(
                    adapter,
                    GeometricSchedule(1e-3, 2.0, 5),
                    backend=name,
                    epochs=2,
                    shuffle_within=False,
                    seed=0,
                )
                history = trainer.fit(shards, joins=joins)
                trainer.close()
                cache[name] = (history, final_params(adapter))
            return cache[name]

        return _run

    @pytest.mark.parametrize("name", BACKENDS)
    def test_joined_finals_identical(self, run, name):
        ref = run(REFERENCE)[1]
        params = run(name)[1]
        assert set(params) == set(ref)
        for sid in ref:
            assert np.array_equal(params[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_joins_surfaced_in_stats(self, run, name):
        history = run(name)[0]
        added = [r.extra["machines_added"] for r in history.records]
        machines = [r.extra["n_machines"] for r in history.records]
        assert added == [0, 1, 0, 1, 0]
        assert machines == [3, 4, 4, 5, 5]
        # Admitting a machine costs re-planning time, and it is measured.
        assert all(
            r.extra["replan_s"] > 0
            for r in history.records
            if r.extra["machines_added"]
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_join_changes_the_model(self, run, name, X):
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 5), backend=name,
            epochs=2, shuffle_within=False, seed=0,
        ) as trainer:
            trainer.fit(shards)
        plain = final_params(adapter)
        joined = run(name)[1]
        assert any(
            not np.array_equal(plain[sid], joined[sid]) for sid in plain
        )

    def test_statistics_identical_after_a_mid_ring_join(self):
        """E_Q and E_BA are totalled in machine-id order on every engine,
        so a machine joined mid-ring (ring [0, 3, 1, 2]) cannot move
        their last bits on one engine and not another. (The simulators
        used to total in ring order.)"""
        from repro.data.synthetic import make_clustered

        reported = {}
        for name in BACKENDS:
            with get_backend(name)(epochs=2, shuffle_within=False, seed=0) as backend:
                for seed in range(8):
                    X = make_clustered(150, 48, n_clusters=4, rng=seed)
                    adapter, shards = ba_setup(X, P=3, n_bits=8, seed=seed)
                    backend.setup(adapter, shards)
                    backend.add_machine(X[:40], after=0)
                    stats = [backend.run_iteration(mu) for mu in (1e-3, 2e-3, 4e-3)]
                    backend.teardown()
                    reported[name, seed] = [(s.e_q, s.e_ba) for s in stats]
        for name in BACKENDS:
            for seed in range(8):
                assert reported[name, seed] == reported[REFERENCE, seed], (name, seed)

    def test_joins_are_unbounded_on_multiprocess(self, X):
        """Standing workers link a joiner in by handshake, so nothing
        is provisioned at spawn and nothing runs out: five consecutive
        joins stay bit-identical to the simulated reference."""
        from repro.data.synthetic import make_clustered

        joins = {
            it: [make_clustered(10, X.shape[1], n_clusters=3, rng=30 + it)]
            for it in range(1, 6)
        }
        finals = {}
        for name in (REFERENCE, "multiprocess"):
            adapter, shards = ba_setup(X)
            with ParMACTrainer(
                adapter, GeometricSchedule(1e-3, 2.0, 7), backend=name,
                epochs=2, shuffle_within=False, seed=0,
            ) as trainer:
                history = trainer.fit(shards, joins=joins)
            assert [r.extra["n_machines"] for r in history.records] == [
                3, 4, 5, 6, 7, 8, 8
            ]
            finals[name] = final_params(adapter)
        for sid in finals[REFERENCE]:
            assert np.array_equal(
                finals[REFERENCE][sid], finals["multiprocess"][sid]
            ), sid


class TestCheckpointRestore:
    """``checkpoint()`` → kill → ``restore()`` reaches the same final
    model as the uninterrupted run, on every engine (shuffle_within on,
    so the snapshot's key root and iteration are load-bearing)."""

    MUS = [1e-3 * 2.0**i for i in range(5)]
    CUT = 2

    def backend_for(self, name):
        return get_backend(name)(epochs=2, shuffle_within=True, seed=0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_restore_matches_uninterrupted_run(self, name, X, tmp_path):
        adapter, shards = ba_setup(X)
        with self.backend_for(name) as backend:
            backend.setup(adapter, shards)
            for mu in self.MUS:
                backend.run_iteration(mu)
            ref = final_params(adapter)

        adapter2, shards2 = ba_setup(X)
        path = tmp_path / "fit.ckpt"
        with self.backend_for(name) as backend:
            backend.setup(adapter2, shards2)
            for mu in self.MUS[: self.CUT]:
                backend.run_iteration(mu)
            state = backend.checkpoint()
            assert state.iteration == self.CUT
            assert state.backend == name
            state.save(path)
        # The pool/cluster is gone (close); a brand-new backend resumes
        # from the file alone (the snapshot carries the adapter).
        with self.backend_for(name) as backend:
            restored = type(state).load(path)
            backend.restore(restored)
            for mu in self.MUS[self.CUT :]:
                backend.run_iteration(mu)
            got = final_params(backend.adapter)
        assert set(got) == set(ref)
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_sync_checkpoint_resumes_on_every_engine(self, name, X, tmp_path):
        # Snapshots are portable: a fit with both shuffles on,
        # checkpointed on sync, resumes on any engine to the
        # uninterrupted sync fit's bits.
        def engine(which):
            return get_backend(which)(
                epochs=2, shuffle_within=True, shuffle_ring=True, seed=0
            )

        adapter, shards = ba_setup(X)
        with engine(REFERENCE) as backend:
            backend.setup(adapter, shards)
            for mu in self.MUS:
                backend.run_iteration(mu)
            ref = final_params(adapter)

        adapter2, shards2 = ba_setup(X)
        with engine(REFERENCE) as backend:
            backend.setup(adapter2, shards2)
            for mu in self.MUS[: self.CUT]:
                backend.run_iteration(mu)
            backend.checkpoint().save(tmp_path / "fit.ckpt")
        with engine(name) as backend:
            backend.restore(ClusterState.load(tmp_path / "fit.ckpt"))
            for mu in self.MUS[self.CUT :]:
                backend.run_iteration(mu)
            got = final_params(backend.adapter)
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_trainer_resume_from_checkpoint_file(self, name, X, tmp_path):
        schedule = GeometricSchedule(1e-3, 2.0, 5)
        adapter, shards = ba_setup(X)
        with ParMACTrainer(
            adapter, schedule, backend=name, epochs=2, seed=0
        ) as trainer:
            full = trainer.fit(shards)
        ref = final_params(adapter)

        path = tmp_path / "trainer.ckpt"
        adapter2, shards2 = ba_setup(X)
        with ParMACTrainer(
            adapter2, GeometricSchedule(1e-3, 2.0, 2), backend=name,
            epochs=2, seed=0,
        ) as trainer:
            trainer.fit(shards2, checkpoint_path=path)
        # A fresh trainer — fresh model object, fresh backend — resumes
        # from the file; its adapter receives the snapshot parameters.
        adapter3, _ = ba_setup(X)
        with ParMACTrainer(
            adapter3, schedule, backend=name, epochs=2, seed=0
        ) as trainer:
            resumed = trainer.fit(resume=path)
        assert [r.iteration for r in resumed.records] == [2, 3, 4]
        assert resumed.records[-1].e_ba == full.records[-1].e_ba
        got = final_params(adapter3)
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)

    def test_restore_preserves_streaming_counters(self, X):
        # Ingest before the cut; the restored plane must keep counting
        # from the snapshot (global indices, rows_ingested) — not reset.
        backend = get_backend("sync")(epochs=1, shuffle_within=False, seed=0)
        adapter, shards = ba_setup(X)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        backend.ingest(0, X[:9])
        backend.run_iteration(2e-3)
        state = backend.checkpoint()
        assert state.bookkeeping["rows_ingested"] == 9
        backend.close()

        fresh = get_backend("sync")(epochs=1, shuffle_within=False, seed=0)
        fresh.restore(state)
        fresh.ingest(1, X[9:14])
        stats = fresh.run_iteration(4e-3)
        assert stats.rows_ingested == 5
        assert fresh.dataplane.rows_ingested == 14
        fresh.close()


class TestFaultPolicySim:
    """Fault policies on the simulated engine: fail_fast raises exactly
    like a wall-clock pool teardown; drop_shard retires the shard,
    re-plans the ring and keeps training."""

    def test_drop_shard_continues_with_survivors(self, X):
        adapter, shards = ba_setup(X, P=4)
        backend = get_backend("sync")(seed=0, fault_policy="drop_shard")
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        lost_rows = backend.shards[2].n
        n_before = backend.n_points
        backend.inject_fault(2, tick=1)
        stats = backend.run_iteration(2e-3)
        assert stats.shards_lost == 1
        assert stats.n_machines == 3
        assert backend.n_points == n_before - lost_rows
        assert np.isfinite(stats.e_q)
        # Training continues and the survivor copies stay consistent.
        stats = backend.run_iteration(4e-3)
        assert stats.shards_lost == 0
        assert backend.model_copies_consistent()

    def test_fail_fast_raises_on_fault(self, X):
        adapter, shards = ba_setup(X, P=3)
        backend = get_backend("sync")(seed=0)  # fail_fast is the default
        backend.setup(adapter, shards)
        backend.inject_fault(1)
        with pytest.raises(RuntimeError, match="fail_fast"):
            backend.run_iteration(1e-3)

    def test_unknown_fault_policy_rejected(self):
        with pytest.raises(ValueError, match="fault_policy"):
            get_backend("sync")(fault_policy="shrug")

    def test_async_rejects_fault_injection(self, X):
        adapter, shards = ba_setup(X, P=3)
        backend = get_backend("async")(seed=0, fault_policy="drop_shard")
        backend.setup(adapter, shards)
        with pytest.raises(ValueError, match="sync"):
            backend.inject_fault(1)

    def test_unreached_fault_tick_raises(self, X):
        # A scheduled death whose tick the W step never reaches must not
        # silently measure a fault-free run.
        adapter, shards = ba_setup(X, P=3)
        backend = get_backend("sync")(seed=0, fault_policy="drop_shard")
        backend.setup(adapter, shards)
        backend.inject_fault(1, tick=10_000)
        with pytest.raises(RuntimeError, match="never fired"):
            backend.run_iteration(1e-3)


@pytest.mark.parametrize("name", ["sync", "async"])
class TestCrashScheduleSim:
    """Scheduled chaos crashes on the simulators under ``drop_shard``
    take the wall-clock engines' outcome: a W-point crash retires the
    machine before the W step, a Z-point crash after it, and every
    machine scheduled for the iteration retires."""

    @staticmethod
    def fit(X, name, crashes=(), remove_before_iteration_1=None):
        adapter, shards = ba_setup(X, P=4)
        backend = get_backend(name)(
            epochs=2, seed=0, fault_policy="drop_shard",
            chaos={"crashes": crashes} if crashes else None,
        )
        backend.setup(adapter, shards)
        stats = [backend.run_iteration(1e-3)]
        if remove_before_iteration_1 is not None:
            backend.remove_machine(remove_before_iteration_1)
        stats.append(backend.run_iteration(2e-3))
        return stats, final_params(adapter)

    @staticmethod
    def assert_same(got, ref):
        assert set(got) == set(ref)
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), sid

    def test_z_crash_trains_every_machine_then_retires(self, X, name):
        # The crash iteration's W step is the crash-free one: all four
        # machines train, then machine 1 is lost before its Z step.
        _, clean = self.fit(X, name)
        stats, got = self.fit(X, name, crashes=[(1, 1, "z")])
        self.assert_same(got, clean)
        assert [s.shards_lost for s in stats] == [0, 1]
        assert [s.n_machines for s in stats] == [4, 3]

    def test_w_crash_retires_then_trains(self, X, name):
        _, ref = self.fit(X, name, remove_before_iteration_1=1)
        stats, got = self.fit(X, name, crashes=[(1, 1, "w")])
        self.assert_same(got, ref)
        assert [s.shards_lost for s in stats] == [0, 1]

    def test_every_crashed_machine_retires(self, X, name):
        stats, _ = self.fit(X, name, crashes=[(0, 1, "w"), (2, 1, "z")])
        assert stats[1].shards_lost == 2
        assert stats[1].n_machines == 2
