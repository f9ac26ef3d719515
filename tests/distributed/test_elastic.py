"""Elasticity & checkpointing: join correctness and resumable state.

Regression coverage for the three historical ``add_machine`` bugs —
unvalidated shards joining silently, joins perturbing the route RNG
(breaking bit-parity for the rest of the fit), and the joiner's model
being cloned from a possibly-stale store — plus property tests for the
:class:`~repro.distributed.dataplane.ClusterState` snapshot format.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.distributed.backends import get_backend
from repro.distributed.dataplane import ClusterState, DataPlane
from repro.distributed.partition import (
    Shard,
    TimingShard,
    make_shards,
    partition_indices,
)
from repro.distributed.protocol import RoutePlan, WStepProtocol
from tests.fits import sim


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


def ba_setup(X, P=3, n_bits=4, seed=0):
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_shards(X, adapter.features(X), Z, parts)


def make_cluster(X, P=3, seed=0, **kwargs):
    adapter, shards = ba_setup(X, P=P, seed=seed)
    return sim(adapter, shards, seed=seed, **kwargs)


def join(cluster, X_new):
    """Add a machine and admit it now (not at the next iteration)."""
    p = cluster.add_machine(X_new)
    cluster.drain_joins()
    return p


class TestAddMachineValidation:
    """Bugfix 1: joins go through DataPlane validation — the same clear
    errors ``ingest`` raises — instead of a bare len() check plus a
    silent float64 force-cast."""

    def test_wrong_width_rejected(self, X):
        cluster = make_cluster(X)
        with pytest.raises(ValueError, match="columns"):
            cluster.add_machine(np.zeros((5, X.shape[1] + 1)))

    def test_empty_rejected(self, X):
        cluster = make_cluster(X)
        with pytest.raises(ValueError, match="data point"):
            cluster.add_machine(np.zeros((0, X.shape[1])))

    def test_one_dimensional_rejected(self, X):
        cluster = make_cluster(X)
        with pytest.raises(ValueError, match="2-d"):
            cluster.add_machine(np.zeros(X.shape[1]))

    def test_non_streamable_shards_rejected(self):
        ba = BinaryAutoencoder.linear(8, 4)
        cluster = sim(
            BAAdapter(ba), [TimingShard(50) for _ in range(3)],
            execute_updates=False, seed=0,
        )
        with pytest.raises(TypeError, match="streaming"):
            cluster.add_machine(np.zeros((5, 8)))

    def test_failed_join_registers_nothing(self, X):
        cluster = make_cluster(X)
        machines_before = list(cluster.machines)
        next_id_before = cluster.dataplane._next_machine_id
        with pytest.raises(ValueError):
            cluster.add_machine(np.zeros((5, X.shape[1] + 3)))
        assert cluster.machines == machines_before
        assert cluster.dataplane._next_machine_id == next_id_before

    def test_backend_add_machine_validates_eagerly(self, X):
        backend = get_backend("sync")(seed=0)
        adapter, shards = ba_setup(X)
        backend.setup(adapter, shards)
        with pytest.raises(ValueError, match="columns"):
            backend.add_machine(np.zeros((5, X.shape[1] + 1)))
        with pytest.raises(KeyError):
            backend.add_machine(np.zeros((5, X.shape[1])), after=99)

    def test_backend_add_machine_requires_setup(self):
        backend = get_backend("sync")()
        with pytest.raises(RuntimeError, match="setup"):
            backend.add_machine(np.zeros((5, 8)))


class TestJoinRouteRNGIndependence:
    """Bugfix 2: a join must not perturb the remaining shuffle_ring
    schedule. Every plan is keyed on (seed, iteration, epoch), so no
    stream exists for a join to advance."""

    def test_join_keeps_the_ring_plans_keyed(self, X):
        cluster = make_cluster(X, epochs=2, shuffle_ring=True)
        cluster.run_iteration(1e-3)
        join(cluster, X[:10])
        protocol = WStepProtocol(cluster.n_machines, 2)
        want = RoutePlan.shuffled(cluster.machines, protocol, 0, 1).to_orders()
        assert [ring.machines for ring in cluster._rings()] == want

    def test_schedule_agrees_up_to_the_join(self, X):
        # Two identical shuffle_ring fits; one admits a machine after
        # iteration 1. Iterations 0 and 1 — everything up to the join
        # point — must be bit-identical, route draws included.
        def run(join):
            adapter, shards = ba_setup(X)
            backend = get_backend("sync")(
                epochs=2, shuffle_within=False, shuffle_ring=True, seed=0
            )
            backend.setup(adapter, shards)
            stats = [backend.run_iteration(1e-3)]
            if join:
                backend.add_machine(X[:10])
            stats.append(backend.run_iteration(2e-3))
            return stats, backend

        (plain, b1), (joined, b2) = run(False), run(True)
        assert plain[0].e_ba == joined[0].e_ba
        # The join drains at iteration 1's boundary; the ring draws for
        # iteration 1 come from the same route stream position either
        # way, which the paired sim times expose deterministically.
        assert joined[1].machines_added == 1
        assert joined[1].n_machines == plain[1].n_machines + 1

    def test_joined_machine_resumes_on_another_engine(self, X):
        # A joined machine's minibatch orders are keyed by its id, the
        # iteration and the visit, not drawn from a stream its join
        # created: a snapshot taken right after the join resumes on the
        # other simulated engine with the same bits.
        options = dict(seed=0, shuffle_within=True, shuffle_ring=True)
        cluster = make_cluster(X, **options)
        cluster.run_iteration(1e-3)
        join(cluster, X[:10])
        state = cluster.checkpoint()
        cluster.run_iteration(2e-3)
        other = get_backend("async")(**options)
        other.restore(state, adapter=ba_setup(X)[0])
        other.run_iteration(2e-3)
        assert other.adapter is not cluster.adapter
        for spec in cluster.adapter.submodel_specs():
            assert np.array_equal(
                cluster.adapter.get_params(spec), other.adapter.get_params(spec)
            )


class TestJoinDonorLiveness:
    """Bugfix 3: a joining machine receives the current assembled model
    (what the wall-clock donor ships in its WELCOME) — never a stale (or
    retired) store's copy."""

    def test_clone_prefers_freshest_live_copies(self, X):
        cluster = make_cluster(X)
        cluster.run_iteration(1e-3)
        first = cluster.machines[0]
        sid = cluster.adapter.submodel_specs()[0].sid
        # Make the first machine's copy of one submodel stale: older
        # counter, perturbed parameters.
        stale = cluster._stores[first][sid]
        stale.counter -= 1
        stale.theta = stale.theta + 123.0
        p = join(cluster, X[:10])
        fresh = cluster._stores[cluster.machines[1]][sid]
        assert np.array_equal(cluster._stores[p][sid].theta, fresh.theta)
        assert not np.array_equal(cluster._stores[p][sid].theta, stale.theta)

    def test_clone_skips_retired_stores(self, X):
        cluster = make_cluster(X, P=4)
        cluster.run_iteration(1e-3)
        dead = cluster.machines[0]
        cluster.remove_machine(dead)
        p = join(cluster, X[:10])
        survivor = cluster._stores[cluster.machines[0]]
        for sid, msg in cluster._stores[p].items():
            assert np.array_equal(msg.theta, survivor[sid].theta)

    def test_joined_machine_holds_current_model(self, X):
        cluster = make_cluster(X)
        cluster.run_iteration(1e-3)
        p = join(cluster, X[:10])
        specs = cluster.adapter.submodel_specs()
        for spec in specs:
            assert np.array_equal(
                cluster._stores[p][spec.sid].theta,
                cluster.adapter.get_params(spec),
            )
        cluster.run_iteration(2e-3)
        assert cluster.model_copies_consistent()


# --------------------------------------------------------- ClusterState
arrays = st.builds(
    lambda shape, fill: np.full(shape, fill, dtype=np.float64),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 4)),
    fill=st.floats(allow_nan=False, allow_infinity=False, width=32),
)


def _states():
    def build(machines, params, counters, iteration, order_seed):
        rng = np.random.default_rng(order_seed)
        ring = list(rng.permutation(machines))
        shards = {
            int(p): Shard(
                X=np.full((2, 3), p, dtype=np.float64),
                F=np.full((2, 3), p + 0.5),
                Z=np.sign(np.full((2, 2), p - 0.5)),
                indices=np.arange(2) + 2 * p,
            )
            for p in machines
        }
        return ClusterState(
            backend="sync",
            iteration=iteration,
            ring_order=[int(p) for p in ring],
            params={i: a for i, a in enumerate(params)},
            shards=shards,
            bookkeeping={
                "rows_ingested": counters[0],
                "shards_lost": counters[1],
                "rows_lost": counters[2],
                "retired": set(),
                "next_machine_id": max(machines) + 1,
                "next_global_index": 2 * len(machines),
            },
            key_root=order_seed,
            pending_ingests=[(int(machines[0]), np.zeros((1, 3)))],
        )

    return st.builds(
        build,
        machines=st.lists(
            st.integers(0, 40), min_size=1, max_size=5, unique=True
        ),
        params=st.lists(arrays, min_size=1, max_size=4),
        counters=st.tuples(
            st.integers(0, 10**6), st.integers(0, 50), st.integers(0, 10**6)
        ),
        iteration=st.integers(0, 1000),
        order_seed=st.integers(0, 2**31 - 1),
    )


def assert_states_equal(a: ClusterState, b: ClusterState) -> None:
    assert a.backend == b.backend
    assert a.iteration == b.iteration
    assert a.ring_order == b.ring_order
    assert set(a.params) == set(b.params)
    for sid in a.params:
        assert np.array_equal(a.params[sid], b.params[sid])
    assert set(a.shards) == set(b.shards)
    for p in a.shards:
        for field in ("X", "F", "Z", "indices"):
            assert np.array_equal(
                getattr(a.shards[p], field), getattr(b.shards[p], field)
            )
    assert a.bookkeeping == b.bookkeeping
    assert a.key_root == b.key_root
    assert len(a.pending_ingests) == len(b.pending_ingests)
    for (pa, Xa), (pb, Xb) in zip(a.pending_ingests, b.pending_ingests):
        assert pa == pb and np.array_equal(Xa, Xb)


class TestClusterStateSerialization:
    @settings(max_examples=25, deadline=None)
    @given(state=_states())
    def test_save_load_roundtrip(self, state, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "state.ckpt"
        state.save(path)
        assert_states_equal(state, ClusterState.load(path))

    def test_load_rejects_non_state_pickle(self, tmp_path):
        import pickle

        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"not": "a state"}))
        with pytest.raises(TypeError, match="ClusterState"):
            ClusterState.load(path)

    def test_load_rejects_newer_version(self, tmp_path):
        state = ClusterState(
            backend="sync", iteration=0, ring_order=[0], params={},
            shards={}, bookkeeping={}, version=999,
        )
        path = tmp_path / "future.ckpt"
        state.save(path)
        with pytest.raises(ValueError, match="version"):
            ClusterState.load(path)

    def test_bookkeeping_roundtrip_through_dataplane(self, X):
        adapter, shards = ba_setup(X)
        plane = DataPlane(adapter, shards)
        plane.apply(plane.prepare_ingest(0, X[:7]))
        plane.retire(2, lost=True)
        book = plane.bookkeeping()
        plane2 = DataPlane(adapter, {p: s for p, s in plane.shards.items()})
        plane2.restore_bookkeeping(book)
        assert plane2.rows_ingested == plane.rows_ingested
        assert plane2.shards_lost == 1
        assert plane2.retired == {2}
        assert plane2._next_global_index == plane._next_global_index
        assert plane2._next_machine_id == plane._next_machine_id


class TestCheckpointGuards:
    def test_checkpoint_requires_setup(self):
        backend = get_backend("sync")()
        with pytest.raises(RuntimeError, match="setup"):
            backend.checkpoint()

    def test_checkpoint_rejects_pending_joins(self, X):
        adapter, shards = ba_setup(X)
        backend = get_backend("sync")(seed=0)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        backend.add_machine(X[:10])
        with pytest.raises(RuntimeError, match="join"):
            backend.checkpoint()
        backend.run_iteration(2e-3)  # join drains; snapshot is legal again
        assert backend.checkpoint().n_machines == 4

    def test_restore_requires_an_adapter(self, X):
        adapter, shards = ba_setup(X)
        backend = get_backend("sync")(seed=0)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        state = backend.checkpoint()
        state.adapter = None
        with pytest.raises(ValueError, match="adapter"):
            get_backend("sync")(seed=0).restore(state)

    def test_restore_rejects_mismatched_configuration(self, X):
        # Resuming under a different protocol cannot be bit-identical;
        # the snapshot records its configuration and restore refuses a
        # mismatch instead of silently diverging.
        adapter, shards = ba_setup(X)
        backend = get_backend("sync")(seed=0, epochs=2)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        state = backend.checkpoint()
        backend.close()
        with pytest.raises(ValueError, match="epochs"):
            get_backend("sync")(seed=0, epochs=1).restore(state)
        with pytest.raises(ValueError, match="scheme"):
            get_backend("sync")(seed=0, epochs=2, scheme="tworound").restore(state)

    def test_cross_engine_restore_is_silent(self, X):
        # Snapshots are portable: no RNG state to be keyed differently,
        # so restoring on another engine warns about nothing.
        import warnings

        adapter, shards = ba_setup(X)
        backend = get_backend("sync")(seed=0, shuffle_ring=True)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        state = backend.checkpoint()
        backend.close()
        fresh = get_backend("async")(seed=0, shuffle_ring=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh.restore(state)
        assert np.isfinite(fresh.run_iteration(2e-3).e_q)
        fresh.close()

    def test_tcp_exhausted_ports_reject_join_eagerly(self, X):
        # An explicit ports list with no slot for the joiner must fail
        # at the add_machine call site, leaving the fit healthy.
        import socket

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
        backend = get_backend("tcp")(seed=0, ports=ports)
        try:
            backend.setup(adapter, shards)
            backend.run_iteration(1e-3)
            with pytest.raises(ValueError, match="ports"):
                backend.add_machine(X[:10])
            # Nothing half-joined: the fit keeps running on 3 machines.
            stats = backend.run_iteration(2e-3)
            assert stats.n_machines == 3 and stats.machines_added == 0
        finally:
            backend.close()
