"""Batched co-resident-unit W step, the only W-step path.

The contract, as tests:

* fits are **bit-identical across every registered engine**, with
  shuffling on or off (group composition is protocol-deterministic —
  convoys, not timing — and every convoy member takes its visit's keyed
  minibatch order);
* the stacked kernels agree with the adapters' per-unit reference
  kernels to machine precision (the stacked GEMM and the per-unit GEMV
  associate their reductions differently, so exact bit equality between
  the two *kernels* is not a BLAS guarantee — parity is asserted at
  float tolerance, plus exact agreement of every SGD step count).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import available_backends, get_backend
from repro.distributed.batching import BatchAccumulator, GroupTable
from repro.distributed.interfaces import ParMACAdapter
from repro.distributed.messages import SubmodelMessage
from repro.distributed.partition import make_shards, partition_indices
from repro.distributed.protocol import home_assignment
from repro.nets.adapter import NetAdapter, make_net_shards
from repro.nets.deepnet import DeepNet
from repro.nets.mac import init_coords
from repro.optim.sgd import SGDState
from repro.utils.rng import keyed_rng

BACKENDS = available_backends()
REFERENCE = "sync"


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


def run_fit(make_problem, backend, *, shuffle_within=False, epochs=2, n_iters=4):
    adapter, shards = make_problem()
    trainer = ParMACTrainer(
        adapter,
        GeometricSchedule(1e-3, 2.0, n_iters),
        backend=backend,
        epochs=epochs,
        shuffle_within=shuffle_within,
        seed=0,
    )
    history = trainer.fit(shards)
    trainer.close()
    return final_params(adapter), history


class TestAdapterKernels:
    """w_update_batch against the per-unit kernel, at the adapter level."""

    def test_net_batch_matches_per_unit(self, net_problem):
        X, Y = net_problem
        adapter, shards = net_setup(X, Y, P=1)
        shard = shards[0]
        # The output layer: the hidden coordinates start at the forward
        # pass, where layer 0's units have nothing to fit.
        specs = [s for s in adapter.submodel_specs() if s.index[0] == 1]
        thetas = [adapter.get_params(s) for s in specs]
        per_unit, states_u = [], []
        for spec, theta in zip(specs, thetas):
            st = SGDState()
            per_unit.append(
                adapter.w_update(spec, theta.copy(), st, shard, 1.0,
                                 batch_size=32, shuffle=False, rng=None)
            )
            states_u.append(st)
        states_b = [SGDState() for _ in specs]
        batched = adapter.w_update_batch(
            specs, [t.copy() for t in thetas], states_b, shard, 1.0,
            batch_size=32, shuffle=False, rng=None,
        )
        for a, b, theta in zip(per_unit, batched, thetas):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
            assert not np.allclose(b, theta)
        # The carried schedules must advance exactly identically.
        assert [s.t for s in states_u] == [s.t for s in states_b]
        assert [s.n_updates for s in states_u] == [s.n_updates for s in states_b]

    @pytest.mark.parametrize("kind", ["enc", "dec"])
    def test_ba_batch_matches_per_unit(self, X, kind):
        adapter, shards = ba_setup(X, P=1)
        shard = shards[0]
        specs = [s for s in adapter.submodel_specs() if s.kind == kind]
        thetas = [adapter.get_params(s) for s in specs]
        per_unit = [
            adapter.w_update(spec, theta.copy(), SGDState(), shard, 0.5,
                             batch_size=25, shuffle=False, rng=None)
            for spec, theta in zip(specs, thetas)
        ]
        batched = adapter.w_update_batch(
            specs, [t.copy() for t in thetas], [SGDState() for _ in specs],
            shard, 0.5, batch_size=25, shuffle=False, rng=None,
        )
        for a, b in zip(per_unit, batched):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind", ["unit", "enc", "dec"])
    def test_batched_equals_per_unit_under_one_keyed_order(self, X, net_problem, kind):
        # Both paths draw the visit's order from a fresh generator on one
        # key: a ragged last minibatch, two chained passes, and the
        # parity tolerance of the unshuffled kernels.
        if kind == "unit":
            adapter, shards = net_setup(*net_problem, P=1)
            # The output layer: the hidden coordinates start at the
            # forward pass, where layer 0's units have nothing to fit.
            specs = [s for s in adapter.submodel_specs() if s.index[0] == 1]
        else:
            adapter, shards = ba_setup(X, P=1)
            specs = [s for s in adapter.submodel_specs() if s.kind == kind]
        shard = shards[0]
        key = (0, 3, 0, 2, 1)
        per_unit, states_u = [], []
        for spec in specs:
            theta, st = adapter.get_params(spec), SGDState()
            for k in range(2):
                theta = adapter.w_update(
                    spec, theta, st, shard, 0.5, batch_size=25,
                    shuffle=True, rng=keyed_rng(*key, k),
                )
            per_unit.append(theta)
            states_u.append(st)
        batched = [adapter.get_params(s) for s in specs]
        states_b = [SGDState() for _ in specs]
        for k in range(2):
            batched = adapter.w_update_batch(
                specs, batched, states_b, shard, 0.5, batch_size=25,
                shuffle=True, rng=keyed_rng(*key, k),
            )
        unshuffled = adapter.w_update_batch(
            specs, [adapter.get_params(s) for s in specs],
            [SGDState() for _ in specs], shard, 0.5,
            batch_size=25, shuffle=False, rng=None,
        )
        for a, b, c in zip(per_unit, batched, unshuffled):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
            assert not np.allclose(b, c)
        assert states_u == states_b

    def test_mixed_layers_rejected(self, net_problem):
        X, Y = net_problem
        adapter, shards = net_setup(X, Y, P=1)
        by_layer = {}
        for s in adapter.submodel_specs():
            by_layer.setdefault(s.index[0], s)
        mixed = list(by_layer.values())
        assert len(mixed) > 1
        with pytest.raises(ValueError, match="layer"):
            adapter.w_update_batch(
                mixed, [adapter.get_params(s) for s in mixed],
                [SGDState() for _ in mixed], shards[0], 1.0,
                batch_size=32, shuffle=False, rng=None,
            )

    def test_both_adapters_advertise_batching(self, X, net_problem):
        Xn, Y = net_problem
        assert isinstance(ba_setup(X)[0], ParMACAdapter)
        assert isinstance(net_setup(Xn, Y)[0], ParMACAdapter)


class NoBatchAdapter(BAAdapter):
    """A BA adapter without the stacked W step every engine trains with."""

    w_update_batch = None


def shm_entries() -> set:
    """Names currently in /dev/shm (empty where there is none)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestAdapterConformance:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_setup_refuses_a_non_conforming_adapter(self, X, name):
        # Refused at the data plane, before a worker is forked or a
        # shard packed, with the adapter class named.
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(seed=0)
        children, shm = set(multiprocessing.active_children()), shm_entries()
        with pytest.raises(TypeError, match="NoBatchAdapter"):
            backend.setup(NoBatchAdapter(adapter.model), shards)
        assert set(multiprocessing.active_children()) == children
        assert shm_entries() <= shm
        assert getattr(backend, "worker_pids", []) == []
        backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_restore_refuses_a_non_conforming_adapter(self, X, name):
        # A snapshot rebinds through the same data plane as setup, so an
        # adapter handed to restore() is checked there too.
        adapter, shards = ba_setup(X)
        source = get_backend("sync")(seed=0)
        source.setup(adapter, shards)
        source.run_iteration(1e-3)
        state = source.checkpoint()
        source.close()
        backend = get_backend(name)(seed=0)
        children, shm = set(multiprocessing.active_children()), shm_entries()
        with pytest.raises(TypeError, match="NoBatchAdapter"):
            backend.restore(state, adapter=NoBatchAdapter(adapter.model))
        assert set(multiprocessing.active_children()) == children
        assert shm_entries() <= shm
        assert getattr(backend, "worker_pids", []) == []
        backend.close()


class TestGroupAccumulator:
    """Convoy bookkeeping: protocol-deterministic groups, completeness."""

    def _table(self, X):
        adapter, _ = ba_setup(X)
        homes = home_assignment(adapter.n_submodels, 3)
        return adapter, GroupTable(adapter, homes)

    def test_groups_split_by_home_and_key(self, X):
        adapter, table = self._table(X)
        # 8 submodels over 3 machines: blocks {0,1,2}, {3,4,5}, {6,7} —
        # block 1 spans the enc/dec boundary, so it splits in two.
        sizes = sorted(table.group_size.values())
        assert sum(sizes) == adapter.n_submodels
        assert table.group_of[3] != table.group_of[4]  # enc vs dec, same home
        assert table.group_of[4] == table.group_of[5]

    def test_completion_only_when_full_and_sid_sorted(self, X):
        adapter, table = self._table(X)
        acc = BatchAccumulator(table)
        specs = {s.sid: s for s in adapter.submodel_specs()}
        msg = lambda sid: SubmodelMessage(
            spec=specs[sid], theta=np.zeros(3), counter=1
        )
        assert acc.add(msg(1)) is None
        assert acc.add(msg(2)) is None
        assert acc.n_pending == 2
        done = acc.add(msg(0))
        assert [m.spec.sid for m in done] == [0, 1, 2]
        assert acc.n_pending == 0

    def test_counters_keep_convoys_apart(self, X):
        adapter, table = self._table(X)
        acc = BatchAccumulator(table)
        specs = {s.sid: s for s in adapter.submodel_specs()}
        a = SubmodelMessage(spec=specs[4], theta=np.zeros(3), counter=1)
        b = SubmodelMessage(spec=specs[5], theta=np.zeros(3), counter=2)
        assert acc.add(a) is None
        assert acc.add(b) is None  # same group, different visit: no mix
        assert acc.n_pending == 2


class TestEngineParity:
    """The engine-level contract over every registered backend."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_batched_bit_identical_across_engines_ba(self, X, name):
        ref, _ = run_fit(lambda: ba_setup(X), REFERENCE)
        got, _ = run_fit(lambda: ba_setup(X), name)
        for sid in ref:
            assert np.array_equal(ref[sid], got[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_batched_bit_identical_across_engines_net(self, net_problem, name):
        Xn, Y = net_problem
        ref, _ = run_fit(lambda: net_setup(Xn, Y), REFERENCE)
        got, _ = run_fit(lambda: net_setup(Xn, Y), name)
        for sid in ref:
            assert np.array_equal(ref[sid], got[sid]), (name, sid)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_shuffle_within_batches_under_keyed_orders(self, X, name):
        # Shuffled fits batch too: each convoy takes its visit's keyed
        # order, so every engine's fit is the reference's bits.
        ref, _ = run_fit(lambda: ba_setup(X), REFERENCE, shuffle_within=True)
        got, _ = run_fit(lambda: ba_setup(X), name, shuffle_within=True)
        for sid in got:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)

    def test_w_time_surfaced_on_sim_engines(self, X):
        _, history = run_fit(lambda: ba_setup(X), "sync")
        rec = history.records[-1]
        assert rec.extra["w_time"] > 0
        assert rec.extra["z_time"] > 0
        assert rec.extra["compute_dtype"] == "float64"
        assert rec.extra["message_dtype"] is None

