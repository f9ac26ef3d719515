"""Deep nets on the ParMAC ring: the generality claim of the paper."""

import numpy as np
import pytest

from repro.distributed.partition import partition_indices
from repro.nets.adapter import NetAdapter, NetShard, make_net_shards
from repro.nets.deepnet import DeepNet
from repro.nets.mac import init_coords
from tests.fits import sim


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    Y = np.sin(X @ rng.normal(size=(4, 2)))
    return X, Y


def build_net_cluster(X, Y, P=3, seed=0, **kwargs):
    net = DeepNet.create([4, 6, 2], rng=seed)
    adapter = NetAdapter(net, z_steps=5)
    Zs = init_coords(net, X)
    parts = partition_indices(len(X), P, rng=seed)
    shards = make_net_shards(X, Y, Zs, parts)
    cluster = sim(adapter, shards, seed=seed, **kwargs)
    return cluster, adapter, net


class TestNetShard:
    def test_lengths_validated(self):
        with pytest.raises(ValueError):
            NetShard(X=np.zeros((3, 2)), Y=np.zeros((2, 1)), Zs=[np.zeros((3, 4))])

    def test_n(self):
        s = NetShard(X=np.zeros((5, 2)), Y=np.zeros((5, 1)), Zs=[np.zeros((5, 3))])
        assert s.n == 5


class TestNetAdapter:
    def test_one_submodel_per_hidden_unit(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=0)
        adapter = NetAdapter(net)
        # M = hidden units + output units = 6 + 2 (paper: weight vector of
        # each hidden unit is a submodel).
        assert len(adapter.submodel_specs()) == 8

    def test_params_roundtrip(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=0)
        adapter = NetAdapter(net)
        for spec in adapter.submodel_specs():
            theta = adapter.get_params(spec)
            adapter.set_params(spec, theta * 1.5)
            assert np.allclose(adapter.get_params(spec), theta * 1.5)

    def test_w_update_reduces_unit_loss(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=1)
        adapter = NetAdapter(net)
        Zs = init_coords(net, X)
        shard = make_net_shards(X, Y, Zs, [np.arange(len(X))])[0]
        spec = adapter.submodel_specs()[0]
        theta = adapter.get_params(spec) + 0.5  # perturb

        def unit_loss(th):
            k, j = spec.index
            A_in = shard.X
            from repro.nets.layers import ACTIVATIONS

            f, _ = ACTIVATIONS[net.layers[k].activation]
            pred = f(A_in @ th[:-1] + th[-1])
            return float(((pred - shard.Zs[k][:, j]) ** 2).sum())

        from repro.optim.sgd import SGDState

        before = unit_loss(theta)
        state = SGDState()
        for _ in range(10):
            theta = adapter.w_update(spec, theta, state, shard, 1.0,
                                     batch_size=32, shuffle=True,
                                     rng=np.random.default_rng(0))
        assert unit_loss(theta) < before


class TestNetOnRing:
    def test_w_step_invariants(self, problem):
        X, Y = problem
        cluster, adapter, net = build_net_cluster(X, Y, P=3)
        cluster.w_step(mu=1.0)
        assert cluster.model_copies_consistent()

    def test_full_iterations_reduce_nested_loss(self, problem):
        X, Y = problem
        cluster, adapter, net = build_net_cluster(X, Y, P=3, epochs=2)
        before = net.loss(X, Y)
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
            cluster.run_iteration(mu)
        assert net.loss(X, Y) < before

    def test_z_step_never_increases_e_q(self, problem):
        X, Y = problem
        cluster, adapter, net = build_net_cluster(X, Y, P=2)
        cluster.w_step(1.0)
        before = sum(
            adapter.e_q_shard(cluster.shards[p], 1.0) for p in cluster.machines
        )
        cluster.z_step(1.0)
        after = sum(
            adapter.e_q_shard(cluster.shards[p], 1.0) for p in cluster.machines
        )
        assert after <= before + 1e-9


class TestBatchedParams:
    """The vectorised per-layer param path must be bit-identical to the
    per-unit one — it is the shard-local hot path every engine drives
    through ``get_params_many`` / ``set_params_many``."""

    def test_get_batch_matches_per_unit(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=3)
        adapter = NetAdapter(net)
        specs = adapter.submodel_specs()
        batched = adapter.get_params_batch(specs)
        for spec, theta in zip(specs, batched):
            assert np.array_equal(theta, adapter.get_params(spec))

    def test_get_batch_preserves_arbitrary_spec_order(self, problem):
        net = DeepNet.create([4, 6, 2], rng=3)
        adapter = NetAdapter(net)
        specs = adapter.submodel_specs()[::-1]  # interleaves the layers
        batched = adapter.get_params_batch(specs)
        for spec, theta in zip(specs, batched):
            assert np.array_equal(theta, adapter.get_params(spec))

    def test_set_batch_matches_per_unit(self, problem):
        rng = np.random.default_rng(7)
        net_a = DeepNet.create([4, 6, 2], rng=3)
        net_b = DeepNet.create([4, 6, 2], rng=3)
        a = NetAdapter(net_a)
        b = NetAdapter(net_b)
        specs = a.submodel_specs()
        thetas = [rng.normal(size=a.get_params(s).shape) for s in specs]
        for spec, theta in zip(specs, thetas):
            a.set_params(spec, theta)
        b.set_params_batch(list(zip(specs, thetas)))
        for la, lb in zip(net_a.layers, net_b.layers):
            assert np.array_equal(la.W, lb.W)
            assert np.array_equal(la.b, lb.b)

    def test_set_batch_rejects_wrong_width(self, problem):
        net = DeepNet.create([4, 6, 2], rng=3)
        adapter = NetAdapter(net)
        spec = adapter.submodel_specs()[0]
        with pytest.raises(ValueError, match="params"):
            adapter.set_params_batch([(spec, np.zeros(99))])

    def test_engines_use_the_batch_path(self, problem):
        # get_params_many / set_params_many must dispatch to the batch
        # implementations when an adapter provides them.
        from repro.distributed.interfaces import get_params_many, set_params_many

        net = DeepNet.create([4, 6, 2], rng=3)
        adapter = NetAdapter(net)
        calls = {"get": 0, "set": 0}
        orig_get, orig_set = adapter.get_params_batch, adapter.set_params_batch
        adapter.get_params_batch = lambda specs: (
            calls.__setitem__("get", calls["get"] + 1) or orig_get(specs)
        )
        adapter.set_params_batch = lambda items: (
            calls.__setitem__("set", calls["set"] + 1) or orig_set(items)
        )
        specs = adapter.submodel_specs()
        thetas = get_params_many(adapter, specs)
        set_params_many(adapter, list(zip(specs, thetas)))
        assert calls == {"get": 1, "set": 1}
