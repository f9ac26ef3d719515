"""Fault tolerance (paper section 4.3): a machine dies mid-W-step."""

import numpy as np
import pytest

from repro.distributed.backends.sim import FaultEvent

from .test_cluster import build_cluster


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=5)


class TestFaultDuringWStep:
    @pytest.mark.parametrize("tick", [0, 1, 3])
    def test_w_step_completes_after_fault(self, X, tick):
        cluster, _ = build_cluster(X, P=4, epochs=2)
        stats = cluster.w_step(0.1, fault=FaultEvent(machine=2, tick=tick))
        assert stats.sim_time > 0
        assert 2 not in cluster.shards
        assert cluster.n_machines == 3

    def test_survivors_hold_consistent_model(self, X):
        cluster, _ = build_cluster(X, P=4, epochs=1)
        cluster.w_step(0.1, fault=FaultEvent(machine=1, tick=1))
        assert cluster.model_copies_consistent()

    def test_training_continues_after_fault(self, X):
        # The model still improves over subsequent full iterations.
        cluster, _ = build_cluster(X, P=4, seed=2)
        e0 = cluster.run_iteration(1e-3).e_q
        cluster.w_step(2e-3, fault=FaultEvent(machine=3, tick=2))
        cluster.z_step(2e-3)
        for mu in (4e-3, 8e-3, 16e-3):
            e_q = cluster.run_iteration(mu).e_q
        assert np.isfinite(e_q)
        assert e_q < e0 * 2  # sane magnitude, no blow-up

    def test_dead_machines_data_is_lost(self, X):
        cluster, _ = build_cluster(X, P=4)
        n_before = cluster.n_points
        lost = cluster.shards[0].n
        cluster.w_step(0.1, fault=FaultEvent(machine=0, tick=1))
        assert cluster.n_points == n_before - lost

    def test_fault_on_unknown_machine_raises(self, X):
        cluster, _ = build_cluster(X, P=3)
        with pytest.raises(KeyError):
            cluster.w_step(0.1, fault=FaultEvent(machine=9, tick=0))

    def test_cannot_fail_only_machine(self, X):
        cluster, _ = build_cluster(X, P=1)
        with pytest.raises(ValueError):
            cluster.w_step(0.1, fault=FaultEvent(machine=0, tick=0))

    def test_fault_late_in_broadcast_phase(self, X):
        # Fault after all training ticks: only broadcast copies remain.
        P, e = 4, 1
        cluster, _ = build_cluster(X, P=P, epochs=e)
        cluster.w_step(0.1, fault=FaultEvent(machine=2, tick=P * e + 1))
        assert cluster.model_copies_consistent()

    def test_sgd_passes_drop_by_dead_shard(self, X):
        # After an early fault, submodels train on the surviving data only;
        # totals must stay consistent with the alive machine set.
        cluster, adapter = build_cluster(X, P=4, epochs=1)
        dead_n = cluster.shards[2].n
        cluster.w_step(0.1, fault=FaultEvent(machine=2, tick=0))
        store = cluster._stores[cluster.machines[0]]
        for spec in adapter.submodel_specs():
            assert store[spec.sid].sgd_state.n_updates == len(X) - dead_n


class TestRescueTakesCurrentCopies:
    """Regression: after a warm iteration every store holds the previous
    W step's final copies, marked done. A rescue that took one of those
    never re-queued it, so the submodel silently skipped the whole W step
    (parameters untouched, ``n_updates`` still e·N from the last step) —
    every tick-0 fault did this to the dead machine's home submodels, and
    a shuffled ring did it mid-step too."""

    E = 2

    def warm(self, X, seed, **kwargs):
        cluster, adapter = build_cluster(X, P=4, epochs=self.E, seed=seed, **kwargs)
        cluster.run_iteration(1e-3)
        before = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
        return cluster, adapter, before

    def assert_every_submodel_trained(self, cluster, adapter, before, n_updates):
        store = cluster._stores[cluster.machines[0]]
        assert cluster.model_copies_consistent()
        for spec in adapter.submodel_specs():
            assert n_updates(store[spec.sid].sgd_state.n_updates), spec
            assert not np.array_equal(adapter.get_params(spec), before[spec.sid]), spec

    @pytest.mark.parametrize("seed", range(5))
    def test_tick0_fault_trains_every_submodel_on_the_survivors(self, X, seed):
        cluster, adapter, before = self.warm(X, seed)
        survivors_n = len(X) - cluster.shards[2].n
        cluster.w_step(2e-3, fault=FaultEvent(machine=2, tick=0))
        self.assert_every_submodel_trained(
            cluster, adapter, before, lambda n: n == self.E * survivors_n
        )

    def test_tick0_fault_is_retire_then_w_step(self, X):
        # The wall-clock engines' excise-and-rerun, bit for bit.
        faulted, a, _ = self.warm(X, 0)
        faulted.w_step(2e-3, fault=FaultEvent(machine=2, tick=0))
        retired, b, _ = self.warm(X, 0)
        retired.remove_machine(2)
        retired.w_step(2e-3)
        for spec in a.submodel_specs():
            assert np.array_equal(a.get_params(spec), b.get_params(spec))
        assert faulted.dataplane.shards_lost == 1

    @pytest.mark.parametrize("tick", [1, 2, 3])
    def test_shuffled_ring_mid_step_rescue(self, X, tick):
        # At ticks 1-3 no submodel has finished its second epoch, so each
        # one misses at least the dead shard's epoch-2 pass: n_updates < e·N.
        for seed in range(20):
            cluster, adapter, before = self.warm(X, seed, shuffle_ring=True)
            cluster.w_step(2e-3, fault=FaultEvent(machine=2, tick=tick))
            self.assert_every_submodel_trained(
                cluster, adapter, before, lambda n: n < self.E * len(X)
            )


class TestFaultDuringZStep:
    def test_remove_machine_models_z_step_fault(self, X):
        # "If it happens during the Z step, all we need to do is discard the
        # faulty machine and reconnect" — remove_machine is exactly that.
        cluster, _ = build_cluster(X, P=4)
        cluster.run_iteration(0.1)
        cluster.remove_machine(1)
        assert cluster.n_machines == 3
        cluster.run_iteration(0.2)  # keeps running
        assert cluster.model_copies_consistent()
