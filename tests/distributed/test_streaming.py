"""Streaming (paper section 4.3): add/remove data and machines on the fly.

Arrivals queue through ``ingest``/``add_machine`` and apply at the next
iteration boundary; these tests drain them explicitly
(``drain_ingests``/``drain_joins``) to look at the cluster in between."""

import numpy as np
import pytest

from .test_cluster import build_cluster


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(100, 8, n_clusters=3, rng=6)


@pytest.fixture(scope="module")
def X_new():
    from repro.data.synthetic import make_clustered

    return make_clustered(25, 8, n_clusters=3, rng=7)


class TestWithinMachineStreaming:
    def test_ingest_grows_shard(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        cluster.run_iteration(0.1)
        n0 = cluster.shards[1].n
        cluster.ingest(1, X_new)
        cluster.drain_ingests()
        assert cluster.shards[1].n == n0 + len(X_new)
        assert cluster.n_points == len(X) + len(X_new)

    def test_added_codes_come_from_nested_model(self, X, X_new):
        cluster, adapter = build_cluster(X, P=3)
        cluster.run_iteration(0.1)
        cluster.ingest(0, X_new)
        cluster.drain_ingests()
        shard = cluster.shards[0]
        new_rows = shard.Z[-len(X_new):]
        assert np.array_equal(new_rows, adapter.model.encode(X_new))

    def test_training_continues_after_add(self, X, X_new):
        cluster, _ = build_cluster(X, P=3, seed=1)
        cluster.run_iteration(1e-3)
        cluster.ingest(2, X_new)
        stats = cluster.run_iteration(2e-3)
        assert stats.rows_ingested == len(X_new)
        assert cluster.model_copies_consistent()
        assert np.isfinite(stats.e_q)

    def test_remove_data(self, X):
        cluster, _ = build_cluster(X, P=3)
        n0 = cluster.shards[0].n
        cluster.dataplane.remove_rows(0, [0, 1, 2])
        assert cluster.shards[0].n == n0 - 3
        cluster.run_iteration(0.1)  # still works

    def test_global_indices_stay_unique(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        cluster.ingest(0, X_new)
        cluster.ingest(1, X_new)
        cluster.drain_ingests()
        idx = np.concatenate([s.indices for s in cluster.shards.values()])
        assert len(np.unique(idx)) == len(idx)

    def test_streamed_rows_take_the_next_indices(self, X, X_new):
        # Shards holding ids 0..n-1: arrivals are numbered n, n+1, ... in
        # arrival order, whichever machine they land on.
        from repro.distributed.dataplane import DataPlane

        cluster, adapter = build_cluster(X, P=3)
        n = len(X)
        held = np.concatenate([s.indices for s in cluster.shards.values()])
        assert sorted(held.tolist()) == list(range(n))
        plane = DataPlane(adapter, list(cluster.shards.values()))
        assert plane.allocate_indices(3).tolist() == [n, n + 1, n + 2]
        assert plane.allocate_indices(2).tolist() == [n + 3, n + 4]
        k = len(X_new)
        cluster.ingest(2, X_new)
        cluster.ingest(0, X_new)
        cluster.drain_ingests()
        assert cluster.shards[2].indices[-k:].tolist() == list(range(n, n + k))
        assert cluster.shards[0].indices[-k:].tolist() == list(range(n + k, n + 2 * k))

    def test_add_to_unknown_machine_raises(self, X, X_new):
        cluster, _ = build_cluster(X, P=2)
        with pytest.raises(KeyError):
            cluster.ingest(9, X_new)


class TestMachineStreaming:
    def test_add_machine_joins_ring(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        cluster.run_iteration(0.1)
        new_id = cluster.add_machine(X_new)
        assert new_id == 3
        cluster.drain_joins()
        assert cluster.n_machines == 4
        cluster.topology.validate()

    def test_new_machine_gets_model_copy(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        cluster.run_iteration(0.1)
        cluster.add_machine(X_new)
        cluster.drain_joins()
        assert cluster.model_copies_consistent()
        # And participates in the next W step.
        cluster.run_iteration(0.2)
        assert cluster.model_copies_consistent()

    def test_new_machine_data_influences_training(self, X, X_new):
        cluster, adapter = build_cluster(X, P=3, seed=4)
        cluster.run_iteration(0.1)
        cluster.add_machine(X_new)
        cluster.drain_joins()
        cluster.w_step(0.2)
        store = cluster._stores[cluster.machines[0]]
        spec = adapter.submodel_specs()[0]
        assert store[spec.sid].sgd_state.n_updates == len(X) + len(X_new)

    def test_add_machine_after_position(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        new_id = cluster.add_machine(X_new, after=0)
        cluster.drain_joins()
        assert cluster.topology.successor(0) == new_id

    def test_remove_machine_drops_data(self, X):
        cluster, _ = build_cluster(X, P=3)
        lost = cluster.shards[2].n
        cluster.remove_machine(2)
        assert cluster.n_points == len(X) - lost
        cluster.topology.validate()

    def test_remove_then_iterate(self, X):
        cluster, _ = build_cluster(X, P=3, seed=8)
        cluster.run_iteration(0.1)
        cluster.remove_machine(0)
        cluster.run_iteration(0.2)
        assert cluster.model_copies_consistent()

    def test_add_empty_machine_rejected(self, X):
        cluster, _ = build_cluster(X, P=2)
        with pytest.raises(ValueError):
            cluster.add_machine(np.zeros((0, 8)))

    def test_remove_unknown_machine_raises(self, X):
        cluster, _ = build_cluster(X, P=2)
        with pytest.raises(KeyError):
            cluster.remove_machine(9)


class TestIngestValidation:
    """ingest validates through the shared DataPlane, eagerly and loudly."""

    def test_wrong_width_rejected(self, X):
        cluster, _ = build_cluster(X, P=3)
        with pytest.raises(ValueError, match="columns"):
            cluster.ingest(0, np.zeros((5, X.shape[1] + 1)))

    def test_empty_batch_rejected(self, X):
        cluster, _ = build_cluster(X, P=3)
        with pytest.raises(ValueError, match="empty"):
            cluster.ingest(0, np.zeros((0, X.shape[1])))

    def test_one_dimensional_batch_rejected(self, X):
        cluster, _ = build_cluster(X, P=3)
        with pytest.raises(ValueError, match="2-d"):
            cluster.ingest(0, np.zeros(X.shape[1]))

    def test_failed_ingest_leaves_shard_untouched(self, X):
        cluster, _ = build_cluster(X, P=3)
        n0 = cluster.shards[0].n
        with pytest.raises(ValueError):
            cluster.ingest(0, np.zeros((5, X.shape[1] + 3)))
        cluster.drain_ingests()
        assert cluster.shards[0].n == n0
        assert cluster.dataplane.rows_ingested == 0

    def test_dataplane_counts_ingested_rows(self, X, X_new):
        cluster, _ = build_cluster(X, P=3)
        cluster.ingest(1, X_new)
        cluster.ingest(2, X_new)
        assert cluster.drain_ingests() == 2 * len(X_new)
        assert cluster.dataplane.rows_ingested == 2 * len(X_new)
        assert cluster.dataplane.n_points == len(X) + 2 * len(X_new)

    def test_fault_counts_lost_shard(self, X):
        from repro.distributed.backends.sim import FaultEvent

        cluster, _ = build_cluster(X, P=4)
        rows = cluster.shards[2].n
        cluster.w_step(0.1, fault=FaultEvent(machine=2, tick=1))
        assert cluster.dataplane.shards_lost == 1
        assert cluster.dataplane.rows_lost == rows

    def test_planned_removal_not_counted_lost(self, X):
        cluster, _ = build_cluster(X, P=3)
        cluster.remove_machine(1)
        assert cluster.dataplane.shards_lost == 0
