"""The data plane on its own: shard ownership, validation of rows entering
mid-fit, retirement counters and checkpoint bookkeeping (the engines that
drive it are covered by ``test_streaming.py`` and ``test_elastic.py``)."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.data.synthetic import make_clustered
from repro.distributed.dataplane import DataPlane
from repro.distributed.partition import TimingShard, make_shards, partition_indices

D, L = 6, 3


@pytest.fixture(scope="module")
def X():
    return make_clustered(60, D, n_clusters=3, rng=11)


def plane_for(X, P=3, *, own_data=True, **adapter_kwargs):
    adapter = BAAdapter(BinaryAutoencoder.linear(D, L), **adapter_kwargs)
    Z, _ = init_codes_pca(X, L, rng=0)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, adapter.features(X), Z, parts)
    return DataPlane(adapter, shards, own_data=own_data)


class TestOwnership:
    def test_sequence_numbers_machines_from_zero(self, X):
        plane = plane_for(X, P=3)
        assert plane.machines == [0, 1, 2]
        assert plane.n_machines == 3
        assert plane.n_points == len(X)
        assert sum(plane.rows_of(p) for p in plane.machines) == len(X)

    def test_mapping_keeps_its_ids(self, X):
        shards = plane_for(X, P=2).shards
        plane = DataPlane(plane_for(X).adapter, {5: shards[0], 2: shards[1]})
        assert plane.machines == [2, 5]
        assert plane.rows_of(5) == shards[0].n
        assert plane.register(shards[0]) == 6

    def test_needs_a_shard(self, X):
        with pytest.raises(ValueError, match="at least one shard"):
            DataPlane(plane_for(X).adapter, [])

    def test_unknown_machine_is_a_key_error(self, X):
        plane = plane_for(X)
        with pytest.raises(KeyError):
            plane.rows_of(9)

    def test_register_takes_fresh_or_explicit_ids(self, X):
        plane = plane_for(X, P=2)
        shard = plane.shards[0]
        assert plane.register(shard, machine=7) == 7
        assert plane.register(shard) == 8
        with pytest.raises(ValueError, match="already owns"):
            plane.register(shard, machine=7)
        assert plane.n_points == len(X) + 2 * shard.n

    def test_compute_dtype_follows_the_model(self, X):
        adapter = BAAdapter(BinaryAutoencoder.linear(D, L, dtype=np.float32))
        plane = DataPlane(adapter, [TimingShard(5)])
        assert plane.compute_dtype == np.float32


class TestStreamValidation:
    @pytest.mark.parametrize(
        "rows, error, match",
        [
            (np.zeros((0, D)), ValueError, "empty"),
            (np.zeros((4, D + 1)), ValueError, "columns"),
            (np.zeros(D), ValueError, "2-d"),
        ],
        ids=["empty", "wrong_width", "one_d"],
    )
    def test_check_ingest_rejects_bad_batches(self, X, rows, error, match):
        plane = plane_for(X)
        with pytest.raises(error, match=match):
            plane.check_ingest(1, rows)

    def test_check_ingest_unknown_machine(self, X):
        with pytest.raises(KeyError):
            plane_for(X).check_ingest(3, X[:2])

    def test_timing_shards_cannot_stream(self, X):
        plane = DataPlane(plane_for(X).adapter, [TimingShard(10), TimingShard(4)])
        with pytest.raises(TypeError, match="does not support streaming"):
            plane.check_ingest(0, X[:2])

    def test_check_ingest_returns_compute_dtype_rows(self, X):
        plane = plane_for(X)
        rows = plane.check_ingest(0, X[:3].astype(np.float32).tolist())
        assert rows.dtype == np.float64 and rows.shape == (3, D)

    @pytest.mark.parametrize(
        "rows, match",
        [(np.zeros((0, D)), "at least one data point"), (np.zeros((2, 1)), "columns")],
        ids=["empty", "wrong_width"],
    )
    def test_check_join_rejects_bad_shards(self, X, rows, match):
        with pytest.raises(ValueError, match=match):
            plane_for(X).check_join(rows)

    def test_exact_decoder_refuses_a_second_machine(self, X):
        plane = plane_for(X, P=1, decoder_exact=True)
        with pytest.raises(ValueError, match="max_machines"):
            plane.check_join(X[:4])
        with pytest.raises(ValueError, match="max_machines"):
            plane_for(X, P=2, decoder_exact=True)


class TestIngestAccounting:
    def test_tracking_plane_counts_rows_without_touching_shards(self, X):
        plane = plane_for(X, own_data=False)
        n0 = plane.shards[1].n
        batch = plane.prepare_ingest(1, X[:5])
        assert batch.n == 5 and batch.Z.shape == (5, L)
        assert plane.apply(batch) == 5
        assert plane.shards[1].n == n0
        assert plane.rows_of(1) == n0 + 5
        assert plane.rows_ingested == 5

    def test_owning_plane_appends_rows(self, X):
        plane = plane_for(X, own_data=True)
        n0 = plane.shards[2].n
        plane.apply(plane.prepare_ingest(2, X[:4]))
        assert plane.shards[2].n == plane.rows_of(2) == n0 + 4
        assert plane.shards[2].indices[-4:].tolist() == list(range(len(X), len(X) + 4))

    def test_admit_codes_and_numbers_a_new_machine(self, X):
        plane = plane_for(X, P=2)
        p = plane.admit(X[:6])
        assert p == 2 and plane.rows_of(2) == 6
        assert np.array_equal(plane.shards[2].Z, plane.adapter.model.encode(X[:6]))
        assert plane.shards[2].indices.tolist() == list(range(len(X), len(X) + 6))


class TestRetirement:
    def test_lost_shard_counts_its_rows(self, X):
        plane = plane_for(X)
        rows = plane.rows_of(1)
        assert plane.retire(1) == rows
        assert (plane.shards_lost, plane.rows_lost) == (1, rows)
        assert plane.machines == [0, 2]
        assert plane.n_points == len(X) - rows

    def test_deliberate_removal_is_not_a_loss(self, X):
        plane = plane_for(X)
        plane.retire(0, lost=False)
        assert (plane.shards_lost, plane.rows_lost) == (0, 0)
        assert plane.is_retired(0)

    def test_retired_differs_from_never_existed(self, X):
        plane = plane_for(X)
        plane.retire(2)
        assert plane.is_retired(2)
        assert not plane.is_retired(7)
        with pytest.raises(KeyError):
            plane.rows_of(2)

    def test_the_only_shard_cannot_retire(self, X):
        plane = plane_for(X, P=1)
        with pytest.raises(ValueError, match="only shard"):
            plane.retire(0)


def test_bookkeeping_round_trip_never_reuses_ids(X):
    plane = plane_for(X, P=3)
    plane.apply(plane.prepare_ingest(0, X[:3]))
    plane.admit(X[:2])
    plane.retire(3)
    book = plane.bookkeeping()
    fresh = DataPlane(plane.adapter, {p: s for p, s in plane.shards.items() if p != 0})
    fresh.restore_bookkeeping(book)
    assert fresh.bookkeeping() == book
    assert fresh.register(plane.shards[0]) == 4
    assert fresh.allocate_indices(1).tolist() == [len(X) + 5]
