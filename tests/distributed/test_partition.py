import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.partition import Shard, make_shards, partition_indices


class TestPartitionIndices:
    @given(st.integers(1, 500), st.integers(1, 20), st.booleans())
    @settings(max_examples=50)
    def test_disjoint_covering(self, n, P, shuffle):
        if n < P:
            with pytest.raises(ValueError):
                partition_indices(n, P, shuffle=shuffle, rng=0)
            return
        parts = partition_indices(n, P, shuffle=shuffle, rng=0)
        flat = np.concatenate(parts)
        assert sorted(flat.tolist()) == list(range(n))

    @given(st.integers(10, 500), st.integers(1, 10))
    @settings(max_examples=30)
    def test_equal_shares_balanced(self, n, P):
        if n < P:
            return
        sizes = [len(p) for p in partition_indices(n, P, rng=0)]
        assert max(sizes) - min(sizes) <= 1

    def test_proportional_to_alphas(self):
        # Paper section 4.3: machine p gets N*alpha_p/sum(alpha) points.
        parts = partition_indices(1000, 3, alphas=[1.0, 2.0, 7.0], rng=0)
        sizes = [len(p) for p in parts]
        assert sizes == [100, 200, 700]

    def test_alphas_rounding_keeps_total(self):
        parts = partition_indices(100, 3, alphas=[1.0, 1.0, 1.0], rng=0)
        assert sum(len(p) for p in parts) == 100

    def test_minimum_one_point_per_machine(self):
        parts = partition_indices(10, 3, alphas=[1000.0, 1.0, 1.0], rng=0)
        assert all(len(p) >= 1 for p in parts)
        assert sum(len(p) for p in parts) == 10

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError):
            partition_indices(10, 2, alphas=[1.0])
        with pytest.raises(ValueError):
            partition_indices(10, 2, alphas=[1.0, -1.0])
        with pytest.raises(ValueError):
            partition_indices(10, 2, alphas=[1.0, 0.0])

    def test_no_shuffle_contiguous(self):
        parts = partition_indices(10, 2, shuffle=False)
        assert np.array_equal(parts[0], np.arange(5))

    def test_reproducible(self):
        a = partition_indices(50, 4, rng=9)
        b = partition_indices(50, 4, rng=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestShard:
    def _make(self, n=10, d=3, L=2):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, d))
        return Shard(X=X, F=X.copy(), Z=np.zeros((n, L), dtype=np.uint8),
                     indices=np.arange(n))

    def test_n(self):
        assert self._make(7).n == 7

    def test_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            Shard(X=np.zeros((3, 2)), F=np.zeros((2, 2)),
                  Z=np.zeros((3, 1), dtype=np.uint8), indices=np.arange(3))

    def test_append(self):
        s = self._make(5)
        s.append(np.ones((2, 3)), np.ones((2, 3)),
                 np.ones((2, 2), dtype=np.uint8), np.array([100, 101]))
        assert s.n == 7 and s.indices[-1] == 101

    def test_drop(self):
        s = self._make(6)
        s.drop([0, 3])
        assert s.n == 4
        assert 0 not in s.indices and 3 not in s.indices


class TestMakeShards:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4))
        Z = rng.integers(0, 2, size=(20, 3)).astype(np.uint8)
        parts = partition_indices(20, 3, rng=0)
        shards = make_shards(X, X, Z, parts)
        gathered = np.vstack([s.X for s in shards])
        idx = np.concatenate([s.indices for s in shards])
        assert np.array_equal(gathered[np.argsort(idx)], X)

    def test_rejects_overlapping_parts(self):
        X = np.zeros((4, 2))
        Z = np.zeros((4, 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            make_shards(X, X, Z, [np.array([0, 1]), np.array([1, 2, 3])])

    def test_shards_are_copies(self):
        X = np.zeros((4, 2))
        Z = np.zeros((4, 1), dtype=np.uint8)
        shards = make_shards(X, X, Z, [np.array([0, 1]), np.array([2, 3])])
        shards[0].X[0, 0] = 5.0
        assert X[0, 0] == 0.0
