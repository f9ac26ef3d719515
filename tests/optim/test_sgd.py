import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optim.sgd import SGDState, minibatch_indices, sgd_epoch


class TestSGDState:
    def test_advance(self):
        s = SGDState()
        s.advance(10)
        s.advance(5)
        assert s.t == 2 and s.n_updates == 15

    def test_advance_many_steps_at_once(self):
        s = SGDState(t=4, n_updates=7)
        s.advance(130, steps=3)
        assert s == SGDState(t=7, n_updates=137)

    def test_copy_independent(self):
        s = SGDState(t=3, n_updates=30)
        c = s.copy()
        c.advance(1)
        assert s.t == 3 and c.t == 4


class TestMinibatchIndices:
    @given(st.integers(0, 200), st.integers(1, 50))
    def test_partition_covers_exactly_once(self, n, bs):
        batches = list(minibatch_indices(n, bs, shuffle=True, rng=0))
        flat = np.concatenate(batches) if batches else np.array([], dtype=int)
        assert sorted(flat.tolist()) == list(range(n))

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_batch_sizes(self, n, bs):
        batches = list(minibatch_indices(n, bs, shuffle=False))
        assert all(len(b) == bs for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= bs

    def test_no_shuffle_is_ordered(self):
        batches = list(minibatch_indices(10, 4, shuffle=False))
        assert np.array_equal(np.concatenate(batches), np.arange(10))

    def test_shuffle_reproducible(self):
        a = list(minibatch_indices(50, 8, shuffle=True, rng=3))
        b = list(minibatch_indices(50, 8, shuffle=True, rng=3))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            minibatch_indices(-1, 4)
        with pytest.raises(ValueError):
            minibatch_indices(10, 0)

    def test_batches_are_lazy(self):
        # The epoch is a generator: nothing (beyond validation) happens at
        # call time, and batches materialise one at a time.
        import types

        gen = minibatch_indices(10**9, 64, shuffle=False)
        assert isinstance(gen, types.GeneratorType)
        first = next(gen)
        assert np.array_equal(first, np.arange(64))
        assert len(next(gen)) == 64

    def test_shuffle_order_drawn_once_before_first_batch(self):
        # The permutation must come off the RNG exactly once, at first
        # consumption — so interleaved RNG use after the first batch does
        # not perturb the epoch's draw order.
        rng = np.random.default_rng(3)
        expect = np.arange(50)
        np.random.default_rng(3).shuffle(expect)  # same stream, eager
        gen = minibatch_indices(50, 8, shuffle=True, rng=rng)
        got = [next(gen)]
        rng.integers(0, 10, size=5)  # unrelated draw mid-epoch
        got.extend(gen)
        assert np.array_equal(np.concatenate(got), expect)

    def test_validation_is_eager(self):
        # Bad arguments fail at the call site, not at first next().
        with pytest.raises(ValueError):
            minibatch_indices(10, -3, shuffle=False)


class TestSgdEpoch:
    def test_calls_update_with_increasing_t(self):
        seen = []
        state = SGDState(t=7)
        sgd_epoch(lambda idx, t: seen.append(t), 10, state, batch_size=3, shuffle=False)
        assert seen == [7, 8, 9, 10]
        assert state.t == 11 and state.n_updates == 10

    def test_state_persists_across_epochs(self):
        # The travelling-submodel property: counters continue across visits.
        state = SGDState()
        for _ in range(3):
            sgd_epoch(lambda idx, t: None, 8, state, batch_size=4)
        assert state.t == 6 and state.n_updates == 24

    def test_empty_shard_is_noop(self):
        state = SGDState(t=5)
        sgd_epoch(lambda idx, t: 1 / 0, 0, state, batch_size=4)
        assert state.t == 5
