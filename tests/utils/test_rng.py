import numpy as np
import pytest

from repro.utils.rng import check_random_state, keyed_rng


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = check_random_state(42).integers(0, 1000, size=10)
        b = check_random_state(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = check_random_state(1).integers(0, 10**9, size=8)
        b = check_random_state(2).integers(0, 10**9, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert check_random_state(g) is g

    def test_seedsequence_accepted(self):
        ss = np.random.SeedSequence(5)
        assert isinstance(check_random_state(ss), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            check_random_state("not a seed")


class TestKeyedRng:
    def test_a_pure_function_of_the_key(self):
        a = keyed_rng(0, 3, 1, 2, 0, 0).permutation(50)
        assert np.array_equal(keyed_rng(0, 3, 1, 2, 0, 0).permutation(50), a)
        assert np.array_equal(
            keyed_rng(np.int64(0), 3, 1, 2, 0, 0).permutation(50), a
        )

    def test_every_key_position_matters(self):
        base = (5, 3, 1, 2, 0, 0)
        draws = {tuple(keyed_rng(*base).permutation(40))}
        for i in range(len(base)):
            key = list(base)
            key[i] += 1
            draws.add(tuple(keyed_rng(*key).permutation(40)))
        assert len(draws) == len(base) + 1

    def test_a_fresh_key_root_is_accepted(self):
        root = np.random.SeedSequence().entropy  # 128 bits
        assert len(keyed_rng(root, 0, 1).permutation(7)) == 7
