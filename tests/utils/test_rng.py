import numpy as np
import pytest

from repro.utils.rng import check_random_state, seed_entropy, spawn_rngs


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


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_streams_independent(self):
        rngs = spawn_rngs(0, 3)
        draws = [r.integers(0, 10**9, size=4) for r in rngs]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_reproducible_from_seed(self):
        a = [r.integers(0, 100, 3) for r in spawn_rngs(9, 2)]
        b = [r.integers(0, 100, 3) for r in spawn_rngs(9, 2)]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_from_generator_parent(self):
        parent = np.random.default_rng(3)
        rngs = spawn_rngs(parent, 4)
        assert len(rngs) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


class TestSeedEntropy:
    def test_none_stays_none(self):
        assert seed_entropy(None) is None

    def test_int_and_seedsequence_pass_through(self):
        assert seed_entropy(np.int64(17)) == 17
        assert seed_entropy(np.random.SeedSequence(99)) == 99

    def test_generator_digest_draws_nothing(self):
        g = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        assert seed_entropy(g) == seed_entropy(twin)
        assert np.array_equal(g.integers(0, 10**9, 6), twin.integers(0, 10**9, 6))

    def test_generator_digest_follows_its_state(self):
        g = np.random.default_rng(5)
        before = seed_entropy(g)
        g.random()
        assert seed_entropy(g) != before
        assert seed_entropy(np.random.default_rng(6)) != seed_entropy(
            np.random.default_rng(5)
        )

    def test_digest_seeds_a_sequence(self):
        ent = seed_entropy(np.random.default_rng(1))
        assert isinstance(np.random.SeedSequence(entropy=ent).generate_state(1), np.ndarray)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            seed_entropy(1.5)
