import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.topology import RingTopology


class TestConstruction:
    def test_identity_ring(self):
        ring = RingTopology.identity(4)
        assert [ring.successor(p) for p in range(4)] == [1, 2, 3, 0]

    def test_single_machine_self_loop(self):
        ring = RingTopology.identity(1)
        assert ring.successor(0) == 0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RingTopology([0, 1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RingTopology([])

    @given(st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_random_ring_is_single_cycle(self, P, seed):
        ring = RingTopology.random(range(P), rng=seed)
        ring.validate()  # raises on sub-cycles / missing machines

    def test_random_ring_is_hamiltonian_cycle_networkx(self):
        ring = RingTopology.random(range(12), rng=0)
        G = nx.DiGraph((p, ring.successor(p)) for p in range(12))
        cycles = list(nx.simple_cycles(G))
        assert len(cycles) == 1 and len(cycles[0]) == 12


class TestNavigation:
    def test_predecessor_inverse_of_successor(self):
        ring = RingTopology.random(range(9), rng=1)
        for p in range(9):
            assert ring.predecessor(ring.successor(p)) == p

    def test_unknown_machine_raises(self):
        ring = RingTopology.identity(3)
        with pytest.raises(KeyError):
            ring.successor(7)
        with pytest.raises(KeyError):
            ring.predecessor(7)

    def test_contains(self):
        ring = RingTopology([3, 5, 9])
        assert 5 in ring and 4 not in ring


class TestModification:
    def test_with_machine_at_end(self):
        ring = RingTopology.identity(3).with_machine(7)
        ring.validate()
        assert ring.n_machines == 4
        assert ring.successor(2) == 7 and ring.successor(7) == 0

    def test_with_machine_after(self):
        ring = RingTopology.identity(3).with_machine(9, after=0)
        assert ring.successor(0) == 9 and ring.successor(9) == 1

    def test_with_machine_rejects_existing(self):
        with pytest.raises(ValueError):
            RingTopology.identity(3).with_machine(1)

    def test_without_machine_reconnects(self):
        ring = RingTopology.identity(4).without_machine(2)
        ring.validate()
        assert ring.successor(1) == 3

    def test_without_machine_rejects_last(self):
        with pytest.raises(ValueError):
            RingTopology.identity(1).without_machine(0)

    def test_operations_do_not_mutate(self):
        ring = RingTopology.identity(4)
        ring.with_machine(9)
        ring.without_machine(2)
        assert ring.n_machines == 4
