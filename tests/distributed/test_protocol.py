import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.protocol import (
    RoutePlan,
    WStepProtocol,
    expected_receives,
    expected_senders,
    home_assignment,
)
from repro.distributed.topology import RingTopology
from repro.utils.rng import keyed_rng


class TestCounterSemantics:
    """Paper section 4.1: train while counter <= Pe; total visits P(e+1)-1."""

    def test_total_visits_rounds(self):
        proto = WStepProtocol(4, 2)
        assert proto.total_visits == 4 * 3 - 1  # P(e+1) - 1

    def test_total_visits_tworound(self):
        proto = WStepProtocol(4, 2, "tworound")
        assert proto.total_visits == 2 * 4 - 1

    @given(st.integers(1, 10), st.integers(1, 5))
    @settings(max_examples=30)
    def test_training_visit_count(self, P, e):
        proto = WStepProtocol(P, e)
        trained = sum(proto.train_passes(c) for c in range(1, proto.total_visits + 1))
        assert trained == P * e  # e full passes over all machines

    @given(st.integers(1, 10), st.integers(1, 5))
    @settings(max_examples=30)
    def test_tworound_same_total_passes(self, P, e):
        # The two schemes perform identical total SGD passes.
        proto = WStepProtocol(P, e, "tworound")
        trained = sum(proto.train_passes(c) for c in range(1, proto.total_visits + 1))
        assert trained == P * e

    def test_final_from_last_training_visit(self):
        proto = WStepProtocol(4, 2)
        assert not proto.is_final(7)
        assert proto.is_final(8)  # counter == Pe
        assert proto.is_final(11)

    def test_forward_until_last_visit(self):
        proto = WStepProtocol(4, 1)
        assert proto.should_forward(6)
        assert not proto.should_forward(7)  # == total_visits

    def test_communication_rounds(self):
        assert WStepProtocol(8, 3).communication_rounds() == 4  # e+1
        assert WStepProtocol(8, 3, "tworound").communication_rounds() == 2

    def test_counter_out_of_range_raises(self):
        proto = WStepProtocol(4, 1)
        with pytest.raises(ValueError):
            proto.train_passes(0)
        with pytest.raises(ValueError):
            proto.train_passes(proto.total_visits + 1)

    def test_p1_degenerate(self):
        proto = WStepProtocol(1, 3)
        assert proto.total_visits == 3
        assert all(proto.train_passes(c) == 1 for c in (1, 2, 3))
        assert not proto.should_forward(3)

    @pytest.mark.parametrize("P", [2, 3])
    @pytest.mark.parametrize("e", [2, 3])
    @pytest.mark.parametrize("scheme", ["rounds", "tworound"])
    def test_hop_epoch_follows_the_laps(self, scheme, e, P):
        # The paper's laps, written out: "rounds" (section 4.1) makes e
        # training laps of P visits, each on its own epoch's ring, then
        # a broadcast lap on ring e; "tworound" (section 4.2) makes one
        # training lap on ring 0 and broadcasts on ring 1. The hop after
        # visit c delivers visit c + 1, so it rides that visit's lap's
        # ring: min(c // P, e) and min(c // P, 1) respectively.
        laps = list(range(e + 1)) if scheme == "rounds" else [0, 1]
        ring_of_visit = [lap for lap in laps for _ in range(P)]  # visit v at [v - 1]
        proto = WStepProtocol(P, e, scheme)
        for c in range(1, proto.total_visits):
            assert proto.hop_epoch(c) == ring_of_visit[c], (c, ring_of_visit)
        assert proto.n_rings == len(laps)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            WStepProtocol(0, 1)
        with pytest.raises(ValueError):
            WStepProtocol(2, 0)
        with pytest.raises(ValueError):
            WStepProtocol(2, 1, "threeround")


class TestRoutePlan:
    def test_fixed_path_visits_all_machines_each_epoch(self):
        proto = WStepProtocol(5, 2)
        plan = RoutePlan.fixed(RingTopology.identity(5), proto)
        path = plan.path(home=2)
        assert len(path) == proto.total_visits
        # Each training epoch visits every machine exactly once.
        assert sorted(path[:5]) == list(range(5))
        assert sorted(path[5:10]) == list(range(5))

    def test_shuffled_path_still_covers_every_epoch(self):
        proto = WStepProtocol(6, 3)
        plan = RoutePlan.shuffled(range(6), proto, 0, 0)
        path = plan.path(home=0)
        for epoch in range(3):
            assert sorted(path[epoch * 6 : (epoch + 1) * 6]) == list(range(6))

    def test_broadcast_lap_covers_remaining_machines(self):
        proto = WStepProtocol(4, 1)
        plan = RoutePlan.fixed(RingTopology.identity(4), proto)
        path = plan.path(home=1)
        # Last P-1 visits, together with the final training machine, cover all.
        assert sorted(set(path[-3:]) | {path[3]}) == sorted(set(range(4)) - set())

    def test_ring_count_validation(self):
        proto = WStepProtocol(3, 2)
        with pytest.raises(ValueError, match="rings"):
            RoutePlan([RingTopology.identity(3)], proto)

    def test_rings_must_share_machines(self):
        proto = WStepProtocol(3, 1)
        with pytest.raises(ValueError, match="same machines"):
            RoutePlan([RingTopology.identity(3), RingTopology([0, 1, 4])], proto)

    def test_shuffled_plan_is_keyed_on_seed_iteration_and_epoch(self):
        # Epoch e's ring is RingTopology.random over keyed_rng(seed,
        # iteration, e): the same plan for the same key, on any engine.
        proto = WStepProtocol(6, 2)
        plan = RoutePlan.shuffled(range(6), proto, 7, 3)
        want = [RingTopology.random(range(6), keyed_rng(7, 3, e)).machines for e in range(3)]
        assert plan.to_orders() == want
        assert RoutePlan.shuffled(range(6), proto, 7, 3).to_orders() == want
        assert RoutePlan.shuffled(range(6), proto, 7, 4).to_orders() != want

    @pytest.mark.parametrize("scheme", ["rounds", "tworound"])
    def test_orders_round_trip_the_plan(self, scheme):
        # What the coordinator ships to workers each iteration: plain
        # per-epoch orders, rebuilt against the protocol the worker holds.
        proto = WStepProtocol(5, 3, scheme=scheme)
        plan = RoutePlan.shuffled(range(5), proto, 4, 0)
        orders = plan.to_orders()
        assert len(orders) == proto.n_rings
        assert all(isinstance(m, int) for order in orders for m in order)
        back = RoutePlan.from_orders(orders, proto)
        assert back.to_orders() == orders
        assert all(back.path(h) == plan.path(h) for h in range(5))


class TestHomeAssignment:
    def test_contiguous_blocks(self):
        homes = home_assignment(8, 4)
        assert [homes[i] for i in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_uneven_split_covers_all_machines(self):
        homes = home_assignment(7, 3)
        assert set(homes.values()) == {0, 1, 2}


class TestExpectedReceives:
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=40)
    def test_total_receives_identity(self, P, e, M):
        proto = WStepProtocol(P, e)
        plan = RoutePlan.fixed(RingTopology.identity(P), proto)
        homes = {sid: sid * P // M for sid in range(M)}
        counts = expected_receives(plan, homes)
        # Each submodel is received total_visits - 1 times (first visit is local).
        assert sum(counts.values()) == M * (proto.total_visits - 1)

    def test_offset_formula_identity_ring(self):
        # For the identity ring: home gets e receives, offsets 1..P-2 get
        # e+1, offset P-1 gets e.
        P, e = 5, 2
        proto = WStepProtocol(P, e)
        plan = RoutePlan.fixed(RingTopology.identity(P), proto)
        counts = expected_receives(plan, {0: 0})  # one submodel homed at 0
        assert counts[0] == e
        assert counts[P - 1] == e
        for p in range(1, P - 1):
            assert counts[p] == e + 1

    def test_shuffled_plan_counts_match_path(self):
        proto = WStepProtocol(4, 2)
        plan = RoutePlan.shuffled(range(4), proto, 3, 0)
        homes = {0: 0, 1: 2}
        counts = expected_receives(plan, homes)
        manual = {p: 0 for p in range(4)}
        for home in homes.values():
            for p in plan.path(home)[1:]:
                manual[p] += 1
        assert counts == manual

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 8), st.integers(0, 9),
           st.sampled_from(["rounds", "tworound"]))
    @settings(max_examples=40)
    def test_per_sender_split_sums_to_receives(self, P, e, M, seed, scheme):
        proto = WStepProtocol(P, e, scheme)
        plan = RoutePlan.shuffled(range(P), proto, seed, 0)
        homes = home_assignment(M, P)
        counts = expected_receives(plan, homes)
        for machine in range(P):
            senders = expected_senders(plan, homes, machine)
            assert sum(senders.values()) == counts[machine]
            if P > 1:  # on a ring of two or more nobody sends to itself
                assert machine not in senders
