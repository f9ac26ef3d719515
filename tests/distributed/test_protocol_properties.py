"""Property-based checks over the whole protocol configuration space.

Hypothesis draws (P, e, M, scheme, shuffling) combinations and verifies
the structural invariants that make ParMAC correct regardless of
configuration: every machine ends with identical final submodels, each
submodel is trained on every shard exactly e times, and the virtual clock
is consistent between engines.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import TimingShard
from tests.fits import sim


def build(P, e, L, scheme, engine, shuffle_ring, seed=0, n=1000, D=8,
          groups=None):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba, n_decoder_groups=groups)
    base, extra = divmod(n, P)
    shards = [TimingShard(base + (1 if p < extra else 0)) for p in range(P)]
    return sim(
        adapter, shards, engine, epochs=e, scheme=scheme,
        shuffle_ring=shuffle_ring, cost=CostModel(t_wc=3.0),
        execute_updates=False, seed=seed,
    ), adapter


config = st.tuples(
    st.integers(1, 9),                       # P
    st.integers(1, 4),                       # e
    st.integers(1, 6),                       # L
    st.sampled_from(["rounds", "tworound"]),  # scheme
    st.sampled_from(["sync", "async"]),      # engine
    st.booleans(),                           # shuffle_ring
)


class TestProtocolProperties:
    @given(config)
    @settings(max_examples=60, deadline=None)
    def test_every_machine_holds_final_model(self, cfg):
        P, e, L, scheme, engine, shuf = cfg
        cluster, _ = build(P, e, L, scheme, engine, shuf)
        cluster.w_step(0.0)
        assert cluster.model_copies_consistent()

    @given(config)
    @settings(max_examples=60, deadline=None)
    def test_every_submodel_finishes_somewhere(self, cfg):
        # Stored copies are visit-time snapshots; the machine visited last
        # must hold a copy whose broadcast set is exhausted (done), and
        # every machine must hold a copy with completed training.
        P, e, L, scheme, engine, shuf = cfg
        cluster, adapter = build(P, e, L, scheme, engine, shuf)
        cluster.w_step(0.0)
        for spec in adapter.submodel_specs():
            copies = [
                cluster._stores[p][spec.sid] for p in cluster.machines
            ]
            assert any(c.done for c in copies)
            assert all(c.training_done for c in copies)

    @given(config)
    @settings(max_examples=40, deadline=None)
    def test_hop_count_formula(self, cfg):
        P, e, L, scheme, engine, shuf = cfg
        cluster, adapter = build(P, e, L, scheme, engine, shuf)
        stats = cluster.w_step(0.0)
        M = adapter.n_submodels
        if scheme == "rounds":
            expected = M * (P * (e + 1) - 2) if P > 1 else M * (e - 1)
        else:
            expected = M * (2 * P - 2) if P > 1 else 0
        assert stats.n_messages == expected

    @given(config)
    @settings(max_examples=40, deadline=None)
    def test_comp_time_independent_of_engine_and_shuffle(self, cfg):
        P, e, L, scheme, _, _ = cfg
        totals = []
        for engine in ("sync", "async"):
            for shuf in (False, True):
                cluster, _ = build(P, e, L, scheme, engine, shuf)
                totals.append(cluster.w_step(0.0).comp_time)
        assert np.allclose(totals, totals[0])

    @given(config, st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_given_seed(self, cfg, seed):
        P, e, L, scheme, engine, shuf = cfg
        a, _ = build(P, e, L, scheme, engine, shuf, seed=seed)
        b, _ = build(P, e, L, scheme, engine, shuf, seed=seed)
        assert a.w_step(0.0).sim_time == b.w_step(0.0).sim_time

    @given(st.integers(2, 8), st.integers(1, 3), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_async_never_slower_than_sync(self, P, e, L):
        # The tick barrier can only add idle time.
        s, _ = build(P, e, L, "rounds", "sync", False)
        a, _ = build(P, e, L, "rounds", "async", False)
        t_sync = s.w_step(0.0).sim_time
        t_async = a.w_step(0.0).sim_time
        assert t_async <= t_sync + 1e-9


class TestTimingOnlyZStep:
    def test_z_step_runs_the_clock_alone(self):
        # Timing shards hold a size and no data: a timing-only Z step must
        # charge the cost model without any adapter numerics.
        for engine in ("sync", "async"):
            cluster, _ = build(4, 2, 64, "rounds", engine, False, n=10**6)
            stats = cluster.z_step(0.5)
            assert sorted(stats.per_machine_time) == [0, 1, 2, 3]
            assert stats.sim_time > 0
            assert (stats.z_changes, stats.e_q, stats.e_ba, stats.violations) == (0, 0, 0, 0)
