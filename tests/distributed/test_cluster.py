"""The simulated cluster (``sync``/``async`` backends): protocol
invariants, determinism, virtual-clock laws."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.distributed.backends.sim import FaultEvent
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import make_shards, partition_indices
from tests.fits import sim


def build_cluster(
    X,
    n_bits=4,
    P=4,
    epochs=1,
    engine="sync",
    cost=None,
    seed=0,
    equal_shards=False,
    **kwargs,
):
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed, shuffle=not equal_shards)
    shards = make_shards(X, adapter.features(X), Z, parts)
    cluster = sim(
        adapter,
        shards,
        engine,
        epochs=epochs,
        cost=cost if cost is not None else CostModel(),
        seed=seed,
        **kwargs,
    )
    return cluster, adapter


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(160, 10, n_clusters=4, rng=3)


class TestWStepInvariants:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    @pytest.mark.parametrize("P", [1, 2, 4, 5])
    def test_all_machines_hold_final_model(self, X, engine, P):
        cluster, _ = build_cluster(X, P=P, engine=engine)
        cluster.w_step(mu=0.1)
        assert cluster.model_copies_consistent()

    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_counter_reaches_total_visits(self, X, engine):
        P, e = 4, 2
        cluster, adapter = build_cluster(X, P=P, epochs=e, engine=engine)
        cluster.w_step(mu=0.1)
        total_visits = P * (e + 1) - 1
        for p in cluster.machines:
            for sid, msg in cluster._stores[p].items():
                # The final copy each machine holds was stamped at some
                # visit >= the last training visit.
                assert msg.counter <= total_visits
        maxes = [
            max(m.counter for m in cluster._stores[p].values())
            for p in cluster.machines
        ]
        assert max(maxes) == total_visits

    def test_sgd_touches_all_points_per_epoch(self, X):
        # Each submodel's SGD state must have seen e * N examples.
        e = 3
        cluster, adapter = build_cluster(X, P=4, epochs=e)
        cluster.w_step(mu=0.1)
        store = cluster._stores[cluster.machines[0]]
        for spec in adapter.submodel_specs():
            assert store[spec.sid].sgd_state.n_updates == e * len(X)

    def test_assemble_writes_model(self, X):
        cluster, adapter = build_cluster(X, P=3)
        A_before = adapter.model.encoder.A.copy()
        cluster.w_step(mu=0.1)
        assert not np.array_equal(adapter.model.encoder.A, A_before)

    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_deterministic_given_seed(self, X, engine):
        a, ad_a = build_cluster(X, P=4, engine=engine, seed=11)
        b, ad_b = build_cluster(X, P=4, engine=engine, seed=11)
        a.w_step(0.1)
        b.w_step(0.1)
        assert np.array_equal(ad_a.model.encoder.A, ad_b.model.encoder.A)
        assert np.array_equal(ad_a.model.decoder.B, ad_b.model.decoder.B)

    def test_message_hops_rounds_scheme(self, X):
        # Hops per submodel = total_visits - 1 = P(e+1) - 2.
        P, e = 4, 2
        cluster, adapter = build_cluster(X, P=P, epochs=e)
        stats = cluster.w_step(0.1)
        M = adapter.n_submodels
        assert stats.n_messages == M * (P * (e + 1) - 2)

    def test_message_hops_tworound_scheme(self, X):
        P, e = 4, 3
        cluster, adapter = build_cluster(X, P=P, epochs=e, scheme="tworound")
        stats = cluster.w_step(0.1)
        M = adapter.n_submodels
        assert stats.n_messages == M * (2 * P - 2)

    def test_tworound_trains_same_total_passes(self, X):
        e = 3
        cluster, adapter = build_cluster(X, P=4, epochs=e, scheme="tworound")
        cluster.w_step(0.1)
        store = cluster._stores[cluster.machines[0]]
        for spec in adapter.submodel_specs():
            assert store[spec.sid].sgd_state.n_updates == e * len(X)

    def test_shuffle_ring_keeps_invariants(self, X):
        cluster, _ = build_cluster(X, P=5, epochs=2, shuffle_ring=True)
        cluster.w_step(0.1)
        assert cluster.model_copies_consistent()

    def test_no_data_communicated(self, X):
        # bytes_sent counts only parameter payloads: per submodel, hops *
        # theta bytes; far smaller than the data.
        P, e = 4, 1
        cluster, adapter = build_cluster(X, P=P, epochs=e)
        stats = cluster.w_step(0.1)
        expected = sum(
            (P * (e + 1) - 2) * adapter.get_params(s).nbytes
            for s in adapter.submodel_specs()
        )
        assert stats.bytes_sent == expected
        assert stats.bytes_sent < X.nbytes


class TestVirtualClock:
    def test_pure_compute_sync_time(self, X):
        # t_wc = 0, equal shards, M divisible by P: every tick costs
        # (M/P) * n_p * t_wr, over P*e training ticks -> M e n_p t_wr.
        P, e = 4, 2
        cost = CostModel(t_wr=1.0, t_wc=0.0, t_zr=1.0)
        cluster, adapter = build_cluster(
            X, n_bits=4, P=P, epochs=e, cost=cost, equal_shards=True
        )
        n_p = len(X) // P
        stats = cluster.w_step(0.1)
        M = adapter.n_submodels
        assert stats.sim_time == pytest.approx(M * e * n_p * 1.0)

    def test_single_machine_time_matches_theory(self, X):
        # T(1) = M N e t_wr + M N t_zr (eq. 10), no communication.
        cost = CostModel(t_wr=2.0, t_wc=500.0, t_zr=3.0)
        cluster, adapter = build_cluster(X, P=1, epochs=2, cost=cost)
        w = cluster.w_step(0.1)
        z = cluster.z_step(0.1)
        M, N = adapter.n_submodels, len(X)
        assert w.sim_time == pytest.approx(M * N * 2 * 2.0)
        assert z.sim_time == pytest.approx(M * N * 3.0)
        assert w.comm_time == 0.0

    def test_z_step_time_formula(self, X):
        # Per machine: M * n_p * t_zr; sim time = slowest machine.
        cost = CostModel(t_zr=2.0)
        cluster, adapter = build_cluster(X, P=4, cost=cost, equal_shards=True)
        cluster.w_step(0.1)
        z = cluster.z_step(0.1)
        n_p = max(s.n for s in cluster.shards.values())
        assert z.sim_time == pytest.approx(adapter.n_submodels * n_p * 2.0)

    def test_sync_w_time_close_to_theory_with_comm(self, X):
        # With comm the engine time must track eq. (8) closely (the theory
        # overcounts the final broadcast round by construction).
        from repro.perfmodel.speedup import SpeedupParams, t_w

        P, e = 4, 1
        cost = CostModel(t_wr=1.0, t_wc=50.0, t_zr=1.0)
        cluster, adapter = build_cluster(
            X, P=P, epochs=e, cost=cost, equal_shards=True
        )
        stats = cluster.w_step(0.1)
        params = SpeedupParams(N=len(X), M=adapter.n_submodels, e=e,
                               t_wr=1.0, t_wc=50.0, t_zr=1.0)
        theory = t_w(P, params)
        assert stats.sim_time <= theory
        assert stats.sim_time >= 0.8 * theory

    def test_heterogeneous_speeds_balance(self, X):
        # A machine twice as fast with twice the data finishes the Z step
        # simultaneously with the others (load balancing, section 4.3).
        alphas = [2.0, 1.0, 1.0]
        ba = BinaryAutoencoder.linear(X.shape[1], 4)
        adapter = BAAdapter(ba)
        Z, _ = init_codes_pca(X, 4, rng=0)
        parts = partition_indices(len(X), 3, alphas=alphas, rng=0)
        shards = make_shards(X, X, Z, parts)
        cost = CostModel(t_zr=1.0, speeds={0: 2.0, 1: 1.0, 2: 1.0})
        cluster = sim(adapter, shards, cost=cost, seed=0)
        z = cluster.z_step(0.1)
        times = list(z.per_machine_time.values())
        assert max(times) / min(times) == pytest.approx(1.0, rel=0.05)


class TestZStep:
    def test_z_step_never_increases_e_q(self, X):
        cluster, _ = build_cluster(X, P=3)
        cluster.w_step(0.5)
        before = cluster.stats(0.5)[0]
        cluster.z_step(0.5)
        assert cluster.stats(0.5)[0] <= before + 1e-9

    def test_z_changes_reported(self, X):
        cluster, _ = build_cluster(X, P=3)
        cluster.w_step(0.5)
        codes_before = cluster.gather_codes()[1].copy()
        z = cluster.z_step(0.5)
        codes_after = cluster.gather_codes()[1]
        assert z.z_changes == int((codes_before != codes_after).sum())

    def test_gather_codes_ordered(self, X):
        cluster, _ = build_cluster(X, P=4)
        idx, Z = cluster.gather_codes()
        assert np.array_equal(idx, np.arange(len(X)))
        assert Z.shape == (len(X), 4)


class TestIterationLoop:
    def test_e_q_decreases_over_iterations(self, X):
        cluster, _ = build_cluster(X, P=4, seed=1)
        mus = [1e-3 * 2**i for i in range(5)]
        eqs = []
        for mu in mus:
            eqs.append(cluster.run_iteration(mu).e_q)
        assert eqs[-1] < eqs[0]

    def test_invalid_engine_rejected(self, X):
        with pytest.raises(ValueError):
            build_cluster(X, engine="quantum")

    def test_async_rejects_fault(self, X):
        cluster, _ = build_cluster(X, engine="async")
        with pytest.raises(ValueError, match="sync"):
            cluster.w_step(0.1, fault=FaultEvent(machine=1, tick=1))
