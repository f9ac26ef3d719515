"""The discrete-event engine reproduces the analytical speedup (fig. 10).

The async engine executes the real ring protocol with virtual-clock costs;
its measured speedup must agree with the section-5 model — near-perfect up
to P = M, then saturating — exactly the comparison the paper draws between
its experimental (top) and theoretical (bottom) rows of fig. 10.
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import Shard, partition_indices
from repro.perfmodel.speedup import SpeedupParams, speedup
from tests.fits import sim


def timing_cluster(N, n_bits, D, P, e, cost, engine="async"):
    """Timing-only cluster (no numerics) with equal shards."""
    ba = BinaryAutoencoder.linear(D, n_bits)
    adapter = BAAdapter(ba)
    parts = partition_indices(N, P, shuffle=False)
    shards = [
        Shard(
            X=np.zeros((len(idx), D)),
            F=np.zeros((len(idx), D)),
            Z=np.zeros((len(idx), n_bits), dtype=np.uint8),
            indices=idx,
        )
        for idx in parts
    ]
    return sim(
        adapter, shards, engine, epochs=e, cost=cost,
        execute_updates=False, seed=0,
    ), adapter


def measure_iteration_time(N, n_bits, D, P, e, cost):
    cluster, _ = timing_cluster(N, n_bits, D, P, e, cost)
    w = cluster.w_step(0.0)
    z = cluster.z_step(0.0)
    return w.sim_time + z.sim_time


class TestEngineVsTheory:
    @pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
    def test_divisible_P_matches_model(self, P):
        # M = 2L = 32 submodels; equal shards; divisible P.
        N, L, D, e = 3200, 16, 20, 1
        cost = CostModel(t_wr=1.0, t_wc=100.0, t_zr=5.0)
        T1 = measure_iteration_time(N, L, D, 1, e, cost)
        TP = measure_iteration_time(N, L, D, P, e, cost)
        measured = T1 / TP
        params = SpeedupParams(N=N, M=2 * L, e=e, t_wr=1.0, t_wc=100.0, t_zr=5.0)
        predicted = float(speedup(P, params))
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_speedup_saturates_past_M(self):
        # Engine speedup keeps the fig. 4 shape: grows to ~M, then flattens.
        N, L, D, e = 1600, 4, 10, 1  # M = 8
        cost = CostModel(t_wr=1.0, t_wc=200.0, t_zr=2.0)
        T1 = measure_iteration_time(N, L, D, 1, e, cost)
        S = {P: T1 / measure_iteration_time(N, L, D, P, e, cost)
             for P in (2, 4, 8, 16, 32)}
        assert S[4] > S[2]
        assert S[8] > S[4]
        # Past M the gains are marginal at best.
        assert S[32] < S[8] * 2.0

    def test_more_epochs_lower_speedup(self):
        # Fig. 10: "the speedups flatten as the number of epochs (and
        # consequently the amount of communication) increases".
        N, L, D = 1600, 8, 10
        cost = CostModel(t_wr=1.0, t_wc=500.0, t_zr=1.0)
        speeds = {}
        for e in (1, 4):
            T1 = measure_iteration_time(N, L, D, 1, e, cost)
            TP = measure_iteration_time(N, L, D, 8, e, cost)
            speeds[e] = T1 / TP
        assert speeds[4] < speeds[1]

    def test_dominant_z_step_perfect_speedup(self):
        # Section 5.2: t_zr >> t_wr, t_wc implies S(P) ~= P.
        N, L, D, e = 1600, 4, 10, 1
        cost = CostModel(t_wr=1.0, t_wc=10.0, t_zr=10_000.0)
        T1 = measure_iteration_time(N, L, D, 1, e, cost)
        for P in (2, 4, 8):
            S = T1 / measure_iteration_time(N, L, D, P, e, cost)
            assert S == pytest.approx(P, rel=0.05)

    def test_sync_and_async_agree_on_symmetric_workload(self):
        N, L, D, e = 1600, 8, 10, 2
        cost = CostModel(t_wr=1.0, t_wc=50.0, t_zr=3.0)
        c_sync, _ = timing_cluster(N, L, D, 4, e, cost, engine="sync")
        c_async, _ = timing_cluster(N, L, D, 4, e, cost, engine="async")
        t_sync = c_sync.w_step(0.0).sim_time
        t_async = c_async.w_step(0.0).sim_time
        # The async engine can only be as fast or faster (no tick barriers).
        assert t_async <= t_sync * 1.01
        assert t_async >= 0.5 * t_sync

    def test_tworound_cuts_communication(self):
        # Section 4.2: e epochs in 2 rounds instead of e+1.
        N, L, D, e = 1600, 8, 10, 4
        cost = CostModel(t_wr=1.0, t_wc=1000.0, t_zr=1.0)
        c_rounds, _ = timing_cluster(N, L, D, 8, e, cost)
        c_two, _ = timing_cluster(N, L, D, 8, e, cost)
        c_two.scheme = "tworound"
        w_rounds = c_rounds.w_step(0.0)
        w_two = c_two.w_step(0.0)
        assert w_two.comm_time < w_rounds.comm_time * 0.6
        assert w_two.sim_time < w_rounds.sim_time
