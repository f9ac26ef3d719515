"""Accounting invariants of the W/Z step statistics."""

import pytest

from repro.distributed.costmodel import CostModel

from .test_cluster import build_cluster


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=40)


class TestWStepStats:
    def test_per_machine_sums_match_totals(self, X):
        cluster, _ = build_cluster(X, P=4, cost=CostModel(t_wc=10.0))
        stats = cluster.w_step(0.1)
        assert sum(stats.per_machine_comp.values()) == pytest.approx(stats.comp_time)
        assert sum(stats.per_machine_comm.values()) == pytest.approx(stats.comm_time)

    def test_idle_time_nonnegative(self, X):
        for engine in ("sync", "async"):
            cluster, _ = build_cluster(X, P=3, engine=engine,
                                       cost=CostModel(t_wc=25.0))
            stats = cluster.w_step(0.1)
            assert stats.idle_time >= 0.0

    def test_sync_sim_time_bounds(self, X):
        # Slowest-machine bound: comp+comm of any machine <= sim_time * 1;
        # sim time <= total work (fully serialised upper bound).
        cluster, _ = build_cluster(X, P=4, cost=CostModel(t_wc=5.0))
        stats = cluster.w_step(0.1)
        busiest = max(
            stats.per_machine_comp[p] + stats.per_machine_comm[p]
            for p in stats.per_machine_comp
        )
        assert stats.sim_time >= busiest - 1e-9
        assert stats.sim_time <= stats.comp_time + stats.comm_time + 1e-9

    def test_ticks_counted_sync_only(self, X):
        s, _ = build_cluster(X, P=3)
        a, _ = build_cluster(X, P=3, engine="async")
        assert s.w_step(0.1).ticks > 0
        assert a.w_step(0.1).ticks == 0

    def test_no_comm_cost_zero_comm_time(self, X):
        cluster, _ = build_cluster(X, P=4, cost=CostModel(t_wc=0.0))
        stats = cluster.w_step(0.1)
        assert stats.comm_time == 0.0
        assert stats.bytes_sent > 0  # bytes counted regardless of cost


class TestZStepStats:
    def test_per_machine_times_cover_all_machines(self, X):
        cluster, _ = build_cluster(X, P=4)
        cluster.w_step(0.1)
        z = cluster.z_step(0.1)
        assert set(z.per_machine_time) == set(cluster.machines)
        assert z.sim_time == max(z.per_machine_time.values())

    def test_converged_z_step_reports_zero_changes(self, X):
        cluster, _ = build_cluster(X, P=3, seed=2)
        # Drive mu very high: Z snaps to h(X) and stays there.
        for mu in (1e-3, 1.0, 1e6):
            cluster.run_iteration(mu)
        z = cluster.z_step(1e6)
        assert z.z_changes == 0
