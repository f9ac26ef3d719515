"""Self-healing under ``fault_policy="respawn"``.

The recovery contract: a worker killed mid-iteration is *replaced* — the
coordinator restores the lost shard and submodels from the
iteration-boundary snapshot, rewinds the route RNG, and retries the
iteration — so the fit completes with **zero shards lost** and a final
model **bit-identical** to an uninterrupted run. Crash schedules
(:class:`~repro.distributed.chaos.CrashEvent`) make the kills
deterministic and engine-portable: the simulated engines absorb the same
schedule (no process to kill) with identical numerics, which is what
makes the cross-engine conformance here meaningful.

Escalation is part of the contract too: a worker that dies *again* on
every respawn attempt burns the ``respawn_budget`` and is then retired
like ``drop_shard`` would — degraded beats dead, dead beats wrong.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import available_backends, get_backend
from repro.distributed.chaos import ChaosConfig, CrashEvent

from tests.distributed.test_wallclock_faults import (
    FAULT_DETECTION_TIMEOUT_S,
    WALLCLOCK_BACKENDS,
    ba_setup,
    killable_setup,
    shm_entries,
)

BACKENDS = available_backends()
REFERENCE = "sync"

#: Generous hard cap: every stall is caught by the health plane or the
#: respawn retry loop long before this fires.
TIMEOUT_S = FAULT_DETECTION_TIMEOUT_S * 3

#: Fast heartbeat plane for test-sized iterations.
HEALTH = {"interval_s": 0.05, "slow_after_s": 0.5, "stalled_after_s": 30.0}


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


def run_fit(
    X,
    backend,
    *,
    crashes=(),
    fault_policy="respawn",
    n_iters=4,
    P=3,
    shuffle_within=True,
    health=None,
    setup=ba_setup,
    **backend_options,
):
    """One fit; returns (history, final submodel params)."""
    adapter, shards = setup(X, P=P)
    chaos = ChaosConfig(crashes=tuple(crashes)) if crashes else None
    if backend in WALLCLOCK_BACKENDS:
        backend_options.setdefault("worker_timeout", TIMEOUT_S)
    with ParMACTrainer(
        adapter,
        GeometricSchedule(1e-3, 2.0, n_iters),
        backend=backend,
        epochs=2,
        shuffle_within=shuffle_within,
        seed=0,
        chaos=chaos,
        fault_policy=fault_policy,
        backend_options={"health": health, **backend_options},
    ) as trainer:
        history = trainer.fit(shards)
    params = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
    return history, params


def assert_same_params(got, ref, label):
    assert set(got) == set(ref)
    for sid in ref:
        assert np.array_equal(got[sid], ref[sid]), (label, sid)


# ------------------------------------------------------- wall-clock respawn
@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestRespawnBitIdentity:
    @pytest.mark.parametrize("point", ["w", "z"])
    def test_mid_iteration_kill_completes_bit_identical(self, X, name, point):
        """The acceptance headline: SIGKILL a worker mid-iteration (at
        the W-step start, mid-ring; or at the Z step, after its last ring
        send) — the fit completes with zero shards lost and the final
        model matches the uninterrupted run bit for bit."""
        ref_history, ref = run_fit(X, name)
        shm_before = shm_entries()
        history, got = run_fit(
            X, name, crashes=[CrashEvent(machine=1, iteration=1, point=point)]
        )
        assert len(history) == len(ref_history) == 4
        assert [r.extra["shards_lost"] for r in history.records] == [0, 0, 0, 0]
        assert [r.extra["n_machines"] for r in history.records] == [3, 3, 3, 3]
        assert [r.extra["respawns"] for r in history.records] == [0, 1, 0, 0]
        assert_same_params(got, ref, (name, point))
        # The rebuilt pool leaked nothing: segments were re-packed once
        # per respawn and the old generation unlinked.
        assert shm_entries() <= shm_before

    def test_sigkill_storm(self, X, name):
        """Repeated kills across iterations — different machines, both
        crash points, including the model-holding rank — each one healed
        by a fresh respawn, final bits unchanged."""
        storm = [
            CrashEvent(machine=0, iteration=0, point="w"),
            CrashEvent(machine=2, iteration=1, point="z"),
            CrashEvent(machine=1, iteration=2, point="w"),
        ]
        _, ref = run_fit(X, name)
        history, got = run_fit(X, name, crashes=storm)
        assert len(history) == 4
        assert [r.extra["respawns"] for r in history.records] == [1, 1, 1, 0]
        assert sum(r.extra["shards_lost"] for r in history.records) == 0
        assert history.records[-1].extra["n_machines"] == 3
        assert_same_params(got, ref, name)

    def test_two_workers_killed_same_iteration(self, X, name):
        """Two peers dying in the same attempt heal in one rebuild."""
        ref_history, ref = run_fit(X, name)
        history, got = run_fit(
            X,
            name,
            crashes=[
                CrashEvent(machine=0, iteration=1, point="w"),
                CrashEvent(machine=2, iteration=1, point="w"),
            ],
        )
        assert len(history) == 4
        assert history.records[1].extra["respawns"] == 1
        assert sum(r.extra["shards_lost"] for r in history.records) == 0
        assert_same_params(got, ref, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestRespawnEscalation:
    def test_budget_exhaustion_escalates_to_drop(self, X, name):
        """A worker that re-kills itself on *every* respawn (the marked
        shard is faithfully restored, marker included) burns the budget
        and is then retired drop_shard-style: the fit still completes,
        one shard lost, survivors intact."""
        budget = 2

        def setup(X, P=3):
            return killable_setup(X, P=P, kills={1: 2e-3})

        history, params = run_fit(
            X, name, setup=setup, respawn_budget=budget, n_iters=4
        )
        assert len(history) == 4
        fatal = history.records[1]
        assert fatal.extra["respawns"] == budget
        assert fatal.extra["shards_lost"] == 1
        assert [r.extra["shards_lost"] for r in history.records] == [0, 1, 0, 0]
        assert [r.extra["n_machines"] for r in history.records] == [3, 2, 2, 2]
        assert all(np.isfinite(r.e_q) for r in history.records)
        for sid, p in params.items():
            assert np.all(np.isfinite(p)), sid

    def test_zero_budget_is_immediate_drop(self, X, name):
        """``respawn_budget=0`` degenerates to drop_shard semantics."""
        crashes = [CrashEvent(machine=1, iteration=1, point="w")]
        history, _ = run_fit(X, name, crashes=crashes, respawn_budget=0)
        assert len(history) == 4
        assert [r.extra["shards_lost"] for r in history.records] == [0, 1, 0, 0]
        assert [r.extra["respawns"] for r in history.records] == [0, 0, 0, 0]

    def test_kill_between_iterations_respawns(self, X, name):
        """A worker SIGKILLed while idle is replaced at the next
        iteration's dispatch — same zero-loss outcome as a mid-iteration
        kill, without a crash schedule (a real external kill)."""
        adapter, shards = ba_setup(X)
        backend = get_backend(name)(
            seed=0,
            fault_policy="respawn",
            worker_timeout=TIMEOUT_S,
        )
        try:
            backend.setup(adapter, shards)
            backend.run_iteration(1e-3)
            os.kill(backend.worker_pids[-1], signal.SIGKILL)
            t0 = time.monotonic()
            stats = backend.run_iteration(2e-3)
            assert time.monotonic() - t0 < TIMEOUT_S
            assert stats.extra["respawns"] == 1
            assert stats.shards_lost == 0
            assert stats.n_machines == 3
            stats = backend.run_iteration(4e-3)
            assert np.isfinite(stats.e_q) and stats.extra["respawns"] == 0
        finally:
            backend.close()


@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestHealthPlane:
    def test_health_counters_surface(self, X, name):
        """With a heartbeat config the per-iteration ``health_*``
        counters land in ``IterationStats.extra``; a scheduled kill shows
        up as exactly one observed death on its iteration."""
        history, _ = run_fit(
            X,
            name,
            crashes=[CrashEvent(machine=1, iteration=1, point="w")],
            health=HEALTH,
            n_iters=3,
        )
        for r in history.records:
            for key in (
                "health_beats",
                "health_slow_events",
                "health_stall_events",
                "health_deaths",
            ):
                assert key in r.extra, key
        assert [r.extra["health_deaths"] for r in history.records] == [0, 1, 0]
        assert sum(r.extra["shards_lost"] for r in history.records) == 0

    def test_health_off_by_default(self, X, name):
        history, _ = run_fit(X, name, n_iters=2)
        assert all("health_beats" not in r.extra for r in history.records)


# ------------------------------------------------------ engine conformance
@pytest.mark.parametrize("name", BACKENDS)
class TestCrashConformance:
    def test_crash_schedule_is_absorbed_everywhere(self, X, name):
        """Every registered engine runs the same crash schedule under
        respawn to the same bits as the sync reference's *fault-free*
        run: recovery is a wall-clock affair, never a numeric one."""
        if name in WALLCLOCK_BACKENDS:
            pytest.skip("wall-clock engines covered by TestRespawnBitIdentity")
        _, ref = run_fit(X, REFERENCE, shuffle_within=False)
        storm = [
            CrashEvent(machine=1, iteration=1, point="w"),
            CrashEvent(machine=2, iteration=2, point="z"),
        ]
        history, got = run_fit(X, name, crashes=storm, shuffle_within=False)
        assert len(history) == 4
        assert [r.extra["respawns"] for r in history.records] == [0, 1, 1, 0]
        assert sum(r.extra["shards_lost"] for r in history.records) == 0
        assert_same_params(got, ref, name)
