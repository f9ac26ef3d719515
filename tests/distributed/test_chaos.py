"""Chaos conformance: seeded network degradation, identical everywhere.

The chaos layer's contract is **deterministic delivery**: a
:class:`~repro.distributed.chaos.ChaosConfig` perturbs when messages
travel and what the clock shows, never what is computed. This suite
holds every registered engine to it:

* a seeded loss/delay/reorder/throttle/straggler scenario produces
  *bit-identical* final submodels on the simulated engines and the
  wall-clock ones, with *identical* injected-event counts (the per-link
  RNG streams are engine-invariant);
* chaos changes the reported time, not the bits, relative to a
  chaos-free run;
* ``overlap_send`` hides injected link latency exactly as it hides real
  latency — same bits, smaller clock;
* partitions hold frames until the window heals; stragglers inflate
  exactly the slow machine's compute;
* chaos composes with the fault machinery: drop_shard recovery and
  checkpoint/restore behave under chaos exactly as without it.
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed import ChaosConfig, PartitionWindow
from repro.distributed.backends import available_backends, get_backend
from repro.distributed.chaos import ChaosShim, LinkChaos, empty_chaos_counters
from repro.distributed.costmodel import ChaosTimeline
from repro.distributed.partition import make_shards, partition_indices

BACKENDS = available_backends()
REFERENCE = "sync"
WALLCLOCK_BACKENDS = ["multiprocess", "tcp"]

#: The scenario every engine must reproduce: all link knobs plus one
#: straggler, rates high enough that every event type actually fires on
#: a short fit.
FULL_CHAOS = ChaosConfig(
    packet_loss_rate=0.2,
    delay_ms=2.0,
    jitter_ms=1.0,
    reorder_probability=0.15,
    bandwidth_mbps=50.0,
    stragglers={1: 1.5},
    seed=7,
)

#: Integer event counters must match *exactly* across engines; float
#: second-counters may differ in the last ulp (summation order).
COUNT_KEYS = ["chaos_hops", "chaos_drops", "chaos_reorders", "chaos_partition_holds"]
SECONDS_KEYS = ["chaos_delay_s", "chaos_throttle_s"]


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(120, 8, n_clusters=3, rng=4)


def ba_setup(X, P=3, n_bits=4, seed=0):
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_shards(X, adapter.features(X), Z, parts)


def run_fit(X, backend, chaos, *, overlap_send=False, n_iters=2, P=3):
    adapter, shards = ba_setup(X, P=P)
    with ParMACTrainer(
        adapter,
        GeometricSchedule(1.0, 2.0, n_iters),
        backend=backend,
        epochs=2,
        shuffle_within=False,
        seed=0,
        chaos=chaos,
        backend_options={"overlap_send": overlap_send},
    ) as trainer:
        history = trainer.fit(shards)
    params = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
    return history, params


# ------------------------------------------------------------------- config
class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="packet_loss_rate"):
            ChaosConfig(packet_loss_rate=1.0)
        with pytest.raises(ValueError, match="delay_ms"):
            ChaosConfig(delay_ms=-1.0)
        with pytest.raises(ValueError, match="bandwidth_mbps"):
            ChaosConfig(bandwidth_mbps=0.0)
        with pytest.raises(ValueError, match="straggler factor"):
            ChaosConfig(stragglers={0: 0.5})
        with pytest.raises(ValueError, match="partition window"):
            ChaosConfig(partitions=[(5.0, 2.0)])

    def test_coerce(self):
        assert ChaosConfig.coerce(None) is None
        cfg = ChaosConfig(delay_ms=1.0)
        assert ChaosConfig.coerce(cfg) is cfg
        assert ChaosConfig.coerce({"delay_ms": 1.0}) == cfg
        with pytest.raises(TypeError, match="chaos must be"):
            ChaosConfig.coerce(3.0)

    def test_active(self):
        assert not ChaosConfig().active()
        assert not ChaosConfig(stragglers={0: 1.0}).active()
        assert ChaosConfig(delay_ms=0.1).active()
        assert ChaosConfig(partitions=[(0.0, 1.0)]).active()
        assert ChaosConfig(stragglers={0: 2.0}).active()

    def test_partition_tuple_coercion(self):
        cfg = ChaosConfig(partitions=[(1.0, 2.0), (3.0, 4.0, ((0, 1),))])
        assert all(isinstance(w, PartitionWindow) for w in cfg.partitions)
        assert cfg.partitions[1].links == ((0, 1),)

    def test_partition_window_holds(self):
        w = PartitionWindow(1.0, 3.0, links=((0, 1),))
        assert w.holds(0, 1, 0.5) == 0.0  # before the window
        assert w.holds(0, 1, 2.0) == pytest.approx(1.0)  # held until heal
        assert w.holds(1, 0, 2.0) == 0.0  # other direction not cut
        assert w.holds(0, 1, 3.0) == 0.0  # healed
        full = PartitionWindow(0.0, 2.0)  # links=None cuts everything
        assert full.holds(4, 7, 1.5) == pytest.approx(0.5)

    def test_straggler_factor_defaults_to_full_speed(self):
        cfg = ChaosConfig(stragglers={2: 3.0, 0: 1.5})
        assert cfg.stragglers == ((0, 1.5), (2, 3.0))
        assert cfg.straggler_factor(2) == 3.0
        assert cfg.straggler_factor(0) == 1.5
        assert cfg.straggler_factor(1) == 1.0

    def test_crash_point_matches_machine_and_iteration(self):
        cfg = ChaosConfig(crashes=[(1, 2, "z"), (3, 0)])
        assert cfg.crash_point(1, 2) == "z"
        assert cfg.crash_point(3, 0) == "w"
        assert cfg.crash_point(1, 0) is None
        assert cfg.crash_point(2, 2) is None

    def test_a_w_crash_wins_over_a_z_crash(self):
        cfg = ChaosConfig(crashes=[(1, 4, "z"), (1, 4, "w")])
        assert cfg.crash_point(1, 4) == "w"

    def test_crash_event_validation(self):
        with pytest.raises(ValueError, match="iteration"):
            ChaosConfig(crashes=[(0, -1)])
        with pytest.raises(ValueError, match="crash point"):
            ChaosConfig(crashes=[(0, 1, "x")])


class TestLinkSampler:
    def test_link_streams_are_seeded_per_link(self):
        cfg = ChaosConfig(packet_loss_rate=0.3, jitter_ms=5.0, seed=11)
        a = LinkChaos(cfg, 0, 1, empty_chaos_counters())
        b = LinkChaos(cfg, 0, 1, empty_chaos_counters())
        other = LinkChaos(cfg, 1, 0, empty_chaos_counters())
        seq_a = [a.verdict(1000, 0.0) for _ in range(20)]
        seq_b = [b.verdict(1000, 0.0) for _ in range(20)]
        seq_other = [other.verdict(1000, 0.0) for _ in range(20)]
        assert seq_a == seq_b  # same link, same seed: identical stream
        assert seq_a != seq_other  # direction changes the stream

    def test_loss_is_bounded(self):
        """A near-1 loss rate degrades the clock, never hangs the sampler."""
        from repro.distributed.chaos import _MAX_DROPS

        cfg = ChaosConfig(packet_loss_rate=0.999, seed=0)
        counters = empty_chaos_counters()
        link = LinkChaos(cfg, 0, 1, counters)
        for _ in range(50):
            link.verdict(100, 0.0)
        assert counters["chaos_drops"] <= 50 * _MAX_DROPS

    def test_timeline_and_shim_share_the_stream(self):
        """The virtual front end and the wall-clock front end draw the
        same verdicts for the same hop sequence — count parity by
        construction."""
        cfg = FULL_CHAOS
        timeline = ChaosTimeline(cfg)
        shim = ChaosShim(cfg, rank=0, clock=lambda: 0.0)
        virtual = [timeline.hop_penalty(0, 1, 5000, 0.0) for _ in range(30)]
        real = [shim.send_delay(1, 5000) for _ in range(30)]
        assert virtual == real
        for key in COUNT_KEYS:
            assert timeline.counters[key] == shim.counters[key]

    def test_self_hop_is_free(self):
        timeline = ChaosTimeline(FULL_CHAOS)
        assert timeline.hop_penalty(2, 2, 10_000, 0.0) == 0.0
        assert timeline.counters["chaos_hops"] == 0

    def test_straggler_charges(self):
        timeline = ChaosTimeline(ChaosConfig(stragglers={1: 2.0}))
        assert timeline.charge_work(0, 10.0) == 10.0
        assert timeline.charge_work(1, 10.0) == 20.0
        assert timeline.counters["chaos_straggler_s"] == pytest.approx(10.0)
        shim = ChaosShim(ChaosConfig(stragglers={1: 2.0}), rank=1, clock=lambda: 0.0)
        assert shim.charge_straggler(0.5) == pytest.approx(0.5)
        assert shim.counters["chaos_straggler_s"] == pytest.approx(0.5)


# -------------------------------------------------------------- conformance
class TestChaosConformance:
    """Every engine, one seeded scenario, identical bits and counts."""

    @pytest.fixture(scope="class")
    def runs(self, X):
        cache = {}

        def _run(name):
            if name not in cache:
                cache[name] = run_fit(X, name, FULL_CHAOS)
            return cache[name]

        return _run

    @pytest.mark.parametrize("name", [b for b in BACKENDS if b != REFERENCE])
    def test_bit_parity_under_chaos(self, runs, name):
        _, ref_params = runs(REFERENCE)
        _, params = runs(name)
        assert set(params) == set(ref_params)
        for sid in ref_params:
            assert np.array_equal(params[sid], ref_params[sid]), (name, sid)

    @pytest.mark.parametrize("name", [b for b in BACKENDS if b != REFERENCE])
    def test_event_count_parity(self, runs, name):
        """Drop/reorder *counts* match across engines, per iteration —
        the per-link RNG streams are engine-invariant."""
        ref_history, _ = runs(REFERENCE)
        history, _ = runs(name)
        for ref_rec, rec in zip(ref_history.records, history.records):
            for key in COUNT_KEYS:
                assert rec.extra[key] == ref_rec.extra[key], (name, key)
            for key in SECONDS_KEYS:
                assert rec.extra[key] == pytest.approx(
                    ref_rec.extra[key], rel=1e-9
                ), (name, key)
        assert history.records[0].extra["chaos_drops"] > 0
        assert history.records[0].extra["chaos_reorders"] > 0

    @pytest.mark.parametrize("name", BACKENDS)
    def test_chaos_is_timing_only(self, runs, X, name):
        """Same engine, chaos on vs off: identical bits."""
        _, chaotic = runs(name)
        _, clean = run_fit(X, name, None)
        for sid in clean:
            assert np.array_equal(chaotic[sid], clean[sid]), (name, sid)

    def test_sim_clock_degrades(self, runs, X):
        """The simulated engines charge the injected seconds virtually."""
        chaotic_history, _ = runs(REFERENCE)
        clean_history, _ = run_fit(X, REFERENCE, None)
        for chaotic, clean in zip(
            chaotic_history.records, clean_history.records
        ):
            assert chaotic.time > clean.time

    def test_counters_absent_without_chaos(self, X):
        history, _ = run_fit(X, REFERENCE, None)
        assert not any(
            k.startswith("chaos_") for k in history.records[0].extra
        )


# ----------------------------------------------------- knobs, one at a time
class TestKnobs:
    def test_partition_holds_and_heals(self, X):
        """A window cutting every link early in the iteration holds
        frames until it heals: events counted, time inflated, bits
        unchanged."""
        chaos = ChaosConfig(partitions=[PartitionWindow(0.0, 200.0)], seed=3)
        history, params = run_fit(X, REFERENCE, chaos)
        clean_history, clean_params = run_fit(X, REFERENCE, None)
        assert history.records[0].extra["chaos_partition_holds"] > 0
        assert history.records[0].time > clean_history.records[0].time
        for sid in clean_params:
            assert np.array_equal(params[sid], clean_params[sid])

    def test_straggler_slows_only_the_slow_machine(self, X):
        """Straggler factor on one machine: the sync engine's W step
        stretches (the ring waits on the slow machine) and the Z step
        charges the factor on that machine only."""
        slow = ChaosConfig(stragglers={0: 3.0})
        history, params = run_fit(X, REFERENCE, slow)
        clean_history, clean_params = run_fit(X, REFERENCE, None)
        assert history.records[0].time > clean_history.records[0].time
        assert history.records[0].extra["chaos_straggler_s"] > 0
        for sid in clean_params:
            assert np.array_equal(params[sid], clean_params[sid])

    def test_bandwidth_throttle_charges_wire_time(self, X):
        chaos = ChaosConfig(bandwidth_mbps=1.0)
        history, _ = run_fit(X, REFERENCE, chaos)
        assert history.records[0].extra["chaos_throttle_s"] > 0

    def test_overlap_send_hides_injected_latency(self, X):
        """The straggler/delay scenario the ISSUE names: overlapped
        sends hide injected link latency — same bits, smaller clock —
        on the discrete-event engine that models the NIC timeline."""
        chaos = ChaosConfig(delay_ms=40.0, stragglers={1: 1.3}, seed=5)
        blocking_history, blocking_params = run_fit(
            X, "async", chaos, overlap_send=False
        )
        overlap_history, overlap_params = run_fit(
            X, "async", chaos, overlap_send=True
        )
        for sid in blocking_params:
            assert np.array_equal(overlap_params[sid], blocking_params[sid])
        assert (
            overlap_history.records[0].time < blocking_history.records[0].time
        )

    def test_seed_changes_the_event_sequence(self, X):
        a, _ = run_fit(X, REFERENCE, ChaosConfig(packet_loss_rate=0.3, seed=1))
        b, _ = run_fit(X, REFERENCE, ChaosConfig(packet_loss_rate=0.3, seed=2))
        drops = lambda h: [r.extra["chaos_drops"] for r in h.records]  # noqa: E731
        assert drops(a) != drops(b)


# ------------------------------------------------- chaos x fault machinery
@pytest.mark.slow
@pytest.mark.parametrize("name", WALLCLOCK_BACKENDS)
class TestChaosWithFaults:
    def test_drop_shard_survives_under_chaos(self, X, name):
        """A SIGKILL'd worker under active chaos: the recovery path
        (abort, excise, re-plan, retry) must engage exactly as without
        chaos."""
        from tests.distributed.test_wallclock_faults import killable_setup

        adapter, shards = killable_setup(X, P=4, kills={2: 2e-3})
        with ParMACTrainer(
            adapter,
            GeometricSchedule(1e-3, 2.0, 4),
            backend=name,
            seed=0,
            fault_policy="drop_shard",
            chaos=ChaosConfig(
                packet_loss_rate=0.1, delay_ms=1.0, jitter_ms=1.0, seed=3
            ),
            backend_options={"worker_timeout": 60.0},
        ) as trainer:
            history = trainer.fit(shards)
        assert len(history) == 4
        assert sum(r.extra["shards_lost"] for r in history.records) == 1
        assert history.records[-1].extra["n_machines"] == 3
        assert all(np.isfinite(r.e_q) for r in history.records)

    def test_checkpoint_restore_under_chaos(self, X, name, tmp_path):
        """Snapshot mid-fit under chaos, restore into a fresh backend
        with the same chaos, finish: bit-identical to the uninterrupted
        chaotic run (chaos is timing-only, so it is deliberately absent
        from the checkpoint's compat contract)."""
        from repro.distributed.dataplane import ClusterState

        chaos = ChaosConfig(packet_loss_rate=0.15, delay_ms=1.0, seed=9)
        mus = [1e-3 * 2.0**i for i in range(4)]
        cut = 2

        def fresh_backend():
            return get_backend(name)(
                epochs=2, shuffle_within=True, seed=0, chaos=chaos
            )

        adapter, shards = ba_setup(X)
        with fresh_backend() as backend:
            backend.setup(adapter, shards)
            for mu in mus:
                backend.run_iteration(mu)
        ref = {
            s.sid: adapter.get_params(s).copy()
            for s in adapter.submodel_specs()
        }

        path = tmp_path / "chaotic.ckpt"
        adapter2, shards2 = ba_setup(X)
        with fresh_backend() as backend:
            backend.setup(adapter2, shards2)
            for mu in mus[:cut]:
                backend.run_iteration(mu)
            backend.checkpoint().save(path)

        with fresh_backend() as backend:
            backend.restore(ClusterState.load(path))
            for mu in mus[cut:]:
                stats = backend.run_iteration(mu)
                assert stats.extra["chaos_hops"] > 0
            got = {
                s.sid: backend.adapter.get_params(s).copy()
                for s in backend.adapter.submodel_specs()
            }
        for sid in ref:
            assert np.array_equal(got[sid], ref[sid]), (name, sid)
