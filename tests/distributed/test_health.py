"""The heartbeat plane's parts, driven directly: config validation, the
worker-side pulse and beat thread, and the coordinator's classifier on a
fake clock (the wall-clock engines' end-to-end use is in
``test_respawn.py``)."""

import threading

import pytest

from repro.distributed.health import (
    HealthConfig,
    HealthMonitor,
    HeartbeatSender,
    WorkerPulse,
    WorkerState,
)

CFG = HealthConfig(interval_s=0.5, slow_after_s=2.0, stalled_after_s=10.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def monitor():
    clock = FakeClock()
    return HealthMonitor(CFG, clock=clock), clock


class TestHealthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_s": 0.0},
            {"interval_s": 1.0, "slow_after_s": 1.0},
            {"slow_after_s": 5.0, "stalled_after_s": 5.0},
        ],
        ids=["interval", "slow_not_after_interval", "stalled_not_after_slow"],
    )
    def test_rejects_misordered_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            HealthConfig(**kwargs)

    def test_coerce(self):
        assert HealthConfig.coerce(None) is None
        assert HealthConfig.coerce(CFG) is CFG
        assert HealthConfig.coerce({"interval_s": 0.1}) == HealthConfig(interval_s=0.1)
        with pytest.raises(TypeError):
            HealthConfig.coerce(0.25)


class TestWorkerSide:
    def test_pulse_tracks_phase_and_progress(self):
        pulse = WorkerPulse()
        assert (pulse.phase, pulse.progress) == ("idle", 0)
        pulse.enter("w")
        pulse.tick()
        pulse.tick()
        assert (pulse.phase, pulse.progress) == ("w", 2)

    def test_sender_beats_with_rising_seq_until_stopped(self):
        pulse = WorkerPulse()
        pulse.enter("z")
        pulse.tick()
        beats = []
        three = threading.Event()

        def emit(seq, phase, progress):
            beats.append((seq, phase, progress))
            if len(beats) >= 3:
                three.set()

        sender = HeartbeatSender(emit, 0.005, pulse)
        try:
            assert three.wait(10.0)
        finally:
            sender.stop()
        sender._thread.join(10.0)
        assert not sender._thread.is_alive()
        seqs = [b[0] for b in beats]
        assert seqs == list(range(1, len(seqs) + 1))
        assert all(b[1:] == ("z", 1) for b in beats)

    def test_sender_ends_quietly_when_the_channel_is_gone(self):
        calls = []

        def emit(seq, phase, progress):
            calls.append(seq)
            raise BrokenPipeError

        sender = HeartbeatSender(emit, 0.005, WorkerPulse())
        sender._thread.join(10.0)
        assert not sender._thread.is_alive()
        assert calls == [1]


class TestHealthMonitor:
    def test_unseen_worker_is_live(self):
        mon, _ = monitor()
        assert mon.classify(3) is WorkerState.LIVE
        assert mon.phase_of(3) == "idle"

    def test_quiet_beats_make_a_worker_slow_once(self):
        mon, clock = monitor()
        mon.begin_phase([0])
        mon.observe(0, 1, "w", 1)
        clock.now += CFG.slow_after_s
        assert mon.classify(0) is WorkerState.SLOW
        assert mon.classify(0) is WorkerState.SLOW
        assert mon.counters()["health_slow_events"] == 1
        mon.observe(0, 2, "w", 2)
        assert mon.classify(0) is WorkerState.LIVE

    def test_beating_without_progress_is_stalled(self):
        mon, clock = monitor()
        mon.begin_phase([0, 1])
        mon.observe(0, 1, "w", 5)
        mon.observe(1, 1, "w", 5)
        for seq in range(2, 40):
            clock.now += 0.5
            mon.observe(0, seq, "w", 5)  # beating, stuck
            mon.observe(1, seq, "w", 5 + seq)  # beating, advancing
        assert clock.now - 100.0 >= CFG.stalled_after_s
        assert mon.classify(0) is WorkerState.STALLED
        assert mon.classify(1) is WorkerState.LIVE
        assert mon.stalled([0, 1]) == [0]
        assert mon.counters()["health_stall_events"] == 1

    def test_a_phase_change_counts_as_progress(self):
        mon, clock = monitor()
        mon.begin_phase([0])
        mon.observe(0, 1, "w", 7)
        clock.now += CFG.stalled_after_s - 1.0
        mon.observe(0, 2, "z", 7)
        clock.now += 1.5
        assert mon.phase_of(0) == "z"
        assert mon.classify(0) is WorkerState.LIVE

    def test_stale_beats_are_dropped(self):
        mon, clock = monitor()
        mon.observe(0, 5, "w", 5)
        clock.now += 1.0
        mon.observe(0, 4, "z", 9)
        mon.observe(0, 5, "z", 9)
        assert mon.counters()["health_beats"] == 1
        assert mon.phase_of(0) == "w"

    def test_begin_phase_grants_a_fresh_grace_period(self):
        mon, clock = monitor()
        mon.begin_phase([0])
        clock.now += CFG.stalled_after_s
        assert mon.classify(0) is WorkerState.STALLED
        mon.begin_phase([0])
        assert mon.classify(0) is WorkerState.LIVE

    def test_death_is_final_and_counted_once(self):
        mon, _ = monitor()
        mon.begin_phase([0, 1])
        mon.note_dead(1)
        mon.note_dead(1)
        mon.begin_phase([0, 1])
        mon.observe(1, 1, "w", 1)
        assert mon.classify(1) is WorkerState.DEAD
        assert mon.classify(0) is WorkerState.LIVE
        assert mon.counters()["health_deaths"] == 1

    def test_counters_reset_and_carry_across_a_rebuild(self):
        mon, clock = monitor()
        mon.observe(0, 1, "w", 1)
        mon.note_dead(2)
        clock.now += CFG.slow_after_s
        mon.classify(0)
        carried = mon.counters()
        assert carried == {
            "health_beats": 1,
            "health_slow_events": 1,
            "health_stall_events": 0,
            "health_deaths": 1,
        }
        successor, _ = monitor()
        successor.adopt_counters(carried)
        successor.observe(0, 1, "w", 1)
        assert successor.counters()["health_beats"] == 2
        successor.reset_counters()
        assert set(successor.counters().values()) == {0}
