"""Worker health supervision: heartbeats, classification, deadlines.

The wall-clock backends used to police workers with a single blunt
``worker_timeout`` (300 s by default): a worker could sit wedged for five
minutes before the coordinator noticed, and a genuinely slow worker could
be torn down for merely being slow. This module replaces that with a
heartbeat plane:

* every worker process runs one :class:`HeartbeatSender` daemon thread
  that emits a beat each ``interval_s`` carrying a monotone sequence
  number plus the worker's current *phase* ("w", "z", "idle", ...) and a
  *progress* counter (submodel visits handled) read from a shared
  :class:`WorkerPulse`;
* the coordinator feeds every beat into a :class:`HealthMonitor`, which
  classifies each worker as :class:`WorkerState` LIVE (beating and
  advancing), SLOW (beats have gone quiet — the process may be dying),
  STALLED (beating but no progress for ``stalled_after_s`` — the main
  thread is stuck) or DEAD (the coordinator's liveness poll saw the
  process exit);
* gathers consult the monitor *per phase* — the staleness clocks are
  reset at every dispatch, so "no progress for 60 s" means 60 s into
  *this* phase, not since some previous iteration — and fail a stalled
  worker long before the hard ``worker_timeout`` cap would fire.

Workers on both wall-clock engines beat with encoded
:func:`~repro.distributed.framing.encode_heartbeat` control frames over
their channel to the coordinator; the per-iteration ``health_*`` counters surface
identically through ``IterationStats.extra`` on all four engines.

The monitor itself is single-threaded (the coordinator's gather loop is
the only caller); only :class:`WorkerPulse` is touched from two threads,
and its fields are single-word writes.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass

__all__ = [
    "WorkerState",
    "HealthConfig",
    "WorkerPulse",
    "HeartbeatSender",
    "HealthMonitor",
]


class WorkerState(enum.Enum):
    """Coordinator-side classification of one worker."""

    LIVE = "live"
    SLOW = "slow"
    STALLED = "stalled"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthConfig:
    """Knobs for the heartbeat plane.

    Parameters
    ----------
    interval_s : float
        Beat period of each worker's sender thread.
    slow_after_s : float
        A worker whose beats have gone quiet for this long is SLOW. Must
        comfortably exceed ``interval_s`` (a couple of missed beats, not
        one late one).
    stalled_after_s : float
        A worker whose *progress* has not advanced for this long within
        the current phase is STALLED and the gather fails it immediately
        instead of waiting out ``worker_timeout``. Progress ticks once
        per handled submodel visit, so this must exceed the longest
        single visit (SGD pass over one shard) you expect; the generous
        default assumes test-sized shards are nowhere near it.
    """

    interval_s: float = 0.25
    slow_after_s: float = 2.0
    stalled_after_s: float = 60.0

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.slow_after_s <= self.interval_s:
            raise ValueError(
                f"slow_after_s ({self.slow_after_s}) must exceed interval_s "
                f"({self.interval_s})"
            )
        if self.stalled_after_s <= self.slow_after_s:
            raise ValueError(
                f"stalled_after_s ({self.stalled_after_s}) must exceed "
                f"slow_after_s ({self.slow_after_s})"
            )

    @classmethod
    def coerce(cls, value) -> "HealthConfig | None":
        """Normalise a ``health=`` argument: None, a config, or a dict."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"health must be a HealthConfig, dict or None, got "
            f"{type(value).__name__}"
        )


class WorkerPulse:
    """The worker-side cell a beat reads: current phase + progress.

    Written by the worker's main thread (``enter`` at phase boundaries,
    ``tick`` once per handled submodel visit), read by the sender
    thread. Both fields are plain attribute writes — no lock needed for
    a monotone counter and a tag that is only ever *sampled*.
    """

    __slots__ = ("phase", "progress")

    def __init__(self):
        self.phase = "idle"
        self.progress = 0

    def enter(self, phase: str) -> None:
        self.phase = phase

    def tick(self) -> None:
        self.progress += 1


class HeartbeatSender:
    """One worker's beat thread.

    ``emit(seq, phase, progress)`` is the send — the wall-clock workers
    write an encoded HEARTBEAT frame to their channel — and must be
    safe to call concurrently with the main thread's replies (the
    workers wrap the channel in a send lock). Emit errors end the
    thread quietly: if the channel is gone the coordinator is tearing
    us down anyway.
    """

    def __init__(self, emit, interval_s: float, pulse: WorkerPulse):
        self._emit = emit
        self._interval_s = float(interval_s)
        self._pulse = pulse
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        seq = 0
        while not self._stop.wait(self._interval_s):
            seq += 1
            try:
                self._emit(seq, self._pulse.phase, self._pulse.progress)
            except (OSError, ValueError, EOFError, BrokenPipeError):
                return

    def stop(self) -> None:
        self._stop.set()


class _WorkerRecord:
    __slots__ = ("seq", "phase", "progress", "t_beat", "t_progress", "state")

    def __init__(self, now: float):
        self.seq = -1
        self.phase = "idle"
        self.progress = -1
        self.t_beat = now
        self.t_progress = now
        self.state = WorkerState.LIVE


class HealthMonitor:
    """Coordinator-side beat ledger and classifier.

    ``clock`` is injectable so tests can drive classification with a
    fake clock; production callers use the wall clock.
    """

    def __init__(self, cfg: HealthConfig, *, clock=time.monotonic):
        self.cfg = cfg
        self._clock = clock
        self._records: dict[int, _WorkerRecord] = {}
        self._dead: set[int] = set()
        self.reset_counters()

    # ------------------------------------------------------------- feeding
    def reset_counters(self) -> None:
        """Zero the per-iteration ``health_*`` counters."""
        self._beats = 0
        self._slow_events = 0
        self._stall_events = 0
        self._deaths = 0

    def adopt_counters(self, counters: dict) -> None:
        """Carry a predecessor monitor's per-iteration counters across a
        mid-iteration pool rebuild (the respawn path replaces the whole
        pool — and its monitor — without closing the iteration)."""
        self._beats = counters["health_beats"]
        self._slow_events = counters["health_slow_events"]
        self._stall_events = counters["health_stall_events"]
        self._deaths = counters["health_deaths"]

    def begin_phase(self, ranks) -> None:
        """A new phase starts for ``ranks``: grant every worker a fresh
        staleness grace period so progress made *last* phase doesn't
        count against this one."""
        now = self._clock()
        for rank in ranks:
            rec = self._records.setdefault(int(rank), _WorkerRecord(now))
            rec.t_beat = now
            rec.t_progress = now
            if rec.state is not WorkerState.DEAD:
                rec.state = WorkerState.LIVE

    def observe(self, rank: int, seq: int, phase: str, progress: int) -> None:
        """Ingest one beat (stale out-of-order beats are dropped)."""
        now = self._clock()
        rec = self._records.setdefault(int(rank), _WorkerRecord(now))
        if seq <= rec.seq:
            return
        self._beats += 1
        rec.seq = seq
        rec.t_beat = now
        if progress != rec.progress or phase != rec.phase:
            rec.progress = progress
            rec.phase = phase
            rec.t_progress = now

    def note_dead(self, rank: int) -> None:
        """The liveness poll saw this worker's process exit."""
        rank = int(rank)
        if rank not in self._dead:
            self._dead.add(rank)
            self._deaths += 1
        rec = self._records.setdefault(rank, _WorkerRecord(self._clock()))
        rec.state = WorkerState.DEAD

    # ---------------------------------------------------------- consuming
    def classify(self, rank: int) -> WorkerState:
        rank = int(rank)
        if rank in self._dead:
            return WorkerState.DEAD
        rec = self._records.get(rank)
        if rec is None:
            # Never seen: grant the grace period from first sight.
            self._records[rank] = _WorkerRecord(self._clock())
            return WorkerState.LIVE
        now = self._clock()
        if now - rec.t_progress >= self.cfg.stalled_after_s:
            state = WorkerState.STALLED
        elif now - rec.t_beat >= self.cfg.slow_after_s:
            state = WorkerState.SLOW
        else:
            state = WorkerState.LIVE
        if state is not rec.state:
            if state is WorkerState.SLOW:
                self._slow_events += 1
            elif state is WorkerState.STALLED:
                self._stall_events += 1
            rec.state = state
        return state

    def stalled(self, ranks) -> list[int]:
        """The subset of ``ranks`` currently classified STALLED."""
        return [r for r in ranks if self.classify(r) is WorkerState.STALLED]

    def phase_of(self, rank: int) -> str:
        rec = self._records.get(int(rank))
        return rec.phase if rec is not None else "idle"

    def counters(self) -> dict:
        """Per-iteration ``health_*`` counters for ``IterationStats.extra``."""
        return {
            "health_beats": self._beats,
            "health_slow_events": self._slow_events,
            "health_stall_events": self._stall_events,
            "health_deaths": self._deaths,
        }
