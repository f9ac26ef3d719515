"""Chaos-grade network fault injection, identical on every engine.

The paper argues ParMAC's circular model traffic tolerates the messy
realities of commodity clusters, but a clean SIGKILL is the only fault
the original fault suite injects. This module supplies the adversarial
rest: lossy, slow, jittery, reordered, throttled and partitioned links,
plus slow-node stragglers — as one :class:`ChaosConfig` that every
engine honours.

The one rule is **deterministic delivery**: chaos perturbs *when* a
message travels and *what it costs*, never what is computed. A "lost"
frame is charged a retransmit and still arrives exactly once; a
"reordered" frame is charged a hold-back and still arrives in order; a
partitioned link holds its frames until the window heals. That contract
(timing only, bit-identical numerics) is what lets the conformance suite
assert that a seeded chaos scenario produces bit-identical models on the
simulated engines and the wall-clock ones — while the *virtual* clock
and the *wall* clock both show the degradation.

Each link (sender ``p`` -> receiver ``q``) owns a private RNG stream
seeded by ``(seed, p, q)`` and draws one verdict per submodel hop. The
per-link hop sequence is protocol-determined and engine-invariant (the
same determinism cross-backend bit-parity already relies on), so the
simulated engines and the wall-clock shim draw identical event
sequences: the drop/reorder *counts* in ``IterationStats.extra`` match
across engines, not just the bits.

Two front ends consume the shared sampler:

* :class:`~repro.distributed.costmodel.ChaosTimeline` charges the
  degradations to the simulated engines' virtual clocks;
* :class:`ChaosShim` injects them into the wall-clock ring transport
  as real sleeps between ``framing`` and the wire.

Both are recreated per iteration, so link streams realign across
engines regardless of how many iterations each has run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChaosConfig", "PartitionWindow", "CrashEvent", "LinkChaos",
           "ChaosShim", "empty_chaos_counters"]

#: Cap on consecutive retransmits charged for one hop — a loss rate of
#: 0.99 must degrade the clock, not hang the sampler.
_MAX_DROPS = 8


@dataclass(frozen=True)
class PartitionWindow:
    """One scheduled ring partition: ``links`` are cut during
    ``[start, end)`` and heal at ``end``.

    ``start``/``end`` are seconds since the iteration began — virtual
    seconds on the simulated engines, wall seconds on the real ones. A
    frame meeting a cut link is *held* until the window heals (charged
    ``end - now``), never dropped: delivery stays deterministic.
    ``links`` is a tuple of ``(src, dst)`` machine pairs; ``None`` cuts
    every link (a full stall).
    """

    start: float
    end: float
    links: tuple | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(
                f"partition window needs 0 <= start < end, got "
                f"[{self.start}, {self.end})"
            )

    def holds(self, p: int, q: int, now: float) -> float:
        """Seconds this window still blocks link p->q at ``now`` (0 if open)."""
        if now < self.start or now >= self.end:
            return 0.0
        if self.links is not None and (p, q) not in self.links:
            return 0.0
        return self.end - now


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled worker kill: ``machine`` dies at the start of the
    ``point`` phase ("w" or "z") of iteration ``iteration``.

    Crashes are resolved by the *coordinator*, once, on the first attempt
    of the target iteration, and shipped in that iteration's command —
    retried attempts ship no crash, so a fit under ``respawn`` converges
    instead of re-killing the replacement. The simulated engines have no
    process to kill and reproduce the wall-clock outcome instead: under
    ``drop_shard`` a "w" crash retires the machine before the W step and
    a "z" crash retires it after the W step, before the Z step.
    """

    machine: int
    iteration: int
    point: str = "w"

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {self.iteration}")
        if self.point not in ("w", "z"):
            raise ValueError(f"crash point must be 'w' or 'z', got {self.point!r}")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for network/node degradation, mirrored on every engine.

    Parameters
    ----------
    packet_loss_rate : float in [0, 1)
        Probability each hop's frame is "lost" and retransmitted; each
        retransmit charges ``retransmit_ms`` plus the frame's wire time.
    delay_ms : float
        Fixed added latency per hop.
    jitter_ms : float
        Uniform extra latency in ``[0, jitter_ms)`` per hop.
    reorder_probability : float in [0, 1)
        Probability a hop's frame is held back behind later traffic;
        charged as ``reorder_hold_ms`` (delivery order is unchanged —
        deterministic delivery).
    bandwidth_mbps : float or None
        Wire throttle: every hop is charged ``payload_bits / bandwidth``
        of serialisation time. ``None`` means unthrottled.
    partitions : sequence of PartitionWindow (or (start, end[, links]) tuples)
        Scheduled link cuts; see :class:`PartitionWindow`.
    stragglers : mapping machine -> slowdown factor (>= 1)
        Slow nodes: machine ``p``'s W- and Z-step compute takes
        ``factor`` times longer (virtual scaling on the simulators, real
        proportional sleeps on the wall-clock workers).
    crashes : sequence of CrashEvent (or (machine, iteration[, point]) tuples)
        Scheduled worker kills; see :class:`CrashEvent`. Unlike every
        other knob these do end a process — but under ``respawn`` the
        *model* is still bit-identical to an undisturbed run, which is
        exactly what the conformance suite asserts.
    retransmit_ms : float
        Penalty per charged retransmit (the loss-detection timeout).
    reorder_hold_ms : float
        Penalty per reorder event.
    seed : int
        Master seed for the per-link RNG streams.
    """

    packet_loss_rate: float = 0.0
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    reorder_probability: float = 0.0
    bandwidth_mbps: float | None = None
    partitions: tuple = ()
    stragglers: tuple = ()
    crashes: tuple = ()
    retransmit_ms: float = 5.0
    reorder_hold_ms: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("packet_loss_rate", "reorder_probability"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        for name in ("delay_ms", "jitter_ms", "retransmit_ms", "reorder_hold_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError(
                f"bandwidth_mbps must be > 0, got {self.bandwidth_mbps}"
            )
        windows = tuple(
            w if isinstance(w, PartitionWindow) else PartitionWindow(*w)
            for w in self.partitions
        )
        object.__setattr__(self, "partitions", windows)
        stragglers = self.stragglers
        if isinstance(stragglers, dict):
            stragglers = tuple(sorted(stragglers.items()))
        else:
            stragglers = tuple((int(p), float(f)) for p, f in stragglers)
        for p, f in stragglers:
            if f < 1.0:
                raise ValueError(
                    f"straggler factor for machine {p} must be >= 1, got {f}"
                )
        object.__setattr__(self, "stragglers", stragglers)
        crashes = tuple(
            c if isinstance(c, CrashEvent) else CrashEvent(*c)
            for c in self.crashes
        )
        object.__setattr__(self, "crashes", crashes)

    @classmethod
    def coerce(cls, value) -> "ChaosConfig | None":
        """Normalise a ``chaos=`` argument: None, a config, or a dict."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"chaos must be a ChaosConfig, dict or None, got {type(value).__name__}"
        )

    def active(self) -> bool:
        """Whether any knob actually perturbs anything."""
        return bool(
            self.packet_loss_rate
            or self.delay_ms
            or self.jitter_ms
            or self.reorder_probability
            or self.bandwidth_mbps is not None
            or self.partitions
            or any(f != 1.0 for _, f in self.stragglers)
            or self.crashes
        )

    def straggler_factor(self, p: int) -> float:
        for machine, factor in self.stragglers:
            if machine == int(p):
                return factor
        return 1.0

    def crash_point(self, machine: int, iteration: int) -> str | None:
        """The phase ("w"/"z") at which ``machine`` is scheduled to die
        during ``iteration``, or None. W-point kills win if both are
        scheduled (the process is gone before the Z step starts)."""
        point = None
        for ev in self.crashes:
            if ev.machine == int(machine) and ev.iteration == int(iteration):
                if ev.point == "w":
                    return "w"
                point = ev.point
        return point


def empty_chaos_counters() -> dict:
    """Fresh per-iteration injected-event counters (flat, summable —
    the wall-clock coordinators add them across workers)."""
    return {
        "chaos_hops": 0,
        "chaos_drops": 0,
        "chaos_reorders": 0,
        "chaos_partition_holds": 0,
        "chaos_delay_s": 0.0,
        "chaos_throttle_s": 0.0,
        "chaos_straggler_s": 0.0,
    }


class LinkChaos:
    """One link's seeded verdict stream: the engine-shared sampler.

    ``verdict(nbytes, now)`` returns the extra latency (seconds) charged
    to the hop and mutates ``counters`` in place. Draw order is a pure
    function of (config, hop sequence), so two engines replaying the
    same protocol charge bit-identical degradations.
    """

    def __init__(self, cfg: ChaosConfig, p: int, q: int, counters: dict):
        self.cfg = cfg
        self.p = int(p)
        self.q = int(q)
        self.counters = counters
        # spawn_key entries must be uint32; machine ids always are.
        ss = np.random.SeedSequence(
            entropy=int(cfg.seed), spawn_key=(0x43414F53, self.p, self.q)
        )  # 0x43414F53 is "CAOS"
        self.rng = np.random.default_rng(ss)

    def verdict(self, nbytes: int, now: float) -> float:
        cfg = self.cfg
        c = self.counters
        c["chaos_hops"] += 1
        delay = 0.0
        wire_s = 0.0
        if cfg.bandwidth_mbps is not None:
            wire_s = (int(nbytes) * 8.0) / (cfg.bandwidth_mbps * 1e6)
            c["chaos_throttle_s"] += wire_s
            delay += wire_s
        if cfg.delay_ms or cfg.jitter_ms:
            d = cfg.delay_ms / 1e3 + self.rng.random() * cfg.jitter_ms / 1e3
            c["chaos_delay_s"] += d
            delay += d
        if cfg.packet_loss_rate:
            drops = 0
            while drops < _MAX_DROPS and self.rng.random() < cfg.packet_loss_rate:
                drops += 1
            if drops:
                c["chaos_drops"] += drops
                resend = drops * (cfg.retransmit_ms / 1e3 + wire_s)
                c["chaos_delay_s"] += resend
                delay += resend
        if cfg.reorder_probability and self.rng.random() < cfg.reorder_probability:
            c["chaos_reorders"] += 1
            hold = cfg.reorder_hold_ms / 1e3
            c["chaos_delay_s"] += hold
            delay += hold
        for window in cfg.partitions:
            held = window.holds(self.p, self.q, now)
            if held > 0.0:
                c["chaos_partition_holds"] += 1
                c["chaos_delay_s"] += held
                delay += held
        return delay


class _ChaosState:
    """Per-iteration link-stream table + counters, shared by both front
    ends (the virtual timeline and the wall-clock shim)."""

    def __init__(self, cfg: ChaosConfig):
        self.cfg = cfg
        self.counters = empty_chaos_counters()
        self._links: dict[tuple[int, int], LinkChaos] = {}

    def link(self, p: int, q: int) -> LinkChaos:
        key = (int(p), int(q))
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = LinkChaos(self.cfg, p, q, self.counters)
        return link

    def hop_penalty(self, p: int, q: int, nbytes: int, now: float) -> float:
        """Extra seconds charged to one p->q hop at time ``now``."""
        if p == q:
            return 0.0
        return self.link(p, q).verdict(nbytes, now)


class ChaosShim(_ChaosState):
    """Wall-clock front end: real injected latency per hop.

    Created per iteration by the socket ring transport, sandwiched
    between :mod:`~repro.distributed.framing` and the wire: the
    transport asks :meth:`send_delay` for each outgoing submodel
    message (one draw per hop, aligning the link streams with the
    simulators), accumulates the answer per destination, and sleeps it
    off immediately before the frame's socket write.

    ``now`` for partition windows is wall seconds since the shim was
    created (= since the iteration's transport came up).

    ``clock`` is required: this module is protocol-deterministic, so the
    wall-clock dependency lives with the transports that construct the
    shim (they pass ``time.monotonic``), never here — tests and replays
    pin a fake clock instead.
    """

    def __init__(self, cfg: ChaosConfig, rank: int, *, clock):
        super().__init__(cfg)
        self.rank = int(rank)
        self._clock = clock
        self._t0 = clock()

    def send_delay(self, dest: int, nbytes: int) -> float:
        return self.hop_penalty(
            self.rank, dest, nbytes, self._clock() - self._t0
        )

    def charge_straggler(self, seconds: float) -> float:
        """Record and return the extra sleep a straggling visit owes:
        ``(factor - 1) * seconds`` of genuine compute time."""
        extra = (self.cfg.straggler_factor(self.rank) - 1.0) * max(seconds, 0.0)
        if extra > 0.0:
            self.counters["chaos_straggler_s"] += extra
        return extra
