"""The simulated ParMAC cluster: the in-process reference implementation.

Executes the full ParMAC protocol of paper section 4 — travelling
submodels on a (possibly per-epoch reshuffled) ring, a final broadcast lap,
and a communication-free Z step — over in-process "machines", each with a
private shard, its own RNG stream and a local store of the latest submodel
copies that passed through it (the redundancy that fault recovery relies
on, section 4.3).

Two interchangeable engines run the identical protocol:

* ``engine="sync"`` — the tick-based synchronous procedure of fig. 3:
  every tick, each machine processes everything in its queue and forwards;
  the virtual clock advances by the slowest machine's (work + send) time.
  Deterministic, supports fault injection.
* ``engine="async"`` — the discrete-event version of the asynchronous
  implementation (section 4.1's queue description): message deliveries are
  heap events; a machine starts a job at ``max(local_clock, arrival)``.
  This is what the speedup experiments measure.

Virtual-clock costs come from a :class:`~repro.distributed.costmodel.CostModel`;
set ``execute_updates=False`` to sweep timing-only configurations (the
speedup does not depend on parameter values, only on the protocol).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.distributed.batching import (
    GroupTable,
    supports_unit_batching,
    train_message_batch,
)
from repro.distributed.chaos import ChaosConfig
from repro.distributed.costmodel import ChaosTimeline, CostModel, OverlapSendTimeline
from repro.distributed.dataplane import DataPlane
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage
from repro.distributed.partition import Shard
from repro.distributed.topology import RingTopology
from repro.optim.sgd import SGDState
from repro.utils.rng import check_random_state, seed_entropy, spawn_rngs

__all__ = ["SimulatedCluster", "WStepStats", "ZStepStats", "FaultEvent"]


@dataclass
class WStepStats:
    """Virtual-clock accounting for one W step.

    ``wall_time`` is the coordinator-observed wall clock of the step —
    virtual time models the cluster, wall time measures this process's
    actual numerics (what the batched-W-step speedup shows up in).
    """

    sim_time: float = 0.0
    comp_time: float = 0.0  # summed over machines
    comm_time: float = 0.0  # summed over hops
    idle_time: float = 0.0  # summed over machines (sync engine only)
    n_messages: int = 0  # hops performed
    bytes_sent: int = 0
    ticks: int = 0  # sync engine only
    wall_time: float = 0.0
    per_machine_comp: dict = field(default_factory=dict)
    per_machine_comm: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)  # injected-event counters


@dataclass
class ZStepStats:
    """Virtual-clock accounting for one Z step."""

    sim_time: float = 0.0
    z_changes: int = 0
    wall_time: float = 0.0
    per_machine_time: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FaultEvent:
    """Kill ``machine`` at the start of tick ``tick`` of a sync W step."""

    machine: int
    tick: int


class SimulatedCluster:
    """P simulated machines executing ParMAC over an adapter's model.

    Parameters
    ----------
    adapter : ParMACAdapter
        The model bridge (e.g. ``BAAdapter``).
    shards : list of Shard
        One per machine; machine ids are assigned 0..P-1.
    epochs : int
        SGD epochs per W step (e).
    scheme : {"rounds", "tworound"}
        Section 4.1 vs section 4.2 W-step communication scheme.
    batch_size : int
        SGD minibatch size within each shard.
    shuffle_within, shuffle_ring : bool
        Within-machine minibatch shuffling and per-epoch ring reshuffling
        (section 4.3).
    cost : CostModel
        Virtual-clock constants; defaults to compute-only (t_wc = 0).
    engine : {"sync", "async"}
    execute_updates : bool
        When False, skip the numerics and only simulate time.
    message_dtype : numpy dtype or None
        Reduced-precision communication (paper section 9: "one can store
        and communicate reduced-precision values for ... parameters with
        little effect on the accuracy"). When set (e.g. ``np.float32``),
        every hop round-trips the parameters through that dtype, and both
        ``bytes_sent`` and the per-hop communication time shrink by the
        itemsize ratio. None keeps messages at the model's full compute
        precision.
    batch_units : bool
        Train co-resident compatible submodels as one stacked pass per
        machine visit (see :mod:`repro.distributed.batching`); engages
        only with ``shuffle_within=False`` on adapters implementing
        ``w_update_batch``.
    overlap_send : bool
        Model pipelined ring sends (default False, the paper's section
        5.1 serial-send accounting). When True, hop time stops occupying
        the sending machine's clock: the sync engine charges each tick
        ``max(work, comm)`` per machine instead of their sum, and the
        discrete-event engine runs each machine's sends through a
        double-buffered :class:`OverlapSendTimeline` — mirroring the
        wall-clock engines' background sender. Timing only; the executed
        numerics are untouched.
    chaos : ChaosConfig, dict or None
        Network/node degradation to charge virtually (loss retransmits,
        delay + jitter, reorder holds, bandwidth throttle, partition
        windows, straggler slowdowns); see
        :class:`~repro.distributed.chaos.ChaosConfig`. A per-W-step
        :class:`~repro.distributed.costmodel.ChaosTimeline` draws the
        same seeded per-link event stream the wall-clock shim injects,
        so degradation curves are directly comparable across engines.
        Timing and accounting only — like ``overlap_send``, the executed
        numerics are untouched on every engine.
    dataplane : DataPlane or None
        Shard-ownership bookkeeping. The execution backends construct one
        and hand it in so streaming/fault counters are visible through the
        generic :class:`~repro.distributed.backends.base.Backend` API;
        standalone clusters build their own.
    seed : int or None
        Master seed; machine RNG streams are derived from it.
    """

    def __init__(
        self,
        adapter,
        shards,
        *,
        epochs: int = 1,
        scheme: str = "rounds",
        batch_size: int = 100,
        shuffle_within: bool = True,
        shuffle_ring: bool = False,
        cost: CostModel | None = None,
        engine: str = "sync",
        execute_updates: bool = True,
        message_dtype=None,
        batch_units: bool = True,
        overlap_send: bool = False,
        chaos=None,
        dataplane: DataPlane | None = None,
        seed=None,
    ):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if scheme not in ("rounds", "tworound"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if engine not in ("sync", "async"):
            raise ValueError(f"unknown engine {engine!r}")
        if message_dtype is not None:
            message_dtype = np.dtype(message_dtype)
            if message_dtype.kind != "f":
                raise ValueError(
                    f"message_dtype must be a float dtype, got {message_dtype}"
                )
        self.adapter = adapter
        self.dataplane = (
            dataplane if dataplane is not None else DataPlane(adapter, shards)
        )
        self.epochs = int(epochs)
        self.scheme = scheme
        self.batch_size = int(batch_size)
        self.shuffle_within = bool(shuffle_within)
        self.shuffle_ring = bool(shuffle_ring)
        self.cost = cost if cost is not None else CostModel()
        self.engine = engine
        self.execute_updates = bool(execute_updates)
        self.message_dtype = message_dtype
        self.batch_units = bool(batch_units)
        self.overlap_send = bool(overlap_send)
        self.chaos = ChaosConfig.coerce(chaos)
        self._chaos_timeline: ChaosTimeline | None = None
        self._compute_dtype = np.dtype(
            getattr(adapter, "compute_dtype", np.float64)
        )
        # Hop time and bytes scale with the wire itemsize relative to the
        # compute dtype's (both default to 8 = float64).
        self._comm_scale = (
            1.0
            if message_dtype is None
            else message_dtype.itemsize / self._compute_dtype.itemsize
        )

        self._route_rng = check_random_state(seed)
        self._machine_rngs = dict(
            zip(
                self.dataplane.machines,
                spawn_rngs(self._route_rng, len(self.shards)),
            )
        )
        # Joining machines draw their RNG streams from a side lineage
        # keyed by machine id — independent of the route stream, so a
        # join can never perturb the remaining shuffle_ring schedule
        # (cross-backend bit-parity would silently break otherwise).
        self._join_entropy = seed_entropy(seed)
        if self._join_entropy is None:
            self._join_entropy = np.random.SeedSequence().entropy
        self.topology = RingTopology(self.dataplane.machines)
        # store[p][sid] -> latest SubmodelMessage copy seen by machine p.
        self._stores: dict[int, dict[int, SubmodelMessage]] = {
            p: {} for p in self.shards
        }

    # ------------------------------------------------------------ topology
    @property
    def shards(self) -> dict[int, Shard]:
        """Machine id -> shard, owned by the shared :class:`DataPlane`."""
        return self.dataplane.shards

    @property
    def machines(self) -> list[int]:
        return self.topology.machines

    @property
    def n_machines(self) -> int:
        return self.topology.n_machines

    @property
    def n_points(self) -> int:
        return self.dataplane.n_points

    # -------------------------------------------------------- W-step setup
    @property
    def _sgd_epochs(self) -> int:
        """Ring laps during training (1 for tworound: e passes per visit)."""
        return self.epochs if self.scheme == "rounds" else 1

    @property
    def _passes_per_visit(self) -> int:
        return 1 if self.scheme == "rounds" else self.epochs

    def _rings(self) -> list[RingTopology]:
        """One ring per training epoch plus one for the broadcast lap."""
        n = self._sgd_epochs + 1
        if self.shuffle_ring:
            return [self.topology.rewired(self._route_rng) for _ in range(n)]
        return [self.topology] * n

    def _successor(self, rings: list[RingTopology], msg: SubmodelMessage, p: int) -> int:
        """Next machine for ``msg`` sitting at ``p`` (epoch-indexed ring)."""
        if msg.training_done:
            return rings[-1].successor(p)
        epoch_idx = self._sgd_epochs - msg.epochs_left
        return rings[min(epoch_idx, len(rings) - 1)].successor(p)

    def _home_assignment(self) -> dict[int, int]:
        """sid -> home machine: contiguous portions of the sid-ordered
        submodel list over the machines in cycle order (fig. 2's layout —
        the same dealing the wall-clock engines plan with)."""
        specs = self.adapter.submodel_specs()
        machines = self.machines
        P = len(machines)
        return {
            spec.sid: machines[i * P // len(specs)] for i, spec in enumerate(specs)
        }

    def _units_batched(self) -> bool:
        """Whether this W step runs batched co-resident-unit updates."""
        return (
            self.batch_units
            and self.execute_updates
            and not self.shuffle_within
            and supports_unit_batching(self.adapter)
        )

    def _initial_messages(self) -> dict[int, list[SubmodelMessage]]:
        """Home assignment seeded into each home machine's queue."""
        specs = self.adapter.submodel_specs()
        homes = self._home_assignment()
        queues: dict[int, list[SubmodelMessage]] = {p: [] for p in self.machines}
        for spec, theta in zip(specs, get_params_many(self.adapter, specs)):
            msg = SubmodelMessage(
                spec=spec,
                theta=np.array(theta, copy=True),
                sgd_state=SGDState(),
                to_visit=set(self.machines),
                epochs_left=self._sgd_epochs,
            )
            queues[homes[spec.sid]].append(msg)
        return queues

    def _train_inline(self, msg: SubmodelMessage, p: int, mu: float) -> None:
        """The legacy per-unit SGD pass for one visit of one submodel."""
        for _ in range(self._passes_per_visit):
            msg.theta = self.adapter.w_update(
                msg.spec,
                msg.theta,
                msg.sgd_state,
                self.shards[p],
                mu,
                batch_size=self.batch_size,
                shuffle=self.shuffle_within,
                rng=self._machine_rngs[p],
            )

    def _process_visit(
        self, msg: SubmodelMessage, p: int, mu: float, *, pretrained: bool = False
    ) -> float:
        """Apply one visit of ``msg`` at machine ``p``; returns work time.

        Mutates the message (training, visit bookkeeping) and the machine's
        local store. Does not route. ``pretrained`` marks visits whose
        numerics already ran through the batched co-resident-unit pass.
        """
        msg.counter += 1
        shard = self.shards[p]
        work = 0.0
        if not msg.training_done:
            if p in msg.to_visit:
                if self.execute_updates and not pretrained:
                    self._train_inline(msg, p, mu)
                work = self._charge_work(
                    p, self.cost.w_work(p, shard.n, self._passes_per_visit)
                )
                msg.to_visit.discard(p)
            if not msg.to_visit:
                msg.epochs_left -= 1
                if msg.epochs_left > 0:
                    msg.to_visit = set(self.machines)
                else:
                    msg.to_broadcast = set(self.machines) - {p}
        else:
            msg.to_broadcast.discard(p)
        # Reduced precision applies to storage as well as the wire (the
        # paper "store[s] and communicate[s] reduced-precision values"), so
        # every machine's copy is bit-identical to what travelled. With a
        # single machine nothing is ever serialised.
        if self.n_machines > 1:
            self._transmit(msg)
        self._stores[p][msg.spec.sid] = msg.copy()
        return work

    def _transmit(self, msg: SubmodelMessage) -> SubmodelMessage:
        """Apply wire-precision loss to a message about to be sent."""
        if self.message_dtype is not None:
            msg.theta = msg.theta.astype(self.message_dtype).astype(
                self._compute_dtype
            )
        return msg

    def _assemble(self) -> None:
        """Write final submodel parameters back into the adapter's model.

        Any machine's store works (they all hold the final copies — an
        invariant checked by :meth:`model_copies_consistent`); we read from
        the first machine in the ring.
        """
        store = self._stores[self.machines[0]]
        set_params_many(
            self.adapter,
            [
                (spec, store[spec.sid].theta)
                for spec in self.adapter.submodel_specs()
            ],
        )

    # ------------------------------------------------------------- chaos
    def _charge_work(self, p: int, work: float) -> float:
        """Compute time after chaos straggler scaling (identity without
        an active timeline)."""
        if self._chaos_timeline is None:
            return work
        return self._chaos_timeline.charge_work(p, work)

    def _chaos_hop(self, p: int, q: int, msg, now: float) -> float:
        """Extra virtual seconds chaos charges one routed hop (0 without
        an active timeline or on a self-hop)."""
        if self._chaos_timeline is None or p == q:
            return 0.0
        return self._chaos_timeline.hop_penalty(
            p, q, int(msg.nbytes * self._comm_scale), now
        )

    # ----------------------------------------------------------- W step
    def w_step(self, mu: float, *, fault: FaultEvent | None = None) -> WStepStats:
        """Run one full W step; assembles the final model into the adapter."""
        t0 = time.perf_counter()
        # A fresh timeline per W step: link RNG streams and event
        # counters realign with the wall-clock transports, which are
        # likewise recreated every iteration.
        self._chaos_timeline = (
            ChaosTimeline(self.chaos)
            if self.chaos is not None and self.chaos.active()
            else None
        )
        try:
            if self.engine == "sync":
                stats = self._w_step_sync(mu, fault)
            else:
                if fault is not None:
                    raise ValueError("fault injection is only supported by the sync engine")
                stats = self._w_step_async(mu)
            if self._chaos_timeline is not None:
                stats.chaos = dict(self._chaos_timeline.counters)
        finally:
            self._chaos_timeline = None
        self._assemble()
        stats.wall_time = time.perf_counter() - t0
        return stats

    def _train_tick_groups(
        self, batch, p: int, mu: float, table: GroupTable
    ) -> None:
        """Batched numerics for one machine's tick batch (sync engine).

        Lockstep delivery keeps convoys intact, so the trainable messages
        of one tick partition into complete convoy groups — keyed by the
        shared :class:`GroupTable`'s (home, batch_key) group id plus the
        visit counter, the same definition every other engine uses; each
        group runs as one stacked pass, submodels whose adapter opts out
        (``batch_key`` None) fall back to the per-unit kernel. No
        completeness wait is needed (or wanted: mid-W-step fault recovery
        can strand partial convoys in a queue, and a tick must train
        whatever is co-resident). Visit bookkeeping, cost accounting and
        routing stay per-message in :meth:`_process_visit` (called with
        ``pretrained=True``).
        """
        groups: dict[tuple, list[SubmodelMessage]] = {}
        singles: list[SubmodelMessage] = []
        for msg in batch:
            if msg.training_done or p not in msg.to_visit:
                continue
            gid = table.group_of.get(msg.spec.sid)
            if gid is None:
                singles.append(msg)
            else:
                groups.setdefault((gid, msg.counter), []).append(msg)
        for msgs in groups.values():
            msgs.sort(key=lambda m: m.spec.sid)
            train_message_batch(
                self.adapter, msgs, self.shards[p], mu,
                passes=self._passes_per_visit, batch_size=self.batch_size,
                rng=self._machine_rngs[p],
            )
        for msg in singles:
            self._train_inline(msg, p, mu)

    def _w_step_sync(self, mu: float, fault: FaultEvent | None) -> WStepStats:
        rings = self._rings()
        queues = self._initial_messages()
        table = (
            GroupTable(self.adapter, self._home_assignment())
            if self._units_batched()
            else None
        )
        stats = WStepStats(
            per_machine_comp={p: 0.0 for p in self.machines},
            per_machine_comm={p: 0.0 for p in self.machines},
        )
        tick = 0
        while any(queues.values()):
            if fault is not None and tick == fault.tick:
                queues = self._recover_from_fault(fault.machine, queues, rings)
                rings = [r.without_machine(fault.machine) for r in rings]
            tick += 1
            outgoing: dict[int, list[tuple[int, SubmodelMessage]]] = {}
            tick_cost: dict[int, float] = {}
            for p in list(queues):
                batch, queues[p] = queues[p], []
                work_p = comm_p = 0.0
                sends: list[tuple[int, SubmodelMessage]] = []
                if table is not None:
                    self._train_tick_groups(batch, p, mu, table)
                for msg in batch:
                    work_p += self._process_visit(
                        msg, p, mu, pretrained=table is not None
                    )
                    if not msg.done:
                        q = self._successor(rings, msg, p)
                        comm_p += self.cost.comm(p, q) * self._comm_scale
                        comm_p += self._chaos_hop(p, q, msg, stats.sim_time)
                        if p != q:
                            stats.bytes_sent += int(msg.nbytes * self._comm_scale)
                            self._transmit(msg)
                        stats.n_messages += 1
                        sends.append((q, msg))
                outgoing[p] = sends
                # Overlapped sends: the background sender puts this
                # tick's messages on the wire while the CPU works, so
                # the machine's tick costs the slower of the two instead
                # of their sum (the steady-state pipeline bound).
                tick_cost[p] = (
                    max(work_p, comm_p) if self.overlap_send else work_p + comm_p
                )
                stats.comp_time += work_p
                stats.comm_time += comm_p
                stats.per_machine_comp[p] = stats.per_machine_comp.get(p, 0.0) + work_p
                stats.per_machine_comm[p] = stats.per_machine_comm.get(p, 0.0) + comm_p
            tick_time = max(tick_cost.values(), default=0.0)
            stats.sim_time += tick_time
            stats.idle_time += sum(tick_time - c for c in tick_cost.values())
            for sends in outgoing.values():
                for q, msg in sends:
                    queues[q].append(msg)
        stats.ticks = tick
        return stats

    class _DeferredBatching:
        """Batched-mode visit machinery for the discrete-event engine.

        Bookkeeping, cost accounting and routing state advance at pop time
        exactly as in :meth:`_process_visit` (they never read parameter
        values), but the *numerics* of a training visit are deferred until
        the message's whole convoy group has popped at the machine — then
        the group trains as one stacked pass. Event order makes the
        deferral safe for downstream *training* reads: a group's last
        member is only pushed onward during the pop that completes the
        group, so a successor's deferred numerics always run strictly
        later in the heap order than this machine's.

        Broadcast visits are the one place a reader can outrun pending
        numerics: the message object is pushed onward at pop time, so a
        broadcast machine may pop it while an upstream training visit is
        still waiting for its convoy. Its store copy is therefore
        registered as a *lazy copy* and back-filled (theta, SGD state)
        every time one of the message's outstanding training visits
        completes — the last completion writes the final parameters, which
        is exactly what the legacy engine would have stored.
        """

        def __init__(self, cluster: "SimulatedCluster", mu: float):
            self.cluster = cluster
            self.mu = mu
            self.table = GroupTable(cluster.adapter, cluster._home_assignment())
            self.pending: dict[tuple, list] = {}  # (p, gid, counter) -> pairs
            self.outstanding: dict[int, int] = {}  # sid -> deferred visits
            self.lazy: dict[int, list] = {}  # sid -> store copies to back-fill

        @property
        def n_pending(self) -> int:
            return sum(len(bucket) for bucket in self.pending.values())

        def visit(self, msg: SubmodelMessage, p: int) -> float:
            cluster = self.cluster
            msg.counter += 1
            shard = cluster.shards[p]
            work = 0.0
            trains = False
            if not msg.training_done:
                if p in msg.to_visit:
                    trains = True
                    work = cluster._charge_work(
                        p, cluster.cost.w_work(p, shard.n, cluster._passes_per_visit)
                    )
                    msg.to_visit.discard(p)
                if not msg.to_visit:
                    msg.epochs_left -= 1
                    if msg.epochs_left > 0:
                        msg.to_visit = set(cluster.machines)
                    else:
                        msg.to_broadcast = set(cluster.machines) - {p}
            else:
                msg.to_broadcast.discard(p)
            sid = msg.spec.sid
            if not trains:
                stored = msg.copy()
                cluster._stores[p][sid] = stored
                if self.outstanding.get(sid, 0):
                    # Upstream numerics still pending: back-fill later.
                    self.lazy.setdefault(sid, []).append(stored)
                elif cluster.n_machines > 1:
                    cluster._transmit(msg)
                    stored.theta = np.array(msg.theta, copy=True)
                return work
            # The store receives its copy now (legacy write order) but the
            # parameters land in it when the group's numerics run.
            stored = msg.copy()
            cluster._stores[p][sid] = stored
            self.outstanding[sid] = self.outstanding.get(sid, 0) + 1
            gid = self.table.group_of.get(sid)
            if gid is None:
                self._finish(p, [(msg, stored)], batched=False)
                return work
            bucket = self.pending.setdefault((p, gid, msg.counter), [])
            bucket.append((msg, stored))
            if len(bucket) == self.table.group_size[gid]:
                del self.pending[(p, gid, msg.counter)]
                bucket.sort(key=lambda pair: pair[0].spec.sid)
                self._finish(p, bucket, batched=True)
            return work

        def _finish(self, p: int, pairs, *, batched: bool) -> None:
            """Run a completed group's numerics, wire cast and store fills."""
            cluster = self.cluster
            msgs = [msg for msg, _ in pairs]
            if batched:
                train_message_batch(
                    cluster.adapter, msgs, cluster.shards[p], self.mu,
                    passes=cluster._passes_per_visit,
                    batch_size=cluster.batch_size,
                    rng=cluster._machine_rngs[p],
                )
            else:
                for msg in msgs:
                    cluster._train_inline(msg, p, self.mu)
            for msg, stored in pairs:
                if cluster.n_machines > 1:
                    cluster._transmit(msg)
                sid = msg.spec.sid
                self.outstanding[sid] -= 1
                for copy_ in (stored, *self.lazy.get(sid, ())):
                    copy_.theta = np.array(msg.theta, copy=True)
                    copy_.sgd_state = msg.sgd_state.copy()
                if not self.outstanding[sid]:
                    self.lazy.pop(sid, None)

    def _w_step_async(self, mu: float) -> WStepStats:
        rings = self._rings()
        queues = self._initial_messages()
        deferred = self._DeferredBatching(self, mu) if self._units_batched() else None
        timeline = OverlapSendTimeline() if self.overlap_send else None
        stats = WStepStats(
            per_machine_comp={p: 0.0 for p in self.machines},
            per_machine_comm={p: 0.0 for p in self.machines},
        )
        clock = {p: 0.0 for p in self.machines}
        heap: list[tuple[float, int, int, SubmodelMessage]] = []
        seq = 0
        # Initial local submodels are "delivered" at t=0 with no comm cost.
        for p, batch in queues.items():
            for msg in batch:
                heapq.heappush(heap, (0.0, seq, p, msg))
                seq += 1
        while heap:
            arrival, _, p, msg = heapq.heappop(heap)
            start = max(clock[p], arrival)
            stats.idle_time += max(0.0, arrival - clock[p]) if clock[p] < arrival else 0.0
            if deferred is not None:
                work = deferred.visit(msg, p)
            else:
                work = self._process_visit(msg, p, mu)
            clock[p] = start + work
            stats.comp_time += work
            stats.per_machine_comp[p] += work
            if not msg.done:
                q = self._successor(rings, msg, p)
                hop = self.cost.comm(p, q) * self._comm_scale
                hop += self._chaos_hop(p, q, msg, clock[p])
                stats.comm_time += hop
                stats.per_machine_comm[p] += hop
                if timeline is not None and hop > 0.0:
                    # Overlap: the hop runs on the machine's NIC timeline;
                    # the worker's clock advances only if both send
                    # buffers were full (double-buffer backpressure).
                    resume, delivery = timeline.submit(p, clock[p], hop)
                    clock[p] = resume
                else:
                    # t_wc is time the machine *spends* communicating
                    # (section 5.1: "the time spent by a given machine in
                    # first receiving a submodel and then sending it"), so
                    # it occupies the sender's clock as well as delaying
                    # the delivery.
                    clock[p] += hop
                    delivery = clock[p]
                if p != q:
                    stats.bytes_sent += int(msg.nbytes * self._comm_scale)
                    if deferred is None:
                        # Batched mode applies the wire cast when the
                        # group's deferred numerics run.
                        self._transmit(msg)
                stats.n_messages += 1
                heapq.heappush(heap, (delivery, seq, q, msg))
                seq += 1
        if deferred is not None and deferred.n_pending:
            raise RuntimeError(
                f"{deferred.n_pending} submodel visit(s) never completed "
                "their batch group — convoy tracking bug"
            )
        stats.sim_time = max(clock.values(), default=0.0)
        if timeline is not None:
            # The step is not over until the last NIC finishes draining.
            stats.sim_time = max(stats.sim_time, timeline.tail())
        return stats

    # ----------------------------------------------------- fault recovery
    def _recover_from_fault(
        self,
        dead: int,
        queues: dict[int, list[SubmodelMessage]],
        rings: list[RingTopology],
    ) -> dict[int, list[SubmodelMessage]]:
        """Remove a machine mid-W-step and rescue its in-flight submodels.

        Paper section 4.3: reconnect the ring; submodels lost in the dead
        machine are reverted to "the previously updated copy, which resides
        in the predecessor"; all visit lists drop the dead machine.
        """
        if dead not in self.shards:
            raise KeyError(f"machine {dead} does not exist")
        if self.n_machines == 1:
            raise ValueError("cannot fail the only machine")
        lost = queues.pop(dead, [])
        pred = self.topology.predecessor(dead)
        succ = self.topology.successor(dead)
        # Survivors' in-flight messages must simply forget the dead machine.
        for batch in queues.values():
            for msg in batch:
                if msg.to_visit is not None:
                    msg.to_visit.discard(dead)
                if msg.to_broadcast is not None:
                    msg.to_broadcast.discard(dead)
        for msg in lost:
            rescue = self._stores[pred].get(msg.spec.sid)
            if rescue is None:
                # Not yet processed anywhere downstream: any copy will do
                # (paper: "we can use any copy in any machine"); fall back
                # to the freshest copy among survivors, else the original.
                candidates = [
                    s[msg.spec.sid]
                    for q, s in self._stores.items()
                    if q != dead and msg.spec.sid in s
                ]
                rescue = max(candidates, key=lambda m: m.counter) if candidates else msg
            revived = rescue.copy()
            if revived.to_visit is not None:
                revived.to_visit.discard(dead)
            if revived.to_broadcast is not None:
                revived.to_broadcast.discard(dead)
            if not revived.done:
                queues[succ].append(revived)
        # The machine leaves the cluster for good: shard, store, topology.
        self.dataplane.retire(dead, lost=True)
        del self._stores[dead]
        del self._machine_rngs[dead]
        self.topology = self.topology.without_machine(dead)
        return queues

    # ------------------------------------------------------------- Z step
    def z_step(self, mu: float) -> ZStepStats:
        """Run the Z step on every shard — no communication at all."""
        t0 = time.perf_counter()
        stats = ZStepStats(per_machine_time={})
        n_submodels = len(self.adapter.submodel_specs())
        slow = (
            self.chaos.straggler_factor
            if self.chaos is not None and self.chaos.active()
            else (lambda p: 1.0)
        )
        for p in self.machines:
            shard = self.shards[p]
            if self.execute_updates:
                stats.z_changes += self.adapter.z_update(shard, mu)
            t = self.cost.z_work(p, shard.n, n_submodels) * slow(p)
            stats.per_machine_time[p] = t
        stats.sim_time = max(stats.per_machine_time.values(), default=0.0)
        stats.wall_time = time.perf_counter() - t0
        return stats

    def iteration(self, mu: float, *, fault: FaultEvent | None = None):
        """One MAC iteration: W step then Z step."""
        w = self.w_step(mu, fault=fault)
        z = self.z_step(mu)
        return w, z

    # ---------------------------------------------------------- streaming
    def add_data(self, p: int, X_new: np.ndarray) -> None:
        """Streaming form 1: a machine acquires new points (section 4.3).

        Codes are created locally "by applying the nested model"; nothing
        crosses the network. Validation and application go through the
        shared :class:`DataPlane` — the same code path the wall-clock
        backends' ``ingest`` drains through.
        """
        self.dataplane.apply(self.dataplane.prepare_ingest(p, X_new))

    def remove_data(self, p: int, local_idx) -> None:
        """Streaming form 1: a machine discards points (section 4.3)."""
        self.dataplane.remove_rows(p, local_idx)

    def add_machine(self, X_new: np.ndarray, *, after: int | None = None) -> int:
        """Streaming form 2: a new preloaded machine joins the ring.

        It receives a copy of the current model (trivially: the stores are
        in-process; in the paper it picks the copies up during the final
        broadcast round). Validation goes through the shared
        :meth:`DataPlane.check_join` — the same clear errors ``ingest``
        raises, so a wrong-width shard fails here instead of joining
        silently and exploding later.
        """
        p = self.dataplane.admit(X_new)
        self._admit_machine(p, after=after)
        return p

    def _join_rng(self, p: int) -> np.random.Generator:
        """Machine ``p``'s join-time RNG stream, keyed by id.

        Derived from the cluster's side entropy lineage, never from the
        route RNG: spawning a stream for a join must not advance the
        route stream, or the join would perturb every subsequent
        ``shuffle_ring`` schedule and break cross-backend bit-parity for
        the rest of the fit. Keying by machine id (not join order) also
        makes the stream independent of when the machine joined.
        """
        # spawn_key entries must fit in uint32; 0x4A4F494E is "JOIN".
        ss = np.random.SeedSequence(
            entropy=self._join_entropy, spawn_key=(0x4A4F494E, int(p))
        )
        return np.random.default_rng(ss)

    def _admit_machine(self, p: int, *, after: int | None = None) -> None:
        """Wire an already-registered shard's machine into the cluster:
        ring insertion, model hand-off, private RNG stream."""
        self.topology = self.topology.with_machine(p, after=after)
        # Clone the model from verified-live survivors only, taking the
        # freshest copy of each submodel (highest visit counter; earliest
        # live machine wins ties). Between iterations every store holds
        # identical finals, but a join racing a same-tick retirement must
        # never clone from a stale or deleted store.
        donor: dict[int, SubmodelMessage] = {}
        for q in self.topology.machines:
            if q == p or q not in self._stores or self.dataplane.is_retired(q):
                continue
            for sid, m in self._stores[q].items():
                best = donor.get(sid)
                if best is None or m.counter > best.counter:
                    donor[sid] = m
        self._stores[p] = {sid: m.copy() for sid, m in donor.items()}
        self._machine_rngs[p] = self._join_rng(p)

    def remove_machine(self, p: int) -> None:
        """Streaming form 2 / Z-step fault: drop a machine and its data."""
        if p not in self.shards:
            raise KeyError(f"machine {p} does not exist")
        if self.n_machines == 1:
            raise ValueError("cannot remove the only machine")
        self.dataplane.retire(p, lost=False)
        del self._stores[p]
        del self._machine_rngs[p]
        self.topology = self.topology.without_machine(p)

    # ------------------------------------------------------- checkpointing
    def rng_states(self) -> tuple[dict, dict]:
        """(route RNG state, {machine: RNG state}) as picklable dicts."""
        return (
            self._route_rng.bit_generator.state,
            {p: rng.bit_generator.state for p, rng in self._machine_rngs.items()},
        )

    def restore_rngs(self, route_state, machine_states) -> None:
        """Adopt RNG states captured by :meth:`rng_states`."""
        if route_state is not None:
            self._route_rng.bit_generator.state = route_state
        for p, st in machine_states.items():
            p = int(p)
            if p in self._machine_rngs:
                self._machine_rngs[p].bit_generator.state = st

    def seed_stores(self, params_by_sid: dict) -> None:
        """Fill every machine's store with the given final submodels.

        Restoring a checkpoint recreates the post-W-step invariant (every
        machine holds identical final copies) from the snapshot's
        assembled parameters; the visit counter is set to 0 uniformly —
        nothing between iterations reads it, and the next W step seeds
        fresh messages from the adapter anyway.
        """
        specs = {s.sid: s for s in self.adapter.submodel_specs()}
        self._stores = {
            p: {
                sid: SubmodelMessage(
                    spec=specs[sid],
                    theta=np.array(theta, copy=True),
                    sgd_state=SGDState(),
                )
                for sid, theta in params_by_sid.items()
            }
            for p in self.machines
        }

    # -------------------------------------------------------- diagnostics
    def gather_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """(global_indices, codes) concatenated over shards."""
        idx = np.concatenate([self.shards[p].indices for p in self.machines])
        Z = np.vstack([self.shards[p].Z for p in self.machines])
        order = np.argsort(idx, kind="stable")
        return idx[order], Z[order]

    def model_copies_consistent(self) -> bool:
        """Check the post-W-step invariant: every machine holds identical,
        final copies of every submodel (paper: "each machine contains a
        (redundant) copy of all the current submodels")."""
        specs = self.adapter.submodel_specs()
        ref = self._stores[self.machines[0]]
        for p in self.machines:
            store = self._stores[p]
            for spec in specs:
                if spec.sid not in store or spec.sid not in ref:
                    return False
                if not np.array_equal(store[spec.sid].theta, ref[spec.sid].theta):
                    return False
        return True

    def stats(self, mu: float) -> tuple[float, float, float]:
        """Global ``(E_Q, nested objective, violations)``: one statistics
        pass per shard, summed in ring order (no data movement)."""
        e_q = e_ba = violations = 0
        for p in self.machines:
            q, b, v = self.adapter.shard_stats(self.shards[p], mu)
            e_q += q
            e_ba += b
            violations += v
        return float(e_q), float(e_ba), violations

    def e_q(self, mu: float) -> float:
        """Global E_Q from per-shard contributions."""
        return self.stats(mu)[0]
