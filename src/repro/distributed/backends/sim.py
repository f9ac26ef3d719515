"""The simulated engines: one tick executor, two clocks.

``sync`` and ``async`` run the full ParMAC protocol of paper section 4 —
travelling submodels on a (possibly per-epoch reshuffled) ring, a final
broadcast lap, and a communication-free Z step — over in-process
"machines", each with a private shard and a local
store of the latest submodel copies that passed through it (the
redundancy fault recovery relies on, section 4.3).

Both engines execute the W step through one **tick executor**, fig. 3's
lockstep procedure: every tick, each machine processes everything in its
queue and forwards. It is the only code that runs numerics and visit
bookkeeping, so the two engines compute identical parameters and codes.
It records every visit as (tick, machine, work, next machine, wire
bytes), and the engines differ only in the clock that replays that
record into virtual time:

* ``sync`` reads the **tick clock** (fig. 3): a tick costs the slowest
  machine's work + comm.
* ``async`` reads the **event clock** (section 4.1's queues): deliveries
  are heap events, a machine starts a visit at ``max(local clock,
  arrival)``, and each hop occupies the sender's clock. This is what
  the speedup experiments measure.

Clocks only count. Costs come from a
:class:`~repro.distributed.costmodel.CostModel`; chaos (delay, loss,
partitions, stragglers) is charged by a per-W-step
:class:`~repro.distributed.costmodel.ChaosTimeline` at each hop's virtual
time. ``execute_updates=False`` skips the numerics for timing-only sweeps
(the speedup depends on the protocol, not on parameter values).

Streaming and faults are backend capabilities: ``ingest`` and
``add_machine`` queue through the shared
:class:`~repro.distributed.dataplane.DataPlane` and drain at iteration
boundaries. Machine deaths follow the declared
:class:`~repro.distributed.backends.base.FaultPolicy` and, under
``drop_shard``, map onto the wall-clock engines' outcomes:

* a tick-0 fault or a W-point chaos crash retires the machine, then runs
  the W step on the survivors (the wall-clock excise-and-rerun);
* a Z-point crash runs the W step on every machine, then retires it
  before the Z step;
* a fault at tick >= 1 (``sync`` only, :meth:`_SimBackend.inject_fault`)
  is the section 4.3 rescue.
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.distributed.backends.base import (
    BaseBackend,
    FaultPolicy,
    IterationStats,
    register_backend,
)
from repro.distributed.batching import GroupTable, train_message_batch
from repro.distributed.costmodel import ChaosTimeline, CostModel
from repro.distributed.dataplane import ClusterState, DataPlane
from repro.distributed.interfaces import ZStepResult, get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage
from repro.distributed.protocol import RoutePlan, WStepProtocol, home_assignment
from repro.distributed.topology import RingTopology
from repro.optim.sgd import SGDState

__all__ = ["SyncSimBackend", "AsyncSimBackend", "WStepStats", "ZStepStats", "FaultEvent"]


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
    idle_time: float = 0.0  # summed over machines
    n_messages: int = 0  # hops performed
    bytes_sent: int = 0
    ticks: int = 0  # tick clock only
    wall_time: float = 0.0
    per_machine_comp: dict = field(default_factory=dict)
    per_machine_comm: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)  # injected-event counters


@dataclass
class ZStepStats:
    """Virtual-clock accounting for one Z step, with the shard statistics
    it reports, totalled over machines."""

    sim_time: float = 0.0
    z_changes: int = 0
    wall_time: float = 0.0
    per_machine_time: dict = field(default_factory=dict)
    e_q: float = 0.0
    e_ba: float = 0.0
    violations: float = 0


@dataclass(frozen=True)
class FaultEvent:
    """Kill ``machine`` at the start of tick ``tick`` of a W step; tick 0
    is before its first hop."""

    machine: int
    tick: int


def _charge(chaos, p: int, work: float) -> float:
    """Compute time after chaos straggler scaling."""
    return work if chaos is None else chaos.charge_work(p, work)


def _chaos_hop(chaos, p: int, q: int, nbytes: int, now: float) -> float:
    """Extra virtual seconds chaos charges one p -> q hop at ``now``."""
    return 0.0 if chaos is None else chaos.hop_penalty(p, q, nbytes, now)


def _forget(msg: SubmodelMessage, p: int) -> None:
    """Drop machine ``p`` from a message's visit and broadcast lists."""
    msg.to_visit.discard(p)
    if msg.to_broadcast is not None:
        msg.to_broadcast.discard(p)


class _SimBackend(BaseBackend):
    """The simulator both engines share; subclasses supply ``_clock``.

    Extra parameter beyond :class:`BaseBackend`:

    execute_updates : bool
        When False, skip the numerics and only simulate time (timing-only
        protocol sweeps).

    After ``setup`` the backend *is* the simulated cluster: ``shards``,
    ``machines``, ``topology``, :meth:`w_step`, :meth:`z_step`,
    :meth:`stats`, :meth:`gather_codes` and the per-machine stores stay
    readable between iterations and after teardown.
    """

    def __init__(self, *, execute_updates: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.execute_updates = bool(execute_updates)
        if self.cost is None:
            self.cost = CostModel()
        self.topology: RingTopology | None = None
        self._pending_fault: FaultEvent | None = None

    def setup(self, adapter, shards) -> None:
        self._bind(adapter, DataPlane(adapter, shards))

    def _bind(self, adapter, dataplane: DataPlane, key_root=None) -> None:
        """Start a fit over ``dataplane``'s machines: ring, key root,
        empty stores. The one builder behind ``setup`` and ``restore``."""
        self.adapter = adapter
        self._bind_dataplane(dataplane, key_root)
        self._pending_fault = None
        machines = dataplane.machines
        self.topology = RingTopology(machines)
        # store[p][sid] -> latest copy machine p saw in the current W step.
        self._stores: dict[int, dict[int, SubmodelMessage]] = {p: {} for p in machines}
        # Hop time and bytes scale with the wire itemsize relative to the
        # compute dtype's (both default to 8 = float64).
        self._comm_scale = (
            1.0
            if self.message_dtype is None
            else self.message_dtype.itemsize / self.compute_dtype.itemsize
        )

    # ------------------------------------------------------------ topology
    @property
    def shards(self) -> dict:
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
        """One ring per training epoch plus one for the broadcast lap: the
        keyed plan of :meth:`RoutePlan.shuffled` under ``shuffle_ring``,
        as on every engine."""
        protocol = WStepProtocol(self.n_machines, self.epochs, self.scheme)
        if self.shuffle_ring:
            return RoutePlan.shuffled(
                self.machines, protocol, self._key_root, self._iterations_done
            ).rings
        return [self.topology] * protocol.n_rings

    def _successor(self, rings: list[RingTopology], msg: SubmodelMessage, p: int) -> int:
        """Next machine for ``msg`` sitting at ``p`` (epoch-indexed ring)."""
        if msg.training_done:
            return rings[-1].successor(p)
        epoch_idx = self._sgd_epochs - msg.epochs_left
        return rings[min(epoch_idx, len(rings) - 1)].successor(p)

    def _initial_messages(self, specs, homes) -> dict[int, list[SubmodelMessage]]:
        """Every submodel, seeded into its home machine's queue."""
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

    def _visit_key(self, msg: SubmodelMessage, p: int):
        """What the minibatch orders of ``msg``'s visit to ``p`` are keyed
        on — ``msg.counter`` is the visit's index, read before the visit
        counts it — or None without ``shuffle_within``."""
        if not self.shuffle_within:
            return None
        home = self._homes[msg.spec.sid]
        return (self._key_root, self._iterations_done, p, msg.counter, home)

    def _process_visit(self, msg: SubmodelMessage, p: int) -> float:
        """Book one visit of ``msg`` at machine ``p``; returns its work
        (the cost model's charge, before chaos).

        Mutates the message's visit bookkeeping and the machine's local
        store; the numerics already ran in :meth:`_train_tick_groups`.
        Does not route.
        """
        work = 0.0
        if not msg.training_done:
            if p in msg.to_visit:
                work = self.cost.w_work(p, self.shards[p].n, self._passes_per_visit)
                msg.to_visit.discard(p)
            if not msg.to_visit:
                msg.epochs_left -= 1
                if msg.epochs_left > 0:
                    msg.to_visit = set(self.machines)
                else:
                    msg.to_broadcast = set(self.machines) - {p}
        else:
            msg.to_broadcast.discard(p)
        msg.counter += 1
        # Wire precision applies to storage as well as the wire (the paper
        # "store[s] and communicate[s] reduced-precision values"), so every
        # machine's copy is bit-identical to what travels on. With a single
        # machine nothing is ever serialised.
        if self.n_machines > 1 and self.message_dtype is not None:
            msg.theta = msg.theta.astype(self.message_dtype).astype(self.compute_dtype)
        self._stores[p][msg.spec.sid] = msg.copy()
        return work

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

    # ----------------------------------------------------------- W step
    def w_step(self, mu: float, *, fault: FaultEvent | None = None) -> WStepStats:
        """Run one full W step; assembles the final model into the adapter."""
        t0 = time.perf_counter()
        if fault is not None and self.name != "sync":
            raise ValueError("fault injection is only supported by the sync engine")
        if fault is not None and fault.tick == 0:
            # Dead before its first hop: retire it and train on the
            # survivors — the wall-clock engines' excise-and-rerun.
            self._retire(fault.machine, lost=True)
            fault = None
        machines = self.machines
        record = self._execute(mu, fault)
        # A fresh timeline per W step: link RNG streams and event
        # counters realign with the wall-clock transports, which are
        # likewise recreated every iteration.
        chaos = (
            ChaosTimeline(self.chaos)
            if self.chaos is not None and self.chaos.active()
            else None
        )
        stats = self._clock(record, machines, chaos)
        if chaos is not None:
            stats.chaos = dict(chaos.counters)
        self._assemble()
        stats.wall_time = time.perf_counter() - t0
        return stats

    def _train_tick_groups(
        self, batch, p: int, mu: float, table: GroupTable
    ) -> None:
        """Batched numerics for one machine's tick batch.

        Lockstep delivery keeps convoys intact, so the trainable messages
        of one tick partition into complete convoy groups — keyed by the
        shared :class:`GroupTable`'s (home, batch_key) group id plus the
        visit counter, the same definition every other engine uses; each
        group runs as one stacked pass. No completeness wait is needed (or
        wanted: mid-W-step fault recovery can strand partial convoys in a
        queue, and a tick must train whatever is co-resident). Visit
        bookkeeping, cost accounting and routing stay per-message in
        :meth:`_process_visit`.
        """
        groups: dict[tuple, list[SubmodelMessage]] = {}
        for msg in batch:
            if msg.training_done or p not in msg.to_visit:
                continue
            gid = table.group_of[msg.spec.sid]
            groups.setdefault((gid, msg.counter), []).append(msg)
        for msgs in groups.values():
            msgs.sort(key=lambda m: m.spec.sid)
            train_message_batch(
                self.adapter, msgs, self.shards[p], mu,
                passes=self._passes_per_visit, batch_size=self.batch_size,
                key=self._visit_key(msgs[0], p),
            )

    def _execute(self, mu: float, fault: FaultEvent | None) -> list[dict]:
        """The tick executor: one W step's numerics and visit bookkeeping.

        Returns the record the clocks replay: per tick, ``{machine:
        [(sid, work, next machine, wire bytes), ...]}`` with every live
        machine (idle ones too) and every visit in processing order;
        ``next`` is None once the submodel is done.
        """
        # Fresh stores: a copy from an earlier W step is never rescued.
        self._stores = {p: {} for p in self.machines}
        rings = self._rings()
        specs = self.adapter.submodel_specs()
        homes = self._homes = home_assignment(len(specs), self.machines)
        queues = self._initial_messages(specs, homes)
        table = GroupTable(self.adapter, homes) if self.execute_updates else None
        record: list[dict] = []
        while any(queues.values()):
            if fault is not None and len(record) == fault.tick:
                self._rescue(fault.machine, queues)
                rings = [r.without_machine(fault.machine) for r in rings]
            tick: dict[int, list] = {}
            sends: list[tuple[int, SubmodelMessage]] = []
            for p in list(queues):
                batch, queues[p] = queues[p], []
                if table is not None:
                    self._train_tick_groups(batch, p, mu, table)
                visits = tick[p] = []
                for msg in batch:
                    work = self._process_visit(msg, p)
                    q = None
                    if not msg.done:
                        q = self._successor(rings, msg, p)
                        sends.append((q, msg))
                    visits.append(
                        (msg.spec.sid, work, q, int(msg.nbytes * self._comm_scale))
                    )
            record.append(tick)
            for q, msg in sends:
                queues[q].append(msg)
        return record

    def _clock(self, record: list[dict], machines, chaos) -> WStepStats:
        """Replay a tick executor record into virtual time."""
        raise NotImplementedError

    # ----------------------------------------------------- fault recovery
    def _rescue(self, dead: int, queues: dict[int, list[SubmodelMessage]]) -> None:
        """Remove a machine mid-W-step and rescue its in-flight submodels.

        Paper section 4.3: reconnect the ring; a submodel lost in the dead
        machine reverts to "the previously updated copy" — the freshest
        copy a survivor stored in *this* W step, which is the one its
        sender kept when forwarding it; all visit lists drop the dead
        machine.
        """
        succ = self.topology.successor(dead)
        lost = queues.pop(dead, [])
        self._retire(dead, lost=True)
        for batch in queues.values():
            for msg in batch:
                _forget(msg, dead)
        for msg in lost:
            sid = msg.spec.sid
            copies = [store[sid] for store in self._stores.values() if sid in store]
            revived = max(copies, key=lambda m: m.counter).copy()
            _forget(revived, dead)
            if not revived.done:
                queues[succ].append(revived)

    def _retire(self, p: int, *, lost: bool) -> None:
        """Drop machine ``p``: shard, store, ring position."""
        self.dataplane.retire(p, lost=lost)
        del self._stores[p]
        self.topology = self.topology.without_machine(p)

    def remove_machine(self, p: int) -> None:
        """Streaming form 2 / Z-step fault: drop a machine and its data."""
        self._retire(p, lost=False)

    # ------------------------------------------------------------- Z step
    def z_step(self, mu: float) -> ZStepStats:
        """Run the Z step on every shard — no communication at all — and
        total the statistics it reports. Under ``execute_updates=False``
        only the clock runs: no adapter call, and the statistics stay 0."""
        t0 = time.perf_counter()
        stats = ZStepStats(per_machine_time={})
        n_submodels = len(self.adapter.submodel_specs())
        slow = (
            self.chaos.straggler_factor
            if self.chaos is not None and self.chaos.active()
            else (lambda p: 1.0)
        )
        results = {}
        for p in self.machines:
            shard = self.shards[p]
            if self.execute_updates:
                results[p] = self.adapter.z_update(shard, mu)
            t = self.cost.z_work(p, shard.n, n_submodels) * slow(p)
            stats.per_machine_time[p] = t
        total = ZStepResult.total(results)
        stats.z_changes, stats.e_q, stats.e_ba, stats.violations = total
        stats.sim_time = max(stats.per_machine_time.values(), default=0.0)
        stats.wall_time = time.perf_counter() - t0
        return stats

    # ---------------------------------------------------------- iteration
    def inject_fault(self, machine: int, *, tick: int = 0) -> None:
        """Schedule machine ``machine`` to die during the next W step.

        Only the ``sync`` engine takes injected faults (the event clock
        has no tick to anchor one to); the effect is governed by
        ``fault_policy``.
        """
        if self.name != "sync":
            raise ValueError("fault injection is only supported by the sync engine")
        if self.topology is None:
            raise RuntimeError("setup() must run before inject_fault()")
        if machine not in self.shards:
            raise KeyError(f"machine {machine} does not exist")
        self._pending_fault = FaultEvent(machine=int(machine), tick=int(tick))

    def run_iteration(self, mu: float) -> IterationStats:
        if self.topology is None:
            raise RuntimeError("setup() must run before run_iteration()")
        added, replan_s = self.drain_joins()
        rows = self.drain_ingests()
        fault, self._pending_fault = self._pending_fault, None
        crashes = {}
        if self.chaos is not None:
            for p in self.machines:
                point = self.chaos.crash_point(p, self._iterations_done)
                if point is not None:
                    crashes[p] = point
        lost_before = self.dataplane.shards_lost
        respawns = 0
        if self.fault_policy is FaultPolicy.RESPAWN:
            # A simulated machine has no process to lose: the "respawned"
            # cluster is by construction back at the iteration boundary,
            # so the retried iteration *is* the fault-free iteration.
            # Absorb the deaths, count them, keep the numerics untouched —
            # the same bit-identity contract the wall-clock engines
            # deliver the hard way.
            respawns = len(crashes) + (fault is not None)
            fault, crashes = None, {}
        if self.fault_policy is FaultPolicy.FAIL_FAST and (fault is not None or crashes):
            dead = fault.machine if fault is not None else next(iter(crashes))
            raise RuntimeError(
                f"machine {dead} died mid-iteration; "
                "fit aborted (fault_policy='fail_fast')"
            )
        t0 = time.perf_counter()
        # Crashes take the wall-clock outcome: a W-point death loses the
        # machine before its first hop, a Z-point one after its last.
        for p in [p for p, point in crashes.items() if point == "w"]:
            self._retire(p, lost=True)
        wstats = self.w_step(mu, fault=fault)
        if fault is not None and fault.machine in self.shards:
            # The W step drained before the scheduled tick: the requested
            # death never happened. A resilience experiment must not
            # silently measure a fault-free run.
            raise RuntimeError(
                f"injected fault at tick {fault.tick} never fired: the W "
                f"step finished after {wstats.ticks} ticks"
            )
        for p in [p for p, point in crashes.items() if point == "z"]:
            self._retire(p, lost=True)
        zstats = self.z_step(mu)
        wall = time.perf_counter() - t0
        if not self.execute_updates:  # timing only: the shards as they stand
            zstats.e_q, zstats.e_ba, zstats.violations = self.stats(mu)
        self._iterations_done += 1
        respawn_extras = (
            {"respawns": respawns, "respawn_wait_s": 0.0}
            if self.fault_policy is FaultPolicy.RESPAWN
            else {}
        )
        return IterationStats(
            mu=float(mu),
            e_q=zstats.e_q,
            e_ba=zstats.e_ba,
            z_changes=zstats.z_changes,
            violations=zstats.violations,
            time=wstats.sim_time + zstats.sim_time,
            wall_time=wall,
            extra={
                "w_sim_time": wstats.sim_time,
                "z_sim_time": zstats.sim_time,
                "comp_time": wstats.comp_time,
                "comm_time": wstats.comm_time,
                "bytes_sent": wstats.bytes_sent,
                "wall_time": wall,
                "w_time": wstats.wall_time,
                "z_time": zstats.wall_time,
                **wstats.chaos,
                **self._dtype_extras(),
                **respawn_extras,
            },
            bytes_sent=int(wstats.bytes_sent),
            rows_ingested=rows,
            shards_lost=self.dataplane.shards_lost - lost_before,
            n_machines=self.n_machines,
            machines_added=added,
            replan_s=replan_s,
        )

    # ----------------------------------------------------------- elasticity
    def _apply_join(self, p: int, after: int | None) -> None:
        """Admit a registered machine: ring insertion and a copy of the
        current model (in the paper it picks the copies up during the
        final broadcast lap)."""
        self.topology = self.topology.with_machine(p, after=after)
        specs = self.adapter.submodel_specs()
        self._stores[p] = {
            s.sid: SubmodelMessage.final(s, theta)
            for s, theta in zip(specs, get_params_many(self.adapter, specs))
        }

    # ------------------------------------------------------- checkpointing
    def _collect_shards(self) -> dict:
        # The simulated engines own the shard arrays in-process; deep-copy
        # them so the snapshot is decoupled from further training.
        return {p: copy.deepcopy(s) for p, s in self.dataplane.shards.items()}

    def _ring_order(self) -> list[int]:
        return self.topology.machines

    def restore(self, state: ClusterState, adapter=None) -> None:
        adapter = self._restore_common(state, adapter)
        shards = {int(p): copy.deepcopy(s) for p, s in state.shards.items()}
        dataplane = DataPlane(adapter, shards)
        dataplane.restore_bookkeeping(state.bookkeeping)
        self._bind(adapter, dataplane, state.key_root)
        # Joins may have inserted machines mid-cycle.
        self.topology = RingTopology(state.ring_order)
        self._restore_pending_ingests(state)

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
        """Global ``(E_Q, nested objective, violations)`` of the shards as
        they stand: one ``shard_stats`` call per shard, totalled like the
        Z step's (no data movement)."""
        total = ZStepResult.total({
            p: ZStepResult(0, *self.adapter.shard_stats(self.shards[p], mu))
            for p in self.machines
        })
        return total.e_q, total.e_ba, total.violations


@register_backend("sync")
class SyncSimBackend(_SimBackend):
    """The tick executor read by fig. 3's tick clock; the only engine
    that takes injected mid-W-step faults."""

    def _clock(self, record: list[dict], machines, chaos) -> WStepStats:
        """Every tick costs the slowest machine's tick; the others idle."""
        stats = WStepStats(
            ticks=len(record),
            per_machine_comp=dict.fromkeys(machines, 0.0),
            per_machine_comm=dict.fromkeys(machines, 0.0),
        )
        for tick in record:
            tick_cost: dict[int, float] = {}
            for p, visits in tick.items():
                work_p = comm_p = 0.0
                for _, work, q, nbytes in visits:
                    work_p += _charge(chaos, p, work)
                    if q is None:
                        continue
                    comm_p += self.cost.comm(p, q) * self._comm_scale
                    comm_p += _chaos_hop(chaos, p, q, nbytes, stats.sim_time)
                    if p != q:
                        stats.bytes_sent += nbytes
                    stats.n_messages += 1
                tick_cost[p] = work_p + comm_p
                stats.comp_time += work_p
                stats.comm_time += comm_p
                stats.per_machine_comp[p] += work_p
                stats.per_machine_comm[p] += comm_p
            tick_time = max(tick_cost.values(), default=0.0)
            stats.sim_time += tick_time
            stats.idle_time += sum(tick_time - c for c in tick_cost.values())
        return stats


@register_backend("async")
class AsyncSimBackend(_SimBackend):
    """The same tick executor read by section 4.1's event clock."""

    def _clock(self, record: list[dict], machines, chaos) -> WStepStats:
        """Replay each submodel's visits as heap events in virtual time."""
        paths: dict[int, list] = {}
        for tick in record:
            for p, visits in tick.items():
                for sid, work, q, nbytes in visits:
                    paths.setdefault(sid, []).append((p, work, q, nbytes))
        stats = WStepStats(
            per_machine_comp=dict.fromkeys(machines, 0.0),
            per_machine_comm=dict.fromkeys(machines, 0.0),
        )
        clock = dict.fromkeys(machines, 0.0)
        # Every submodel is "delivered" to its home at t = 0 with no comm
        # cost; ties break on a sequence number, first-tick order first.
        heap = [(0.0, seq, sid, 0) for seq, sid in enumerate(paths)]
        seq = len(heap)
        while heap:
            arrival, _, sid, k = heapq.heappop(heap)
            p, work, q, nbytes = paths[sid][k]
            if clock[p] < arrival:
                stats.idle_time += arrival - clock[p]
            work = _charge(chaos, p, work)
            clock[p] = max(clock[p], arrival) + work
            stats.comp_time += work
            stats.per_machine_comp[p] += work
            if q is None:
                continue
            hop = self.cost.comm(p, q) * self._comm_scale
            hop += _chaos_hop(chaos, p, q, nbytes, clock[p])
            stats.comm_time += hop
            stats.per_machine_comm[p] += hop
            # t_wc is time the machine *spends* communicating (section
            # 5.1: "the time spent by a given machine in first receiving
            # a submodel and then sending it"), so it occupies the
            # sender's clock as well as delaying the delivery.
            clock[p] += hop
            if p != q:
                stats.bytes_sent += nbytes
            stats.n_messages += 1
            heapq.heappush(heap, (clock[p], seq, sid, k + 1))
            seq += 1
        stats.sim_time = max(clock.values(), default=0.0)
        return stats
