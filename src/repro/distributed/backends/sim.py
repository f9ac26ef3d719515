"""Simulated-cluster backends: the in-process reference engines.

Thin adapters putting :class:`~repro.distributed.cluster.SimulatedCluster`
behind the generic :class:`~repro.distributed.backends.base.Backend`
lifecycle. ``sync`` is the deterministic tick engine (fig. 3, supports
fault injection); ``async`` is the discrete-event engine the speedup
experiments measure. Both report virtual-clock time in
``IterationStats.time``.

Streaming and fault handling are *backend capabilities* here, not
simulator specials: ``ingest`` queues rows through the same
:class:`~repro.distributed.dataplane.DataPlane` the wall-clock engines
drive (drained at iteration boundaries), and :meth:`inject_fault` kills
a simulated machine mid-W-step — honoured according to the declared
:class:`~repro.distributed.backends.base.FaultPolicy`: ``fail_fast``
raises exactly like a wall-clock pool teardown would, ``drop_shard``
excises the shard, re-plans the ring around the survivors, and keeps
training (paper section 4.3).
"""

from __future__ import annotations

import copy
import time

from repro.distributed.backends.base import (
    BaseBackend,
    FaultPolicy,
    IterationStats,
    register_backend,
)
from repro.distributed.cluster import FaultEvent, SimulatedCluster
from repro.distributed.costmodel import CostModel
from repro.distributed.dataplane import ClusterState, DataPlane

__all__ = ["SyncSimBackend", "AsyncSimBackend"]


class _SimBackend(BaseBackend):
    """Common machinery for the two simulated engines.

    Extra parameters beyond :class:`BaseBackend` (``message_dtype`` and
    ``batch_units`` are base knobs shared by every engine):

    execute_updates : bool
        When False, skip the numerics and only simulate time (timing-only
        protocol sweeps).
    """

    engine: str = ""

    def __init__(self, *, execute_updates: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.execute_updates = bool(execute_updates)
        self.cluster: SimulatedCluster | None = None
        self._pending_fault: FaultEvent | None = None

    def setup(self, adapter, shards) -> None:
        self.adapter = adapter
        self._bind_dataplane(DataPlane(adapter, shards))
        self._pending_fault = None
        self.cluster = SimulatedCluster(
            adapter,
            shards,
            epochs=self.epochs,
            scheme=self.scheme,
            batch_size=self.batch_size,
            shuffle_within=self.shuffle_within,
            shuffle_ring=self.shuffle_ring,
            cost=self.cost if self.cost is not None else CostModel(),
            engine=self.engine,
            execute_updates=self.execute_updates,
            message_dtype=self.message_dtype,
            batch_units=self.batch_units,
            overlap_send=self.overlap_send,
            chaos=self.chaos,
            dataplane=self.dataplane,
            seed=self.seed,
        )

    # --------------------------------------------------------------- faults
    def inject_fault(self, machine: int, *, tick: int = 0) -> None:
        """Schedule machine ``machine`` to die during the next W step.

        Only the ``sync`` engine supports mid-W-step faults (the
        discrete-event engine has no tick to anchor them to); the effect
        is governed by ``fault_policy``.
        """
        if self.engine != "sync":
            raise ValueError(
                "fault injection is only supported by the sync engine"
            )
        if self.cluster is None:
            raise RuntimeError("setup() must run before inject_fault()")
        if machine not in self.cluster.shards:
            raise KeyError(f"machine {machine} does not exist")
        self._pending_fault = FaultEvent(machine=int(machine), tick=int(tick))

    def run_iteration(self, mu: float) -> IterationStats:
        if self.cluster is None:
            raise RuntimeError("setup() must run before run_iteration()")
        cluster = self.cluster
        added, replan_s = self.drain_joins()
        rows = self.drain_ingests()
        fault, self._pending_fault = self._pending_fault, None
        lost_before = self.dataplane.shards_lost
        crashed = []
        if self.chaos is not None:
            crashed = [
                ev.machine
                for ev in self.chaos.crashes
                if ev.iteration == self._iterations_done
                and ev.machine in cluster.shards
            ]
        respawns = 0
        if self.fault_policy is FaultPolicy.RESPAWN:
            # A simulated machine has no process to lose: the "respawned"
            # cluster is by construction back at the iteration boundary,
            # so the retried iteration *is* the fault-free iteration.
            # Absorb the death, count it, keep the numerics untouched —
            # the same bit-identity contract the wall-clock engines
            # deliver the hard way.
            respawns = len(crashed) + (1 if fault is not None else 0)
            fault = None
            crashed = []
        if crashed and fault is None:
            if self.fault_policy is FaultPolicy.DROP_SHARD and self.engine != "sync":
                raise RuntimeError(
                    "scheduled chaos crashes under 'drop_shard' are only "
                    "supported by the sync engine (no fault path to map "
                    "them onto)"
                )
            fault = FaultEvent(machine=int(crashed[0]), tick=0)
        if fault is not None and self.fault_policy is FaultPolicy.FAIL_FAST:
            raise RuntimeError(
                f"machine {fault.machine} died mid-iteration; "
                "fit aborted (fault_policy='fail_fast')"
            )
        t0 = time.perf_counter()
        wstats, zstats = cluster.iteration(mu, fault=fault)
        wall = time.perf_counter() - t0
        if fault is not None and fault.machine in cluster.shards:
            # The W step drained before the scheduled tick: the requested
            # death never happened. A resilience experiment must not
            # silently measure a fault-free run.
            raise RuntimeError(
                f"injected fault at tick {fault.tick} never fired: the W "
                f"step finished after {wstats.ticks} ticks"
            )
        t0 = time.perf_counter()
        e_q, e_ba, violations = cluster.stats(mu)
        stats_time = time.perf_counter() - t0
        self._iterations_done += 1
        respawn_extras = (
            {"respawns": respawns, "respawn_wait_s": 0.0}
            if self.fault_policy is FaultPolicy.RESPAWN
            else {}
        )
        return IterationStats(
            mu=float(mu),
            e_q=e_q,
            e_ba=e_ba,
            z_changes=zstats.z_changes,
            violations=violations,
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
                "stats_time": stats_time,
                **wstats.chaos,
                **self._dtype_extras(),
                **respawn_extras,
            },
            bytes_sent=int(wstats.bytes_sent),
            rows_ingested=rows,
            shards_lost=self.dataplane.shards_lost - lost_before,
            n_machines=cluster.n_machines,
            machines_added=added,
            replan_s=replan_s,
        )

    # ----------------------------------------------------------- elasticity
    def _apply_join(self, p: int, after: int | None) -> None:
        """Admit a registered machine: ring insertion, model hand-off from
        a verified-live survivor store, join-stream RNG."""
        self.cluster._admit_machine(p, after=after)

    # ------------------------------------------------------- checkpointing
    def _collect_machine_state(self) -> tuple[dict, dict]:
        # The simulated engines own the shard arrays in-process; deep-copy
        # them so the snapshot is decoupled from further training.
        shards = {p: copy.deepcopy(s) for p, s in self.dataplane.shards.items()}
        _, machine_states = self.cluster.rng_states()
        return shards, copy.deepcopy(machine_states)

    def _ring_order(self) -> list[int]:
        return self.cluster.topology.machines

    def _route_rng_state(self):
        route_state, _ = self.cluster.rng_states()
        return copy.deepcopy(route_state)

    def _join_entropy_value(self):
        return self.cluster._join_entropy

    def restore(self, state: ClusterState, adapter=None) -> None:
        from repro.distributed.topology import RingTopology

        adapter = self._restore_common(state, adapter)
        self.adapter = adapter
        shards = {int(p): copy.deepcopy(s) for p, s in state.shards.items()}
        dataplane = DataPlane(adapter, shards)
        dataplane.restore_bookkeeping(state.bookkeeping)
        self._bind_dataplane(dataplane)
        self._pending_fault = None
        self.cluster = SimulatedCluster(
            adapter,
            shards,
            epochs=self.epochs,
            scheme=self.scheme,
            batch_size=self.batch_size,
            shuffle_within=self.shuffle_within,
            shuffle_ring=self.shuffle_ring,
            cost=self.cost if self.cost is not None else CostModel(),
            engine=self.engine,
            execute_updates=self.execute_updates,
            message_dtype=self.message_dtype,
            batch_units=self.batch_units,
            overlap_send=self.overlap_send,
            chaos=self.chaos,
            dataplane=dataplane,
            seed=self.seed,
        )
        # Overwrite the fresh cluster's stochastic state with the
        # snapshot's: ring order (joins may have inserted mid-cycle),
        # route/machine RNG streams, the join-stream lineage, and the
        # redundant model stores.
        self.cluster.topology = RingTopology(state.ring_order)
        self.cluster.restore_rngs(state.route_rng_state, state.machine_rng_states)
        if state.join_entropy is not None:
            self.cluster._join_entropy = state.join_entropy
        self.cluster.seed_stores(state.params)
        self._restore_pending_ingests(state)

    # The cluster stays accessible after teardown: streaming and fault
    # experiments poke at it between and after fits.


@register_backend("sync")
class SyncSimBackend(_SimBackend):
    """Deterministic synchronous tick engine (paper fig. 3)."""

    engine = "sync"


@register_backend("async")
class AsyncSimBackend(_SimBackend):
    """Discrete-event asynchronous engine (section 4.1's queue semantics)."""

    engine = "async"
