"""Real multiprocessing backend — the MPI stand-in, pool edition.

Each worker process owns one shard ("the data cannot leave its home
machine") and executes the counter protocol of paper section 4.1 /
fig. 6 exactly; termination inside a W step is deterministic because
every worker knows in advance how many ring messages it will receive
(:func:`~repro.distributed.protocol.expected_receives`).

This module is the coordinator of both wall-clock engines: shared-memory
shard shipping, the mesh and join choreography, and the policies on top
of the gather — survivable abort rounds, the stall check, the
``worker_timeout`` error, recovery. The processes themselves — the fork
site, the command loop, each worker's one channel and the one gather — are
:mod:`repro.distributed.pool`, which the serving tier's process shards
run on too. The training handlers, the setup message and the iteration
live in :mod:`repro.distributed.backends.worker`, and the ring the
workers talk over — framed stream sockets, one transport and one
worker-side link — in :mod:`repro.distributed.backends.ring`.
``multiprocess`` workers bind that ring to AF_UNIX listeners at abstract
names this coordinator picks; the TCP backend
(:mod:`repro.distributed.backends.tcp`) subclasses the coordinator only
to bind ``(host, port)`` instead.

What the engine provides:

* **a persistent worker pool** — workers are forked once and survive
  across ``fit()`` calls; each ``setup`` re-ships the adapter and shards
  to the standing pool instead of forking P fresh processes per fit;
* **shared-memory shard shipping** — shard arrays are placed in
  ``multiprocessing.shared_memory`` segments and mapped zero-copy by the
  workers, instead of pickling a private copy of the data through each
  process boundary;
* **cross-machine shuffling** — ``shuffle_ring`` builds a shuffled
  per-epoch :class:`~repro.distributed.protocol.RoutePlan` every
  iteration (section 4.3), keyed on (seed, iteration, epoch) as on
  every engine, routed per-message over the all-pairs socket mesh;
* **streaming ingestion** — ``ingest`` queues arriving rows with the
  shared :class:`~repro.distributed.dataplane.DataPlane`; at the next
  iteration boundary each drained batch is coded by the current nested
  model and shipped to its owning worker as an incremental
  shared-memory segment, which the worker appends to its shard;
* **fault handling by policy** — the coordinator polls worker liveness
  while waiting for results. Under ``fail_fast`` (default) a worker
  that dies mid-iteration tears the whole pool down with a raised error
  instead of wedging every peer on a receive that never comes. Under
  ``drop_shard`` (paper section 4.3) the survivors see the dead peer's
  sockets reset and abort the iteration (closing their mesh, which
  cascades the EOF to any peer still blocked), the dead worker's shard
  is retired from the data plane, the mesh is rebuilt over the survivor
  set, the ring/homes/protocol are re-planned, and the iteration
  re-runs — the fit continues having lost only the dead machine's data.
  A worker that dies after its last ring send (at its Z step) owes its
  peers nothing, so every survivor completes and that attempt is kept.

Workers report per-shard metrics after the Z step; the lowest-ranked
live worker additionally reports the assembled final parameters, which
the coordinator writes back into its adapter's model (the ParMAC
invariant: after the W step every machine holds the full final model).
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import suppress

from repro.distributed.backends.base import (
    BaseBackend,
    FaultPolicy,
    IterationStats,
    register_backend,
)
from repro.distributed.backends.ring import _decode_control_blob, _SocketLink
from repro.distributed.backends.worker import WorkerSetup, _Worker
from repro.distributed.dataplane import ClusterState, DataPlane
from repro.distributed.framing import KIND_HEARTBEAT, encode_shard_retired
from repro.distributed.health import HealthMonitor
from repro.distributed.interfaces import ZStepResult, set_params_many
from repro.distributed.messages import ShardRetired
from repro.distributed.pool import _LIVENESS_POLL_S, WorkerPool
from repro.distributed.protocol import (
    RoutePlan,
    expected_receives,
    home_assignment,
    replan,
)
from repro.distributed.shm import pack_array_block, pack_shards, unlink_segments
from repro.distributed.topology import RingTopology

__all__ = ["MultiprocessBackend", "home_assignment"]

#: Makes every unix-socket name this process hands out unique, so a
#: rebind never collides with a listener a wedged predecessor still holds.
_BIND_SEQ = itertools.count()


class _WorkersLost(Exception):
    """Workers died mid-iteration under ``drop_shard``; re-plan needed.

    ``payloads`` carries the survivors' results when the attempt in fact
    ran to completion everywhere except on the dead workers (nobody
    aborted — e.g. a worker died after its last ring send). Survivor
    models and Z codes then already hold the completed iteration, so the
    caller should keep these results rather than re-running, which would
    silently train the same mu twice. ``None`` when any survivor aborted
    (the attempt is partial and must be retried).
    """

    def __init__(self, dead: list[int], payloads: dict | None = None):
        super().__init__(f"worker(s) {dead} died mid-iteration")
        self.dead = dead
        self.payloads = payloads


# ------------------------------------------------------------- coordinator
@register_backend("multiprocess")
class MultiprocessBackend(BaseBackend):
    """ParMAC iterations over a persistent pool of real OS processes.

    Extra parameters beyond :class:`BaseBackend`:

    worker_timeout : float or None
        Upper bound in seconds on one whole collective gather — the time
        from issuing a command round (setup, iteration) until *all* P
        responses have arrived. Defaults to 300 s: a worker that is
        alive but *wedged* (stuck in a syscall, spinning, deadlocked)
        produces no response and no death signal, and with no deadline
        the gather would hang ``fit()`` forever. Pass ``None`` to wait
        indefinitely. Independently of the deadline, a worker *dying* is
        always detected within :data:`_LIVENESS_POLL_S` seconds, and
        handled according to ``fault_policy``: ``fail_fast`` fails the
        fit and tears down the remaining peers; ``drop_shard`` retires
        the dead shard and continues on the survivors. A timeout is
        reported as a stall (live-but-unresponsive workers), distinct
        from a fault (dead workers).

    The adapter must be picklable; each worker gets its own copy at
    ``setup`` while the shard *data* travels through shared memory.
    ``cost`` is accepted for interface uniformity but ignored — this
    backend reports wall-clock time.
    """

    #: Seconds allowed for dialling/accepting each mesh connection (a
    #: deployment setting on ``tcp``; between local processes, a constant).
    connect_timeout = 10.0

    def __init__(self, *, worker_timeout: float | None = 300.0, **kwargs):
        super().__init__(**kwargs)
        self.worker_timeout = worker_timeout
        self._pool = WorkerPool()
        self._addr_map: dict = {}
        self._segments: list = []
        self._ranks: list[int] = []
        self._monitor: HealthMonitor | None = None
        self._respawns_done = 0
        self._boundary: dict | None = None

    # ---------------------------------------------------------- lifecycle
    def setup(self, adapter, shards) -> None:
        shards = list(shards)
        P = len(shards)
        if P < 1:
            raise ValueError("need at least one shard")
        self._bind_fit(
            adapter, DataPlane(adapter, shards, own_data=False),
            RingTopology.identity(P),
        )
        # A standing pool serves the new fit as-is; one degraded by shard
        # retirements — or grown by joins — is rebuilt, like a
        # machine-count change. (A tracked member that silently *died*
        # between fits is deliberately kept: shipping setup to it makes
        # the death surface as an error, not a quiet respawn.)
        self._rebuild_pool(dict(enumerate(shards)), keep_pool=True)

    def _bind_fit(self, adapter, dataplane: DataPlane, topology: RingTopology,
                  key_root=None) -> None:
        """Fit-level coordinator state, common to ``setup`` and ``restore``."""
        self.adapter = adapter
        self._bind_dataplane(dataplane, key_root)
        self._specs = adapter.submodel_specs()
        self._spec_by_sid = {s.sid: s for s in self._specs}
        self._topology = topology
        self._replan()
        self._respawns_done = 0
        self._boundary = None

    def _replan(self) -> None:
        """Re-derive the counter protocol and home assignment from the
        current ring."""
        self._protocol, self._homes = replan(
            self._topology.machines, len(self._specs), self.epochs, self.scheme
        )

    def _rebuild_pool(self, members: dict, *, keep_pool: bool = False,
                      force: bool = False) -> None:
        """Make the pool hold exactly ``members``: {rank: shard}.

        The one path by which shards reach workers wholesale — a fresh
        fit, a restore, a respawn. A standing pool is reused only under
        ``keep_pool`` and only when its ranks already match; otherwise
        it is stopped (``force`` skips the cooperative stop, for a pool
        with dead or wedged members) and respawned. Every shard is then
        re-shipped through fresh shared-memory segments.
        """
        live = sorted(members)
        if not (keep_pool and sorted(self._pool.procs) == live):
            self._close_pool(force=force)
            self._spawn(live)
        self._ranks = live
        self._release_segments()
        # Anything that fails between shard shipping and a successful
        # ready-collection must not leak the just-created /dev/shm
        # segments: tear the fit down (close releases the segments) and
        # re-raise.
        try:
            self._segments, descs = pack_shards([members[r] for r in live])
            self._ship_setup(dict(zip(live, descs)))
        except Exception:
            self.close(force=True)
            raise

    def _setup_message(self, rank: int, desc) -> WorkerSetup:
        """The setup message for ``rank`` — the only construction site."""
        return WorkerSetup(
            adapter=self.adapter,
            desc=desc,
            protocol=self._protocol,
            homes=self._homes,
            batch_size=self.batch_size,
            shuffle_within=self.shuffle_within,
            seed=self._key_root,
            message_dtype=self.message_dtype,
            chaos=self.chaos,
            health=self.health,
            address=self._address_for(rank),
            # Abort and await recovery on a peer death, instead of
            # failing: both survivor policies need clean abort acks, not
            # errors, out of the survivors — ``drop_shard`` re-plans
            # around the loss, ``respawn`` rewinds and retries.
            drop_on_fault=self.fault_policy is not FaultPolicy.FAIL_FAST,
        )

    def _address_for(self, rank: int):
        """Where ``rank``'s worker binds its ring listener: a fresh Linux
        abstract unix-socket name — nothing on disk, released by the
        kernel with the socket. (The TCP backend binds ``(host, port)``.)
        """
        return f"\0parmac-{os.getpid()}-{next(_BIND_SEQ)}-{rank}"

    def _ship_setup(self, descs: dict) -> None:
        """Send per-worker setup commands and wait for every ack.

        ``descs`` maps rank -> shard descriptor (ranks need not be
        contiguous after a restore).
        """
        ranks = sorted(descs)
        for rank in ranks:
            self._pool.send(rank, "setup", self._setup_message(rank, descs[rank]))
        self._connect_mesh(ranks)
        self._collect("ready", ranks)

    def _connect_mesh(self, ranks) -> None:
        """Exchange bound addresses and build the all-pairs socket mesh:
        the workers just (re)bound their listeners and reply ``bound``;
        each then dials every peer and acks ``ready`` to the caller's
        gather."""
        self._addr_map = self._collect("bound", ranks)
        for rank in ranks:
            self._pool.send(rank, "connect", self._addr_map)

    def _spawn(self, ranks) -> None:
        """Start worker processes for ``ranks``."""
        for rank in ranks:
            self._start_worker(int(rank))
        # A fresh pool gets a fresh monitor: stale DEAD classifications
        # from a torn-down pool must not outlive it. Only the
        # per-iteration counters carry over, because the respawn path
        # replaces the whole pool without closing the iteration.
        counters = self._monitor.counters() if self._monitor is not None else None
        self._monitor = (
            HealthMonitor(self.health) if self.health is not None else None
        )
        if counters is not None and self._monitor is not None:
            self._monitor.adopt_counters(counters)

    def _start_worker(self, rank: int) -> None:
        """Fork one pool worker at ``rank``, serving the training handlers
        over its (socket-free) ring link."""
        self._pool.start(rank, _Worker, rank, _SocketLink(rank, self.connect_timeout))

    # ----------------------------------------------------------- streaming
    def _apply_ingest(self, batch) -> int:
        """Ship one drained batch to its worker as an incremental segment."""
        seg, desc = pack_array_block([batch.X, batch.F, batch.Z, batch.indices])
        try:
            self._pool.send(batch.machine, "ingest", desc)
            self._collect("ingested", [batch.machine])
        finally:
            unlink_segments([seg])
        return self.dataplane.apply(batch)

    # ----------------------------------------------------------- elasticity
    def _apply_join(self, p: int, after: int | None) -> None:
        """Admit one registered machine: spawn its worker, ship its shard
        via shared memory, re-plan ring/homes/protocol, announce.

        Fails closed: any error after the pool/topology started changing
        tears the fit down (like a failed ``setup``) rather than leaving
        a half-joined ring behind.
        """
        if not self._pool.procs:
            raise RuntimeError("add_machine() requires an active fit")
        old_ranks = list(self._ranks)
        try:
            self._start_worker(p)
            segments, descs = pack_shards([self.dataplane.shards[p]])
            self._segments.extend(segments)
            self._topology = self._topology.with_machine(p, after=after)
            self._replan()
            self._ranks = sorted(old_ranks + [p])
            self._ship_join(p, descs[0], old_ranks)
            # The joiner already holds the new plan from its setup; only
            # the standing workers need the announcement.
            self._announce_replan([], ranks=old_ranks)
        except Exception:
            self.close(force=True)
            raise

    def _ship_join(self, p: int, desc, old_ranks) -> None:
        """Deliver shard + plan to the joining worker and link it in.

        The new worker binds and announces its address, every standing
        worker links it in (JOIN accepted, HELLO dialed), and the donor
        — the lowest live rank — hands the current submodels over as a
        WELCOME + framed BATCH: the joining machine "receives the
        current submodels" (§4.3) exactly as they travel the ring.
        """
        self._pool.send(p, "setup", self._setup_message(p, desc))
        addr = self._collect("bound", [p])[p]
        donor = old_ranks[0]
        for rank in old_ranks:
            self._pool.send(rank, "join_mesh", p, addr, rank == donor)
        self._pool.send(
            p, "join_handshake", {r: self._addr_map[r] for r in old_ranks},
            donor, len(self._specs),
        )
        self._collect("joined", old_ranks)
        self._addr_map[p] = addr
        self._collect("ready", [p])

    def _collect_worker_pool_state(self) -> dict:
        """{rank: shard} from every live worker."""
        for rank in self._ranks:
            self._pool.send(rank, "checkpoint")
        return self._collect("checkpoint")

    # ----------------------------------------------------------- iteration
    def run_iteration(self, mu: float) -> IterationStats:
        if not self._pool.procs:
            raise RuntimeError("setup() must run before run_iteration()")
        mu = float(mu)
        added, replan_s = self.drain_joins()
        rows = self.drain_ingests()
        respawn = self.fault_policy is FaultPolicy.RESPAWN
        boundary = None
        if respawn:
            # The respawn tax: hold a whole-cluster iteration-boundary
            # snapshot — every worker's shard — so a mid-iteration death
            # can rewind the fit to exactly here and retry
            # bit-identically. (Survivors are *not* reusable as-is:
            # completed ones advanced their Z codes; every minibatch order
            # and ring plan is keyed on the iteration, so a retry redraws
            # them.) The snapshot is
            # normally the one refreshed at the end of the previous
            # iteration — taken while the pool had just proved itself
            # alive — so a worker SIGKILLed while *idle* surfaces inside
            # the retry loop below and is healed like any mid-iteration
            # death, instead of failing this collection. A fresh collect
            # only happens on the first iteration of a fit or after
            # joins/ingests mutated worker state.
            if self._boundary is None or added or rows:
                self._boundary = self._snapshot_boundary()
            boundary = self._boundary
        # Scheduled chaos kills are resolved coordinator-side for the
        # first attempt only: a retried attempt (respawned or excised)
        # runs crash-free, so the schedule cannot re-kill a replacement.
        crashes = (
            {r: self.chaos.crash_point(r, self._iterations_done)
             for r in self._ranks}
            if self.chaos is not None and self.chaos.crashes
            else {}
        )
        if self._monitor is not None:
            self._monitor.reset_counters()
        lost: list[int] = []
        respawns = 0
        respawn_wait_s = 0.0
        t0 = time.perf_counter()
        while True:
            if self.shuffle_ring:
                plan = RoutePlan.shuffled(
                    self._topology.machines, self._protocol,
                    self._key_root, self._iterations_done,
                )
            else:
                plan = RoutePlan.fixed(self._topology, self._protocol)
            expected = expected_receives(plan, self._homes)
            model_rank = self._ranks[0]
            self._dispatch_iteration(mu, plan, expected, model_rank, crashes)
            crashes = {}
            try:
                payloads = self._collect("result", survivable=True)
                if respawn:
                    # Refresh the boundary for the *next* iteration while
                    # the pool just answered. A kill landing in this tiny
                    # window re-enters the retry loop: the completed
                    # attempt is discarded and re-run bit-identically
                    # from the held boundary.
                    try:
                        self._boundary = self._snapshot_boundary()
                    except RuntimeError:
                        self._boundary = None
                        raise _WorkersLost([], None) from None
                break
            except _WorkersLost as loss:
                recovered = False
                while respawn and self._respawns_done < self.respawn_budget:
                    t_r = time.monotonic()
                    try:
                        self._respawn_from(boundary)
                        recovered = True
                    except RuntimeError:
                        # A kill landed during the rebuild itself; the
                        # boundary is untouched, so the next attempt
                        # (budget permitting) starts from the same state.
                        continue
                    finally:
                        respawns += 1
                        respawn_wait_s += time.monotonic() - t_r
                    break
                if recovered:
                    continue
                if respawn and not self._pool.procs:
                    # Failed rebuilds exhausted the budget and closed the
                    # pool: no survivors to degrade onto — the end of the
                    # respawn -> drop_shard -> fail_fast escalation chain.
                    raise RuntimeError(
                        f"respawn budget ({self.respawn_budget}) exhausted "
                        "with no recoverable pool; fit aborted"
                    ) from None
                # Budget exhausted (or plain drop_shard): escalate to
                # excising the dead machines over the survivor set.
                lost.extend(loss.dead)
                # The survivor set is about to shrink: the held snapshot
                # (which still contains the retired shard) must never
                # feed a later respawn.
                self._boundary = None
                self._excise(loss.dead)
                if loss.payloads is not None:
                    # No survivor aborted: the attempt completed on every
                    # survivor (models and Z codes already advanced) —
                    # keep the results instead of training this mu a
                    # second time. If the model-holding rank was the one
                    # that died, any survivor's post-iteration adapter
                    # holds the identical final model (the W-step
                    # invariant); fetch it from the new lowest rank.
                    payloads = loss.payloads
                    if model_rank not in payloads:
                        model_rank = self._ranks[0]
                        self._pool.send(model_rank, "model")
                        fetched = self._collect("model", [model_rank])
                        payloads[model_rank]["model"] = fetched[model_rank]
                    break
        wall = time.perf_counter() - t0
        set_params_many(
            self.adapter,
            [
                (self._spec_by_sid[sid], theta)
                for sid, theta in payloads[model_rank]["model"]
            ],
        )
        ranks = sorted(payloads)
        w_time = max(payloads[r]["w_time"] for r in ranks)
        z_time = max(payloads[r]["z_time"] for r in ranks)
        wire: dict = {}
        for r in ranks:
            for key, value in (payloads[r].get("wire") or {}).items():
                wire[key] = wire.get(key, 0) + value
        extra = {"wall_time": wall, "w_time": w_time, "z_time": z_time}
        extra.update(wire)
        extra.update(self._dtype_extras())
        if respawn:
            extra["respawns"] = respawns
            extra["respawn_wait_s"] = respawn_wait_s
        if self._monitor is not None:
            extra.update(self._monitor.counters())
        self._iterations_done += 1
        z = ZStepResult.total({r: payloads[r]["z"] for r in ranks})
        return IterationStats(
            mu=mu,
            e_q=z.e_q,
            e_ba=z.e_ba,
            z_changes=z.z_changes,
            violations=z.violations,
            time=w_time + z_time,
            wall_time=wall,
            extra=extra,
            bytes_sent=int(wire.get("bytes_sent", 0)),
            hops=int(wire.get("hops", 0)),
            rows_ingested=rows,
            shards_lost=len(lost),
            n_machines=len(self._ranks),
            machines_added=added,
            replan_s=replan_s,
        )

    def _dispatch_iteration(self, mu: float, plan: RoutePlan, expected: dict,
                            model_rank: int, crashes: dict) -> None:
        """Send one iteration command to every live worker.

        The plan travels as its ring orders (plain lists of ints); each
        worker rebuilds it against the protocol it already holds. The
        iteration count keys the workers' minibatch orders.
        ``crashes`` maps rank -> scheduled chaos kill point ("w"/"z") for
        this attempt; absent ranks run normally.
        """
        orders = plan.to_orders()
        if self._monitor is not None:
            self._monitor.begin_phase(self._ranks)
        for rank in self._ranks:
            self._pool.send(
                rank, "iter", mu, self._iterations_done, orders, expected[rank],
                model_rank, crashes.get(rank),
            )

    # ------------------------------------------------------------ recovery
    def _snapshot_boundary(self) -> dict:
        """Whole-cluster iteration-boundary state for bit-identical retry:
        every worker's shard."""
        return self._collect_worker_pool_state()

    def _respawn_from(self, boundary) -> None:
        """Rebuild the whole pool at the iteration-start boundary.

        The dead worker's post-death shard state is unrecoverable and the
        survivors are not reusable as-is (completed ones advanced their Z
        codes), so recovery replaces *every* process: tear the pool down,
        respawn the full rank set and re-ship the boundary shards. The
        retried plan and minibatch orders are keyed on the iteration, so
        they are the ones the dead attempt drew. One budget unit is
        consumed up front — a kill that lands
        during the rebuild itself surfaces as a ``RuntimeError`` from the
        setup gather and the caller retries from the same (untouched)
        boundary, budget permitting.
        """
        self._respawns_done += 1
        self._rebuild_pool(boundary, force=True)

    def _observe_beat(self, payload: bytes) -> None:
        """Decode a framed HEARTBEAT (workers beat with the same bytes a
        coordinator socket would carry) and feed the monitor."""
        if self._monitor is None:
            return
        for rank, seq, progress, phase in _decode_control_blob(payload, KIND_HEARTBEAT):
            self._monitor.observe(rank, seq, phase, progress)

    def _check_stalled(self, pending) -> None:
        """Fail the gather early if the monitor sees a stalled worker —
        beating, alive, but making no progress this phase — instead of
        waiting out the blunt ``worker_timeout`` cap."""
        if self._monitor is None:
            return
        stalled = self._monitor.stalled(pending)
        if stalled:
            phases = {r: self._monitor.phase_of(r) for r in sorted(stalled)}
            self.close(force=True)
            raise RuntimeError(
                f"worker(s) {sorted(stalled)} stalled: heartbeats arrive "
                f"but no progress for {self.health.stalled_after_s}s "
                f"(phases {phases}); pool torn down"
            ) from None

    def _excise(self, dead) -> None:
        """Retire dead workers' shards and re-plan around the survivors."""
        dead = set(dead)
        survivors = [r for r in self._ranks if r not in dead]
        if not survivors:
            self.close(force=True)
            raise RuntimeError("every worker died; pool torn down")
        retired = []
        for rank in sorted(dead):
            self._pool.kill(rank)
            rows = self.dataplane.retire(rank, lost=True)
            retired.append(ShardRetired(machine=rank, rows_lost=rows))
            # Reconnect predecessor -> successor, preserving the cycle
            # order (which joins may have made non-sorted) exactly like
            # the simulated cluster's recovery.
            self._topology = self._topology.without_machine(rank)
        self._ranks = survivors
        self._replan()
        self._rebuild_mesh()
        self._announce_replan(retired)

    def _rebuild_mesh(self) -> None:
        """Rebuild the socket mesh over the survivor set (fresh listen
        sockets and HELLO handshakes — no stale frames survive)."""
        for rank in self._ranks:
            self._pool.send(rank, "rebind", self._address_for(rank))
        self._connect_mesh(self._ranks)
        self._collect("ready")

    def _announce_replan(self, retired, ranks=None) -> None:
        """Ship the new protocol/home assignment to ``ranks`` (default:
        every live worker), with the retirements that caused it as
        SHARD_RETIRED control frames."""
        ranks = list(self._ranks) if ranks is None else list(ranks)
        announcement = b"".join(encode_shard_retired(m) for m in retired)
        for rank in ranks:
            self._pool.send(rank, "replan", self._protocol, self._homes, announcement)
        self._collect("replanned", ranks)

    # ----------------------------------------------------------- gathering
    def _collect(self, expect: str, ranks=None, *, survivable: bool = False) -> dict:
        """Gather one ``expect`` response per rank (default: every live
        worker): the pool's gather, under this engine's policy.

        Any worker ``error``, a stall (heartbeats but no progress) or
        the ``worker_timeout`` deadline tears the pool down with a
        raised error, so a later ``setup`` starts clean. What a worker
        *death* means depends on the round:

        * strict rounds (setup, port exchange, replan, ingest acks,
          checkpoints — the default) and every round under
          ``fail_fast``: the fit is unrecoverable; tear down and raise.
        * the ``survivable`` iteration gather under ``drop_shard`` /
          ``respawn``: the gather turns into an abort round — the
          survivors' responses (results or ``aborted`` acks) are
          drained, and :class:`_WorkersLost` reports the dead set to
          ``run_iteration`` for recovery. No wake-up is needed: the
          survivors observe the dead peer's sockets reset (or an
          aborting peer's mesh teardown) and self-abort.
        """
        ranks = list(self._ranks) if ranks is None else list(ranks)
        survivable = survivable and self.fault_policy is not FaultPolicy.FAIL_FAST
        if self._monitor is not None:
            self._monitor.begin_phase(ranks)
        timeout = self.worker_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            replies, dead, late = self._pool.gather(
                ranks, (expect, "aborted") if survivable else (expect,),
                deadline=deadline, stop_on_death=not survivable,
                on_idle=self._check_stalled, on_beat=self._observe_beat,
            )
        except RuntimeError:
            self.close(force=True)
            raise
        if self._monitor is not None:
            for r in dead:
                self._monitor.note_dead(r)
        if dead and not survivable:
            self.close(force=True)
            raise RuntimeError(
                f"worker(s) {sorted(dead)} died mid-{expect}; pool torn down"
            )
        if late:
            self.close(force=True)
            raise RuntimeError(
                f"timed out after {self.worker_timeout}s waiting "
                f"for {expect!r} from worker(s) {sorted(late)}, "
                "which are alive but unresponsive (stalled, not "
                "dead — a dead worker is detected within "
                f"{_LIVENESS_POLL_S}s and handled by the fault "
                "policy); pool torn down"
            )
        payloads = {r: p for r, (kind, p) in replies.items() if kind == expect}
        aborted = set(replies) - set(payloads)
        if dead or aborted:
            # An abort is always downstream of a death; find any not yet
            # caught by the liveness poll (e.g. sockets reset before the
            # first poll fired).
            dead |= {r for r in ranks if not self._pool.procs[r].is_alive()}
            if not dead:
                self.close(force=True)
                raise RuntimeError(
                    f"worker(s) {sorted(aborted)} aborted with every peer "
                    "alive; pool torn down"
                )
            raise _WorkersLost(sorted(dead), None if aborted else payloads)
        return payloads

    # ------------------------------------------------------- checkpointing
    def _collect_shards(self) -> dict:
        if not self._pool.procs:
            raise RuntimeError("checkpoint() requires an active pool")
        return self._collect_worker_pool_state()

    def _ring_order(self) -> list[int]:
        return self._topology.machines

    def restore(self, state: ClusterState, adapter=None) -> None:
        """Rebind a fit from a snapshot: fresh pool, shards re-shipped
        via shared memory, the snapshot's key root adopted — training
        continues bit-identically, whichever engine took the snapshot."""
        adapter = self._restore_common(state, adapter)
        shards = {int(p): s for p, s in state.shards.items()}
        ring_order = [int(p) for p in state.ring_order]
        if sorted(shards) != sorted(ring_order):
            raise ValueError(
                f"checkpoint ring {ring_order} does not match its shard "
                f"owners {sorted(shards)}"
            )
        dataplane = DataPlane(adapter, shards, own_data=False)
        dataplane.restore_bookkeeping(state.bookkeeping)
        self._bind_fit(adapter, dataplane, RingTopology(ring_order), state.key_root)
        # The restored membership rarely matches a standing pool's ranks
        # (gaps from retirements, extras from joins); start clean.
        self._rebuild_pool(shards)
        self._restore_pending_ingests(state)

    def teardown(self) -> None:
        """End the fit: drop the shared-memory shards, keep the pool."""
        super().teardown()
        self._release_segments()

    def _release_segments(self) -> None:
        unlink_segments(self._segments)
        self._segments = []

    def _close_pool(self, *, force: bool = False) -> None:
        """Stop the worker processes and close their channels,
        leaving fit state (data plane, topology, segments) in place —
        the process half of :meth:`close`, reused by pool rebuilds."""
        self._pool.close(force=force)
        self._addr_map = {}

    def close(self, *, force: bool = False) -> None:
        """Stop the worker pool and release every resource.

        ``force`` skips the cooperative stop — used after a worker error,
        when peers may be blocked on ring receives that will never arrive
        and would ignore a queued stop command.
        """
        self._close_pool(force=force)
        self._ranks = []
        self._boundary = None
        self._release_segments()

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live pool (diagnostics; stable across fits)."""
        return [p.pid for p in self._pool.procs.values() if p.is_alive()]

    def __del__(self):
        with suppress(Exception):
            self.close()
