"""The wall-clock worker runtime: one command loop for every ring transport.

A ParMAC worker does the same thing whatever carries the ring: train the
submodels that arrive, pass them on, then solve its Z step (paper
section 4.1 / fig. 6). This module is that worker, written once —

* :class:`WorkerSetup`, the one typed setup message a coordinator ships;
* :class:`_WorkerState`, what a worker derives from it for one fit;
* :func:`_run_worker_iteration`, one W step + Z step over a transport;
* :func:`_worker_main`, the table-dispatched command loop;

— plus the queue flavour of the two transport-specific pieces the loop
is parameterised by: a *ring transport* (``send``/``flush``/``recv``
during an iteration) and a worker-side *ring link* (whatever the
transport needs set up around iterations). The socket flavours live in
:mod:`repro.distributed.backends.tcp`.

The full command table (op, who handles it, reply kind) and the setup
message fields are listed in ``docs/architecture.md``; every reply is
``(rank, kind, payload)``, and a handler exception — or an unknown op —
replies ``error`` with the traceback.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import queue as queue_mod
import signal
import threading
import time
import traceback

import numpy as np

from repro.distributed.batching import (
    BatchAccumulator,
    GroupTable,
    supports_unit_batching,
    train_message_batch,
)
from repro.distributed.chaos import ChaosShim
from repro.distributed.health import HeartbeatSender, WorkerPulse
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage
from repro.distributed.protocol import RoutePlan, WStepProtocol
from repro.distributed.shm import attach_array_block, attach_shard
from repro.optim.sgd import SGDState

#: How often a blocked party (the coordinator waiting on results, a
#: worker waiting on a ring receive) wakes to check on its peers; bounds
#: how long a dead worker can go unnoticed.
_LIVENESS_POLL_S = 0.5


class IterationAborted(Exception):
    """The in-flight iteration was cancelled for a survivor re-plan."""


# ------------------------------------------------------------ setup message
@dataclasses.dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker needs to (re)join a fit — the one setup message.

    Built at exactly one site (the coordinator's ``_setup_message``) and
    kept by the worker as the immutable half of its state. ``rng_state``
    restores a checkpointed SGD stream in place of the fresh
    ``seed``-derived one; ``cpuset`` (from the coordinator's
    ``pin_workers`` partition) pins the process. ``host`` / ``port`` /
    ``drop_on_fault`` are ring-link parameters: the socket link binds
    ``(host, port)`` and, under ``drop_on_fault``, answers a peer's
    death with a clean abort ack instead of an error; the queue link
    ignores all three.
    """

    adapter: object
    desc: dict
    protocol: WStepProtocol
    homes: dict
    batch_size: int
    shuffle_within: bool
    seed: int
    rng_state: dict | None
    message_dtype: object
    batch_units: bool
    overlap_send: bool
    chaos: object
    cpuset: list | None
    health: object
    host: str | None = None
    port: int = 0
    drop_on_fault: bool = False


class _WorkerState:
    """One worker's per-fit state: the setup message plus what it derives.

    One construction site keeps the queue and TCP workers bit-identical:
    a field added to :class:`WorkerSetup` (RNG stream, batching knob,
    ...) reaches both. ``cpuset`` records the affinity actually in
    effect after pinning, which the ready ack reports.
    """

    def __init__(self, rank: int, setup: WorkerSetup, pulse: WorkerPulse):
        self.rank = rank
        self.setup = setup
        self.pulse = pulse
        self.adapter = setup.adapter
        self.seg, self.shard = attach_shard(setup.desc)
        self.specs = self.adapter.submodel_specs()
        self.spec_by_sid = {s.sid: s for s in self.specs}
        self.rng = np.random.default_rng(setup.seed)
        if setup.rng_state is not None:
            self.rng.bit_generator.state = setup.rng_state
        self.cpuset = None
        if setup.cpuset is not None and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, setup.cpuset)
            self.cpuset = sorted(os.sched_getaffinity(0))
        self.compute_dtype = np.dtype(
            getattr(self.adapter, "compute_dtype", np.float64)
        )
        self.replan(setup.protocol, setup.homes)

    def replan(self, protocol: WStepProtocol, homes: dict) -> None:
        """Adopt a (re-)plan: new counter protocol, new home set."""
        self.protocol = protocol
        self.homes = dict(homes)
        self.my_sids = [sid for sid, h in homes.items() if h == self.rank]

    @property
    def wire_dtype(self):
        """Reduced-precision wire dtype, when anything travels at all:
        like the simulated engines, a P = 1 ring never serialises."""
        return self.setup.message_dtype if self.protocol.n_machines > 1 else None

    @property
    def overlap(self) -> bool:
        return self.setup.overlap_send and self.protocol.n_machines > 1

    @property
    def units_batched(self) -> bool:
        """Whether this worker runs the batched co-resident-unit W step."""
        return (
            self.setup.batch_units
            and not self.setup.shuffle_within
            and supports_unit_batching(self.adapter)
        )

    def chaos_shim(self) -> ChaosShim | None:
        """A fresh shim per iteration realigns the per-link RNG streams
        with the simulated engines' per-W-step timeline."""
        chaos = self.setup.chaos
        if chaos is None or not chaos.active():
            return None
        return ChaosShim(chaos, self.rank, clock=time.monotonic)

    def checkpoint(self) -> dict:
        """This worker's resumable state: its (private) shard and SGD stream.

        The shard arrays pickle by value through the response channel,
        so the coordinator's snapshot is decoupled from further training
        even when the arrays are still zero-copy views over a
        shared-memory segment.
        """
        return {"shard": self.shard, "rng_state": self.rng.bit_generator.state}

    def model(self) -> list:
        """This worker's full model as ``(sid, theta)`` pairs.

        After a completed iteration every worker's adapter holds the
        identical final submodels, so any survivor can stand in for a
        model holder that died after its last ring send.
        """
        thetas = get_params_many(self.adapter, self.specs)
        return [(s.sid, np.array(t, copy=True)) for s, t in zip(self.specs, thetas)]

    def close(self) -> None:
        if self.seg is not None:
            self.seg.close()


# --------------------------------------------------------------- transport
class _AsyncSender:
    """Double-buffered background sender for overlapped ring hops.

    One daemon thread drains a bounded queue of transmit items, so the
    worker's main thread hands a just-trained submodel batch off and
    returns to training the next convoy while the previous one is still
    on the wire. A *single* sender thread per transport preserves the
    per-destination FIFO order the counter protocol relies on; the queue
    depth of two is the double buffer — one send in flight, one staged —
    which bounds how far the pipeline can run ahead of the NIC.

    Failure handling: a transmit error is recorded, not raised in the
    thread — the loop keeps consuming (and skipping) items so that
    ``Queue.join`` always terminates and a producer blocked on a full
    queue cannot deadlock; the original exception re-raises on the main
    thread at the next ``submit``/``drain``/``check``, keeping its type
    (the TCP worker's fault handling keys on ``ProtocolError``).
    """

    _STOP = object()

    def __init__(self, transmit, *, depth: int = 2):
        self._transmit = transmit
        self._q: queue_mod.Queue = queue_mod.Queue(maxsize=depth)
        self._exc: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="ring-sender", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._q.get()
            try:
                if item is self._STOP:
                    return
                if self._exc is None:
                    self._transmit(*item)
            except BaseException as exc:  # noqa: BLE001 - surfaced via check()
                self._exc = exc
            finally:
                self._q.task_done()

    def check(self) -> None:
        """Re-raise a background transmit failure on the caller's thread."""
        if self._exc is not None:
            raise self._exc

    def submit(self, *item) -> None:
        """Queue one transmit, blocking while both buffers are full.

        The wait is chopped into short timed puts so a send failure
        surfaces here instead of deadlocking the producer against a
        queue that will never drain normally.
        """
        while True:
            self.check()
            try:
                self._q.put(item, timeout=0.1)
                return
            except queue_mod.Full:
                continue

    def drain(self) -> None:
        """Block until every queued transmit has left, then re-check."""
        self.check()
        self._q.join()
        self.check()

    def close(self) -> None:
        """Stop the thread after in-flight items (no new work accepted)."""
        try:
            self._q.put(self._STOP, timeout=1.0)
        except queue_mod.Full:
            pass  # wedged transmit; the daemon thread is abandoned
        self._thread.join(timeout=5.0)


class _QueueRingTransport:
    """Ring transport over the coordinator-built full queue mesh.

    The transport interface the worker iteration runs against:
    ``send(dest, msg)`` may buffer, ``flush()`` forces buffered messages
    out, ``recv()`` returns the next incoming message (flushing first,
    so a worker never blocks while holding undelivered sends), and
    ``wire_stats()`` reports what the iteration cost on the wire. Queues
    deliver messages one at a time with no syscall to amortise, so this
    implementation sends eagerly and ``flush`` is a no-op.

    Every queue item is tagged with the iteration *generation*: after a
    ``drop_shard`` recovery the retried iteration runs under a new
    generation, so stale traffic from the aborted attempt — including
    unconsumed abort sentinels — is silently discarded instead of
    corrupting the ring. A ``(gen, None)`` item is the coordinator's
    abort sentinel: it wakes a worker blocked on a receive whose sender
    died and raises :class:`IterationAborted`.

    The sentinel alone is not a reliable wake-up: ``mp.Queue`` writes
    funnel through a per-queue feeder lock, and a worker SIGKILLed
    mid-write leaves that lock held forever — the coordinator's sentinel
    for that queue would never be delivered. ``abort_ev`` is the
    lock-free fallback: a per-worker ``Event`` the receive loop polls
    between short blocking gets, set by the coordinator alongside the
    sentinel.
    """

    def __init__(self, rank: int, ring_qs, gen: int = 0, abort_ev=None, *,
                 wire_dtype=None, compute_dtype=None, overlap=False,
                 chaos_shim=None):
        self.rank = rank
        self._ring_qs = ring_qs
        self.gen = gen
        self._abort_ev = abort_ev
        # Chaos shim: the per-link verdict is drawn at send() time (one
        # draw per message, matching the simulated engines' per-hop
        # draws) and served as a sleep at transmit time — on the sender
        # thread under overlap_send, so overlap hides injected latency
        # exactly as it hides real latency.
        self._chaos = chaos_shim
        # Reduced-precision wire (paper section 9): parameters are cast
        # down at pack time — the pickled payload genuinely shrinks — and
        # cast back to the compute dtype on receive. The worker already
        # round-tripped theta through the wire dtype after training, so
        # both casts are value-exact.
        self._wire_dtype = wire_dtype
        self._compute_dtype = compute_dtype
        # Overlapped sends: the queue put (which pickles the payload)
        # moves to a background thread. The wire cast and byte counting
        # stay on the main thread, so overlap changes *when* a message
        # leaves, never its bits.
        self._sender = _AsyncSender(self._transmit) if overlap else None
        self.msgs_sent = 0
        self.bytes_sent = 0

    def _transmit(self, dest: int, item, delay: float = 0.0) -> None:
        if delay > 0.0:
            time.sleep(delay)
        self._ring_qs[dest].put(item)

    def send(self, dest: int, msg: SubmodelMessage) -> None:
        if self._wire_dtype is not None and dest != self.rank:
            msg.theta = np.asarray(msg.theta, dtype=self._wire_dtype)
        self.msgs_sent += 1
        self.bytes_sent += msg.nbytes
        item = (self.gen, msg)
        delay = (
            self._chaos.send_delay(dest, msg.nbytes)
            if self._chaos is not None and dest != self.rank
            else 0.0
        )
        if self._sender is not None and dest != self.rank:
            self._sender.submit(dest, item, delay)
        else:
            self._transmit(dest, item, delay)

    def flush(self) -> None:
        pass

    def drain(self) -> None:
        """Wait for background sends to finish (no-op without overlap)."""
        if self._sender is not None:
            self._sender.drain()

    def close(self) -> None:
        """Stop the background sender, if any, without a full drain."""
        if self._sender is not None:
            self._sender.close()

    def recv(self) -> SubmodelMessage:
        while True:
            try:
                gen, msg = self._ring_qs[self.rank].get(timeout=_LIVENESS_POLL_S)
            except queue_mod.Empty:
                if self._sender is not None:
                    self._sender.check()
                if self._abort_ev is not None and self._abort_ev.is_set():
                    raise IterationAborted() from None
                continue
            if gen != self.gen:
                continue  # stale traffic from an aborted iteration
            if msg is None:
                raise IterationAborted()
            if self._wire_dtype is not None:
                msg.theta = np.asarray(msg.theta, dtype=self._compute_dtype)
            return msg

    def wire_stats(self) -> dict:
        stats = {"hops": self.msgs_sent, "bytes_sent": self.bytes_sent}
        if self._chaos is not None:
            stats.update(self._chaos.counters)
        return stats


class _QueueLink:
    """Worker end of the queue ring.

    The ring queues and the abort event are inherited at process start,
    so there is nothing to set up around iterations: ``setup`` is ready
    at once, the link adds no ops, and streamed rows arrive as a
    shared-memory block. The socket link
    (:class:`repro.distributed.backends.tcp._SocketLink`) implements the
    same interface with a mesh to build, rebuild and tear down.
    """

    #: What an interrupted iteration raises on this transport.
    abort_errors = (IterationAborted,)

    def __init__(self, ring_qs, abort_ev):
        self._ring_qs = ring_qs
        self._abort_ev = abort_ev

    def ops(self) -> dict:
        return {}

    def open(self, state: _WorkerState) -> tuple:
        """Reply to ``setup``. The ack reports the cpuset actually
        applied (None when pinning is off or unsupported here)."""
        return "ready", state.cpuset

    def encode_beat(self, seq: int, phase: str, progress: int):
        return seq, phase, progress

    @contextlib.contextmanager
    def ingest_rows(self, desc):
        """The ``(X, F, Z, indices)`` of one shipped ingest batch, as
        views over a segment the coordinator unlinks right after the ack."""
        seg, arrays = attach_array_block(desc)
        try:
            yield arrays
        finally:
            seg.close()

    def check_retired(self, retired) -> None:
        pass

    def transport(self, state: _WorkerState, gen: int, shim) -> _QueueRingTransport:
        return _QueueRingTransport(
            state.rank, self._ring_qs, gen, self._abort_ev,
            wire_dtype=state.wire_dtype, compute_dtype=state.compute_dtype,
            overlap=state.overlap, chaos_shim=shim,
        )

    def on_abort(self) -> bool:
        """Whether an interrupted iteration is an abort to recover from
        (reply ``aborted``) rather than an error. Always, here — and the
        queues survive as-is: stale traffic is generation-filtered at
        the receivers."""
        return True

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ worker
def _run_worker_iteration(state: _WorkerState, mu, plan, n_expected, transport,
                          model_rank=0, chaos_shim=None, crash=None):
    """One W step + Z step on this worker's shard; returns the payload.

    ``crash`` is a scheduled chaos kill point ("w"/"z"/None), resolved by
    the coordinator for this iteration's *first* attempt only: the worker
    SIGKILLs itself at the start of that phase, exactly like a real OOM
    kill, and the replacement spawned under ``respawn`` runs crash-free.
    """
    if crash == "w":
        os.kill(os.getpid(), signal.SIGKILL)
    rank = state.rank
    pulse = state.pulse
    pulse.enter("w")
    adapter = state.adapter
    shard = state.shard
    protocol = state.protocol
    specs = state.specs
    batch_size = state.setup.batch_size
    final: dict[int, np.ndarray] = {}
    # Batched co-resident-unit W step: arriving messages accumulate per
    # (home block, batch_key, counter) convoy group and train as one
    # stacked pass when the group completes — composition is
    # protocol-determined, so it is identical on every engine.
    acc = (
        BatchAccumulator(GroupTable(adapter, state.homes))
        if state.units_batched
        else None
    )
    # Reduced-precision wire: like the simulated engines, every visit
    # round-trips the updated parameters through the wire dtype when
    # anything travels at all (P > 1), so stored finals and travelling
    # copies stay bit-identical across backends.
    wire_dtype = state.wire_dtype
    compute_dtype = state.compute_dtype

    # Straggler injection: dilate each numeric call by (factor-1)x its
    # measured duration. Only compute is slowed — receive waits and wire
    # time are untouched — matching ChaosTimeline, which scales
    # w_work/z_work and nothing else.
    straggle = None
    if chaos_shim is not None and chaos_shim.cfg.straggler_factor(rank) != 1.0:
        def straggle(t0: float) -> None:
            extra = chaos_shim.charge_straggler(time.perf_counter() - t0)
            if extra > 0.0:
                time.sleep(extra)

    def finish_visit(msg: SubmodelMessage) -> None:
        """Post-numerics tail of one visit: wire cast, final capture,
        forwarding."""
        if wire_dtype is not None:
            msg.theta = msg.theta.astype(wire_dtype).astype(compute_dtype)
        if protocol.is_final(msg.counter):
            final[msg.spec.sid] = np.array(msg.theta, copy=True)
        if protocol.should_forward(msg.counter):
            transport.send(plan.successor(rank, msg.counter), msg)

    def train_inline(msg: SubmodelMessage, passes: int) -> None:
        t0 = time.perf_counter() if straggle is not None else 0.0
        for _ in range(passes):
            msg.theta = adapter.w_update(
                msg.spec,
                msg.theta,
                msg.sgd_state,
                shard,
                mu,
                batch_size=batch_size,
                shuffle=state.setup.shuffle_within,
                rng=state.rng,
            )
        if straggle is not None:
            straggle(t0)

    def handle(msg: SubmodelMessage) -> None:
        pulse.tick()  # one heartbeat-visible unit of progress per visit
        msg.counter += 1
        passes = protocol.train_passes(msg.counter)
        if passes and acc is not None and acc.table.batchable(msg.spec.sid):
            group = acc.add(msg)
            if group is None:
                return  # convoy incomplete; numerics wait for the rest
            t0 = time.perf_counter() if straggle is not None else 0.0
            train_message_batch(
                adapter, group, shard, mu, passes=passes,
                batch_size=batch_size, rng=state.rng,
            )
            if straggle is not None:
                straggle(t0)
            for member in group:
                finish_visit(member)
            return
        train_inline(msg, passes)
        finish_visit(msg)

    t_w0 = time.perf_counter()
    my_specs = [state.spec_by_sid[sid] for sid in state.my_sids]
    for spec, theta in zip(my_specs, get_params_many(adapter, my_specs)):
        handle(
            SubmodelMessage(
                spec=spec,
                theta=np.array(theta, copy=True),
                sgd_state=SGDState(),
            )
        )
    transport.flush()
    for _ in range(n_expected):
        handle(transport.recv())
    transport.flush()
    if acc is not None and acc.n_pending:
        raise RuntimeError(
            f"{acc.n_pending} submodel visit(s) never completed their batch "
            "group — convoy tracking bug"
        )
    # W-step invariant: this worker now holds every final submodel.
    set_params_many(adapter, [(spec, final[spec.sid]) for spec in specs])
    t_w = time.perf_counter() - t_w0

    if crash == "z":
        os.kill(os.getpid(), signal.SIGKILL)
    pulse.enter("z")
    t_z0 = time.perf_counter()
    z_changes = adapter.z_update(shard, mu)
    if straggle is not None:
        straggle(t_z0)
    t_z = time.perf_counter() - t_z0
    # Under overlap_send the final-lap forwards may still be in flight —
    # deliberately: peers sit in their receive loops while this worker's
    # Z step runs, so those sends overlap the Z compute too. They must be
    # delivered before the iteration is reported complete, though: the
    # next iteration opens a fresh transport whose frames must not
    # interleave with a still-draining sender.
    transport.drain()

    return {
        "e_q": adapter.e_q_shard(shard, mu),
        "e_ba": adapter.e_ba_shard(shard),
        "violations": adapter.violations_shard(shard),
        "z_changes": z_changes,
        "w_time": t_w,
        "z_time": t_z,
        "wire": transport.wire_stats(),
        "model": [(s.sid, final[s.sid]) for s in specs] if rank == model_rank else None,
    }


class _Worker:
    """One pool worker: the command handlers and their dispatch table.

    Handlers return the ``(kind, payload)`` to reply with; ``link`` is
    the worker end of the ring (queue or socket) and contributes the
    ops only its transport needs.
    """

    def __init__(self, rank: int, res, link):
        self.rank = rank
        self.link = link
        self.state: _WorkerState | None = None
        self._res = res
        self._pulse = WorkerPulse()
        self._beat: HeartbeatSender | None = None
        # The heartbeat thread shares the response connection with the
        # command loop; Connection.send is not safe under concurrent
        # writers.
        self._send_lock = threading.Lock()
        self._handlers = {
            "setup": self.setup,
            "checkpoint": lambda: ("checkpoint", self.state.checkpoint()),
            "ingest": self.ingest,
            "replan": self.replan,
            "model": lambda: ("model", self.state.model()),
            "iter": self.iter,
            **link.ops(),
        }

    def reply(self, kind: str, payload) -> None:
        with self._send_lock:
            self._res.send((self.rank, kind, payload))

    def serve(self, cmd_q) -> None:
        """Serve commands until told to stop."""
        while True:
            op, *args = cmd_q.get()
            if op == "stop":
                break
            try:
                handler = self._handlers.get(op)
                if handler is None:
                    # Reply rather than drop: a silent worker would leave
                    # the coordinator's gather waiting out worker_timeout.
                    raise ValueError(
                        f"unknown worker op {op!r}; known: {sorted(self._handlers)}"
                    )
                self.reply(*handler(*args))
            except Exception:
                self.reply("error", traceback.format_exc())
        if self._beat is not None:
            self._beat.stop()
        self.link.close()
        if self.state is not None:
            self.state.close()

    def setup(self, setup: WorkerSetup) -> tuple:
        if self.state is not None:
            self.state.close()
        self.state = _WorkerState(self.rank, setup, self._pulse)
        if setup.health is not None and self._beat is None:
            # Beats ride the response channel in the link's encoding (a
            # plain tuple on queues, a HEARTBEAT control frame on tcp).
            self._beat = HeartbeatSender(
                lambda seq, phase, progress: self.reply(
                    "beat", self.link.encode_beat(seq, phase, progress)
                ),
                setup.health.interval_s,
                self._pulse,
            )
        return self.link.open(self.state)

    def ingest(self, payload) -> tuple:
        # ``append`` concatenates into fresh private arrays, so the rows
        # may be views the link releases on exit.
        with self.link.ingest_rows(payload) as (X, F, Z, indices):
            self.state.shard.append(X, F, Z, indices)
            return "ingested", len(X)

    def replan(self, protocol, homes, retired) -> tuple:
        self.link.check_retired(retired)
        self.state.replan(protocol, homes)
        return "replanned", None

    def iter(self, mu, orders, n_expected, gen, model_rank, crash) -> tuple:
        state = self.state
        plan = RoutePlan.from_orders(orders, state.protocol)
        shim = state.chaos_shim()
        transport = self.link.transport(state, gen, shim)
        try:
            try:
                payload = _run_worker_iteration(
                    state, mu, plan, n_expected, transport, model_rank,
                    chaos_shim=shim, crash=crash,
                )
            finally:
                self._pulse.enter("idle")
                transport.close()
        except self.link.abort_errors:
            if not self.link.on_abort():
                raise
            return "aborted", traceback.format_exc()
        return "result", payload


def _worker_main(rank, cmd_q, res, link) -> None:
    """Pool worker entry point, for either wall-clock engine."""
    _Worker(rank, res, link).serve(cmd_q)
