"""The wall-clock training worker: the handlers, on either engine.

A ParMAC worker does the same thing wherever its ring sockets are bound:
train the submodels that arrive, pass them on, then solve its Z step
(paper section 4.1 / fig. 6). This module is that worker, written once —

* :class:`WorkerSetup`, the one typed setup message a coordinator ships;
* :class:`_WorkerState`, what a worker derives from it for one fit;
* :func:`_run_worker_iteration`, one W step + Z step over a transport;
* :class:`_Worker`, the handler table the pool's command loop serves.

The process around it — the fork site, the command loop, the worker's
channel and the gather — is :mod:`repro.distributed.pool`, which the
serving tier's process shards run on too. The ring itself — the
transport an iteration sends and receives on, and the worker-side link
that builds, rebuilds and tears down the socket mesh around iterations —
lives in :mod:`repro.distributed.backends.ring`; the handlers are handed
a link and never look inside it.

The full command table (op, who handles it, reply kind) and the setup
message fields are listed in ``docs/architecture.md``; every reply is
``(rank, kind, payload)``, and a handler exception — or an unknown op —
replies ``error`` with the traceback.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
import traceback

import numpy as np

from repro.distributed.batching import BatchAccumulator, GroupTable, train_message_batch
from repro.distributed.chaos import ChaosShim
from repro.distributed.framing import ProtocolError, encode_heartbeat
from repro.distributed.health import HeartbeatSender, WorkerPulse
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage
from repro.distributed.protocol import RoutePlan, WStepProtocol, expected_senders
from repro.distributed.shm import attach_shard
from repro.optim.sgd import SGDState


# ------------------------------------------------------------ setup message
@dataclasses.dataclass(frozen=True)
class WorkerSetup:
    """Everything a worker needs to (re)join a fit — the one setup message.

    Built at exactly one site (the coordinator's ``_setup_message``) and
    kept by the worker as the immutable half of its state. ``seed`` is
    the fit's key root: under ``shuffle_within`` each visit's minibatch
    order is keyed on it (:mod:`repro.distributed.batching`), so the
    worker holds no RNG state. ``address`` / ``drop_on_fault`` are ring-link
    parameters: the link binds its listener at ``address`` (``(host,
    port)`` on ``tcp``, a unix-socket name on ``multiprocess``) and,
    under ``drop_on_fault``, answers a peer's death with a clean abort
    ack instead of an error.
    """

    adapter: object
    desc: dict
    protocol: WStepProtocol
    homes: dict
    batch_size: int
    shuffle_within: bool
    seed: int
    message_dtype: object
    chaos: object
    health: object
    address: object
    drop_on_fault: bool


class _WorkerState:
    """One worker's per-fit state: the setup message plus what it derives."""

    def __init__(self, rank: int, setup: WorkerSetup, pulse: WorkerPulse):
        self.rank = rank
        self.setup = setup
        self.pulse = pulse
        self.adapter = setup.adapter
        self.seg, self.shard = attach_shard(setup.desc)
        self.specs = self.adapter.submodel_specs()
        self.spec_by_sid = {s.sid: s for s in self.specs}
        self.compute_dtype = np.dtype(self.adapter.compute_dtype)
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

    def chaos_shim(self) -> ChaosShim | None:
        """A fresh shim per iteration realigns the per-link RNG streams
        with the simulated engines' per-W-step timeline."""
        chaos = self.setup.chaos
        if chaos is None or not chaos.active():
            return None
        return ChaosShim(chaos, self.rank, clock=time.monotonic)

    def checkpoint(self):
        """This worker's resumable state: its (private) shard.

        The shard arrays pickle by value through the worker's channel,
        so the coordinator's snapshot is decoupled from further training
        even when the arrays are still zero-copy views over a
        shared-memory segment.
        """
        return self.shard

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


# ------------------------------------------------------------------ worker
def _run_worker_iteration(state: _WorkerState, mu, iteration, plan, n_expected,
                          transport, model_rank=0, chaos_shim=None, crash=None):
    """One W step + Z step on this worker's shard; returns the payload.

    ``iteration`` counts the fit's completed iterations; it keys every
    visit's minibatch order, so a retried attempt redraws the same ones.

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
    # Arriving messages accumulate per (home block, batch_key, counter)
    # convoy group and train as one stacked pass when the group
    # completes — composition is protocol-determined, so it is identical
    # on every engine.
    acc = BatchAccumulator(GroupTable(adapter, state.homes))
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

    def visit_key(msg: SubmodelMessage):
        """What this visit's minibatch orders are keyed on (the counter
        counts from 0 at the home machine), or None without shuffling."""
        if not state.setup.shuffle_within:
            return None
        home = state.homes[msg.spec.sid]
        return (state.setup.seed, iteration, rank, msg.counter - 1, home)

    def handle(msg: SubmodelMessage) -> None:
        pulse.tick()  # one heartbeat-visible unit of progress per visit
        msg.counter += 1
        passes = protocol.train_passes(msg.counter)
        group = acc.add(msg) if passes else [msg]
        if group is None:
            return  # convoy incomplete; numerics wait for the rest
        t0 = time.perf_counter() if straggle is not None else 0.0
        train_message_batch(
            adapter, group, shard, mu,
            passes=passes, batch_size=batch_size, key=visit_key(msg),
        )
        if straggle is not None:
            straggle(t0)
        for member in group:
            finish_visit(member)

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
    if acc.n_pending:
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
    z_result = adapter.z_update(shard, mu)
    if straggle is not None:
        straggle(t_z0)
    t_z = time.perf_counter() - t_z0
    return {
        "z": z_result,
        "w_time": t_w,
        "z_time": t_z,
        "wire": transport.wire_stats(),
        "model": [(s.sid, final[s.sid]) for s in specs] if rank == model_rank else None,
    }


class _Worker:
    """One training worker: the command handlers the pool's loop serves.

    Handlers return the ``(kind, payload)`` to reply with; ``link`` is
    the worker end of the ring and contributes the mesh ops.
    """

    def __init__(self, reply, rank: int, link):
        self.rank = rank
        self.link = link
        self.reply = reply
        self.state: _WorkerState | None = None
        self._pulse = WorkerPulse()
        self._beat: HeartbeatSender | None = None
        self.handlers = {
            "setup": self.setup,
            "checkpoint": lambda: ("checkpoint", self.state.checkpoint()),
            "ingest": self.ingest,
            "replan": self.replan,
            "model": lambda: ("model", self.state.model()),
            "iter": self.iter,
            **link.ops(),
        }

    def close(self) -> None:
        """On ``stop``: stop beats, close the link and the shard mapping."""
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
            # Beats ride the worker's channel as HEARTBEAT control
            # frames — the same bytes a multi-host deployment would send
            # down a coordinator socket.
            self._beat = HeartbeatSender(
                lambda seq, phase, progress: self.reply(
                    "beat", encode_heartbeat(self.rank, seq, progress, phase)
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

    def iter(self, mu, iteration, orders, n_expected, model_rank, crash) -> tuple:
        state = self.state
        plan = RoutePlan.from_orders(orders, state.protocol)
        shim = state.chaos_shim()
        senders = expected_senders(plan, state.homes, self.rank)
        transport = self.link.transport(state, shim, senders)
        try:
            try:
                payload = _run_worker_iteration(
                    state, mu, iteration, plan, n_expected, transport, model_rank,
                    chaos_shim=shim, crash=crash,
                )
            finally:
                self._pulse.enter("idle")
                transport.close()
        except ProtocolError:
            # A peer vanished mid-iteration (EOF or reset on its sockets).
            if not self.link.on_abort():
                raise
            return "aborted", traceback.format_exc()
        return "result", payload

