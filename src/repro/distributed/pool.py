"""The process runtime both tiers run on: one pool of forked workers.

A pool worker is a forked process with one duplex channel to its
coordinator (a socketpair): commands, replies and heartbeats all ride
it. The coordinator's writes never block — what the socket does not
take at once, the next gather flushes — and a worker leaves its loop
when the coordinator's end closes, so none outlives its coordinator.
The wall-clock training engines' machines
(:mod:`repro.distributed.backends.worker`) and the serving tier's
process shards (:class:`repro.serve.ShardedHammingIndex`) differ only in
the handler table the worker's loop serves — GraphLab's split of update
function from engine. This module is the engine, written once:

* :class:`WorkerPool`, the coordinator end: the one fork site (the
  resource tracker started first), each worker's channel, ``send``, a
  SIGKILL-and-close ``kill``, ``close``, and one ``gather``;
* :func:`_serve`, the worker end: the one command loop.

Policy stays with the callers. ``gather`` reports what arrived, who died
and who was late, and raises only on an ``error`` reply. Training turns a
death into a teardown or a recovery round and a late worker into its
``worker_timeout`` error; the index turns either into a partial result
and a respawn.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import struct
import threading
import time
import traceback
from contextlib import suppress
from multiprocessing.reduction import ForkingPickler

__all__ = ["WorkerPool"]

#: How often a blocked party (a coordinator gathering replies, a worker
#: waiting on a ring receive) wakes to check on its peers; bounds how
#: long a dead worker can go unnoticed.
_LIVENESS_POLL_S = 0.5

#: Seconds a cooperative ``close`` waits for each worker to exit.
_STOP_WAIT_S = 30.0


class _Channel:
    """The coordinator end of one worker's duplex channel (a socketpair),
    which never blocks.

    One channel per worker carries its commands, replies and heartbeats,
    with a single writer at each end, so there is no shared
    cross-process lock for a SIGKILLed worker to leave held (a shared
    result queue strands every survivor's replies that way).

    Reads parse :class:`multiprocessing.Connection`'s length-prefixed
    wire format from nonblocking reads, so a worker killed mid-message
    can never block the coordinator: the partial frame just sits in the
    buffer and the death surfaces through the liveness poll. ``send``
    writes the same format into ``out`` and hands the socket what it
    takes now; the gather flushes the rest as the socket drains, so no
    send blocks and every write is bounded by the gather's deadline.
    The worker end is a plain blocking ``Connection``.
    """

    def __init__(self, conn):
        self._conn, self.fd = conn, conn.fileno()
        os.set_blocking(self.fd, False)
        self._buf, self.out = bytearray(), bytearray()

    def send(self, obj) -> None:
        """Frame ``obj`` as ``Connection.send`` does (past 2**31 - 1
        bytes, a -1 and then an 8-byte length) and write what fits."""
        payload = ForkingPickler.dumps(obj)
        n = len(payload)
        self.out += struct.pack("!i", n) if n < 2**31 else struct.pack("!iQ", -1, n)
        self.out += payload
        self.flush()

    def flush(self) -> None:
        """Write what the socket takes now; a gone worker's bytes are
        dropped (the gather reports its death)."""
        try:
            while self.out:
                del self.out[: os.write(self.fd, self.out)]
        except OSError as exc:
            if not isinstance(exc, BlockingIOError):
                self.out.clear()

    def drain(self) -> list:
        """Every complete message currently in the socket (possibly none)."""
        with suppress(OSError):  # BlockingIOError included: read to the end
            while chunk := os.read(self.fd, 1 << 16):  # b"" at EOF
                self._buf += chunk  # (a dead worker's partial stays unparsed)
        out = []
        while len(self._buf) >= 4:
            (n,) = struct.unpack_from("!i", self._buf)
            header = 4
            if n == -1:  # the extended header
                header = 12
                if len(self._buf) < header:
                    break
                (n,) = struct.unpack_from("!Q", self._buf, 4)
            if len(self._buf) < header + n:
                break
            payload = bytes(self._buf[header : header + n])
            del self._buf[: header + n]
            out.append(pickle.loads(payload))
        return out

    def close(self) -> None:
        """Close this end; the worker reads EOF, and unsent bytes are dropped."""
        self._conn.close()


class WorkerPool:
    """The coordinator end of a pool of forked workers, keyed by rank.

    ``procs`` maps each rank to its live ``multiprocessing.Process``. The
    pool holds no reference to its owner (callbacks come with each
    ``gather``), so an owner dropped without ``close`` is still freed,
    and closes its pool, as soon as it is unreferenced.
    """

    def __init__(self):
        self.procs: dict[int, object] = {}
        self._chans: dict[int, _Channel] = {}

    def start(self, rank: int, make_worker, *args) -> None:
        """Fork the worker at ``rank``: it builds ``make_worker(reply,
        *args)`` and serves its handler table (:func:`_serve`).

        Fork is the one start method, so nothing crossing into the
        worker is pickled. The resource tracker is started first, so
        workers inherit it instead of lazily spawning private trackers on
        a shared-memory attach, which would then warn about "leaked"
        segments the coordinator already unlinked. The parent's copy of
        the worker's end is closed right after the fork, so a worker's
        death reads as EOF; the child closes its copies of the pool's
        coordinator ends, its own and the other workers', so the
        coordinator's death reads as EOF in every worker.
        """
        with suppress(Exception):
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        fork = mp.get_context("fork")
        mine, theirs = fork.Pipe(duplex=True)
        self._chans[rank] = _Channel(mine)
        try:
            proc = fork.Process(target=_serve, daemon=True, args=(
                rank, theirs, make_worker, args, list(self._chans.values())))
            proc.start()
        finally:
            theirs.close()
        self.procs[rank] = proc

    def send(self, rank: int, op: str, *args) -> None:
        """Send one command to ``rank``'s loop without blocking: what its
        socket does not take now, the next ``gather`` writes."""
        self._chans[rank].send((op, *args))

    def kill(self, rank: int) -> None:
        """SIGKILL ``rank``'s worker and close its channel, unsent bytes
        and all.

        SIGKILL, not SIGTERM: a *stopped* (SIGSTOPped, ptraced) worker
        leaves SIGTERM pending forever, and the join would then burn its
        whole timeout.
        """
        if rank not in self._chans:
            return  # already killed
        proc = self.procs.pop(rank)
        proc.kill()  # a no-op on a process already gone
        proc.join(timeout=5)
        self._chans.pop(rank).close()

    def close(self, *, force: bool = False, wait: float = _STOP_WAIT_S) -> None:
        """Stop every worker and release everything. Unless ``force``,
        each is sent ``stop`` and given up to ``wait`` seconds to exit;
        whatever is left is killed."""
        if not force:
            for chan in self._chans.values():
                chan.send(("stop",))
            for proc in self.procs.values():
                proc.join(timeout=wait)
        for rank in list(self._chans):
            self.kill(rank)

    def gather(self, ranks, kinds, *, deadline: float | None = None,
               stop_on_death: bool = False, on_idle=None, on_beat=None) -> tuple:
        """Wait for one reply of a kind in ``kinds`` from each of
        ``ranks`` — the one poll → liveness → deadline loop.

        It waits on the channels — reading replies, and writing what
        ``send`` left unsent — waking at least every
        :data:`_LIVENESS_POLL_S` to check liveness; a worker found dead
        is written off only after the reply it may have left in its
        channel is picked up. It stops when every rank has replied or
        died, at the monotonic ``deadline`` (the silent ranks are late),
        or, under ``stop_on_death``, at the first death.
        ``on_idle(pending)`` runs on every quiet wake-up, and
        ``on_beat(payload)`` takes every heartbeat (``beat``), which is
        not a reply. An ``error`` reply raises a ``RuntimeError`` carrying
        the worker's traceback; replies of other kinds are dropped.

        Returns ``(replies, dead, late)`` for the caller's policy: rank ->
        ``(kind, payload)`` of each reply, the ranks found dead without
        one, and the ranks still alive and silent when it stopped.
        """
        pending, replies, dead = set(ranks), {}, set()
        while pending and not (dead and stop_on_death):
            wait = _LIVENESS_POLL_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            msgs = self._recv(pending, wait, on_beat)
            if not msgs:
                gone = {r for r in pending if not self.procs[r].is_alive()}
                if gone:
                    msgs = self._recv(gone, 0, on_beat)
                    gone -= {m[0] for m in msgs}
                    pending -= gone
                    dead |= gone
            for rank, kind, payload in msgs:
                if kind == "error":
                    raise RuntimeError(f"worker {rank} failed:\n{payload}")
                if kind in kinds:
                    replies[rank] = (kind, payload)
                    pending.discard(rank)
            if not msgs and pending:
                if on_idle is not None:
                    on_idle(pending)
                if deadline is not None and time.monotonic() >= deadline:
                    break
        return replies, dead, pending

    def _recv(self, ranks, timeout: float, on_beat) -> list:
        """Every reply now deliverable from ``ranks``, as ``(rank, kind,
        payload)``: waits up to ``timeout`` for the first ready channel,
        then drains the readable ones of ``ranks`` and flushes the
        writable ones of any rank. Heartbeats go to ``on_beat``.

        A plain poll object: ``multiprocessing.connection.wait`` builds a
        selector per call, which cost a two-shard gather about 35 us on a
        2-vCPU VM.
        """
        poller, out = select.poll(), []
        for rank, chan in self._chans.items():
            mask = (select.POLLIN if rank in ranks else 0) | (select.POLLOUT if chan.out else 0)
            if mask:
                poller.register(chan.fd, mask)
        ready = dict(poller.poll(timeout * 1000))
        for rank, chan in self._chans.items():
            event = ready.get(chan.fd, 0)
            if event:
                chan.flush()
            if event & ~select.POLLOUT and rank in ranks:
                for msg in chan.drain():
                    if msg[1] != "beat":
                        out.append(msg)
                    elif on_beat is not None:
                        on_beat(msg[2])
        return out


def _serve(rank: int, conn, make_worker, args, coordinator_ends) -> None:
    """The one command loop, in every pool worker.

    ``make_worker(reply, *args)`` builds the worker: an object with a
    ``handlers`` table (op -> callable returning the ``(kind, payload)``
    to reply with) and a ``close()``. Commands are read from ``conn``,
    the worker's end of its channel, and served until ``stop`` or until
    the coordinator's end is gone (EOF, or a reset: the coordinator
    closed it or died), so a worker never outlives its coordinator. An unknown op or a handler exception
    replies ``error`` with the traceback instead of going silent, which
    would leave the gather waiting out its deadline. Replies and
    heartbeats share ``conn``, so ``reply`` is locked:
    ``Connection.send`` is not safe under concurrent writers.
    ``coordinator_ends`` are the inherited copies of the coordinator's
    channel ends, closed first.
    """
    for chan in coordinator_ends:
        chan.close()
    lock = threading.Lock()

    def reply(kind: str, payload) -> None:
        with lock:
            conn.send((rank, kind, payload))

    worker = make_worker(reply, *args)
    with suppress(EOFError, OSError):  # the coordinator's end is gone
        while True:
            op, *cmd = conn.recv()
            if op == "stop":
                break
            try:
                handler = worker.handlers.get(op)
                if handler is None:
                    raise ValueError(
                        f"unknown worker op {op!r}; known: {sorted(worker.handlers)}"
                    )
                reply(*handler(*cmd))
            except Exception:
                reply("error", traceback.format_exc())
    worker.close()
