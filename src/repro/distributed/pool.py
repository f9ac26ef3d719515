"""The process runtime both tiers run on: one pool of forked workers.

A pool worker is a forked process that serves commands from its own
queue and replies on its own pipe. The wall-clock training engines'
machines (:mod:`repro.distributed.backends.worker`) and the serving
tier's process shards (:class:`repro.serve.ShardedHammingIndex`) differ
only in the handler table the worker's loop serves — GraphLab's split of
update function from engine. This module is the engine, written once:

* :class:`WorkerPool`, the coordinator end: the one fork site (the
  resource tracker started first), each worker's command queue and
  private response pipe, ``send``, a SIGKILL-and-release ``kill``,
  ``close``, and one ``gather``;
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

__all__ = ["WorkerPool"]

#: How often a blocked party (a coordinator gathering replies, a worker
#: waiting on a ring receive) wakes to check on its peers; bounds how
#: long a dead worker can go unnoticed.
_LIVENESS_POLL_S = 0.5

#: Seconds a cooperative ``close`` waits for each worker to exit.
_STOP_WAIT_S = 30.0


class _ResponseChannel:
    """One worker's response stream, read without ever blocking.

    One pipe per worker, with a single writer each, so there is no
    shared cross-process lock for a SIGKILLed worker to leave held (a
    shared result queue strands every survivor's replies that way).

    The coordinator side parses :class:`multiprocessing.Connection`'s
    length-prefixed wire format itself from *nonblocking* reads, so a
    worker killed mid-message can never block the coordinator either:
    the partial frame just sits in the buffer and the death surfaces
    through the liveness poll. Workers keep using plain
    ``Connection.send``.
    """

    _HEADER = struct.Struct("!i")
    _LONG = struct.Struct("!Q")

    def __init__(self, reader):
        self._conn = reader
        os.set_blocking(reader.fileno(), False)
        self._buf = bytearray()

    def fileno(self) -> int:
        """File descriptor, so a poll can multiplex channels directly."""
        return self._conn.fileno()

    def drain(self) -> list:
        """Every complete message currently in the pipe (possibly none)."""
        with suppress(OSError):  # BlockingIOError included: the pipe is empty
            while True:
                chunk = os.read(self._conn.fileno(), 1 << 16)
                self._buf.extend(chunk)
                if len(chunk) < 1 << 16:
                    break  # drained for now, or EOF (any partial stays unparsed)
        out = []
        while len(self._buf) >= self._HEADER.size:
            (n,) = self._HEADER.unpack_from(self._buf)
            header = self._HEADER.size
            if n == -1:  # extended header for >= 2**31 - 1 byte payloads
                header += self._LONG.size
                if len(self._buf) < header:
                    break
                (n,) = self._LONG.unpack_from(self._buf, self._HEADER.size)
            if len(self._buf) < header + n:
                break
            payload = bytes(self._buf[header : header + n])
            del self._buf[: header + n]
            out.append(pickle.loads(payload))
        return out

    def close(self) -> None:
        with suppress(OSError):
            self._conn.close()


def _release_queue(cmd_q) -> None:
    """Let go of a command queue whose reader is joined or killed.

    Anything unsent to a gone process is garbage. Without this, a feeder
    thread blocked writing (say) a > 64 KiB message into a pipe nobody
    reads is joined by ``multiprocessing``'s exit handler, and the
    interpreter never exits. Closing our copy of the read end is
    CPython's own cure for the same wedge in ``ProcessPoolExecutor``
    (gh-94777): once the last reader is gone the blocked write fails
    with EPIPE and the feeder ends (quietly: :meth:`WorkerPool.start`
    set ``_ignore_epipe``, as the executor does). It comes first, so the
    feeder — which closes the reader itself on the ``close()`` sentinel
    — cannot be closing it at the same moment.
    """
    cmd_q._reader.close()
    cmd_q.close()
    cmd_q.cancel_join_thread()


class WorkerPool:
    """The coordinator end of a pool of forked workers, keyed by rank.

    ``procs`` maps each rank to its live ``multiprocessing.Process``. The
    pool holds no reference to its owner (callbacks come with each
    ``gather``), so an owner dropped without ``close`` is still freed,
    and closes its pool, as soon as it is unreferenced.
    """

    def __init__(self):
        self.procs: dict[int, object] = {}
        self._cmd_qs: dict = {}
        self._chans: dict[int, _ResponseChannel] = {}

    def start(self, rank: int, make_worker, *args) -> None:
        """Fork the worker at ``rank``: it builds ``make_worker(reply,
        *args)`` and serves its handler table (:func:`_serve`).

        Fork is the one start method, so nothing crossing into the
        worker is pickled. The resource tracker is started first, so
        workers inherit it instead of lazily spawning private trackers on
        a shared-memory attach, which would then warn about "leaked"
        segments the coordinator already unlinked. The parent's copy of
        the response pipe's write end is closed right after the fork, so
        a worker's death reads as EOF.
        """
        with suppress(Exception):
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        fork = mp.get_context("fork")
        # The child closes its copies of the other queues' read ends: held
        # open there, they would keep _release_queue from ever freeing a
        # feeder blocked writing to one of those workers.
        others = [q._reader for q in self._cmd_qs.values()]
        cmd_q = self._cmd_qs[rank] = fork.Queue()
        # A write to a worker that is gone is the gather's to report, not
        # a feeder-thread traceback on stderr (see _release_queue).
        cmd_q._ignore_epipe = True
        reader, writer = fork.Pipe(duplex=False)
        self._chans[rank] = _ResponseChannel(reader)
        try:
            proc = fork.Process(
                target=_serve, args=(rank, cmd_q, writer, make_worker, args, others),
                daemon=True,
            )
            proc.start()
        finally:
            writer.close()
        self.procs[rank] = proc

    def send(self, rank: int, op: str, *args) -> None:
        """Queue one command for ``rank``'s loop."""
        self._cmd_qs[rank].put((op, *args))

    def kill(self, rank: int) -> None:
        """SIGKILL ``rank``'s worker and release its queue and pipe.

        SIGKILL, not SIGTERM: a *stopped* (SIGSTOPped, ptraced) worker
        leaves SIGTERM pending forever, and the join would then burn its
        whole timeout.
        """
        if rank not in self._cmd_qs:
            return  # already killed
        proc = self.procs.pop(rank)
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)
        _release_queue(self._cmd_qs.pop(rank))
        self._chans.pop(rank).close()

    def close(self, *, force: bool = False, wait: float = _STOP_WAIT_S) -> None:
        """Stop every worker and release everything. Unless ``force``,
        each is sent ``stop`` and given up to ``wait`` seconds to exit;
        whatever is left is killed."""
        if not force:
            for rank in self.procs:
                with suppress(Exception):
                    self.send(rank, "stop")
            for proc in self.procs.values():
                proc.join(timeout=wait)
        for rank in list(self._cmd_qs):
            self.kill(rank)

    def gather(self, ranks, kinds, *, deadline: float | None = None,
               stop_on_death: bool = False, on_idle=None, on_beat=None) -> tuple:
        """Wait for one reply of a kind in ``kinds`` from each of
        ``ranks`` — the one poll → liveness → deadline loop.

        It waits on the response pipes, waking at least every
        :data:`_LIVENESS_POLL_S` to check liveness; a worker found dead
        is written off only after the reply it may have left in its pipe
        is picked up. It stops when every rank has replied or died, at
        the monotonic ``deadline`` (the silent ranks are late), or, under
        ``stop_on_death``, at the first death. ``on_idle(pending)`` runs
        on every quiet wake-up, and ``on_beat(payload)`` takes every
        heartbeat (``beat``), which is not a reply. An ``error`` reply
        raises a ``RuntimeError`` carrying the worker's traceback;
        replies of other kinds are dropped.

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
        payload)``: waits up to ``timeout`` for the first readable pipe,
        then drains the ready ones. Heartbeats go to ``on_beat``.

        A plain poll object: ``multiprocessing.connection.wait`` builds a
        selector per call, which cost a two-shard gather about 35 us on a
        2-vCPU VM. It polls before it reads: a nonblocking read of every
        pipe first costs a one-query search about 20 us more coordinator
        CPU, since right after ``send`` each read hands the GIL to a
        queue's feeder thread and waits to get it back.
        """
        chans, poller, out = [self._chans[r] for r in ranks], select.poll(), []
        for chan in chans:
            poller.register(chan, select.POLLIN)
        ready = {fd for fd, _ in poller.poll(timeout * 1000)}
        for chan in (c for c in chans if c.fileno() in ready):
            for msg in chan.drain():
                if msg[1] != "beat":
                    out.append(msg)
                elif on_beat is not None:
                    on_beat(msg[2])
        return out


def _serve(rank: int, cmd_q, res, make_worker, args, others) -> None:
    """The one command loop, in every pool worker.

    ``make_worker(reply, *args)`` builds the worker: an object with a
    ``handlers`` table (op -> callable returning the ``(kind, payload)``
    to reply with) and a ``close()``. Commands are served until
    ``stop``. An unknown op or a handler exception replies ``error`` with
    the traceback instead of going silent, which would leave the gather
    waiting out its deadline. ``reply`` is locked: a heartbeat thread may
    share the pipe with the loop, and ``Connection.send`` is not safe
    under concurrent writers. ``others`` are the inherited read ends of
    the other workers' command queues, closed first.
    """
    for reader in others:
        reader.close()
    lock = threading.Lock()

    def reply(kind: str, payload) -> None:
        with lock:
            res.send((rank, kind, payload))

    worker = make_worker(reply, *args)
    while True:
        op, *cmd = cmd_q.get()
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
