"""The ring: framed stream sockets between worker processes, written once.

Both wall-clock engines run this transport; they differ only in the
address their workers bind. ``tcp`` binds ``(host, port)`` AF_INET
listeners, ``multiprocess`` binds AF_UNIX listeners at coordinator-chosen
abstract names (nothing on disk, gone with the socket) — the address is
the only thing the link is parameterised by, and the socket family is
derived from it. Everything else is shared:

* :class:`_SocketRingTransport` — what one iteration sends and receives
  over the established mesh (``send``/``flush``/``recv``/``wire_stats``),
  with per-destination frame coalescing and backpressure-safe writes;
* :class:`_SocketLink` — the worker end of the ring around iterations:
  the listening socket, the mesh, its rebuild after a fault, the
  mid-fit join handshake, and the framed control plane;
* the socket helpers (:func:`_bind_listen_socket`,
  :func:`_connect_with_retry`, :func:`_read_frames`).

**Connection mesh.** Each worker dials every peer once at setup (its
outgoing, send-only sockets) and accepts one connection from every peer
(incoming, receive-only), identified by a HELLO frame. A fixed ring only
ever uses the two neighbour links, but ``shuffle_ring`` re-randomises the
ring per epoch (section 4.3) and may route a hop to any machine — the
mesh makes rerouting a lookup, not a reconnect.

**Message batching.** A machine housing several submodels owes its
successor one message per resident submodel per hop. Sending them
individually costs one syscall + one wire latency each; instead the
transport buffers outgoing messages and flushes *one framed batch per
destination* whenever the worker is about to block on a receive — by
which time every message the current processing round can produce has
been produced. With M/P submodels per machine this divides per-hop
syscalls and latency by M/P, which is exactly the amortisation the
paper's near-ideal speedups rely on. ``hops`` vs ``frames`` in the wire
stats shows what the coalescing saved.

**Faults.** A dead peer is detected, not waited for: a worker blocked on
a receive observes the peer's sockets reset (EOF mid-frame) and raises a
:class:`~repro.distributed.framing.ProtocolError` — unless the peer had
already delivered every message the route plan sends from it to this
worker (it died after its W step): that EOF loses nothing and is
ignored. There is no user-space cross-process lock anywhere on the ring,
so a SIGKILL at any instant leaves nothing held that a survivor could
block on. Under a
survivor policy the link closes its mesh — cascading the EOF to any peer
still blocked — and awaits ``rebind`` + ``connect``: the rebuilt mesh is
fresh sockets and fresh HELLO handshakes, so no stale frame survives an
aborted attempt.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import time

import numpy as np

from repro.distributed.framing import (
    KIND_BATCH,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_INGEST,
    KIND_JOIN,
    KIND_SHARD_RETIRED,
    KIND_WELCOME,
    FrameDecoder,
    ProtocolError,
    decode_batch,
    decode_heartbeat,
    decode_hello,
    decode_ingest,
    decode_join,
    decode_shard_retired,
    decode_welcome,
    encode_batch,
    encode_hello,
    encode_join,
    encode_welcome,
)
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage
from repro.distributed.pool import _LIVENESS_POLL_S
from repro.distributed.shm import attach_array_block


# --------------------------------------------------------------- transport
class _SocketRingTransport:
    """Ring transport over the established socket mesh, with coalescing.

    The interface the worker iteration runs against: ``send(dest, msg)``
    buffers per destination, ``flush()`` forces buffered messages out,
    ``recv()`` returns the next incoming message, and ``wire_stats()``
    reports what the iteration cost on the wire. ``recv`` flushes all
    buffers before blocking (so no worker ever sleeps on a receive while
    holding messages a peer is waiting for — the protocol-level
    no-deadlock invariant) and then multiplexes the incoming
    connections, feeding each socket's bytes through its own frame
    decoder.

    Transport-level deadlock is prevented too: outgoing sockets are
    non-blocking, and a send that fills the kernel buffer *keeps reading
    incoming frames while waiting for writability*. Otherwise a frame
    larger than the in-flight socket capacity could wedge the whole ring
    — every worker blocked in ``sendall`` to a peer that cannot read
    because it is itself blocked sending.
    """

    def __init__(self, rank, out_conns, in_conns, spec_by_sid, senders, *,
                 wire_dtype=None, compute_dtype=None, chaos_shim=None):
        self.rank = rank
        self._out = out_conns
        self._in = in_conns
        self._peer_of = {conn: peer for peer, conn in in_conns.items()}
        # peer -> messages the route plan says it still owes this worker
        # (``senders``: :func:`~repro.distributed.protocol.expected_senders`).
        self._owed = dict(senders)
        self._spec_by_sid = spec_by_sid
        # Reduced-precision wire (paper section 9): parameters are cast
        # down before framing — the frame's ndarray bytes genuinely shrink
        # (the dtype travels in the per-message header) — and cast back to
        # the compute dtype on receive. The worker already round-tripped
        # theta after training, so both casts are value-exact.
        self._wire_dtype = wire_dtype
        self._compute_dtype = compute_dtype
        # Chaos shim: verdicts are drawn per *message* at send() time (so
        # the per-link RNG consumption matches the simulated engines, hop
        # for hop, regardless of how messages coalesce into frames) and
        # accumulated per destination; the summed delay is served as one
        # sleep when the frame actually transmits.
        self._chaos = chaos_shim
        self._chaos_delay: dict[int, float] = {}
        self._outbox: dict[int, list] = {}
        self._inbox: list = []
        self._decoders = {peer: FrameDecoder() for peer in in_conns}
        self._selector = selectors.DefaultSelector()
        for peer, conn in in_conns.items():
            self._selector.register(conn, selectors.EVENT_READ, peer)
        for conn in out_conns.values():
            conn.setblocking(False)
        self.msgs_sent = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.payload_bytes = 0

    # ------------------------------------------------------------- sending
    def send(self, dest: int, msg) -> None:
        if dest == self.rank:
            # Only a P = 1 ring hops to itself: nothing to dial, frame
            # or count — like the simulated engines, it costs no wire.
            self._inbox.append(msg)
            return
        if self._wire_dtype is not None:
            msg.theta = np.asarray(msg.theta, dtype=self._wire_dtype)
        self.msgs_sent += 1
        self.payload_bytes += msg.nbytes
        if self._chaos is not None:
            self._chaos_delay[dest] = self._chaos_delay.get(
                dest, 0.0
            ) + self._chaos.send_delay(dest, msg.nbytes)
        self._outbox.setdefault(dest, []).append(msg)

    def flush(self) -> None:
        for dest, msgs in self._outbox.items():
            if msgs:
                self._transmit(dest, msgs)
        self._outbox = {}

    def _transmit(self, dest: int, msgs) -> None:
        frame = encode_batch(msgs)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        delay = self._chaos_delay.pop(dest, 0.0)
        if delay > 0.0:
            time.sleep(delay)
        conn = self._out[dest]
        view = memoryview(frame)
        while view:
            try:
                view = view[conn.send(view) :]
            except (BlockingIOError, InterruptedError):
                self._read_while_unwritable(conn)
            except OSError as exc:
                raise ProtocolError(f"send to machine {dest} failed: {exc}") from exc

    def _read_while_unwritable(self, conn) -> None:
        """Blocked on a full send buffer: drain peers until writable.

        Uses the transport's selector (``data=None`` marks the one
        write-registered socket; incoming sockets carry their peer id)
        rather than ``select.select``, whose FD_SETSIZE cap would fail
        on high fd numbers.
        """
        self._selector.register(conn, selectors.EVENT_WRITE, None)
        try:
            for key, _ in self._selector.select(timeout=1.0):
                if key.data is not None:
                    self._read_socket(key.fileobj)
        finally:
            self._selector.unregister(conn)

    # ----------------------------------------------------------- receiving
    def _read_socket(self, conn) -> None:
        """Pull available bytes off one incoming connection into the inbox."""
        peer = self._peer_of[conn]
        try:
            data = conn.recv(1 << 16)
        except OSError as exc:
            raise ProtocolError(f"receive from machine {peer} failed: {exc}") from exc
        decoder = self._decoders[peer]
        if not data:
            decoder.eof()
            if not self._owed.get(peer):
                # The peer delivered all it sends here and left (e.g. it
                # died at its Z step): nothing is lost, stop listening.
                self._selector.unregister(conn)
                return
            raise ProtocolError(f"machine {peer} closed its connection mid-W-step")
        for kind, payload in decoder.feed(data):
            if kind != KIND_BATCH:
                raise ProtocolError(f"unexpected frame kind {kind} mid-W-step")
            msgs = decode_batch(payload, self._spec_by_sid)
            self._owed[peer] = self._owed.get(peer, 0) - len(msgs)
            self._inbox.extend(msgs)

    def recv(self):
        if not self._inbox:
            self.flush()
            while not self._inbox:
                for key, _ in self._selector.select(timeout=_LIVENESS_POLL_S):
                    self._read_socket(key.fileobj)
        msg = self._inbox.pop(0)
        if self._wire_dtype is not None:
            msg.theta = np.asarray(msg.theta, dtype=self._compute_dtype)
        return msg

    # -------------------------------------------------------------- stats
    def wire_stats(self) -> dict:
        stats = {
            "hops": self.msgs_sent,
            "frames": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "payload_bytes": self.payload_bytes,
        }
        if self._chaos is not None:
            stats.update(self._chaos.counters)
        return stats

    def close(self) -> None:
        self._selector.close()


# ----------------------------------------------------------------- sockets
def _family(address) -> int:
    """Socket family of a ring address: ``(host, port)`` is AF_INET,
    anything else (a str/bytes name) is AF_UNIX."""
    return socket.AF_INET if isinstance(address, tuple) else socket.AF_UNIX


def _tune(conn) -> None:
    """Per-connection options: hops are latency-bound, so no Nagle delay
    on TCP (a unix stream socket has none to turn off)."""
    if conn.family == socket.AF_INET:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _dial(addr, timeout: float):
    """One connection attempt to ``addr`` within ``timeout`` seconds."""
    if _family(addr) == socket.AF_INET:
        return socket.create_connection(addr, timeout=timeout)
    # create_connection is INET-only; the AF_UNIX dial is its two steps.
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        conn.settimeout(timeout)
        conn.connect(addr)
    except OSError:
        conn.close()
        raise
    return conn


def _connect_with_retry(addr, timeout: float, *, first_delay: float = 0.05):
    """Dial ``addr``, retrying with backoff within the ``timeout`` budget.

    A single dial gets exactly one chance: a peer that is slow to reach
    ``listen()`` — or whose accept backlog is momentarily full (a
    refusal on TCP, ``EAGAIN`` on a unix socket) — answers with an
    error, and a one-shot dial turns that transient into a hard setup
    failure even though the peer would have been ready milliseconds
    later. Retry refused/reset/timed out dials with exponential backoff
    until the overall budget is spent; each attempt's own timeout is the
    budget remaining. Errors that no amount of waiting fixes (unroutable
    address, bad family) raise immediately.
    """
    deadline = time.monotonic() + timeout
    delay = first_delay
    last: BaseException | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            return _dial(addr, remaining)
        except (
            ConnectionRefusedError,
            ConnectionResetError,
            ConnectionAbortedError,
            BlockingIOError,
            TimeoutError,
        ) as exc:
            last = exc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(delay, remaining))
        delay = min(delay * 2.0, 0.5)
    raise ProtocolError(
        f"could not connect to {addr} within {timeout}s: {last}"
    ) from last


def _read_frames(conn, n: int, timeout: float) -> list[tuple[int, bytes]]:
    """Blocking read of exactly ``n`` frames from one connection.

    Used for handshakes (HELLO; JOIN → WELCOME + BATCH), where the
    sender transmits a known frame sequence and nothing else: coalesced
    arrivals are handled, but any bytes beyond the ``n``-th frame are a
    protocol violation.
    """
    decoder = FrameDecoder()
    frames: list[tuple[int, bytes]] = []
    conn.settimeout(timeout)
    try:
        while True:
            try:
                data = conn.recv(1 << 16)
            except TimeoutError as exc:
                # A peer that stops sending mid-handshake (wedged, paused,
                # partitioned) must surface as a *protocol* failure like
                # every other handshake violation — a raw socket timeout
                # would escape the callers' ProtocolError handling, so the
                # drop_shard abort-and-recover path would never engage.
                raise ProtocolError(
                    f"peer stalled mid-handshake: no bytes for {timeout}s "
                    f"({'mid-frame' if decoder.pending else 'between frames'})"
                ) from exc
            except OSError as exc:
                raise ProtocolError(f"handshake read failed: {exc}") from exc
            if not data:
                decoder.eof()
                raise ProtocolError("connection closed before a full frame arrived")
            frames.extend(decoder.feed(data))
            if len(frames) >= n:
                if len(frames) > n or decoder.pending:
                    raise ProtocolError("unexpected bytes after handshake frames")
                return frames
    finally:
        conn.settimeout(None)


def _bind_listen_socket(address):
    """A newly bound listening socket at ``address``."""
    family = _family(address)
    listen = socket.socket(family, socket.SOCK_STREAM)
    try:
        if family == socket.AF_INET:
            listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind(address)
        # Every peer dials before anyone accepts (see _SocketLink._dial),
        # so the backlog must hold a whole mesh's worth of dials: a
        # shorter one deadlocks the setup of a large pool.
        listen.listen(socket.SOMAXCONN)
    except OSError:
        # A failed bind (address taken, bad host) must not leak the fd:
        # workers retry binds during elastic joins, and each leaked
        # socket holds its address until GC.
        listen.close()
        raise
    return listen


def _decode_control_blob(blob: bytes, expected_kind: int) -> list:
    """Decode a blob of concatenated control frames of one kind."""
    decoders = {
        KIND_HEARTBEAT: decode_heartbeat,
        KIND_INGEST: decode_ingest,
        KIND_SHARD_RETIRED: decode_shard_retired,
    }
    out = []
    decoder = FrameDecoder()
    for kind, payload in decoder.feed(blob):
        if kind != expected_kind:
            raise ProtocolError(
                f"expected control frame kind {expected_kind}, got {kind}"
            )
        out.append(decoders[expected_kind](payload))
    decoder.eof()
    return out


# -------------------------------------------------------------- worker link
class _SocketLink:
    """Worker end of the ring: the listening socket and the mesh.

    Plugs into the worker command loop
    (:mod:`repro.distributed.backends.worker`): ``setup`` binds the
    listening socket at the address the coordinator chose and replies
    with the address actually bound; the ``connect`` op receives the
    full address map, dials every peer, accepts every peer, and acks
    ``ready``; ``rebind`` + ``connect`` rebuild the mesh after a fault;
    ``join_mesh`` / ``join_handshake`` link a machine joining mid-fit.
    Retirement announcements (and, on ``tcp``, streamed rows) arrive as
    encoded control frames and are validated here. Constructed
    socket-free: a worker opens its own sockets after the fork.
    """

    def __init__(self, rank: int, connect_timeout: float):
        self.rank = rank
        self._timeout = connect_timeout
        self._state = None
        self._listen = None
        self._out: dict = {}  # peer -> send-only connection we dialled
        self._in: dict = {}  # peer -> receive-only connection we accepted

    def ops(self) -> dict:
        return {
            "rebind": self.rebind,
            "connect": self.connect,
            "join_mesh": self.join_mesh,
            "join_handshake": self.join_handshake,
        }

    # ------------------------------------------------------ mesh lifecycle
    def open(self, state) -> tuple:
        """Reply to ``setup``: a new fit rebuilds the mesh from a fresh
        listening socket."""
        self._state = state
        return self.rebind(state.setup.address)

    def rebind(self, address) -> tuple:
        """Fresh listen socket — also fault recovery, phase 1: the old
        mesh is dirty (dead-peer links, possibly stale frames from the
        aborted iteration)."""
        self.close()
        self._listen = _bind_listen_socket(address)
        return "bound", self._listen.getsockname()

    def close(self) -> None:
        for sock in [self._listen, *self._out.values(), *self._in.values()]:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._listen, self._out, self._in = None, {}, {}

    def _dial(self, addr_map: dict, greeting: bytes) -> list:
        """Dial every peer in ``addr_map``, introducing ourselves with
        ``greeting``; returns the peers dialled.

        Dialling succeeds as soon as the peer's listen backlog completes
        the handshake, so every worker can dial all peers before any of
        them reaches accept() — no deadlock, no ordering protocol
        needed. Retried with backoff: a peer may not have bound its
        listener yet.
        """
        peers = sorted(p for p in addr_map if p != self.rank)
        for peer in peers:
            conn = _connect_with_retry(addr_map[peer], self._timeout)
            _tune(conn)
            conn.sendall(greeting)
            self._out[peer] = conn
        return peers

    def _accept(self, expected_kind: int, what: str) -> tuple:
        """Accept one connection and read its identifying frame; returns
        ``(payload, conn)``."""
        self._listen.settimeout(self._timeout)
        try:
            conn, _ = self._listen.accept()
        finally:
            self._listen.settimeout(None)
        _tune(conn)
        ((kind, payload),) = _read_frames(conn, 1, self._timeout)
        if kind != expected_kind:
            raise ProtocolError(f"expected {what}, got kind {kind}")
        return payload, conn

    def _accept_hellos(self, n_peers: int) -> None:
        """Accept connections until ``n_peers`` HELLO-identified
        incoming links exist."""
        while len(self._in) < n_peers:
            payload, conn = self._accept(KIND_HELLO, "HELLO on fresh connection")
            self._in[decode_hello(payload)] = conn

    def connect(self, addr_map: dict) -> tuple:
        peers = self._dial(addr_map, encode_hello(self.rank))
        self._accept_hellos(len(peers))
        return "ready", None

    def join_mesh(self, new_rank: int, addr, is_donor: bool) -> tuple:
        """An established worker links a machine joining mid-fit into
        its mesh: accept the joiner's JOIN-identified connection
        (incoming link), optionally hand it the current model (WELCOME +
        BATCH back over that same socket — the only time a "receive"
        link carries writes), and dial the joiner's listener (outgoing
        link)."""
        payload, conn = self._accept(KIND_JOIN, "JOIN from a joining machine")
        if decode_join(payload) != new_rank:
            raise ProtocolError(
                f"JOIN announced machine {decode_join(payload)}, "
                f"expected {new_rank}"
            )
        if is_donor:
            specs = self._state.specs
            finals = [
                SubmodelMessage.final(s, theta)
                for s, theta in zip(
                    specs, get_params_many(self._state.adapter, specs)
                )
            ]
            conn.sendall(encode_welcome(self.rank, len(finals)) + encode_batch(finals))
        self._in[new_rank] = conn
        self._dial({new_rank: addr}, encode_hello(self.rank))
        return "joined", None

    def join_handshake(self, addr_map: dict, donor: int, n_submodels: int) -> tuple:
        """The joining worker handshakes into the standing mesh: dial
        every peer with a JOIN frame, read the donor's WELCOME +
        submodel BATCH off the donor link, then accept every peer's
        HELLO-identified connection."""
        peers = self._dial(addr_map, encode_join(self.rank))
        frames = _read_frames(self._out[donor], 2, self._timeout)
        (kind_w, payload_w), (kind_b, payload_b) = frames
        if kind_w != KIND_WELCOME or kind_b != KIND_BATCH:
            raise ProtocolError(
                f"expected WELCOME then BATCH from the donor, got "
                f"kinds {kind_w}, {kind_b}"
            )
        donor_rank, n_expected_models = decode_welcome(payload_w)
        if donor_rank != donor:
            raise ProtocolError(
                f"WELCOME names donor {donor_rank}, expected {donor}"
            )
        finals = decode_batch(payload_b, self._state.spec_by_sid)
        if len(finals) != n_expected_models or n_expected_models != n_submodels:
            raise ProtocolError(
                f"WELCOME hand-off carried {len(finals)} submodels, "
                f"expected {n_submodels}"
            )
        set_params_many(self._state.adapter, [(m.spec, m.theta) for m in finals])
        self._accept_hellos(len(peers))
        return "ready", None

    # ------------------------------------------------------- loop callbacks
    @contextlib.contextmanager
    def ingest_rows(self, payload):
        """The ``(X, F, Z, indices)`` of one shipped ingest batch.

        ``tcp`` ships an encoded INGEST control frame — the same bytes a
        multi-host deployment would send down a coordinator socket —
        validated here; ``multiprocess`` ships the descriptor of a
        shared-memory block, yielded as views over a segment the
        coordinator unlinks right after the ack.
        """
        if isinstance(payload, bytes):
            (msg,) = _decode_control_blob(payload, KIND_INGEST)
            if msg.machine != self.rank:
                raise ProtocolError(
                    f"ingest frame for machine {msg.machine} delivered "
                    f"to rank {self.rank}"
                )
            yield msg.X, msg.F, msg.Z, msg.indices
            return
        seg, arrays = attach_array_block(payload)
        try:
            yield arrays
        finally:
            seg.close()

    def check_retired(self, blob: bytes) -> None:
        """The retirement announcement arrives as SHARD_RETIRED control
        frames — validated here even on a single host, so the
        multi-host control channel ships proven bytes."""
        if blob:
            _decode_control_blob(blob, KIND_SHARD_RETIRED)

    def transport(self, state, shim, senders) -> _SocketRingTransport:
        return _SocketRingTransport(
            self.rank, self._out, self._in, state.spec_by_sid, senders,
            wire_dtype=state.wire_dtype, compute_dtype=state.compute_dtype,
            chaos_shim=shim,
        )

    def on_abort(self) -> bool:
        """A peer vanished mid-iteration. If the policy says survive,
        drop the dirty mesh (cascading the EOF to any peer still
        blocked) and await the re-plan; otherwise it is an error."""
        if not self._state.setup.drop_on_fault:
            return False
        self.close()
        return True
