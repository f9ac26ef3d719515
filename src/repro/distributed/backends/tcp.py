"""TCP ring backend: submodels travel real sockets as framed batches.

The closest stand-in for the paper's MPI deployment that a single host
can offer: every worker is an OS process that **owns a listening
socket**, ring neighbours connect point-to-point over TCP, and
:class:`~repro.distributed.messages.SubmodelMessage`s travel as
length-prefixed frames (:mod:`repro.distributed.framing`) — a packed
binary header plus raw ndarray bytes, no pickle on the hot path. Worker
processes are managed exactly like the multiprocessing pool's (the same
worker command loop from :mod:`repro.distributed.backends.worker`, same
shared-memory shard shipping, same persistent-pool lifecycle); only the
*ring transport* and the worker-side *ring link* differ, which is the point: the
counter protocol is transport-agnostic, so the conformance suite can
assert bit-parity between queues, sockets and the simulators.

Two properties matter for scale-out:

* **Connection mesh.** Each worker dials every peer once at setup (its
  outgoing, send-only sockets) and accepts one connection from every
  peer (incoming, receive-only), identified by a HELLO frame. A fixed
  ring only ever uses the two neighbour links, but ``shuffle_ring``
  re-randomises the ring per epoch (section 4.3) and may route a hop to
  any machine — the mesh makes rerouting a lookup, not a reconnect.

* **Message batching.** A machine housing several submodels owes its
  successor one message per resident submodel per hop. Sending them individually costs one syscall + one
  wire latency each; instead the transport buffers outgoing messages
  and flushes *one framed batch per destination* whenever the worker is
  about to block on a receive — by which time every message the current
  processing round can produce has been produced. With M/P submodels
  per machine this divides per-hop syscalls and latency by M/P, which
  is exactly the amortisation the paper's near-ideal speedups rely on
  (large M keeps the pipeline full; batching keeps the per-hop overhead
  constant). ``hops`` vs ``frames`` in the wire stats shows what the
  coalescing saved.

Per-iteration wire cost — payload bytes, frame bytes, hops (messages)
and frames (batches) actually sent — is surfaced through
``IterationStats`` so the wire can be plotted against the perfmodel's
first-principles predictions.

A dead peer is detected, not waited for: a worker blocked on a receive
observes the peer's sockets reset (EOF mid-frame), raises a
:class:`~repro.distributed.framing.ProtocolError`, and reports the
failure. What happens next is the declared
:class:`~repro.distributed.backends.base.FaultPolicy`: under
``fail_fast`` the coordinator tears down the remaining peers; under
``drop_shard`` the surviving workers abort the iteration (closing their
mesh, which cascades the EOF to any peer still blocked), the dead
machine's shard is retired from the data plane, the mesh is rebuilt
over the survivor set (fresh listen sockets, fresh HELLO handshakes —
so no stale frames survive the aborted attempt), routes and homes are
re-planned, and the iteration re-runs. The coordinator also polls
worker liveness directly (inherited from the multiprocessing backend),
so even a silently vanished worker is handled within a bounded delay.

Streaming ingestion and retirement announcements travel as control
frames (``KIND_INGEST`` / ``KIND_SHARD_RETIRED`` in
:mod:`repro.distributed.framing`): on a single host they are carried to
the workers over the command queues as encoded frame bytes — the same
bytes a multi-host deployment would send down a coordinator socket.
"""

from __future__ import annotations

import contextlib
import selectors
import socket
import time

import numpy as np

from repro.distributed.backends.base import FaultPolicy, register_backend
from repro.distributed.backends.mp import MultiprocessBackend
from repro.distributed.backends.worker import (
    _LIVENESS_POLL_S,
    IterationAborted,
    _AsyncSender,
)
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
    encode_heartbeat,
    encode_hello,
    encode_ingest,
    encode_join,
    encode_shard_retired,
    encode_welcome,
)
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage

__all__ = ["TCPBackend"]


# --------------------------------------------------------------- transport
class _SocketRingTransport:
    """Ring transport over the established TCP mesh, with coalescing.

    ``send`` buffers per destination; ``recv`` flushes all buffers before
    blocking (so no worker ever sleeps on a
    receive while holding messages a peer is waiting for — the
    protocol-level no-deadlock invariant) and then multiplexes the
    incoming connections, feeding each socket's bytes through its own
    frame decoder.

    Transport-level deadlock is prevented too: outgoing sockets are
    non-blocking, and a send that fills the kernel buffer *keeps reading
    incoming frames while waiting for writability*. Otherwise a frame
    larger than the in-flight socket capacity could wedge the whole ring
    — every worker blocked in ``sendall`` to a peer that cannot read
    because it is itself blocked sending.

    ``overlap=True`` moves the socket writes to a double-buffered
    background :class:`~repro.distributed.backends.mp._AsyncSender`: the
    worker's training thread encodes the frame (numerics and wire
    accounting unchanged) and hands the bytes off, so the next convoy
    trains while the previous one is on the wire. The sender thread then
    owns every outgoing socket exclusively — it uses plain blocking
    ``sendall`` and **never** touches the inbound sockets (the inbox and
    frame decoders stay main-thread-only). That cannot deadlock the
    ring: backpressure blocks only the sender thread, while every
    machine's main thread always returns to its receive loop and keeps
    draining inbound frames.
    """

    def __init__(self, rank, out_conns, in_conns, spec_by_sid, *,
                 wire_dtype=None, compute_dtype=None, overlap=False,
                 chaos_shim=None):
        self.rank = rank
        self._out = out_conns
        self._in = in_conns
        self._peer_of = {conn: peer for peer, conn in in_conns.items()}
        self._spec_by_sid = spec_by_sid
        # Reduced-precision wire (paper section 9): parameters are cast
        # down before framing — the frame's ndarray bytes genuinely shrink
        # (the dtype travels in the per-message header) — and cast back to
        # the compute dtype on receive. The worker already round-tripped
        # theta after training, so both casts are value-exact.
        self._wire_dtype = wire_dtype
        self._compute_dtype = compute_dtype
        # Chaos shim: verdicts are drawn per *message* at send() time (so
        # the per-link RNG consumption matches the simulated engines and
        # the queue transport, hop for hop, regardless of how messages
        # coalesce into frames) and accumulated per destination;
        # the summed delay is served as one sleep when the frame actually
        # transmits — on the sender thread under overlap_send, so overlap
        # hides injected latency exactly as it hides real latency.
        self._chaos = chaos_shim
        self._chaos_delay: dict[int, float] = {}
        self._outbox: dict[int, list] = {}
        self._inbox: list = []
        self._decoders = {peer: FrameDecoder() for peer in in_conns}
        self._selector = selectors.DefaultSelector()
        for peer, conn in in_conns.items():
            self._selector.register(conn, selectors.EVENT_READ, peer)
        self._sender = _AsyncSender(self._transmit_background) if overlap else None
        for conn in out_conns.values():
            # Overlap: the sender thread owns the outgoing sockets and
            # blocks in sendall, so they stay in blocking mode.
            conn.setblocking(self._sender is not None)
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
        if self._sender is not None:
            self._sender.submit(dest, frame, delay)
            return
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

    def _transmit_background(self, dest: int, frame, delay: float = 0.0) -> None:
        """Sender-thread write: blocking sendall, no inbound reads."""
        if delay > 0.0:
            time.sleep(delay)
        try:
            self._out[dest].sendall(frame)
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
            raise ProtocolError(f"machine {peer} closed its connection mid-W-step")
        for kind, payload in decoder.feed(data):
            if kind != KIND_BATCH:
                raise ProtocolError(f"unexpected frame kind {kind} mid-W-step")
            self._inbox.extend(decode_batch(payload, self._spec_by_sid))

    def recv(self):
        if not self._inbox:
            self.flush()
            while not self._inbox:
                events = self._selector.select(timeout=_LIVENESS_POLL_S)
                if not events and self._sender is not None:
                    # Nothing inbound: surface a background send failure
                    # instead of waiting for frames a dead peer will
                    # never produce.
                    self._sender.check()
                for key, _ in events:
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

    def drain(self) -> None:
        """Wait for background sends to finish (no-op without overlap)."""
        if self._sender is not None:
            self._sender.drain()

    def close(self) -> None:
        if self._sender is not None:
            self._sender.close()
        self._selector.close()


# ----------------------------------------------------------------- sockets
def _connect_with_retry(addr, timeout: float, *, first_delay: float = 0.05):
    """Dial ``addr``, retrying with backoff within the ``timeout`` budget.

    A single ``socket.create_connection`` call gets exactly one chance:
    a peer that is slow to reach ``listen()`` — or whose accept backlog
    is momentarily full — answers with a refusal, and a one-shot dial
    turns that transient into a hard setup failure even though the peer
    would have been ready milliseconds later. Retry refused/reset/timed
    out dials with exponential backoff until the overall budget is
    spent; each attempt's own timeout is the budget remaining. Errors
    that no amount of waiting fixes (unroutable address, bad family)
    raise immediately.
    """
    deadline = time.monotonic() + timeout
    delay = first_delay
    last: BaseException | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            return socket.create_connection(addr, timeout=remaining)
        except (
            ConnectionRefusedError,
            ConnectionResetError,
            ConnectionAbortedError,
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


def _read_one_frame(conn, timeout: float) -> tuple[int, bytes]:
    """Blocking read of exactly one frame (used for the HELLO handshake)."""
    return _read_frames(conn, 1, timeout)[0]


def _bind_listen_socket(host: str, port: int):
    """A newly bound listening socket."""
    listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind((host, port))
        listen.listen(16)
    except OSError:
        # A failed bind (port taken, bad host) must not leak the fd:
        # workers retry binds during elastic joins, and each leaked
        # socket holds a port until GC.
        listen.close()
        raise
    return listen


def _decode_control_blob(blob: bytes, expected_kind: int) -> list:
    """Decode a blob of concatenated control frames of one kind."""
    decoders = {
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
    """Worker end of the TCP ring: the listening socket and the mesh.

    Plugs into the shared worker command loop
    (:mod:`repro.distributed.backends.worker`) where the queue link has
    nothing to do: ``setup`` binds the listening socket and replies with
    the actual port; the ``connect`` op receives the full address map,
    dials every peer, accepts every peer, and acks ``ready``;
    ``rebind`` + ``connect`` rebuild the mesh after a ``drop_shard``
    recovery; ``join_mesh`` / ``join_handshake`` link a machine joining
    mid-fit. Streamed rows and retirement announcements arrive as
    encoded control frames and are validated here.
    """

    abort_errors = (ProtocolError, IterationAborted)

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
        return self.rebind(state.setup.host, state.setup.port)

    def rebind(self, host: str, port: int) -> tuple:
        """Fresh listen socket — also ``drop_shard`` recovery, phase 1:
        the old mesh is dirty (dead-peer links, possibly stale frames
        from the aborted iteration)."""
        self.close()
        self._listen = _bind_listen_socket(host, port)
        return "port", self._listen.getsockname()[1]

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
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        kind, payload = _read_one_frame(conn, self._timeout)
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
        # Like the queue link's setup ack, report the cpuset actually
        # applied (None when pinning is off).
        return "ready", self._state.cpuset

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
        return "ready", self._state.cpuset

    # ------------------------------------------------------- loop callbacks
    def encode_beat(self, seq: int, phase: str, progress: int) -> bytes:
        """Beats travel as encoded HEARTBEAT control frames — the same
        bytes a multi-host deployment would send down a coordinator
        socket — carried here over the single-host response channel."""
        return encode_heartbeat(self.rank, seq, progress, phase)

    @contextlib.contextmanager
    def ingest_rows(self, frame: bytes):
        (msg,) = _decode_control_blob(frame, KIND_INGEST)
        if msg.machine != self.rank:
            raise ProtocolError(
                f"ingest frame for machine {msg.machine} delivered "
                f"to rank {self.rank}"
            )
        yield msg.X, msg.F, msg.Z, msg.indices

    def check_retired(self, blob: bytes) -> None:
        """The retirement announcement arrives as SHARD_RETIRED control
        frames — validated here even on a single host, so the
        multi-host control channel ships proven bytes."""
        if blob:
            _decode_control_blob(blob, KIND_SHARD_RETIRED)

    def transport(self, state, gen: int, shim) -> _SocketRingTransport:
        # ``gen`` is the queue ring's stale-traffic filter; a rebuilt
        # mesh has fresh sockets, so no stale frame can reach it.
        return _SocketRingTransport(
            self.rank, self._out, self._in, state.spec_by_sid,
            wire_dtype=state.wire_dtype, compute_dtype=state.compute_dtype,
            overlap=state.overlap, chaos_shim=shim,
        )

    def on_abort(self) -> bool:
        """A peer vanished mid-iteration. If the policy says survive,
        drop the dirty mesh (cascading the EOF to any peer still
        blocked) and await the re-plan; otherwise it is an error."""
        if not self._state.setup.drop_on_fault:
            return False
        self.close()
        return True


# ------------------------------------------------------------- coordinator
@register_backend("tcp")
class TCPBackend(MultiprocessBackend):
    """ParMAC over a pool of OS processes ringed by real TCP sockets.

    Extra parameters beyond :class:`MultiprocessBackend`:

    host : str
        Interface the workers bind and dial (default loopback; the
        design generalises to multi-host once workers are launched
        remotely, which is why addresses travel in the port map).
    ports : sequence of int, int, or None
        ``None`` (default): every worker binds an OS-assigned free port
        — race-free, recommended. A sequence pins worker ``r`` to
        ``ports[r]``; a single int pins worker ``r`` to ``ports + r``.
    connect_timeout : float
        Seconds allowed for dialling/accepting each mesh connection.
    """

    _needs_ring_queues = False

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        ports=None,
        connect_timeout: float = 10.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.host = host
        self.ports = ports
        self.connect_timeout = float(connect_timeout)
        self._addr_map: dict[int, tuple] = {}

    def _make_link(self, rank: int) -> _SocketLink:
        return _SocketLink(rank, self.connect_timeout)

    def _port_for(self, rank: int) -> int:
        if self.ports is None:
            return 0
        if isinstance(self.ports, int):
            return self.ports + rank
        ports = list(self.ports)
        if rank >= len(ports):
            raise ValueError(
                f"ports has {len(ports)} entries but worker {rank} needs one"
            )
        return int(ports[rank])

    def _link_params(self, rank: int) -> dict:
        """Where the worker binds, and whether it should *abort and await
        recovery* on a peer death instead of failing: true for both
        survivor policies — ``drop_shard`` re-plans around the loss,
        ``respawn`` rewinds and retries — since either way the
        coordinator needs clean abort acks, not errors, out of the
        survivors."""
        return {
            "host": self.host,
            "port": self._port_for(rank),
            "drop_on_fault": self.fault_policy
            in (FaultPolicy.DROP_SHARD, FaultPolicy.RESPAWN),
        }

    def _connect_mesh(self, ranks) -> None:
        """Exchange bound ports and build the all-pairs socket mesh: the
        workers just (re)bound their listeners and reply ``port``; each
        then dials every peer and acks ``ready`` to the caller's gather."""
        bound = self._collect("port", ranks)
        self._addr_map = {rank: (self.host, port) for rank, port in bound.items()}
        for rank in ranks:
            self._send(rank, "connect", self._addr_map)

    def _observe_beat(self, rank: int, payload) -> None:
        """Decode a framed HEARTBEAT (the tcp workers beat with the same
        bytes a coordinator socket would carry) and feed the monitor."""
        if self._monitor is None:
            return
        for kind, frame_payload in FrameDecoder().feed(payload):
            if kind != KIND_HEARTBEAT:
                raise ProtocolError(
                    f"expected HEARTBEAT control frame, got kind {kind}"
                )
            beat_rank, seq, progress, phase = decode_heartbeat(frame_payload)
            self._monitor.observe(beat_rank, seq, phase, progress)

    # ----------------------------------------------------------- elasticity
    def _check_join_capacity(self, p: int) -> None:
        """An explicit ports list must cover the joiner's rank — checked
        before any pool/topology state changes, so an exhausted list
        rejects the join cleanly instead of corrupting the fit."""
        self._port_for(p)

    def _link_joiner(self, p: int, old_ranks) -> None:
        """Socket flavour of the join: the new worker has bound and
        announces its port, every standing worker links it in (JOIN
        accepted, HELLO dialed), and the donor — the lowest live rank —
        hands the current submodels over as a WELCOME + framed BATCH. No
        pickle: the model reaches the joiner exactly as it travels the
        ring. The joiner's own ``ready`` is left for the caller.
        """
        bound = self._collect("port", [p])
        addr = (self.host, bound[p])
        donor = old_ranks[0]
        for rank in old_ranks:
            self._send(rank, "join_mesh", p, addr, rank == donor)
        self._send(
            p, "join_handshake", {r: self._addr_map[r] for r in old_ranks},
            donor, len(self._specs),
        )
        self._collect("joined", old_ranks)
        self._addr_map[p] = addr

    # ------------------------------------------------------------ recovery
    def _request_abort(self, ranks) -> None:
        """No injection needed: survivors observe the dead peer's sockets
        reset (or an aborting peer's mesh teardown) and self-abort."""

    def _apply_ingest(self, batch) -> int:
        """Ship one drained batch to its worker as an INGEST frame."""
        self._send(batch.machine, "ingest", encode_ingest(batch))
        self._collect("ingested", [batch.machine])
        return self.dataplane.apply(batch)

    def _rebuild_transport(self, retired) -> None:
        """Rebuild the socket mesh over the survivor set (fresh listen
        sockets and HELLO handshakes — no stale frames survive)."""
        for rank in self._ranks:
            self._send(rank, "rebind", self.host, self._port_for(rank))
        self._connect_mesh(self._ranks)
        self._collect("ready")

    def _encode_retired(self, retired) -> bytes:
        return b"".join(encode_shard_retired(m) for m in retired)
