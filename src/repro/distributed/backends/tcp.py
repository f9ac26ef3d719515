"""TCP ring backend: the same framed socket ring, bound to ``(host, port)``.

The closest stand-in for the paper's MPI deployment that a single host
can offer: every worker is an OS process that **owns a listening TCP
socket**, ring neighbours connect point-to-point, and
:class:`~repro.distributed.messages.SubmodelMessage`s travel as
length-prefixed frames (:mod:`repro.distributed.framing`) — a packed
binary header plus raw ndarray bytes, no pickle on the hot path.

Everything that moves a submodel is shared with the ``multiprocess``
engine: the worker command loop
(:mod:`repro.distributed.backends.worker`), the ring transport and
worker-side link (:mod:`repro.distributed.backends.ring`), and the
coordinator — pool, mesh, joins, gather, recovery
(:mod:`repro.distributed.backends.mp`). What this module adds is the
*address policy* of a network deployment: which interface and ports the
workers bind, how long a dial may take, and whether a joiner's rank has
a port at all. Addresses travel in the map the coordinator hands every
worker, which is why the design generalises to multi-host once workers
are launched remotely.

Streamed rows also keep their network form here: an ingest batch reaches
its worker as a ``KIND_INGEST`` control frame (carried over the command
queue on a single host — the same bytes a multi-host deployment would
send down a coordinator socket), where ``multiprocess`` ships a
shared-memory block.
"""

from __future__ import annotations

from repro.distributed.backends.base import register_backend
from repro.distributed.backends.mp import MultiprocessBackend
from repro.distributed.framing import encode_ingest

__all__ = ["TCPBackend"]


@register_backend("tcp")
class TCPBackend(MultiprocessBackend):
    """ParMAC over a pool of OS processes ringed by real TCP sockets.

    Extra parameters beyond :class:`MultiprocessBackend`:

    host : str
        Interface the workers bind and dial (default loopback).
    ports : sequence of int, int, or None
        ``None`` (default): every worker binds an OS-assigned free port
        — race-free, recommended. A sequence pins worker ``r`` to
        ``ports[r]``; a single int pins worker ``r`` to ``ports + r``.
    connect_timeout : float
        Seconds allowed for dialling/accepting each mesh connection.
    """

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

    def _address_for(self, rank: int) -> tuple:
        return self.host, self._port_for(rank)

    def _check_join_capacity(self, p: int) -> None:
        """An explicit ports list must cover the joiner's rank — checked
        before any pool/topology state changes, so an exhausted list
        rejects the join cleanly instead of corrupting the fit."""
        self._port_for(p)

    def _apply_ingest(self, batch) -> int:
        """Ship one drained batch to its worker as an INGEST frame."""
        self._pool.send(batch.machine, "ingest", encode_ingest(batch))
        self._collect("ingested", [batch.machine])
        return self.dataplane.apply(batch)
