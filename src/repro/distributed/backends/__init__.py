"""Pluggable execution backends for ParMAC training.

One :class:`Backend` interface, four registered engines:

===============  =============================================  ==========
name             implementation                                 time axis
===============  =============================================  ==========
``sync``         deterministic tick simulation (fig. 3)         virtual
``async``        discrete-event simulation (section 4.1)        virtual
``multiprocess`` OS-process pool, framed ring on unix sockets   wall clock
``tcp``          the same pool and ring, on TCP sockets         wall clock
===============  =============================================  ==========

Resolve engines through the registry — ``get_backend("tcp")`` — rather
than importing concrete classes; the generic
:class:`~repro.core.trainer.ParMACTrainer` accepts either the name or a
constructed instance.
"""

from repro.distributed.backends.base import (
    Backend,
    BaseBackend,
    FaultPolicy,
    IterationStats,
    available_backends,
    get_backend,
    register_backend,
)
from repro.distributed.backends.mp import MultiprocessBackend, home_assignment
from repro.distributed.backends.sim import AsyncSimBackend, SyncSimBackend
from repro.distributed.backends.tcp import TCPBackend
from repro.distributed.dataplane import ClusterState, DataPlane, IngestBatch

__all__ = [
    "Backend",
    "BaseBackend",
    "FaultPolicy",
    "IterationStats",
    "ClusterState",
    "DataPlane",
    "IngestBatch",
    "available_backends",
    "get_backend",
    "register_backend",
    "SyncSimBackend",
    "AsyncSimBackend",
    "MultiprocessBackend",
    "TCPBackend",
    "home_assignment",
]
