"""ParMAC: the distributed execution model for MAC (paper section 4).

Data and auxiliary coordinates are sharded across P machines and never
move; submodels circulate over a unidirectional ring, implicitly running
SGD across the shards (W step), while the Z step is embarrassingly
parallel with zero communication. This package provides:

* the ring topology and per-epoch routing plans (shuffling, section 4.3);
* the submodel-message protocol with visit counters (section 4.1), the
  two-round W-step variant (section 4.2), and a visit-list variant that
  supports fault tolerance (section 4.3);
* four engines executing the identical protocol: two simulators — one
  tick executor read by fig. 3's tick clock (``sync``) or by a
  discrete-event clock (``async``, used for speedup measurements) — a real
  ``multiprocessing`` ring backend, and a TCP backend whose submodels
  travel real sockets as length-prefixed framed batches (the closest
  single-host stand-in for the paper's MPI deployment);
* partitioning/load balancing, streaming, fault injection/recovery, and an
  exact-gradient allreduce W step (section 6 ablation).
"""

from repro.distributed.interfaces import ParMACAdapter, SubmodelSpec, ZStepResult
from repro.distributed.messages import SubmodelMessage
from repro.distributed.topology import RingTopology
from repro.distributed.protocol import RoutePlan, WStepProtocol, expected_receives
from repro.distributed.partition import Shard, make_shards, partition_indices
from repro.distributed.chaos import ChaosConfig, PartitionWindow
from repro.distributed.costmodel import ChaosTimeline, CostModel
from repro.distributed.backends import (
    AsyncSimBackend,
    Backend,
    IterationStats,
    MultiprocessBackend,
    SyncSimBackend,
    TCPBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.distributed.backends.sim import WStepStats, ZStepStats
from repro.distributed.framing import ProtocolError
from repro.distributed.allreduce import allreduce_sum, exact_decoder_fit, exact_svm_steps

__all__ = [
    "ParMACAdapter",
    "SubmodelSpec",
    "ZStepResult",
    "SubmodelMessage",
    "RingTopology",
    "RoutePlan",
    "WStepProtocol",
    "expected_receives",
    "Shard",
    "make_shards",
    "partition_indices",
    "CostModel",
    "ChaosConfig",
    "PartitionWindow",
    "ChaosTimeline",
    "WStepStats",
    "ZStepStats",
    "Backend",
    "IterationStats",
    "get_backend",
    "register_backend",
    "available_backends",
    "SyncSimBackend",
    "AsyncSimBackend",
    "MultiprocessBackend",
    "TCPBackend",
    "ProtocolError",
    "allreduce_sum",
    "exact_decoder_fit",
    "exact_svm_steps",
]
