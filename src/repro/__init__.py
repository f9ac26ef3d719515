"""repro: ParMAC — distributed optimisation of nested functions.

A from-scratch Python reproduction of Carreira-Perpiñán & Alizadeh,
"ParMAC: distributed optimisation of nested functions, with application to
learning binary autoencoders" (arXiv:1605.09114 / MLSys 2019).

Quickstart
----------
One fit loop, :class:`ParMACTrainer`, trains any nested model through an
adapter; serial MAC (paper fig. 1) is one shard on the ``"sync"`` engine
with the exact least-squares decoder:

>>> import numpy as np
>>> from repro import (BAAdapter, BinaryAutoencoder, GeometricSchedule,
...                    ParMACTrainer, build_ba_shards)
>>> X = np.random.default_rng(0).normal(size=(500, 32))
>>> ba = BinaryAutoencoder.linear(n_features=32, n_bits=8)
>>> adapter = BAAdapter(ba, decoder_exact=True)
>>> trainer = ParMACTrainer(adapter, GeometricSchedule(1e-4, 2.0, 8),
...                         stop_on_fixed_point=True, seed=0)
>>> history = trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))
>>> codes = ba.encode(X)          # (500, 8) binary codes

Distributed training on a simulated 8-machine ring (SGD decoder):

>>> adapter = BAAdapter(BinaryAutoencoder.linear(n_features=32, n_bits=8))
>>> trainer = ParMACTrainer(adapter, GeometricSchedule(1e-4, 2.0, 8),
...                         stop_on_fixed_point=True, seed=0)
>>> history = trainer.fit(build_ba_shards(adapter, X, n_machines=8, seed=0))

Package map
-----------
- :mod:`repro.core` — the ParMAC fit loop, penalty schedules, stopping.
- :mod:`repro.autoencoder` — binary autoencoder model + Z-step solvers.
- :mod:`repro.nets` — K-layer MAC for sigmoid deep nets + backprop baseline.
- :mod:`repro.optim` — SGD substrate: linear SVMs, least squares, schedules.
- :mod:`repro.distributed` — ring topology/protocol, simulated cluster,
  multiprocessing backend, streaming, fault tolerance, allreduce.
- :mod:`repro.perfmodel` — the analytical speedup model (section 5/app. A).
- :mod:`repro.retrieval` — Hamming search, precision/recall, tPCA & ITQ.
- :mod:`repro.data` — synthetic GIST/SIFT-like workloads.
"""

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.core import GeometricSchedule, ParMACTrainer, TrainingHistory
from repro.core.evaluation import PrecisionEvaluator, RecallEvaluator
from repro.distributed import (
    CostModel,
    available_backends,
    get_backend,
)
from repro.nets import BackpropTrainer, DeepNet, NetAdapter, build_net_shards
from repro.perfmodel import SpeedupParams, speedup
from repro.retrieval import ITQHash, TruncatedPCAHash

__version__ = "1.0.0"

__all__ = [
    "BinaryAutoencoder",
    "BAAdapter",
    "build_ba_shards",
    "ParMACTrainer",
    "get_backend",
    "available_backends",
    "GeometricSchedule",
    "TrainingHistory",
    "PrecisionEvaluator",
    "RecallEvaluator",
    "CostModel",
    "DeepNet",
    "NetAdapter",
    "build_net_shards",
    "BackpropTrainer",
    "SpeedupParams",
    "speedup",
    "TruncatedPCAHash",
    "ITQHash",
    "__version__",
]
