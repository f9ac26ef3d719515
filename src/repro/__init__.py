"""repro: ParMAC — distributed optimisation of nested functions.

A from-scratch Python reproduction of Carreira-Perpiñán & Alizadeh,
"ParMAC: distributed optimisation of nested functions, with application to
learning binary autoencoders" (arXiv:1605.09114 / MLSys 2019).

Quickstart
----------
>>> import numpy as np
>>> from repro import BinaryAutoencoder, MACTrainerBA, GeometricSchedule
>>> X = np.random.default_rng(0).normal(size=(500, 32))
>>> ba = BinaryAutoencoder.linear(n_features=32, n_bits=8)
>>> trainer = MACTrainerBA(ba, GeometricSchedule(1e-4, 2.0, 8), seed=0)
>>> history = trainer.fit(X)
>>> codes = ba.encode(X)          # (500, 8) binary codes

Distributed training on a simulated 8-machine ring:

>>> from repro import ParMACTrainerBA
>>> ba2 = BinaryAutoencoder.linear(n_features=32, n_bits=8)
>>> trainer = ParMACTrainerBA(
...     ba2, GeometricSchedule(1e-4, 2.0, 8), n_machines=8, seed=0)
>>> history = trainer.fit(X)

Package map
-----------
- :mod:`repro.core` — MAC and ParMAC training drivers, penalty schedules.
- :mod:`repro.autoencoder` — binary autoencoder model + Z-step solvers.
- :mod:`repro.nets` — K-layer MAC for sigmoid deep nets + backprop baseline.
- :mod:`repro.optim` — SGD substrate: linear SVMs, least squares, schedules.
- :mod:`repro.distributed` — ring topology/protocol, simulated cluster,
  multiprocessing backend, streaming, fault tolerance, allreduce.
- :mod:`repro.perfmodel` — the analytical speedup model (section 5/app. A).
- :mod:`repro.retrieval` — Hamming search, precision/recall, tPCA & ITQ.
- :mod:`repro.data` — synthetic GIST/SIFT-like workloads, uint8 storage.
"""

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.core import (
    GeometricSchedule,
    MACTrainerBA,
    ParMACTrainer,
    ParMACTrainerBA,
    ParMACTrainerNet,
    TrainingHistory,
)
from repro.core.evaluation import PrecisionEvaluator, RecallEvaluator
from repro.distributed import (
    CostModel,
    SimulatedCluster,
    available_backends,
    get_backend,
)
from repro.nets import BackpropTrainer, DeepNet, MACTrainerNet
from repro.perfmodel import SpeedupParams, speedup
from repro.retrieval import ITQHash, TruncatedPCAHash

__version__ = "1.0.0"

__all__ = [
    "BinaryAutoencoder",
    "BAAdapter",
    "MACTrainerBA",
    "ParMACTrainer",
    "ParMACTrainerBA",
    "ParMACTrainerNet",
    "get_backend",
    "available_backends",
    "GeometricSchedule",
    "TrainingHistory",
    "PrecisionEvaluator",
    "RecallEvaluator",
    "SimulatedCluster",
    "CostModel",
    "DeepNet",
    "MACTrainerNet",
    "BackpropTrainer",
    "SpeedupParams",
    "speedup",
    "TruncatedPCAHash",
    "ITQHash",
    "__version__",
]
