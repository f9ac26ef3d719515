"""The MAC/ParMAC fit loop and shared training infrastructure.

:class:`~repro.core.trainer.ParMACTrainer` is the one fit loop: any
adapter, any engine in :mod:`repro.distributed`. Serial MAC (paper
fig. 1) is that loop on one shard on the ``"sync"`` engine. The penalty
schedule, history records and convergence/stopping logic live here too.
"""

from repro.core.penalty import GeometricSchedule, penalty_schedule
from repro.core.history import IterationRecord, TrainingHistory
from repro.core.trainer import ParMACTrainer

__all__ = [
    "GeometricSchedule",
    "penalty_schedule",
    "IterationRecord",
    "TrainingHistory",
    "ParMACTrainer",
]
