"""ParMAC trainer for binary autoencoders — the paper's headline system.

A thin front end over the generic :class:`~repro.core.trainer.ParMACTrainer`:
this class owns the BA-specific preparation (PCA code initialisation,
load-balanced partitioning, the BA adapter) and delegates the fit loop to
the generic trainer on whichever execution backend was requested:

* ``backend="sync"`` / ``"async"`` — the in-process simulated cluster
  (deterministic / discrete-event), with virtual-clock timing from a
  :class:`~repro.distributed.costmodel.CostModel`;
* ``backend="multiprocess"`` — a persistent pool of real OS processes
  ringed by unix sockets (the MPI stand-in), with wall-clock timing
  and shards shipped once over shared memory.

The iteration-time axis in the history is virtual time for simulated
backends and wall-clock for the multiprocessing one.
"""

from __future__ import annotations

import numpy as np

from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.zstep import MAX_ENUM_BITS
from repro.autoencoder.binary_autoencoder import BinaryAutoencoder
from repro.autoencoder.init import init_codes_pca
from repro.core.history import TrainingHistory
from repro.core.penalty import penalty_schedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import make_shards, partition_indices
from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_binary_codes

__all__ = ["ParMACTrainerBA"]


class ParMACTrainerBA:
    """Distributed MAC trainer for a :class:`BinaryAutoencoder`.

    Parameters
    ----------
    model : BinaryAutoencoder
        Trained in place.
    schedule : GeometricSchedule or preset name
    n_machines : int
        P.
    epochs : int
        SGD epochs in the W step (e).
    backend : str
        Any registered execution backend ("sync", "async",
        "multiprocess", "tcp").
    scheme : {"rounds", "tworound"}
        W-step communication scheme (sections 4.1 / 4.2).
    shuffle_within, shuffle_ring : bool
        Data-shuffling options (section 4.3); ``shuffle_ring`` reshuffles
        the ring per epoch on every backend, including multiprocess.
    alphas : array-like, optional
        Relative machine speeds for load balancing (section 4.3).
    cost : CostModel, optional
        Virtual-clock constants for the simulated backends.
    n_decoder_groups : int, optional
        Decoder grouping; default L (M = 2L submodels, section 5.4).
    evaluator : callable, optional
        Per-iteration retrieval metric.
    seed : int or None
    backend_options : dict, optional
        Extra keyword arguments for the backend class (e.g. ``ports`` /
        ``connect_timeout`` for the TCP ring, ``ctx_method`` for the
        multiprocessing pool).

    Attributes
    ----------
    history_ : TrainingHistory
    cluster_ : SimulatedCluster or None
        Exposed for streaming / fault-injection experiments (simulated
        backends only).
    trainer_ : ParMACTrainer
        The generic trainer; persistent, so the multiprocessing worker
        pool survives across ``fit`` calls.
    """

    def __init__(
        self,
        model: BinaryAutoencoder,
        schedule="sift10k",
        *,
        n_machines: int,
        epochs: int = 1,
        backend: str = "sync",
        scheme: str = "rounds",
        batch_size: int = 100,
        shuffle_within: bool = True,
        shuffle_ring: bool = False,
        alphas=None,
        cost: CostModel | None = None,
        n_decoder_groups: int | None = None,
        zstep_method: str = "auto",
        max_enum_bits: int = MAX_ENUM_BITS,
        max_sweeps: int = 20,
        evaluator=None,
        seed=None,
        backend_options: dict | None = None,
    ):
        get_backend(backend)  # fail fast on unknown names
        if n_machines < 1:
            raise ValueError(f"n_machines must be >= 1, got {n_machines}")
        self.model = model
        self.schedule = penalty_schedule(schedule)
        self.n_machines = int(n_machines)
        self.epochs = int(epochs)
        self.backend = backend
        self.scheme = scheme
        self.batch_size = int(batch_size)
        self.shuffle_within = bool(shuffle_within)
        self.shuffle_ring = bool(shuffle_ring)
        self.alphas = alphas
        self.cost = cost
        self.n_decoder_groups = n_decoder_groups
        self.zstep_method = zstep_method
        self.max_enum_bits = int(max_enum_bits)
        self.max_sweeps = int(max_sweeps)
        self.evaluator = evaluator
        self.seed = seed
        self.backend_options = backend_options
        self.history_: TrainingHistory | None = None
        self.trainer_: ParMACTrainer | None = None
        self._trainer_config: tuple | None = None

    # ------------------------------------------------------------ helpers
    def _make_adapter(self) -> BAAdapter:
        return BAAdapter(
            self.model,
            n_decoder_groups=self.n_decoder_groups,
            zstep_method=self.zstep_method,
            max_enum_bits=self.max_enum_bits,
            max_sweeps=self.max_sweeps,
        )

    def _make_shards(self, X: np.ndarray, Z: np.ndarray, adapter: BAAdapter, rng):
        F = adapter.features(X)
        parts = partition_indices(
            len(X), self.n_machines, alphas=self.alphas, rng=rng, shuffle=True
        )
        return make_shards(X, F, Z, parts)

    def _config(self) -> tuple:
        """Everything the generic trainer is built from; a change between
        fits forces a rebuild instead of being silently ignored."""
        return (
            self.schedule,
            self.backend,
            self.epochs,
            self.scheme,
            self.batch_size,
            self.shuffle_within,
            self.shuffle_ring,
            self.cost,
            self.seed,
            self.evaluator,
            None if self.backend_options is None else tuple(
                sorted(self.backend_options.items())
            ),
            self.n_decoder_groups,
            self.zstep_method,
            self.max_enum_bits,
            self.max_sweeps,
        )

    def _make_trainer(self) -> ParMACTrainer:
        """Build the generic trainer on first use and reuse it across fits
        (so the multiprocessing worker pool persists), rebuilding only if
        the configuration attributes were changed in between."""
        config = self._config()
        if self.trainer_ is None or self._trainer_config != config:
            if self.trainer_ is not None:
                self.trainer_.close()
            self.trainer_ = ParMACTrainer(
                self._make_adapter(),
                self.schedule,
                backend=self.backend,
                epochs=self.epochs,
                scheme=self.scheme,
                batch_size=self.batch_size,
                shuffle_within=self.shuffle_within,
                shuffle_ring=self.shuffle_ring,
                cost=self.cost,
                seed=self.seed,
                evaluator=self.evaluator,
                stop_on_fixed_point=True,
                backend_options=self.backend_options,
            )
            self._trainer_config = config
        return self.trainer_

    @property
    def cluster_(self) -> SimulatedCluster | None:
        return None if self.trainer_ is None else self.trainer_.cluster_

    # --------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, Z0: np.ndarray | None = None) -> TrainingHistory:
        """Run distributed MAC over the full mu schedule (in the model's
        compute dtype, end to end)."""
        X = check_array(X, name="X", dtype=self.model.compute_dtype)
        rng = check_random_state(self.seed)
        trainer = self._make_trainer()
        adapter = trainer.adapter
        if Z0 is None:
            Z, _ = init_codes_pca(adapter.features(X), self.model.n_bits, rng=rng)
        else:
            Z = check_binary_codes(Z0)
            if Z.shape != (len(X), self.model.n_bits):
                raise ValueError(
                    f"Z0 must have shape {(len(X), self.model.n_bits)}, got {Z.shape}"
                )
        shards = self._make_shards(X, Z, adapter, rng)
        history = trainer.fit(shards)
        self.history_ = history
        return history

    def close(self) -> None:
        """Release backend resources (the multiprocessing pool)."""
        if self.trainer_ is not None:
            self.trainer_.close()
