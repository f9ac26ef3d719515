"""The generic ParMAC trainer: any adapter on any execution backend.

ParMAC is a meta-algorithm — "the ring protocol is identical for any
nested model" (paper section 9) — and this module is where that claim
lives in code. One fit loop drives the mu schedule; *what* is trained
comes from a :class:`~repro.distributed.interfaces.ParMACAdapter`
(binary autoencoder, deep net, ...) and *where* it runs comes from a
:class:`~repro.distributed.backends.base.Backend` resolved by name
through the backend registry (``"sync"``, ``"async"``,
``"multiprocess"``, ``"tcp"``).

It is the only fit loop. Model code supplies an adapter and a shard
builder (:func:`~repro.autoencoder.adapter.build_ba_shards`,
:func:`~repro.nets.adapter.build_net_shards`); serial MAC (paper fig. 1)
is the same loop on one shard on the ``"sync"`` engine.

>>> adapter = NetAdapter(net)                                # doctest: +SKIP
>>> shards = build_net_shards(adapter, X, Y, n_machines=4)   # doctest: +SKIP
>>> trainer = ParMACTrainer(adapter, backend="multiprocess", seed=0)
>>> history = trainer.fit(shards)                            # doctest: +SKIP
"""

from __future__ import annotations

from pathlib import Path

from repro.core.convergence import EarlyStopping
from repro.core.history import IterationRecord, TrainingHistory
from repro.core.penalty import GeometricSchedule, penalty_schedule
from repro.distributed.backends import get_backend
from repro.distributed.backends.base import Backend
from repro.distributed.dataplane import ClusterState
from repro.distributed.interfaces import get_params_many, set_params_many

__all__ = ["ParMACTrainer"]


class ParMACTrainer:
    """Drive distributed MAC over a mu schedule on a pluggable backend.

    Parameters
    ----------
    adapter : ParMACAdapter
        The model bridge; its ``model`` attribute is updated in place.
    schedule : GeometricSchedule or preset name, optional
        The penalty schedule (default: mu0 = 1, x2, 10 iterations).
    backend : str or Backend
        A registry name (``"sync"``, ``"async"``, ``"multiprocess"``,
        ``"tcp"``) or an already-constructed backend instance. When a
        name is given, the backend is built from the keyword arguments
        below; when an instance is given, those arguments are ignored in
        its favour.
    epochs, scheme, batch_size, shuffle_within, shuffle_ring, cost, seed :
        Backend configuration; see :class:`BaseBackend`.
    fault_policy : str or FaultPolicy
        What happens when a machine dies mid-fit: ``"fail_fast"``
        (default — the fit raises and tears down), ``"drop_shard"``
        (the dead machine's shard is excised and training continues on
        the survivors, paper section 4.3), or ``"respawn"`` (the pool is
        rebuilt from the last iteration boundary and the iteration
        retried bit-identically — zero rows lost, same final model as an
        uninterrupted run; bounded by the backend's ``respawn_budget``,
        escalating to drop_shard once the budget is spent and to
        fail_fast once no pool survives).
    chaos : ChaosConfig or dict, optional
        Network fault injection (:mod:`repro.distributed.chaos`): seeded
        packet loss, delay/jitter, reordering, bandwidth caps, partition
        windows and stragglers, charged virtually on the simulated
        engines and injected for real on the wall-clock ones. Timing
        only — results stay bit-identical.
    evaluator : callable, optional
        Called with the adapter's model after every iteration; may return
        a dict with "precision" / "recall" entries for the history, or
        None (no metrics).
    stop_on_fixed_point : bool
        Stop once an iteration changes no auxiliary coordinates and
        leaves no constraint violations (the paper's stopping test for
        binary autoencoders, fig. 1).
    early_stopping : bool
        Stop at the first iteration whose evaluator score (its result's
        ``evaluator.score_key`` entry) drops below the best so far, and
        restore the submodels of the best-scoring iteration (section 8.1:
        the initial codes are only ever improved). Only the parameters
        are restored: the shards keep the last iteration's codes, so
        ``backend.gather_codes()`` (simulated engines) and
        :meth:`checkpoint` do not match the restored model. Requires an
        evaluator, and cannot be combined with ``fit(resume=...)`` (the
        stopper's state is not checkpointed).
    backend_options : dict, optional
        Extra keyword arguments for the backend class (e.g.
        ``message_dtype`` / ``chaos`` on any engine,
        ``execute_updates`` for simulated engines, ``worker_timeout``
        for the wall-clock pools, ``ports`` / ``connect_timeout`` for
        the TCP ring).

    Attributes
    ----------
    history_ : TrainingHistory
    backend : Backend
        Persistent across ``fit`` calls — the multiprocessing pool is
        reused, not respawned, on a second fit. On ``"sync"``/``"async"``
        it is the simulated cluster itself (shards, stores, codes).
    """

    def __init__(
        self,
        adapter,
        schedule=None,
        *,
        backend: str | Backend = "sync",
        epochs: int = 1,
        scheme: str = "rounds",
        batch_size: int = 100,
        shuffle_within: bool = True,
        shuffle_ring: bool = False,
        cost=None,
        fault_policy: str = "fail_fast",
        chaos=None,
        seed=None,
        evaluator=None,
        stop_on_fixed_point: bool = False,
        early_stopping: bool = False,
        backend_options: dict | None = None,
    ):
        if early_stopping and evaluator is None:
            raise ValueError("early_stopping requires an evaluator")
        self.adapter = adapter
        if schedule is None:
            schedule = GeometricSchedule(mu0=1.0, factor=2.0, n_iters=10)
        self.schedule = penalty_schedule(schedule)
        if isinstance(backend, str):
            backend = get_backend(backend)(
                epochs=epochs,
                scheme=scheme,
                batch_size=batch_size,
                shuffle_within=shuffle_within,
                shuffle_ring=shuffle_ring,
                cost=cost,
                fault_policy=fault_policy,
                chaos=chaos,
                seed=seed,
                **(backend_options or {}),
            )
        self.backend = backend
        self.evaluator = evaluator
        self.stop_on_fixed_point = bool(stop_on_fixed_point)
        self.early_stopping = bool(early_stopping)
        self.history_: TrainingHistory | None = None

    def ingest(self, p: int, X_new) -> None:
        """Queue streamed rows for machine ``p`` (paper section 4.3).

        Validated eagerly, applied at the next iteration boundary. Only
        meaningful while a fit is active (``setup`` has run) — typically
        from an ``evaluator`` callback or another thread observing a
        live data source; for a known arrival schedule pass ``arrivals``
        to :meth:`fit` instead.
        """
        self.backend.ingest(p, X_new)

    def add_machine(self, X_new, *, after=None) -> int:
        """A preloaded machine joins the ring mid-fit (section 4.3,
        streaming form 2); returns the new machine id. Admitted at the
        next iteration boundary; for a known join schedule pass
        ``joins`` to :meth:`fit` instead."""
        return self.backend.add_machine(X_new, after=after)

    def checkpoint(self, path=None):
        """Snapshot the active fit into a :class:`ClusterState`.

        With ``path``, the state is also written to that file (loadable
        via ``fit(..., resume=path)``). Callable between iterations —
        e.g. from an ``evaluator`` — or right after :meth:`fit` returns,
        while the backend is still open.
        """
        state = self.backend.checkpoint()
        if path is not None:
            state.save(path)
        return state

    @staticmethod
    def _arrivals_for(arrivals, iteration: int):
        """Arrival schedule lookup: mapping or callable → [(p, X_new)]."""
        if arrivals is None:
            return []
        if callable(arrivals):
            return arrivals(iteration) or []
        return arrivals.get(iteration, [])

    @staticmethod
    def _joins_for(joins, iteration: int):
        """Join schedule lookup; entries are ``X_new`` or ``(X_new, after)``."""
        if joins is None:
            return []
        entries = joins(iteration) if callable(joins) else joins.get(iteration, [])
        out = []
        for entry in entries or []:
            if isinstance(entry, tuple) and len(entry) == 2:
                out.append(entry)
            else:
                out.append((entry, None))
        return out

    def fit(
        self,
        shards=None,
        *,
        arrivals=None,
        joins=None,
        resume=None,
        checkpoint_path=None,
        checkpoint_every: int = 1,
    ) -> TrainingHistory:
        """Run one MAC iteration per mu over the given shards.

        ``shards`` must match the adapter (e.g. :class:`Shard` for a BA,
        :class:`NetShard` for a deep net); one machine per shard.

        ``arrivals`` optionally streams data in mid-fit (section 4.3): a
        mapping ``{iteration: [(machine, X_new), ...]}`` or a callable
        ``iteration -> [(machine, X_new), ...]``. Each batch is queued at
        the boundary before that iteration runs, coded by the current
        nested model, and shipped to its machine — identically on every
        backend, which is what the streaming-parity conformance tests
        assert.

        ``joins`` optionally adds whole machines mid-fit (section 4.3,
        streaming form 2): a mapping ``{iteration: [X_new, ...]}`` (each
        entry an ``X_new`` array or an ``(X_new, after)`` tuple fixing
        the ring insertion point) or the equivalent callable. The machine
        is admitted at that iteration's boundary, receives the current
        submodels, and trains from then on — identically on every
        backend.

        ``resume`` continues a checkpointed fit instead of starting one:
        a path written by :meth:`checkpoint` / ``checkpoint_path``, or a
        :class:`ClusterState`. The snapshot's shards and key root are
        restored (``shards`` is ignored and may be None), this trainer's
        adapter receives the snapshot's parameters, and the mu schedule
        picks up at the first un-run iteration — bit-identically to the
        uninterrupted fit. Schedules (``arrivals``/``joins``) are indexed
        by global iteration number, so the same schedule object works
        for the original and the resumed fit.

        ``checkpoint_path`` writes a snapshot after every
        ``checkpoint_every``-th iteration (atomically replacing the
        file), making the fit resumable after a crash or kill.
        """
        if resume is not None and self.early_stopping:
            raise ValueError(
                "early_stopping cannot resume: its best score and snapshot "
                "are not part of the checkpoint"
            )
        history = TrainingHistory()
        start = 0
        stopper = EarlyStopping() if self.early_stopping else None
        best = None
        try:
            if resume is not None:
                state = (
                    resume
                    if isinstance(resume, ClusterState)
                    else ClusterState.load(resume)
                )
                self.backend.restore(state, adapter=self.adapter)
                start = int(state.iteration)
            else:
                if shards is None:
                    raise ValueError("fit() needs shards unless resuming")
                self.backend.setup(self.adapter, shards)
            for i, mu in enumerate(self.schedule):
                if i < start:
                    continue  # already trained before the checkpoint
                # Drain this boundary's scheduled joins and arrivals into
                # the backend; run_iteration admits machines first, then
                # applies arrivals, before the W step.
                for X_new, after in self._joins_for(joins, i):
                    self.backend.add_machine(X_new, after=after)
                for p, X_new in self._arrivals_for(arrivals, i):
                    self.backend.ingest(p, X_new)
                stats = self.backend.run_iteration(float(mu))
                record = IterationRecord(
                    iteration=i,
                    mu=float(mu),
                    e_q=stats.e_q,
                    e_ba=stats.e_ba,
                    time=stats.time,
                    z_changes=stats.z_changes,
                    violations=stats.violations,
                    extra=dict(stats.extra),
                )
                record.extra.setdefault("rows_ingested", stats.rows_ingested)
                record.extra.setdefault("shards_lost", stats.shards_lost)
                record.extra.setdefault("n_machines", stats.n_machines)
                record.extra.setdefault("machines_added", stats.machines_added)
                record.extra.setdefault("replan_s", stats.replan_s)
                metrics = {}
                if self.evaluator is not None:
                    metrics = self.evaluator(self.adapter.model) or {}
                    record.precision = metrics.get("precision")
                    record.recall = metrics.get("recall")
                history.append(record)
                if stopper is not None and self._early_stop(stopper, metrics):
                    best = stopper.best_state
                    break
                if checkpoint_path is not None and (i + 1) % max(
                    1, int(checkpoint_every)
                ) == 0:
                    self._write_checkpoint(checkpoint_path)
                if (
                    self.stop_on_fixed_point
                    and stats.z_changes == 0
                    and stats.violations == 0
                ):
                    break
        finally:
            # Unconditional: even a fit that failed between shard
            # shipping and the first result must release per-fit
            # resources (e.g. shared-memory segments) on the way out.
            self.backend.teardown()
        if best is not None:
            set_params_many(self.adapter, zip(self.adapter.submodel_specs(), best))
        self.history_ = history
        return history

    def _early_stop(self, stopper: EarlyStopping, metrics: dict) -> bool:
        """Feed this iteration's score to ``stopper``, snapshotting the
        submodels when it is a new best; True when the fit should stop."""
        key = self.evaluator.score_key
        if key not in metrics:
            raise ValueError(
                f"early_stopping reads the evaluator's {key!r} result, "
                f"which it did not return"
            )
        score = metrics[key]
        snapshot = None
        if score >= stopper.best_score:
            specs = self.adapter.submodel_specs()
            snapshot = [theta.copy() for theta in get_params_many(self.adapter, specs)]
        return stopper.update(score, snapshot)

    def _write_checkpoint(self, path) -> None:
        """Snapshot to ``path`` atomically (write-temp-then-rename), so a
        kill mid-write leaves the previous checkpoint intact."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        self.backend.checkpoint().save(tmp)
        tmp.replace(path)

    def close(self) -> None:
        """Release backend resources (e.g. the multiprocessing pool)."""
        self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
