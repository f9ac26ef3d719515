"""Execution-backend interface and registry for ParMAC training.

A *backend* is the thing that actually runs one MAC iteration (W step +
Z step) for an adapter over a set of shards. The generic
:class:`~repro.core.trainer.ParMACTrainer` drives any adapter on any
backend through the same four-call lifecycle::

    backend.setup(adapter, shards)      # bind model + data
    stats = backend.run_iteration(mu)   # one W step + one Z step
    ...                                 # (once per mu in the schedule)
    backend.teardown()                  # release per-fit resources

``teardown`` ends one fit but must leave the backend reusable: a later
``setup`` starts the next fit (the multiprocessing backend keeps its
worker pool alive across fits). ``close`` releases everything.

Backends register themselves by name so callers can resolve engines
without importing concrete classes::

    from repro.distributed.backends import get_backend
    Engine = get_backend("multiprocess")
    backend = Engine(epochs=2, seed=0)

This separation of a pluggable execution engine from model-specific
update functions mirrors GraphLab's engine/update-function split and is
what makes ParMAC's model-agnosticism (paper section 9) real in code:
binary autoencoders and deep nets train on the identical engines.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.distributed.chaos import ChaosConfig
from repro.distributed.dataplane import ClusterState, DataPlane
from repro.distributed.health import HealthConfig
from repro.utils.validation import check_float_dtype

__all__ = [
    "FaultPolicy",
    "IterationStats",
    "Backend",
    "BaseBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


class FaultPolicy(str, enum.Enum):
    """What a backend does when a machine dies mid-fit.

    ``FAIL_FAST``
        Any worker death makes the whole fit unrecoverable: the backend
        raises and tears down every peer (the safe default — identical
        to the historical behaviour).
    ``DROP_SHARD``
        The paper's resilience claim (section 4.3): the dead machine's
        shard is excised from the data plane, the ring is re-planned
        around the survivor set, and the fit continues — a failure loses
        only that machine's data, never the run. A machine dead before
        its first hop (a W-point crash, a tick-0 fault) is retired and
        the W step runs on the survivors; one dead at its Z step has
        already trained and forwarded every submodel, so the W step
        stands and only its shard is lost; on the simulators a death at
        a later tick is the section 4.3 rescue.
    ``RESPAWN``
        Self-healing: the coordinator restores the whole cluster to the
        iteration-start boundary it snapshotted before dispatch, spawns
        replacement workers, re-ships every shard, and retries the
        iteration — zero shards lost and a final model
        bit-identical to an uninterrupted run. Bounded by a per-fit
        respawn budget; on exhaustion the policy escalates to
        ``DROP_SHARD`` semantics (excise the dead machine, keep the
        survivors), and when no survivors remain it fails fast. Only meaningful on the wall-clock engines — the
        simulated engines have no process to lose, so an injected fault
        under ``RESPAWN`` is simply absorbed (counted, numerics
        untouched).
    """

    FAIL_FAST = "fail_fast"
    DROP_SHARD = "drop_shard"
    RESPAWN = "respawn"


@dataclass
class IterationStats:
    """What one MAC iteration produced, in backend-neutral form.

    ``time`` is the backend's native duration for the iteration — virtual
    clock units for simulated engines, wall-clock seconds for real ones —
    while ``wall_time`` is always the coordinator-observed elapsed wall
    clock. ``extra`` carries backend-specific detail (per-step times,
    per-frame counts, ...) straight into the history record.

    ``bytes_sent`` and ``hops`` are the backend-neutral wire cost of the
    iteration: total bytes that crossed the ring and the number of
    submodel-message hops they took. The wall-clock backends count both
    from actual traffic; simulated engines account ``bytes_sent`` from
    the cost model's byte counting and leave ``hops`` at 0. Engines with
    no notion of a wire leave both 0.

    ``rows_ingested``, ``shards_lost`` and ``n_machines`` are the data
    plane's per-iteration view: streamed rows applied at this iteration's
    boundary, shards lost to machine deaths during it, and the size of
    the survivor set afterwards — the raw series degradation curves are
    plotted from.

    ``machines_added`` counts machines that joined the ring at this
    iteration's boundary (streaming form 2), and ``replan_s`` is the
    wall-clock cost of admitting them — worker spawn, shard shipping,
    mesh/ring/home re-planning — the join-side analogue of MLSYSIM-style
    re-plan cost modelling.
    """

    mu: float
    e_q: float
    e_ba: float
    z_changes: int
    violations: float
    time: float
    wall_time: float
    extra: dict = field(default_factory=dict)
    bytes_sent: int = 0
    hops: int = 0
    rows_ingested: int = 0
    shards_lost: int = 0
    n_machines: int = 0
    machines_added: int = 0
    replan_s: float = 0.0


@runtime_checkable
class Backend(Protocol):
    """Structural type every execution backend satisfies."""

    def setup(self, adapter, shards) -> None:
        """Bind an adapter and its shards; acquire execution resources."""
        ...

    def run_iteration(self, mu: float) -> IterationStats:
        """Run one full MAC iteration (W step + Z step) at penalty mu.

        On return the adapter's model holds the assembled post-W-step
        parameters, so callers may evaluate it between iterations.
        """
        ...

    def ingest(self, p: int, X_new) -> None:
        """Queue streamed rows for machine ``p`` (paper section 4.3).

        Validation is eager (unknown machine, empty or wrong-width batch
        fail at the call site); application is deferred to the next
        iteration boundary, where the rows are coded by the current
        nested model and shipped to their owning machine.
        """
        ...

    def add_machine(self, X_new, *, after=None) -> int:
        """A preloaded machine joins the ring mid-fit (section 4.3,
        streaming form 2). Returns the new machine id immediately;
        engine plumbing (worker spawn, mesh handshake, ring/home
        re-plan) happens at the next iteration boundary.
        """
        ...

    def checkpoint(self) -> ClusterState:
        """Snapshot the fit between iterations (resumable via
        :meth:`restore`)."""
        ...

    def restore(self, state: ClusterState, adapter=None) -> None:
        """Rebind a fit from a snapshot instead of ``setup``; training
        continues bit-identically from ``state.iteration``."""
        ...

    def teardown(self) -> None:
        """End the current fit; the backend stays reusable for another
        ``setup``."""
        ...

    def close(self) -> None:
        """Release everything, including resources that survive fits."""
        ...


class BaseBackend:
    """Shared construction/config for concrete backends.

    Parameters
    ----------
    epochs : int
        SGD epochs per W step (e).
    scheme : {"rounds", "tworound"}
        W-step communication scheme (paper sections 4.1 / 4.2).
    batch_size : int
        SGD minibatch size within each shard.
    shuffle_within, shuffle_ring : bool
        Within-machine minibatch shuffling and per-epoch ring reshuffling
        (section 4.3).
    cost : CostModel or None
        Virtual-clock constants; ignored by wall-clock backends.
    fault_policy : FaultPolicy or str
        ``"fail_fast"`` (default), ``"drop_shard"`` or ``"respawn"``;
        see :class:`FaultPolicy`.
    respawn_budget : int
        Worker-pool rebuilds allowed per fit under ``"respawn"`` before
        the policy escalates to ``drop_shard`` semantics (default 3).
    message_dtype : numpy float dtype or None
        Reduced-precision communication (paper section 9): every ring hop
        round-trips the parameters through this dtype, shrinking wire
        bytes by the itemsize ratio, on simulated *and* wall-clock
        engines alike. None (default) keeps full-precision messages.
    chaos : ChaosConfig, dict or None
        Chaos-grade network fault injection (default None — no chaos):
        seeded per-link packet loss (charged as retransmits), delay +
        jitter, reorder holds, a bandwidth throttle, scheduled ring
        partitions and slow-node straggler factors; see
        :class:`~repro.distributed.chaos.ChaosConfig`. Wall-clock
        engines inject the degradations as real latency between framing
        and the wire; simulated engines charge the identical seeded
        event stream to their virtual clocks. Delivery stays
        deterministic, so chaos changes when messages travel and what
        iterations cost, never what is computed, and the knob is absent
        from checkpoint compatibility checks. Per-iteration
        injected-event counts surface as ``chaos_*`` keys in
        ``IterationStats.extra``.
        Scheduled ``crashes`` are the one exception to "timing only":
        they SIGKILL real worker processes on the wall-clock engines
        (the simulated ones retire the machine, with the same outcome)
        — pair them with ``fault_policy="respawn"`` to assert the model
        still comes out bit-identical.
    health : HealthConfig, dict or None
        Heartbeat supervision for the wall-clock engines (default None —
        supervision off, the blunt ``worker_timeout`` cap alone polices
        workers): each worker beats every ``interval_s`` with its phase
        and progress, the coordinator classifies workers live / slow /
        stalled / dead per phase, fails stalled workers long before the
        hard timeout, and surfaces ``health_*`` counters through
        ``IterationStats.extra``. See
        :class:`~repro.distributed.health.HealthConfig`. Simulated
        engines accept and ignore it.
    seed : int or None
        The key root of every draw a fit makes: each visit's minibatch
        order and each shuffled ring plan is keyed on it (and on where
        the draw happens), identically on every engine. ``None`` draws a
        fresh root once per fit, which checkpoints record.
    """

    name: str = ""

    def __init__(
        self,
        *,
        epochs: int = 1,
        scheme: str = "rounds",
        batch_size: int = 100,
        shuffle_within: bool = True,
        shuffle_ring: bool = False,
        cost=None,
        fault_policy: FaultPolicy | str = FaultPolicy.FAIL_FAST,
        respawn_budget: int = 3,
        message_dtype=None,
        chaos=None,
        health=None,
        seed=None,
    ):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if scheme not in ("rounds", "tworound"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.epochs = int(epochs)
        self.scheme = scheme
        self.batch_size = int(batch_size)
        self.shuffle_within = bool(shuffle_within)
        self.shuffle_ring = bool(shuffle_ring)
        self.message_dtype = (
            None
            if message_dtype is None
            else check_float_dtype(message_dtype, name="message_dtype")
        )
        self.chaos = ChaosConfig.coerce(chaos)
        self.health = HealthConfig.coerce(health)
        self.cost = cost
        try:
            self.fault_policy = FaultPolicy(fault_policy)
        except ValueError:
            raise ValueError(
                f"unknown fault_policy {fault_policy!r}; expected one of "
                f"{[p.value for p in FaultPolicy]}"
            ) from None
        if respawn_budget < 0:
            raise ValueError(f"respawn_budget must be >= 0, got {respawn_budget}")
        self.respawn_budget = int(respawn_budget)
        self.seed = seed
        self.adapter = None
        self.dataplane: DataPlane | None = None
        self._pending_ingests: list[tuple[int, object]] = []
        self._pending_joins: list[tuple[int, int | None]] = []
        self._iterations_done = 0

    # Lifecycle defaults: subclasses must execute, may skip cleanup.
    def setup(self, adapter, shards) -> None:
        raise NotImplementedError

    def run_iteration(self, mu: float) -> IterationStats:
        raise NotImplementedError

    # ----------------------------------------------------------- precision
    @property
    def compute_dtype(self) -> np.dtype:
        """The bound adapter's end-to-end float precision."""
        return np.dtype(self.adapter.compute_dtype)

    def _dtype_extras(self) -> dict:
        """Per-iteration precision info for ``IterationStats.extra`` — how
        the history records what each iteration actually ran with."""
        return {
            "compute_dtype": str(self.compute_dtype),
            "message_dtype": (
                None if self.message_dtype is None else str(self.message_dtype)
            ),
        }

    # ----------------------------------------------------------- streaming
    def _bind_dataplane(self, dataplane: DataPlane, key_root=None) -> None:
        """Adopt a fresh fit's data plane and key root (a restore passes
        the snapshot's; otherwise ``seed``, or a fresh draw without one),
        dropping any ingest batches or joins still queued from a previous
        fit (they belong to its shards)."""
        if key_root is None:
            key_root = np.random.SeedSequence().entropy if self.seed is None else self.seed
        self._key_root = int(key_root)
        self.dataplane = dataplane
        self._pending_ingests = []
        self._pending_joins = []
        self._iterations_done = 0

    def ingest(self, p: int, X_new) -> None:
        """Queue streamed rows for machine ``p``; applied at the next
        iteration boundary (``drain_ingests``). Validation is eager."""
        if self.dataplane is None:
            raise RuntimeError("ingest() requires an active fit; run setup() first")
        if self.dataplane.is_retired(p):
            # The machine's data stream died with its shard (section 4.3
            # semantics) — a late arrival for it is dropped, not an error.
            return
        X_new = self.dataplane.check_ingest(p, X_new)
        self._pending_ingests.append((int(p), X_new))

    def drain_ingests(self) -> int:
        """Apply every pending ingest in arrival order; returns rows applied.

        Engines call this at the start of ``run_iteration`` — the epoch
        boundary — so streamed rows are coded by the model every machine
        agreed on at the end of the previous iteration. Batches queued
        for a machine that has since been retired are dropped: its data
        stream is lost with its shard (paper section 4.3 semantics).
        """
        if self.dataplane is None or not self._pending_ingests:
            return 0
        pending, self._pending_ingests = self._pending_ingests, []
        rows = 0
        for p, X_new in pending:
            if p not in self.dataplane.shards:
                continue
            batch = self.dataplane.prepare_ingest(p, X_new, validated=True)
            rows += self._apply_ingest(batch)
        return rows

    def _apply_ingest(self, batch) -> int:
        """Deliver one prepared batch to its owning machine.

        The default covers in-process engines, where the data plane owns
        the shard arrays; wall-clock backends override to ship the batch
        to the worker that owns the rows, then account it here.
        """
        return self.dataplane.apply(batch)

    # ---------------------------------------------------------- elasticity
    def add_machine(self, X_new, *, after: int | None = None) -> int:
        """A preloaded machine joins the ring mid-fit (section 4.3,
        streaming form 2); returns its machine id.

        Validation and coding are eager — the shard is checked by
        :meth:`DataPlane.check_join` (the same clear errors ``ingest``
        raises), coded by the current nested model, and registered with
        the data plane at the call site, so ``ingest`` may immediately
        target the new id. Engine plumbing — worker spawn, shard/mesh
        shipping, ring + home + protocol re-plan — is deferred to the
        next iteration boundary, where it's applied before any pending
        ingests drain and surfaces as ``machines_added`` / ``replan_s``
        in that iteration's :class:`IterationStats`.
        """
        if self.dataplane is None:
            raise RuntimeError("add_machine() requires an active fit; run setup() first")
        if after is not None:
            after = int(after)
            if after not in self.dataplane.shards:
                raise KeyError(f"machine {after} does not exist")
        # Reject a machine the engine could never address (e.g. an
        # exhausted explicit TCP ports list) here at the call site,
        # before anything registers with the data plane.
        self._check_join_capacity(self.dataplane._next_machine_id)
        p = self.dataplane.admit(X_new)
        self._pending_joins.append((p, after))
        return p

    def _check_join_capacity(self, p: int) -> None:
        """Engine veto for a machine id about to join (default: none)."""

    def drain_joins(self) -> tuple[int, float]:
        """Admit every pending join in arrival order; returns
        ``(machines_added, replan_seconds)``. Engines call this at the
        start of ``run_iteration``, *before* draining ingests (a batch
        queued for a machine that joined at the same boundary must find
        its worker alive)."""
        if not self._pending_joins:
            return 0, 0.0
        pending, self._pending_joins = self._pending_joins, []
        t0 = time.perf_counter()
        for p, after in pending:
            self._apply_join(p, after)
        return len(pending), time.perf_counter() - t0

    def _apply_join(self, p: int, after: int | None) -> None:
        """Wire one registered-but-unadmitted machine into the engine."""
        raise NotImplementedError

    # ------------------------------------------------------- checkpointing
    def checkpoint(self) -> ClusterState:
        """Snapshot the current fit into a :class:`ClusterState`.

        Valid between iterations (and after a finished fit, while the
        backend is still open). Pending joins must have been drained —
        snapshot either before queueing a join or after the iteration
        that admits it.
        """
        if self.dataplane is None or self.adapter is None:
            raise RuntimeError("checkpoint() requires an active fit; run setup() first")
        if self._pending_joins:
            raise RuntimeError(
                "cannot checkpoint with machines waiting to join; run an "
                "iteration (or checkpoint before add_machine)"
            )
        from repro.distributed.interfaces import get_params_many

        specs = self.adapter.submodel_specs()
        params = {
            s.sid: theta.copy()
            for s, theta in zip(specs, get_params_many(self.adapter, specs))
        }
        return ClusterState(
            backend=self.name,
            iteration=self._iterations_done,
            ring_order=self._ring_order(),
            params=params,
            shards=self._collect_shards(),
            bookkeeping=self.dataplane.bookkeeping(),
            key_root=self._key_root,
            pending_ingests=[(p, X.copy()) for p, X in self._pending_ingests],
            adapter=self.adapter,
            meta={
                "epochs": self.epochs,
                "scheme": self.scheme,
                "batch_size": self.batch_size,
                "shuffle_within": self.shuffle_within,
                "shuffle_ring": self.shuffle_ring,
                "fault_policy": self.fault_policy.value,
                "message_dtype": (
                    None if self.message_dtype is None else str(self.message_dtype)
                ),
                "compute_dtype": str(self.compute_dtype),
            },
        )

    def restore(self, state: ClusterState, adapter=None) -> None:
        """Rebind a fit from a snapshot (in place of ``setup``).

        ``adapter`` supplies the model object to train (its parameters
        are overwritten from the snapshot); when omitted, the snapshot's
        own pickled adapter is used. Training then continues
        bit-identically from ``state.iteration``, on any engine.
        """
        raise NotImplementedError

    def _restore_common(self, state: ClusterState, adapter):
        """Shared restore pre-work: check the snapshot matches this
        backend's configuration, resolve the adapter, write the
        snapshot's parameters into it. Returns the resolved adapter."""
        from repro.distributed.interfaces import set_params_many

        self._check_restore_compatible(state)
        if adapter is None:
            adapter = state.adapter
        if adapter is None:
            raise ValueError(
                "state carries no adapter; pass one: restore(state, adapter=...)"
            )
        spec_by_sid = {s.sid: s for s in adapter.submodel_specs()}
        missing = set(spec_by_sid) - set(state.params)
        if missing:
            raise ValueError(
                f"checkpoint is missing parameters for submodels {sorted(missing)}"
            )
        recorded_dtype = (state.meta or {}).get("compute_dtype")
        actual_dtype = str(np.dtype(adapter.compute_dtype))
        if recorded_dtype is not None and recorded_dtype != actual_dtype:
            raise ValueError(
                f"checkpoint was trained in {recorded_dtype} but the adapter "
                f"computes in {actual_dtype}; build the model with the "
                "snapshot's compute dtype to resume bit-identically"
            )
        set_params_many(
            adapter,
            [(spec_by_sid[sid], state.params[sid]) for sid in sorted(spec_by_sid)],
        )
        return adapter

    def _check_restore_compatible(self, state: ClusterState) -> None:
        """Refuse a snapshot whose recorded training configuration
        differs from this backend's — resuming under a different
        protocol cannot be bit-identical, so a mismatch is an error, not
        a silent divergence. The engine may differ: every draw is keyed
        on the snapshot's key root and iteration, so a snapshot resumes
        bit-identically on any engine.
        """
        mine = {
            "epochs": self.epochs,
            "scheme": self.scheme,
            "batch_size": self.batch_size,
            "shuffle_within": self.shuffle_within,
            "shuffle_ring": self.shuffle_ring,
            "message_dtype": (
                None if self.message_dtype is None else str(self.message_dtype)
            ),
        }
        recorded = state.meta or {}
        mismatched = {
            key: (recorded[key], mine[key])
            for key in mine
            if key in recorded and recorded[key] != mine[key]
        }
        if mismatched:
            detail = ", ".join(
                f"{k}: checkpoint={a!r} vs backend={b!r}"
                for k, (a, b) in sorted(mismatched.items())
            )
            raise ValueError(
                f"checkpoint was taken under a different configuration "
                f"({detail}); construct the backend with the snapshot's "
                "settings to resume bit-identically"
            )

    def _restore_pending_ingests(self, state: ClusterState) -> None:
        self._pending_ingests = [
            (int(p), self.dataplane.check_ingest(int(p), X))
            for p, X in state.pending_ingests
        ]
        self._iterations_done = int(state.iteration)

    # Engine hooks for the checkpoint template ---------------------------
    def _collect_shards(self) -> dict:
        """{machine: shard snapshot}, decoupled from further training."""
        raise NotImplementedError

    def _ring_order(self) -> list[int]:
        """Current ring order (machine ids in cycle order)."""
        raise NotImplementedError

    def teardown(self) -> None:
        self._pending_ingests = []
        self._pending_joins = []

    def close(self) -> None:
        self.teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


_REGISTRY: dict[str, type] = {}


def register_backend(name: str):
    """Class decorator: register a backend under ``name``."""

    def decorate(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_backend(name: str) -> type:
    """Resolve a backend class by registry name.

    >>> get_backend("multiprocess")(epochs=2)     # doctest: +SKIP
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)
