"""The data plane: shard ownership, streaming ingestion, retirement.

ParMAC's resilience story (paper section 4.3) is a property of the *data
plane*, not of any one engine: each machine privately owns one shard;
new points may arrive at a machine mid-training and are coded locally
"by applying the nested model"; a machine failure loses exactly that
machine's shard while training continues on the survivors. This module
holds that bookkeeping once, so the simulated cluster and the wall-clock
backends drive the identical code instead of duplicating it:

* **ownership** — which machine id owns which shard, how many rows each
  holds, and the global row-index allocator that keeps streamed points
  uniquely addressable across machines;
* **ingestion** — validation of an arriving batch (target machine must
  exist, the batch must be non-empty and match the shard's width, the
  shard type must support streaming) and its conversion into an
  :class:`IngestBatch` with features and codes computed from the current
  nested model;
* **retirement** — excising a shard when its machine dies (``lost=True``,
  the fault path) or is deliberately removed (``lost=False``), with the
  ``shards_lost`` / ``rows_lost`` counters the degradation metrics are
  built from.

A :class:`DataPlane` either *owns* the shard arrays (the simulated
engines operate in-process on the very same objects) or merely *tracks*
them (the wall-clock backends keep the authoritative rows in worker
processes and ship :class:`IngestBatch` payloads over shared memory or
framed sockets); the ``own_data`` flag selects which, and everything
else — validation, index allocation, counters — is shared.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.distributed.interfaces import ParMACAdapter

__all__ = ["IngestBatch", "DataPlane", "ClusterState"]


@dataclass(frozen=True)
class IngestBatch:
    """One validated, model-coded batch of streamed rows for one machine.

    ``F`` and ``Z`` were computed by the adapter's *current* nested model
    at the iteration boundary where the batch was drained, so every
    engine codes identical arrivals identically (the cross-backend
    streaming-parity contract). ``indices`` are freshly allocated global
    row numbers, unique across all machines and all prior ingests.
    """

    machine: int
    X: np.ndarray
    F: np.ndarray
    Z: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.X)


class DataPlane:
    """Shard-ownership bookkeeping shared by every execution engine.

    Parameters
    ----------
    adapter : ParMACAdapter
        Must implement the :class:`ParMACAdapter` protocol, or a
        ``TypeError`` is raised here — before any engine spawns a worker
        or packs a shard. Supplies ``features`` / ``init_codes`` for
        coding streamed rows.
        Adapters without those methods still get ownership/retirement
        bookkeeping; ingestion raises a clear error. An adapter whose
        ``max_machines`` is not None caps the machine set: setup, restore
        and joins beyond it raise ``ValueError``.
    shards : sequence or mapping
        One shard per machine. A sequence assigns machine ids 0..P-1; a
        mapping keeps its ids (machines may have been removed upstream).
    own_data : bool
        True (simulated engines): :meth:`apply` appends rows to the shard
        objects held here. False (wall-clock engines): the authoritative
        rows live in worker processes; :meth:`apply` only updates the
        accounting after the backend has shipped the batch.
    """

    def __init__(self, adapter, shards, *, own_data: bool = True):
        if not isinstance(adapter, ParMACAdapter):
            raise TypeError(
                f"{type(adapter).__name__} does not implement the ParMACAdapter "
                "protocol (every member, w_update_batch and batch_key "
                "included, must be defined)"
            )
        self.adapter = adapter
        if hasattr(shards, "items"):
            self.shards = {int(p): s for p, s in shards.items()}
        else:
            self.shards = {p: s for p, s in enumerate(shards)}
        if not self.shards:
            raise ValueError("need at least one shard")
        self._check_machine_cap(len(self.shards))
        self.own_data = bool(own_data)
        self._n_rows = {p: s.n for p, s in self.shards.items()}
        self._next_machine_id = 1 + max(self.shards)
        # Global row counter for streaming; only meaningful for shard
        # types that track indices.
        self._next_global_index = 1 + max(
            (
                int(s.indices.max())
                for s in self.shards.values()
                if s.n and hasattr(s, "indices")
            ),
            default=-1,
        )
        self.rows_ingested = 0
        self.shards_lost = 0
        self.rows_lost = 0
        self.retired: set[int] = set()

    # ------------------------------------------------------------ ownership
    @property
    def compute_dtype(self) -> np.dtype:
        """The adapter's end-to-end float precision."""
        return np.dtype(self.adapter.compute_dtype)

    @property
    def machines(self) -> list[int]:
        """Machine ids currently owning a shard, in id order."""
        return sorted(self.shards)

    @property
    def n_machines(self) -> int:
        return len(self.shards)

    @property
    def n_points(self) -> int:
        """Rows currently owned across all machines (tracked, so it stays
        correct even when the authoritative rows live in workers)."""
        return sum(self._n_rows.values())

    def rows_of(self, p: int) -> int:
        self._require_machine(p)
        return self._n_rows[p]

    def is_retired(self, p) -> bool:
        """True when machine ``p`` once owned a shard that has left the
        plane — its data stream is gone, as distinct from an id that
        never existed (which is a caller error)."""
        return int(p) in self.retired

    def _check_machine_cap(self, n: int) -> None:
        cap = getattr(self.adapter, "max_machines", None)
        if cap is not None and n > cap:
            raise ValueError(
                f"this {type(self.adapter).__name__} trains on at most {cap} "
                f"machine(s), got {n} (see its max_machines)"
            )

    def _require_machine(self, p) -> int:
        p = int(p)
        if p not in self.shards:
            raise KeyError(f"machine {p} does not exist")
        return p

    def register(self, shard, *, machine: int | None = None) -> int:
        """Add a shard under a fresh (or explicit) machine id; returns it."""
        if machine is None:
            machine = self._next_machine_id
        machine = int(machine)
        if machine in self.shards:
            raise ValueError(f"machine {machine} already owns a shard")
        self._next_machine_id = max(self._next_machine_id, machine + 1)
        self.shards[machine] = shard
        self._n_rows[machine] = shard.n
        return machine

    def allocate_indices(self, n: int) -> np.ndarray:
        """Fresh global row indices for ``n`` streamed points."""
        idx = np.arange(self._next_global_index, self._next_global_index + n)
        self._next_global_index += n
        return idx

    # ------------------------------------------------------------ ingestion
    def _check_stream_batch(self, X_new, shard, *, empty_error: str,
                            width_owner: str) -> np.ndarray:
        """Shared validation for any rows entering the plane mid-fit.

        One implementation behind both :meth:`check_ingest` and
        :meth:`check_join`, so a validation rule added for one path can
        never silently skip the other: the batch must be 2-d, non-empty
        and match ``shard``'s width, ``shard``'s type must support
        streaming, and the adapter must be able to code new rows.
        Returns the batch as a 2-d array in the adapter's compute dtype,
        so streamed rows enter the plane at the same precision the model
        trains in.
        """
        X_new = np.asarray(X_new, dtype=self.compute_dtype)
        if X_new.ndim != 2:
            raise ValueError(
                f"X_new must be 2-d (rows, features), got shape {X_new.shape}"
            )
        if len(X_new) == 0:
            raise ValueError(empty_error)
        if not hasattr(shard, "append") or not hasattr(shard, "X"):
            raise TypeError(
                f"{type(shard).__name__} does not support streaming"
            )
        width = shard.X.shape[1]
        if X_new.shape[1] != width:
            raise ValueError(
                f"X_new has {X_new.shape[1]} columns but {width_owner} "
                f"holds {width}-dimensional points"
            )
        if not (hasattr(self.adapter, "features") and hasattr(self.adapter, "init_codes")):
            raise TypeError(
                f"{type(self.adapter).__name__} does not support streaming "
                "(needs features() and init_codes())"
            )
        return X_new

    def check_ingest(self, p: int, X_new) -> np.ndarray:
        """Validate an arriving batch; returns it as a float64 2-d array.

        Raises ``KeyError`` for an unknown machine, ``ValueError`` for an
        empty or wrong-width batch, ``TypeError`` when the shard type or
        the adapter cannot stream. Called eagerly at ``ingest()`` time so
        a bad call fails at its site, not at the next epoch boundary.
        """
        p = self._require_machine(p)
        return self._check_stream_batch(
            X_new,
            self.shards[p],
            empty_error="cannot ingest an empty batch",
            width_owner=f"machine {p}'s shard",
        )

    def check_join(self, X_new) -> np.ndarray:
        """Validate a new machine's preloaded shard (streaming form 2).

        Same contract as :meth:`check_ingest`, minus the target machine:
        the new shard is held to the width of the live ones. Raises the
        identical clear errors, so a wrong-width machine fails at the
        ``add_machine`` call site instead of joining silently and
        exploding later. A machine beyond the adapter's ``max_machines``
        is refused here too.
        """
        self._check_machine_cap(self.n_machines + 1)
        return self._check_stream_batch(
            X_new,
            self.shards[self.machines[0]],
            empty_error="a new machine needs at least one data point",
            width_owner="the cluster's shards",
        )

    def admit(self, X_new, *, validated: bool = False) -> int:
        """Register a joining machine's shard; returns its fresh machine id.

        The rows are coded by the adapter's *current* nested model — the
        paper's "preloaded with data" machine computes its codes locally
        while it waits to pick the submodels up — and get fresh global
        indices, exactly like an ingested batch. Topology/engine plumbing
        (ring insertion, model hand-off) is the caller's job.
        """
        from repro.distributed.partition import Shard

        if not validated:
            X_new = self.check_join(X_new)
        F_new = self.adapter.features(X_new)
        Z_new = self.adapter.init_codes(F_new)
        idx = self.allocate_indices(len(X_new))
        return self.register(Shard(X=X_new, F=F_new, Z=Z_new, indices=idx))

    def prepare_ingest(self, p: int, X_new, *, validated: bool = False) -> IngestBatch:
        """Validate and code a batch with the current nested model.

        ``validated=True`` skips re-validating arrays that already went
        through :meth:`check_ingest` (the backends validate eagerly at
        ``ingest()`` time and drain later); the target machine is still
        re-checked, since it may have retired in between.
        """
        p = self._require_machine(p)
        if not validated:
            X_new = self.check_ingest(p, X_new)
        F_new = self.adapter.features(X_new)
        Z_new = self.adapter.init_codes(F_new)
        return IngestBatch(
            machine=p, X=X_new, F=F_new, Z=Z_new,
            indices=self.allocate_indices(len(X_new)),
        )

    def apply(self, batch: IngestBatch) -> int:
        """Account one shipped/applied batch; append rows when owning data."""
        p = self._require_machine(batch.machine)
        if self.own_data:
            self.shards[p].append(batch.X, batch.F, batch.Z, batch.indices)
        self._n_rows[p] += batch.n
        self.rows_ingested += batch.n
        return batch.n

    def remove_rows(self, p: int, local_idx) -> None:
        """Drop rows by local index (streaming form 1, data departure)."""
        p = self._require_machine(p)
        shard = self.shards[p]
        if not hasattr(shard, "drop"):
            raise TypeError(
                f"{type(shard).__name__} does not support row removal"
            )
        shard.drop(local_idx)
        self._n_rows[p] = shard.n

    # ----------------------------------------------------------- retirement
    def retire(self, p: int, *, lost: bool = True) -> int:
        """Excise machine ``p``'s shard; returns the rows that left with it.

        ``lost=True`` is the fault path (counts towards ``shards_lost`` /
        ``rows_lost``); ``lost=False`` is a deliberate removal.
        """
        p = self._require_machine(p)
        if self.n_machines == 1:
            raise ValueError("cannot retire the only shard")
        del self.shards[p]
        rows = self._n_rows.pop(p)
        self.retired.add(p)
        if lost:
            self.shards_lost += 1
            self.rows_lost += rows
        return rows

    # --------------------------------------------------------- checkpointing
    def bookkeeping(self) -> dict:
        """The plane's scalar state (everything except the shard arrays),
        as plain picklable values — the DataPlane half of a
        :class:`ClusterState`."""
        return {
            "rows_ingested": self.rows_ingested,
            "shards_lost": self.shards_lost,
            "rows_lost": self.rows_lost,
            "retired": set(self.retired),
            "next_machine_id": self._next_machine_id,
            "next_global_index": self._next_global_index,
        }

    def restore_bookkeeping(self, book: dict) -> None:
        """Adopt counters/ids captured by :meth:`bookkeeping`.

        Called right after construction during a checkpoint restore, so
        that global index allocation, machine-id allocation and the
        loss/ingest counters continue exactly where the snapshot left
        off (a post-restore join must not reuse a retired machine's id).
        """
        self.rows_ingested = int(book["rows_ingested"])
        self.shards_lost = int(book["shards_lost"])
        self.rows_lost = int(book["rows_lost"])
        self.retired = set(book["retired"])
        self._next_machine_id = max(
            self._next_machine_id, int(book["next_machine_id"])
        )
        self._next_global_index = max(
            self._next_global_index, int(book["next_global_index"])
        )


#: Format tag written into every checkpoint; bumped on layout changes.
CLUSTER_STATE_VERSION = 2


@dataclass
class ClusterState:
    """One resumable snapshot of a ParMAC fit, taken between iterations.

    Everything a backend needs to continue a fit bit-identically after a
    process kill, in one picklable object (→ one file via :meth:`save`):
    the assembled submodels, every machine's shard (with its evolved Z
    codes and any ingested rows), the DataPlane bookkeeping, the ring
    order, and the fit's key root. ``iteration`` counts *completed* MAC
    iterations, so a resuming trainer knows where in the mu schedule to
    pick up. No RNG state exists to save: every minibatch order and
    ring plan is keyed on ``(key_root, iteration, ...)``, so a snapshot
    resumes bit-identically on any engine (``backend`` records the one
    that took it).

    The file format is a pickle — load checkpoints only from paths you
    trust, like any pickle.
    """

    backend: str
    iteration: int
    ring_order: list
    params: dict  # sid -> final parameter vector
    shards: dict  # machine id -> shard object (arrays by value)
    bookkeeping: dict  # DataPlane.bookkeeping()
    key_root: int = 0
    pending_ingests: list = field(default_factory=list)
    adapter: object = None  # optional pickled adapter for standalone restore
    meta: dict = field(default_factory=dict)
    version: int = CLUSTER_STATE_VERSION

    @property
    def n_machines(self) -> int:
        return len(self.ring_order)

    def save(self, path) -> Path:
        """Serialise to a single file; returns the path written."""
        path = Path(path)
        with open(path, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @classmethod
    def load(cls, path) -> "ClusterState":
        """Read a snapshot written by :meth:`save`."""
        with open(Path(path), "rb") as fh:
            state = pickle.load(fh)
        if not isinstance(state, cls):
            raise TypeError(
                f"{path} does not contain a ClusterState (got {type(state).__name__})"
            )
        if state.version != CLUSTER_STATE_VERSION:
            raise ValueError(
                f"checkpoint version {state.version} is not the one this "
                f"code reads ({CLUSTER_STATE_VERSION})"
            )
        return state
