"""Retrieval service: dynamic micro-batching over encode + top-k scan.

The query hot path of the paper's use case (section 3.1): a query vector
is encoded to an L-bit code by the trained binary autoencoder, then its k
Hamming-nearest base codes are returned. Per-query, both steps are tiny —
a (1, D) GEMV and a scan — and Python/launch overhead dominates. The fix
is the same convoy idea as ``repro.distributed.batching``'s W-step
batching, applied to inference: requests that queue while a scan runs
(capped at ``max_batch``) coalesce into **one** stacked encode — a
single (B, D) x (D, L) GEMM in the model's ``compute_dtype`` — and
**one** shared scan pass over the index.

Batching changes how fast, not what: the scan is exact integer top-k
under the (distance, id) total order, so a request's result depends only
on its own query and the index contents — any arrival interleaving of
the same queries returns the same per-query results (tested). Requests
with different ``k`` share one scan at ``max(k)``; each answer is the
first ``k_i`` columns, exact by the prefix property of a total order.
Batch-mates are whoever happened to queue, so one request cannot fail
another: ``submit`` refuses a non-finite or non-numeric vector, and a
batch whose queries differ in length is stacked and encoded once per
length, so a length the model cannot encode fails only its own tickets.

The per-request machinery is deliberately thin — it *is* the overhead
batching amortises, so it must not reintroduce it. Requests join the
*open* batch directly at submit time (one lock-protected list append),
so a batch shares one completion event and one results pair across all
its tickets: per request there is no ``threading.Event`` allocation (a
measured 60% of a naive submit), no queue hop, no ``concurrent.futures``
machinery, and completion is a single ``event.set()`` per *batch*.
Every :class:`Ticket` slices its own rows out lazily on ``result()``
(on the caller's thread, not the batcher's).

Latency semantics: the batcher is work-conserving. Whenever it is free
it serves whatever has queued, up to ``max_batch``, so a request that
reaches an idle service is encoded and scanned at once, and requests
that arrive while a scan runs share the next one. A request's queue wait
is therefore only the rest of the scan already running (plus full
batches ahead of it); under load batches fill while the previous scan
runs, so throughput still scales with batch size. At low load a timed
window cannot pay for itself: a companion saves one batch's fixed cost
(well under a millisecond on a 1M-code scan), while the window charges
every idle arrival its full length. Near saturation the removal is not
known to be free: the first batch of each busy period is smaller than a
window would have made it, and p99 may rise there; that is unsettled
(ROADMAP item 9, *Tails*).
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.retrieval.hamming import pack_bits
from repro.serve.index import HammingIndex, ShardedHammingIndex

__all__ = [
    "RetrievalService",
    "ServiceStats",
    "Ticket",
    "ServiceClosed",
    "Overloaded",
]

#: Base rows per encode + pack step of :meth:`RetrievalService.from_data`.
_BUILD_ROWS = 4096


class ServiceClosed(RuntimeError):
    """The service was closed; new submissions are rejected immediately.

    A ``RuntimeError`` subclass so callers that guarded the old generic
    error keep working; new callers can catch the specific condition.
    """


class Overloaded(RuntimeError):
    """Admission control rejected the request: too many pending queries.

    Raised by :meth:`RetrievalService.submit` when the in-flight count
    has reached ``max_pending`` — a fast, bounded-queue rejection the
    caller can retry or shed, instead of unbounded buffering that turns
    overload into latency collapse for every request.
    """


class _Batch:
    """One micro-batch: requests joined at submit, one shared completion.

    ``items`` grows under the service condition lock while the batch is
    the *open* one; once full (or once the batcher takes it) it is
    swapped out and never mutated again. One Event and one results pair
    serve every ticket in the batch; ``errors`` maps the rows that failed
    to their exception.
    """

    __slots__ = ("event", "items", "ids", "dists", "errors",
                 "t_done", "partial", "coverage")

    def __init__(self):
        self.event = threading.Event()
        self.items: list = []
        self.ids = None
        self.dists = None
        self.errors: dict[int, BaseException] = {}
        self.t_done: float | None = None
        self.partial = False
        self.coverage = 1.0


class Ticket:
    """Handle for one submitted query; resolves to ``(ids, dists)``.

    The request joined its batch at submit time, so the ticket is just a
    (batch, row) reference: ``result()`` waits on the batch's shared
    completion event and slices this request's rows out lazily on the
    caller's thread. ``t_done`` is the wall-clock completion instant
    stamped by the batcher — the honest timestamp for open-loop latency
    accounting, independent of when the caller gets around to collecting
    the result.
    """

    __slots__ = ("k", "_batch", "_row")

    def __init__(self, batch: _Batch, row: int, k: int):
        self.k = k
        self._batch = batch
        self._row = row

    def done(self) -> bool:
        return self._batch.event.is_set()

    @property
    def t_done(self) -> float | None:
        return self._batch.t_done

    @property
    def partial(self) -> bool:
        """True if the serving scan missed shard deadlines (degraded mode).

        Meaningful once ``done()``; shared by every ticket of the batch
        (one scan serves them all)."""
        return self._batch.partial

    @property
    def coverage(self) -> float:
        """Fraction of index rows the serving scan actually covered."""
        return self._batch.coverage

    def result(self, timeout: float | None = None):
        batch = self._batch
        if not batch.event.wait(timeout):
            raise TimeoutError("query did not complete in time")
        error = batch.errors.get(self._row)
        if error is not None:
            raise error
        return (
            batch.ids[self._row, : self.k].copy(),
            batch.dists[self._row, : self.k].copy(),
        )


class ServiceStats:
    """Counters the batcher thread maintains; read via ``snapshot()``."""

    def __init__(self):
        self.n_queries = 0
        self.n_batches = 0
        self.max_batch_seen = 0
        self.encode_s = 0.0
        self.scan_s = 0.0
        self.n_partial = 0
        self.n_rejected = 0

    def record(
        self, batch_size: int, encode_s: float, scan_s: float, *,
        partial: bool = False,
    ) -> None:
        self.n_queries += batch_size
        self.n_batches += 1
        self.max_batch_seen = max(self.max_batch_seen, batch_size)
        self.encode_s += encode_s
        self.scan_s += scan_s
        if partial:
            self.n_partial += 1

    def snapshot(self) -> dict:
        n_b = max(self.n_batches, 1)
        return {
            "n_queries": self.n_queries,
            "n_batches": self.n_batches,
            "mean_batch": self.n_queries / n_b,
            "max_batch": self.max_batch_seen,
            "encode_s": self.encode_s,
            "scan_s": self.scan_s,
            "n_partial": self.n_partial,
            "n_rejected": self.n_rejected,
        }


class RetrievalService:
    """Micro-batched encode + Hamming top-k retrieval over a trained model.

    Parameters
    ----------
    model :
        Trained hash model exposing ``encode(X) -> (n, L) uint8`` and
        (optionally) ``compute_dtype`` — a ``BinaryAutoencoder`` or any
        of the baseline hashes. Queries are stacked and cast once per
        batch, so the encode reuses the model's configured precision.
    index : HammingIndex | ShardedHammingIndex
        The packed-code index to scan. Built by the caller (see
        :meth:`from_data` for the one-liner) so the sharding mode and
        ingest history stay under the caller's control. :meth:`close`
        closes a sharded one; a flat one stays the caller's.
    k : int
        Default neighbours per query (overridable per request).
    max_wait_ms : float
        Accepted (``>= 0``) and ignored. It was a timed batching window;
        the batcher is work-conserving now (module docstring), because
        on an idle service the window cost more than a companion saved.
        The keyword stays only while callers still pass it.
    max_batch : int
        Hard batch-size cap; requests past it start the next batch.
    max_pending : int | None
        Admission-control cap on in-flight queries (submitted, not yet
        served). ``submit`` raises :class:`Overloaded` immediately when
        the cap is hit — bounded queueing instead of latency collapse.
        ``None`` (the default) disables the cap.
    """

    def __init__(
        self,
        model,
        index,
        *,
        k: int = 10,
        max_wait_ms: float = 2.0,
        max_batch: int = 64,
        max_pending: int | None = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 or None, got {max_pending}")
        if not isinstance(index, (HammingIndex, ShardedHammingIndex)):
            raise TypeError(f"index must be a Hamming index, got {type(index)!r}")
        self.model = model
        self._dtype = getattr(model, "compute_dtype", np.float64)
        self.index = index
        # Released by close(): a sharded index always, a flat one only
        # when from_data built it (a caller may search its own after).
        self._owns_index = isinstance(index, ShardedHammingIndex)
        self.k = int(k)
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.stats = ServiceStats()
        self._open = _Batch()
        self._ready: deque[_Batch] = deque()
        self._pending = 0
        self._cond = threading.Condition()
        self._index_lock = threading.Lock()
        self._closed = False
        self._batcher = threading.Thread(
            target=self._loop, name="retrieval-batcher", daemon=True
        )
        self._batcher.start()

    @classmethod
    def from_data(
        cls,
        model,
        X_base: np.ndarray,
        *,
        n_shards: int = 1,
        shard_mode: str = "thread",
        scan_timeout_s: float | None = None,
        **kwargs,
    ) -> "RetrievalService":
        """Encode and pack a base set, chunk by chunk into one array, and
        stand up a service over it. An empty base is refused."""
        X_base = np.asarray(X_base)
        if len(X_base) == 0:
            raise ValueError("cannot build a retrieval service over an empty base (0 rows)")
        packed = None
        for start in range(0, len(X_base), _BUILD_ROWS):
            codes = model.encode(X_base[start : start + _BUILD_ROWS])
            if packed is None:
                n_bits = codes.shape[1]
                packed = np.empty((len(X_base), (n_bits + 63) // 64), dtype=np.uint64)
            packed[start : start + len(codes)] = pack_bits(codes)
        if n_shards == 1:
            index = HammingIndex.from_codes(packed, n_bits)
        else:
            index = ShardedHammingIndex(
                packed, n_bits, n_shards, mode=shard_mode,
                scan_timeout_s=scan_timeout_s,
            )
        service = cls(model, index, **kwargs)
        service._owns_index = True
        return service

    # ------------------------------------------------------------------- API
    def submit(self, x: np.ndarray, k: int | None = None) -> Ticket:
        """Enqueue one query vector; returns its :class:`Ticket`.

        Raises ``ValueError`` for anything but a finite 1-d numeric
        vector, which is cast here to the model's ``compute_dtype``.
        """
        x = np.asarray(x, dtype=self._dtype)
        if x.ndim != 1:
            raise ValueError(f"x must be a single 1-d query vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("x contains NaN or Inf values")
        k = self.k if k is None else int(k)
        if k < 1 or k > self.index.n:
            raise ValueError(f"k={k} out of range for index of size {self.index.n}")
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self.max_pending is not None and self._pending >= self.max_pending:
                self.stats.n_rejected += 1
                raise Overloaded(
                    f"{self._pending} queries in flight (max_pending="
                    f"{self.max_pending}); retry later or shed load"
                )
            self._pending += 1
            batch = self._open
            row = len(batch.items)
            batch.items.append((x, k))
            # Wake the batcher only at the two edges it may sleep on: a
            # batch opening (an idle batcher serves it at once) and a
            # batch filling (later requests start the next one).
            if row + 1 >= self.max_batch:
                self._ready.append(batch)
                self._open = _Batch()
                self._cond.notify()
            elif row == 0:
                self._cond.notify()
        return Ticket(batch, row, k)

    def query(self, x: np.ndarray, k: int | None = None, *, timeout: float = 30.0):
        """Blocking single-query convenience around :meth:`submit`."""
        return self.submit(x, k).result(timeout=timeout)

    def add(self, X_new: np.ndarray) -> np.ndarray:
        """Ingest new base vectors (encode + pack + index.add); returns ids.

        Serialised against in-flight scans so a batch sees the index
        either before or after the ingest, never mid-append.
        """
        X_new = np.asarray(X_new)
        codes = pack_bits(self.model.encode(X_new))
        with self._index_lock:
            return self.index.add(codes)

    def close(self, timeout: float = 30.0) -> None:
        """Drain in-flight requests, stop the batcher, release the index
        (a sharded one, or a flat one :meth:`from_data` built).

        Raises :class:`TimeoutError` if the batcher fails to drain within
        ``timeout`` seconds, naming how many tickets are still in flight;
        the index is *not* released in that case (scans may still be
        touching it) — call ``close`` again to retry the drain.
        """
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._batcher.join(timeout=timeout)
        if self._batcher.is_alive():
            with self._cond:
                n_inflight = self._pending
            raise TimeoutError(
                f"close() timed out after {timeout:g}s with {n_inflight} "
                f"in-flight ticket(s) still unserved"
            )
        if self._owns_index:
            self.index.close()

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------------- batcher
    def _gather(self) -> _Batch | None:
        """Block until something has queued, then take it: a full batch
        first, else the open one, however few requests it holds."""
        with self._cond:
            while True:
                if self._ready:
                    return self._ready.popleft()
                if self._open.items:
                    batch, self._open = self._open, _Batch()
                    return batch
                if self._closed:
                    return None
                # Timed wait (DEADLINE): an untimed wait here would wedge
                # the batcher forever if a submit-side notify were ever
                # lost; the periodic wake just re-checks and sleeps again.
                self._cond.wait(timeout=0.5)

    def _encode(self, batch: _Batch) -> np.ndarray:
        """Stack and encode the batch once per query length.

        Returns the packed codes, row for row with the batch. In the
        usual case every query has one length: one stack, one encode. A
        length whose stack or encode raises fails only its own rows, in
        ``batch.errors``; their codes stay zero and their results unread.
        """
        items = batch.items
        groups: dict[int, list[int]] = {}
        for row, (x, _) in enumerate(items):
            groups.setdefault(len(x), []).append(row)
        packed = np.zeros((len(items), self.index.n_words), np.uint64)
        for group in groups.values():
            try:
                X = np.stack([items[row][0] for row in group])
                packed[group] = pack_bits(self.model.encode(X))
            except Exception as exc:
                batch.errors.update(dict.fromkeys(group, exc))
        return packed

    def _serve(self, batch: _Batch) -> None:
        items = batch.items
        try:
            t0 = time.perf_counter()
            packed = self._encode(batch)
            t1 = time.perf_counter()
            if len(batch.errors) < len(items):
                with self._index_lock:
                    res = self.index.search(packed, max(k for _, k in items))
                t2 = time.perf_counter()
                batch.partial = bool(getattr(res, "partial", False))
                batch.coverage = float(getattr(res, "coverage", 1.0))
                self.stats.record(
                    len(items) - len(batch.errors), t1 - t0, t2 - t1,
                    partial=batch.partial,
                )
                batch.ids, batch.dists = res
        except BaseException as exc:
            for row in range(len(items)):
                batch.errors.setdefault(row, exc)
        with self._cond:
            self._pending -= len(items)
        batch.t_done = time.perf_counter()
        batch.event.set()

    def _loop(self) -> None:
        while True:
            batch = self._gather()
            if batch is None:
                return
            self._serve(batch)
