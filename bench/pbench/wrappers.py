"""Measuring from outside: proxies handed to the program's public seams.

* :class:`TimedBackend` stands in for the ``Backend`` given to
  ``ParMACTrainer`` and stamps setup / each iteration / teardown.
* :class:`RecordingFlatIndex` / :class:`RecordingShardedIndex` subclass
  the index classes (``RetrievalService`` insists on the real types) and
  stamp every ``search`` and ``add``.
* :class:`TimedModel` wraps the hash model given to the service and
  stamps every ``encode``.

The index and model wrappers exist only in traced runs; end-to-end
numbers are taken with the program's own objects.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.serve import HammingIndex, ShardedHammingIndex

__all__ = [
    "FitLog",
    "TimedBackend",
    "ServeLog",
    "TimedModel",
    "RecordingFlatIndex",
    "RecordingShardedIndex",
]

@dataclass
class FitLog:
    """The iterations of one fit as the coordinator saw them."""

    iters: list = field(default_factory=list)  # (start, end, IterationStats)

    @property
    def e_q(self) -> list[float]:
        return [s.e_q for _, _, s in self.iters]

    @property
    def seconds(self) -> float:
        """Wall seconds from the first ``run_iteration`` to the end of the
        last one; 0 for a fit that never ran an iteration."""
        return self.iters[-1][1] - self.iters[0][0] if self.iters else 0.0


class TimedBackend:
    """Timing proxy around a backend; everything else passes through."""

    def __init__(self, backend):
        self._inner = backend
        self._tracer = None
        self.log = FitLog()
        self._trace = ""
        self._parent = None

    def begin_fit(self, trace: str, *, tracer=None, parent: int | None = None) -> FitLog:
        """Start a new log; with ``tracer`` the fit's calls also become
        spans under ``parent``."""
        self.log = FitLog()
        self._tracer, self._trace, self._parent = tracer, trace, parent
        return self.log

    def _span(self, name, start, end, parent=None):
        if self._tracer is None:
            return None
        return self._tracer.add(
            name, start, end, trace=self._trace,
            parent=self._parent if parent is None else parent,
        )

    def setup(self, adapter, shards) -> None:
        t0 = time.perf_counter()
        self._inner.setup(adapter, shards)
        self._span("setup", t0, time.perf_counter())

    def run_iteration(self, mu: float):
        t0 = time.perf_counter()
        stats = self._inner.run_iteration(mu)
        t1 = time.perf_counter()
        self.log.iters.append((t0, t1, stats))
        sid = self._span("iteration", t0, t1)
        if sid is not None:
            # W and Z as the workers reported them (max over workers),
            # laid end to end from the iteration's start; what is left
            # of the iteration is the coordinator's self time.
            w = float(stats.extra.get("w_time", 0.0))
            z = float(stats.extra.get("z_time", 0.0))
            self._span("w", t0, t0 + w, parent=sid)
            self._span("z", t0 + w, t0 + w + z, parent=sid)
        return stats

    def teardown(self) -> None:
        t0 = time.perf_counter()
        self._inner.teardown()
        self._span("teardown", t0, time.perf_counter())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ServeLog:
    """Stamps from the serving wrappers, plus the spans they imply.

    The batcher thread calls ``encode`` then ``search`` once per batch;
    a writer thread calls ``encode`` then ``add``. Each pair becomes a
    ``batch`` (or ``add``) span with the two calls as children.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.encodes: list = []   # (start, end) of the encode of each batch
        self.searches: list = []  # (start, end, queries, index rows)
        self.adds: list = []      # (start, end, rows) of index.add
        self.recording = False
        self._local = threading.local()
        self._n_batches = 0
        self._lock = threading.Lock()

    def on_encode(self, t0, t1) -> None:
        if self.recording:
            self._local.encode = (t0, t1)

    def _pair(self, name, t0, t1, leaf) -> None:
        enc = getattr(self._local, "encode", None)
        self._local.encode = None
        with self._lock:
            self._n_batches += 1
            trace = f"{name}-{self._n_batches}"
        start = enc[0] if enc is not None else t0
        sid = self.tracer.add(name, start, t1, trace=trace)
        if enc is not None:
            self.tracer.add("encode", enc[0], enc[1], trace=trace, parent=sid)
            if name == "batch":
                self.encodes.append(enc)
        self.tracer.add(leaf, t0, t1, trace=trace, parent=sid)

    def on_search(self, t0, t1, n_queries, n_rows) -> None:
        if self.recording:
            self.searches.append((t0, t1, n_queries, n_rows))
            self._pair("batch", t0, t1, "search")

    def on_add(self, t0, t1, rows) -> None:
        if self.recording:
            self.adds.append((t0, t1, rows))
            self._pair("add", t0, t1, "index_add")


class TimedModel:
    """A hash model whose ``encode`` is stamped; same results."""

    def __init__(self, model, log: ServeLog):
        self._model = model
        self._log = log
        self.compute_dtype = model.compute_dtype

    def encode(self, X):
        t0 = time.perf_counter()
        Z = self._model.encode(X)
        self._log.on_encode(t0, time.perf_counter())
        return Z


class _Recording:
    """Mixin stamping ``search`` and ``add`` of an index class."""

    log: ServeLog | None = None

    def search(self, queries, k):
        t0 = time.perf_counter()
        res = super().search(queries, k)
        if self.log is not None:
            self.log.on_search(t0, time.perf_counter(), len(queries), self.n)
        return res

    def add(self, codes):
        t0 = time.perf_counter()
        ids = super().add(codes)
        if self.log is not None:
            self.log.on_add(t0, time.perf_counter(), len(ids))
        return ids


class RecordingFlatIndex(_Recording, HammingIndex):
    pass


class RecordingShardedIndex(_Recording, ShardedHammingIndex):
    pass
