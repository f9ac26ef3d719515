"""Packed-code Hamming index with a blocked streaming top-k scan kernel.

``examples/image_retrieval.py``'s offline evaluation calls
``hamming_cdist`` and materialises the full ``n_q x n_base`` distance
matrix — fine for scoring a figure, fatal for serving: at n_base = 10^9
and n_q = 64 that matrix alone is 128 GB. The serving hot path here never
builds it. :func:`hamming_topk` scans the base in blocks of ``block``
rows, XOR+popcounts one block against all queries (one word at a time
through reused scratch — never a (n_q, block, n_words) cube), and folds
the block into a bounded per-query top-k "heap" (two (n_q, k) arrays
kept sorted by the total order below). Peak scratch is

    ``n_q * block * 13`` bytes    (XOR word + distance/count + mask panes)
  + ``O(n_q * (k + block))``      (merge keys for improved rows)

independent of ``n_base`` — the documented memory bound. After the heap
is full, a block row enters the merge only if it strictly beats the
current kth-best distance (one compare + count per pruned block):
within one scan base indices only grow, so an equal-distance candidate
can never displace an earlier index under the tie order. Dense blocks
(always the first, rarely later ones) are first tightened by a per-row
value partition at the block's own kth distance — keeping boundary ties
— before the sparse gather/scatter merge.

**Total order / tie contract.** Every path — ``hamming_cdist`` + argsort,
:func:`hamming_topk`, and the sharded merge — ranks by the lexicographic
key (distance, base index): equal-distance neighbours in ascending index
order, exactly a sequential scan in database order. Selection runs on the
composite integer key ``distance * stride + id`` (``stride`` > any id),
which makes top-k selection a *total* order with no arbitrary argpartition
boundary choices. That is what makes the k-heap merge associative:
merging per-shard top-k results (:func:`merge_topk`) over any disjoint
shard partition returns results **exactly equal** — ids and distances,
tie order included — to one flat scan.

:class:`HammingIndex` wraps the kernel with an amortised-doubling code
buffer (``add()`` for streaming ingest without per-add copies).
:class:`ShardedHammingIndex` partitions the base across worker threads or
processes (``partition_indices`` contiguous splits; process shards ship
their codes through the mp backend's shared-memory block packing), scans
shards in parallel and merges exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

import numpy as np

from repro.distributed.partition import partition_indices
from repro.distributed.shm import attach_array_block, pack_array_block, unlink_segments
from repro.retrieval.hamming import HAS_BITWISE_COUNT, pack_bits, popcount

__all__ = [
    "hamming_topk",
    "merge_topk",
    "HammingIndex",
    "ScanResult",
    "ShardedHammingIndex",
]

#: Default base rows per scan block; 4096 rows x 1 word x 64 queries is a
#: 2 MB XOR cube — comfortably cache-resident scratch.
DEFAULT_BLOCK = 4096

_DIST_SENTINEL = np.uint16(np.iinfo(np.uint16).max)


def _check_packed(arr, *, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional packed codes, got shape {arr.shape}")
    if arr.shape[1] * 64 >= int(_DIST_SENTINEL):
        raise ValueError(
            f"{name} has {arr.shape[1]} words; distances would overflow uint16"
        )
    return arr


def _block_dists(Q, blk, acc, xbuf, cbuf) -> np.ndarray:
    """Hamming distances of all queries to one base block, into ``acc``.

    One XOR + popcount pass per code word through preallocated scratch —
    no (n_q, block, n_words) cube, no per-block allocations on the
    native-popcount path. The first word's counts land directly in
    ``acc`` (no zero-fill, no add), so the common L <= 64 single-word
    case is exactly two vector passes per block.
    """
    b = len(blk)
    acc, xbuf, cbuf = acc[:, :b], xbuf[:, :b], cbuf[:, :b]
    for w in range(Q.shape[1]):
        np.bitwise_xor(Q[:, w][:, None], blk[None, :, w], out=xbuf)
        tgt = acc if w == 0 else cbuf
        if HAS_BITWISE_COUNT:
            np.bitwise_count(xbuf, out=tgt, casting="unsafe")
        else:
            tgt[...] = popcount(xbuf)
        if w:
            np.add(acc, cbuf, out=acc)
    return acc


def _select_rows(best_d, best_i, rows, cand_d, cand_i, stride) -> None:
    """Fold dense per-row candidates into the heap rows (composite key)."""
    k_eff = best_d.shape[1]
    cand_d = np.concatenate([best_d[rows], cand_d], axis=1)
    cand_i = np.concatenate([best_i[rows], cand_i], axis=1)
    key = cand_d.astype(np.int64) * stride + cand_i
    part = np.argpartition(key, k_eff - 1, axis=1)[:, :k_eff]
    r = np.arange(len(rows), dtype=np.intp)[:, None]
    order = np.argsort(key[r, part], axis=1)
    sel = part[r, order]
    best_d[rows] = cand_d[r, sel]
    best_i[rows] = cand_i[r, sel]


def hamming_topk(
    queries: np.ndarray,
    base: np.ndarray,
    k: int,
    *,
    block: int = DEFAULT_BLOCK,
    offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k Hamming neighbours of each query by blocked streaming scan.

    Parameters
    ----------
    queries, base : uint64 arrays of shape (n_q, n_words) / (n_b, n_words)
    k : int
        Neighbours per query; capped at ``len(base)`` (sharded callers
        pass a global k that may exceed one shard).
    block : int
        Base rows per scan block — the memory/latency knob (see module
        docstring for the exact bound).
    offset : int
        Global id of ``base[0]``: returned ids are ``offset + row``, so a
        shard scans its slice yet reports global ids.

    Returns
    -------
    (ids, dists) : int64 (n_q, k_eff), uint16 (n_q, k_eff)
        Sorted by (distance, id); ``k_eff = min(k, len(base))``.
    """
    Q = _check_packed(queries, name="queries")
    B = _check_packed(base, name="base")
    if Q.shape[1] != B.shape[1]:
        raise ValueError(f"incompatible packed shapes {Q.shape} and {B.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    n_q, n_b = len(Q), len(B)
    k_eff = min(k, n_b)
    if n_b == 0 or n_q == 0:
        return (np.empty((n_q, 0), np.int64), np.empty((n_q, 0), np.uint16))

    stride = np.int64(offset + n_b + 1)
    best_d = np.full((n_q, k_eff), _DIST_SENTINEL, dtype=np.uint16)
    best_i = np.zeros((n_q, k_eff), dtype=np.int64)
    b0 = min(block, n_b)
    acc = np.empty((n_q, b0), dtype=np.uint16)
    xbuf = np.empty((n_q, b0), dtype=np.uint64)
    cbuf = np.empty((n_q, b0), dtype=np.uint16)
    ibuf = np.empty((n_q, b0), dtype=bool)

    # Candidates accumulate across blocks and merge lazily: pruning with
    # a (possibly stale) kth only ever drops entries already beaten by k
    # held elements, so deferral never changes the exact result — it
    # just turns per-block scatter merges into one merge per ~cap_pend
    # survivors (typically a single merge per scan after the first).
    pend_rr: list = []
    pend_id: list = []
    pend_d: list = []
    n_pend = 0
    cap_pend = 4 * n_q * k_eff

    def _flush() -> None:
        nonlocal n_pend
        if n_pend == 0:
            return
        multi = len(pend_rr) > 1
        rr = np.concatenate(pend_rr)
        ids = np.concatenate(pend_id)
        dv = np.concatenate(pend_d)
        pend_rr.clear(), pend_id.clear(), pend_d.clear()
        n_pend = 0
        if multi:
            # The slot arithmetic below needs row-grouped candidates;
            # one block's flatnonzero order already is, concatenations
            # are not. Stable keeps ascending ids within a row (the
            # composite key never relies on it, but it aids debugging).
            grp = np.argsort(rr, kind="stable")
            rr, ids, dv = rr[grp], ids[grp], dv[grp]
        counts = np.bincount(rr, minlength=n_q)
        rows = np.nonzero(counts)[0]
        m = int(counts.max())
        starts = np.zeros(n_q + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        slot = np.arange(len(rr), dtype=np.int64) - starts[rr]
        pos = np.searchsorted(rows, rr)
        cand_d = np.full((len(rows), k_eff + m), _DIST_SENTINEL, dtype=np.uint16)
        cand_i = np.zeros((len(rows), k_eff + m), dtype=np.int64)
        cand_d[:, :k_eff] = best_d[rows]
        cand_i[:, :k_eff] = best_i[rows]
        cand_d[pos, k_eff + slot] = dv
        cand_i[pos, k_eff + slot] = ids
        key = cand_d.astype(np.int64) * stride + cand_i
        order = np.argsort(key, axis=1)[:, :k_eff]
        r = np.arange(len(rows), dtype=np.intp)[:, None]
        best_d[rows] = cand_d[r, order]
        best_i[rows] = cand_i[r, order]

    for start in range(0, n_b, block):
        blk = B[start : start + block]
        w = len(blk)
        d_blk = _block_dists(Q, blk, acc, xbuf, cbuf)
        # A block row enters only by strictly beating the kth-best
        # distance (sentinel on the first pass, so everything enters).
        # Strict < makes ties lose by construction — every id in this
        # block exceeds every id already held or pending. count_nonzero
        # is ~100x cheaper than nonzero, so most steady-state blocks
        # cost one compare + one count and move on.
        improved = np.less(d_blk, best_d[:, -1][:, None], out=ibuf[:, :w])
        n_hits = int(np.count_nonzero(improved))
        if n_hits == 0:
            continue
        if n_hits > n_q * k_eff and w > k_eff:
            # Dense pass (always the first block, rarely later ones):
            # tighten with a per-row value partition before paying the
            # per-hit gather. Keeping d <= kth-of-block preserves every
            # boundary tie, so the (distance, id) selection stays exact;
            # the survivors are ~k + ties per row.
            vk = np.partition(d_blk, k_eff - 1, axis=1)[:, k_eff - 1][:, None]
            np.logical_and(improved, d_blk <= vk, out=improved)
        # flatnonzero + divmod beats 2-d nonzero ~7x at these shapes.
        flat = np.flatnonzero(improved)
        rr = flat // w
        cc = flat - rr * w
        if len(flat) > n_q * max(64, 4 * k_eff):
            # Tie explosion (e.g. a block of duplicated codes): even the
            # tightened mask is dense — merge this block pane-at-a-time.
            rows = np.unique(rr)
            ids_blk = np.arange(start, start + w, dtype=np.int64) + offset
            _select_rows(
                best_d, best_i, rows, d_blk[rows],
                np.broadcast_to(ids_blk, (len(rows), w)), stride,
            )
            continue
        pend_rr.append(rr)
        pend_id.append(cc + (start + offset))
        pend_d.append(d_blk[rr, cc])
        n_pend += len(flat)
        if n_pend >= cap_pend or best_d[0, -1] == _DIST_SENTINEL:
            # Cap reached — or the heap is still all-sentinel (first
            # contributing block): merge now so later blocks prune
            # against a real kth instead of staying dense.
            _flush()
    _flush()
    return best_i, best_d


def merge_topk(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exactly merge per-shard top-k results into a global top-k.

    ``parts`` is a list of ``(ids, dists)`` pairs as returned by
    :func:`hamming_topk` with global ids (widths may differ when a shard
    is smaller than k). Selection uses the same composite (distance, id)
    key, so the merge is associative: any grouping of disjoint shards
    yields ids *and* distances identical to one flat scan — the
    sharded-equals-unsharded contract, asserted in tests.
    """
    if not parts:
        raise ValueError("parts must be non-empty")
    ids = np.concatenate([p[0] for p in parts], axis=1)
    ds = np.concatenate([p[1] for p in parts], axis=1)
    n_cand = ids.shape[1]
    k_eff = min(k, n_cand)
    if k_eff == 0:
        return ids[:, :0], ds[:, :0]
    stride = np.int64(ids.max(initial=0) + 1)
    key = ds.astype(np.int64) * stride + ids
    part = np.argpartition(key, k_eff - 1, axis=1)[:, :k_eff]
    rows = np.arange(len(ids), dtype=np.intp)[:, None]
    order = np.argsort(key[rows, part], axis=1)
    sel = part[rows, order]
    return ids[rows, sel], ds[rows, sel]


def _as_packed_codes(codes, n_words: int, *, n_bits: int, name: str) -> np.ndarray:
    """Accept packed uint64 codes or raw 0/1 bit matrices interchangeably."""
    arr = np.asarray(codes)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.dtype == np.uint64 and arr.shape[1] == n_words:
        return arr
    if arr.shape[1] == n_bits:
        return pack_bits(arr)
    raise ValueError(
        f"{name} must be (n, {n_words}) packed uint64 or (n, {n_bits}) bits, "
        f"got {arr.dtype} with shape {arr.shape}"
    )


class HammingIndex:
    """Growable packed-code index scanned with :func:`hamming_topk`.

    ``add()`` appends codes into an amortised-doubling uint64 buffer
    (streaming ingest is O(1) amortised per row, no per-add reallocation),
    assigning ids in arrival order — the id space every tie is broken on.
    """

    def __init__(self, n_bits: int, *, block: int = DEFAULT_BLOCK):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        self.n_bits = int(n_bits)
        self.n_words = (self.n_bits + 63) // 64
        self.block = int(block)
        self._buf = np.empty((0, self.n_words), dtype=np.uint64)
        self._n = 0

    @classmethod
    def from_codes(cls, codes, n_bits: int, *, block: int = DEFAULT_BLOCK) -> "HammingIndex":
        index = cls(n_bits, block=block)
        index.add(codes)
        return index

    @property
    def n(self) -> int:
        return self._n

    @property
    def codes(self) -> np.ndarray:
        """The packed codes currently indexed (read-only view)."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    def memory_bound(self, n_queries: int, k: int) -> int:
        """Documented peak scan-scratch bytes for an (n_queries, k) search."""
        blk = min(self.block, max(self._n, 1))
        # XOR word (8) + distance acc (2) + count (2) + mask (1) panes.
        panes = n_queries * blk * 13
        merge = n_queries * (min(k, max(self._n, 1)) + blk) * (8 + 8 + 2)
        return panes + merge

    def add(self, codes) -> np.ndarray:
        """Append codes (packed or 0/1 bits); returns the assigned ids."""
        packed = _as_packed_codes(codes, self.n_words, n_bits=self.n_bits, name="codes")
        n_new = len(packed)
        need = self._n + n_new
        if need > len(self._buf):
            cap = max(need, 2 * len(self._buf), 1024)
            buf = np.empty((cap, self.n_words), dtype=np.uint64)
            buf[: self._n] = self._buf[: self._n]
            self._buf = buf
        self._buf[self._n : need] = packed
        ids = np.arange(self._n, need, dtype=np.int64)
        self._n = need
        return ids

    def search(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, dists) of the k nearest codes, in (distance, id) order."""
        if self._n == 0:
            raise ValueError("cannot search an empty index")
        if k > self._n:
            raise ValueError(f"k={k} exceeds index size {self._n}")
        queries = _as_packed_codes(
            queries, self.n_words, n_bits=self.n_bits, name="queries"
        )
        return hamming_topk(queries, self._buf[: self._n], k, block=self.block)


class _ShardScanner:
    """One shard's codes as id-ascending blocks, scanned exactly.

    The shard starts as one contiguous slice ``[offset, offset + n)`` of
    the global id space; streamed ``append()`` blocks carry later id
    ranges. A scan runs :func:`hamming_topk` per block and folds with
    :func:`merge_topk` — exact by the associativity contract.
    """

    def __init__(self, codes: np.ndarray, offset: int, *, block: int):
        self.blocks: list[tuple[int, np.ndarray]] = [(int(offset), codes)]
        self.block = block

    @property
    def n(self) -> int:
        return sum(len(codes) for _, codes in self.blocks)

    def append(self, codes: np.ndarray, offset: int) -> None:
        self.blocks.append((int(offset), codes))

    def scan(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        parts = [
            hamming_topk(queries, codes, k, block=self.block, offset=offset)
            for offset, codes in self.blocks
        ]
        return parts[0] if len(parts) == 1 else merge_topk(parts, k)


class ScanResult(tuple):
    """A search result: the ``(ids, dists)`` pair plus coverage metadata.

    Subclasses ``tuple`` so every existing call site keeps working
    unchanged (``ids, dists = index.search(...)``); degraded-serving
    callers additionally read:

    partial : bool
        True when at least one shard missed its scan deadline (or its
        worker died mid-scan) and the result covers only the responsive
        shards. The merged ``(ids, dists)`` are exact *over the covered
        rows* — the miss loses candidates, never corrupts ranks.
    coverage : float
        Fraction of indexed rows the responding shards hold (1.0 for a
        full result, 0.0 when every shard missed).
    shards_missed : tuple of int
        Ranks of the shards that did not contribute.
    """

    def __new__(cls, ids, dists, *, partial=False, coverage=1.0,
                shards_missed=()):
        self = super().__new__(cls, (ids, dists))
        self.partial = bool(partial)
        self.coverage = float(coverage)
        self.shards_missed = tuple(int(r) for r in shards_missed)
        return self

    @property
    def ids(self) -> np.ndarray:
        return self[0]

    @property
    def dists(self) -> np.ndarray:
        return self[1]


def _shard_worker(desc, offset, block, task_q, res_conn):
    """Process-shard loop: attach the shm codes, serve scans until None."""
    seg, (codes,) = attach_array_block(desc)
    scanner = _ShardScanner(codes, offset, block=block)
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            try:
                if item[0] == "add":
                    _, codes_new, off_new = item
                    scanner.append(codes_new, off_new)
                    res_conn.send(("ok", None))
                else:
                    _, queries, k = item
                    res_conn.send(("ok", scanner.scan(queries, k)))
            except Exception as exc:  # pragma: no cover - surfaced to caller
                res_conn.send(("error", repr(exc)))
    finally:
        res_conn.close()
        seg.close()


class ShardedHammingIndex:
    """Hamming index partitioned across parallel shard scanners.

    The base is split into ``n_shards`` contiguous slices with
    :func:`repro.distributed.partition.partition_indices` (``shuffle``
    off: shard s owns global ids ``[lo_s, hi_s)``). A search scans every
    shard in parallel — worker threads (``mode="thread"``) or persistent
    worker processes that received their slice through a shared-memory
    segment (``mode="process"``, via :mod:`repro.distributed.shm`) —
    then :func:`merge_topk` folds the per-shard heaps. Results are
    **exactly** those of the equivalent single :class:`HammingIndex`,
    ids, distances and tie order included.

    ``add()`` streams new codes to the *last* shard (the only one whose
    id range can stay contiguous with the global tail), preserving
    arrival-order ids and therefore the exactness contract; sustained
    ingest will skew that shard's size, so rebuild when balance matters.
    """

    def __init__(
        self,
        codes,
        n_bits: int,
        n_shards: int,
        *,
        mode: str = "thread",
        block: int = DEFAULT_BLOCK,
        ctx_method: str = "fork",
        scan_timeout_s: float | None = None,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if scan_timeout_s is not None and scan_timeout_s < 0:
            raise ValueError(f"scan_timeout_s must be >= 0, got {scan_timeout_s}")
        self.n_bits = int(n_bits)
        self.n_words = (self.n_bits + 63) // 64
        self.n_shards = int(n_shards)
        self.mode = mode
        self.block = int(block)
        #: Per-search deadline in seconds for the whole sharded gather
        #: (None = wait indefinitely, historical behaviour). A shard that
        #: misses it is reported through ``ScanResult.partial`` /
        #: ``coverage`` instead of stalling the search; in process mode
        #: its worker is respawned from the retained shared-memory
        #: segment so the *next* search is full-coverage again.
        self.scan_timeout_s = scan_timeout_s
        #: Shard workers automatically respawned after a deadline miss
        #: or mid-scan death (process mode; diagnostics).
        self.shard_respawns = 0
        packed = _as_packed_codes(codes, self.n_words, n_bits=self.n_bits, name="codes")
        packed = np.ascontiguousarray(packed)
        self._n = len(packed)
        if self._n < self.n_shards:
            raise ValueError(
                f"cannot shard {self._n} codes over {self.n_shards} shards"
            )
        parts = partition_indices(self._n, self.n_shards, shuffle=False)
        self._offsets = [int(idx[0]) for idx in parts]
        self._shard_rows = [len(idx) for idx in parts]
        self._closed = False
        if mode == "thread":
            self._scanners = [
                _ShardScanner(packed[idx[0] : idx[-1] + 1], idx[0], block=self.block)
                for idx in parts
            ]
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="hamming-shard"
            )
        else:
            self._start_workers(packed, parts, ctx_method)

    # ----------------------------------------------------------- process mode
    def _start_workers(self, packed, parts, ctx_method) -> None:
        import multiprocessing as mp

        self._ctx = mp.get_context(ctx_method)
        self._segments, self._task_qs, self._pipes, self._procs = [], [], [], []
        # Retained for degraded-mode recovery: the shard descriptors
        # (the shm segments stay mapped until close(), so a replacement
        # worker re-attaches the same bytes) and the tail shard's
        # streamed add blocks, replayed into a respawned tail worker.
        self._descs: list = []
        self._tail_blocks: list = []
        try:
            for idx in parts:
                seg, desc = pack_array_block(
                    [packed[idx[0] : idx[-1] + 1]], untrack=ctx_method != "fork"
                )
                self._segments.append(seg)
                self._descs.append(desc)
                task_q, reader, proc = self._launch_shard(desc, int(idx[0]))
                self._task_qs.append(task_q)
                self._pipes.append(reader)
                self._procs.append(proc)
        except Exception:
            self.close()
            raise

    def _launch_shard(self, desc, offset: int):
        task_q = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(desc, offset, self.block, task_q, writer),
            daemon=True,
        )
        proc.start()
        writer.close()
        return task_q, reader, proc

    def _respawn_worker(self, rank: int) -> None:
        """Replace one shard worker from its retained shm descriptor.

        Called after the worker missed a scan deadline (it may be slow,
        wedged, or dead — all get the same cure) or its pipe reported
        EOF. The old process is killed so a late result can never leak
        into a later search, and the tail shard's streamed add blocks
        are replayed so the replacement serves the full id range.
        """
        proc = self._procs[rank]
        if proc.is_alive():
            # SIGKILL, not SIGTERM: a *stopped* (SIGSTOPped, ptraced)
            # worker leaves SIGTERM pending forever, and the join below
            # would then burn its whole timeout on every search.
            proc.kill()
        proc.join(timeout=5.0)
        try:
            self._task_qs[rank].close()
        except (ValueError, OSError):
            pass
        self._pipes[rank].close()
        task_q, reader, new_proc = self._launch_shard(
            self._descs[rank], self._offsets[rank]
        )
        self._task_qs[rank] = task_q
        self._pipes[rank] = reader
        self._procs[rank] = new_proc
        self.shard_respawns += 1
        if rank == self.n_shards - 1:
            for codes, off in self._tail_blocks:
                task_q.put(("add", codes, off))
                status, payload = reader.recv()
                if status != "ok":
                    raise RuntimeError(
                        f"tail shard replay failed after respawn: {payload}"
                    )

    def _collect(self, deadline: float | None):
        """Gather per-shard scan results; returns ``(parts, missed)``.

        ``parts`` is ``[(rank, payload), ...]`` for the shards that
        answered; ``missed`` lists shards that blew the deadline or whose
        worker died mid-scan. A shard *error* (bad input, scan bug) still
        raises — that is deterministic breakage, not degradation.
        """
        parts, missed = [], []
        for rank, pipe in enumerate(self._pipes):
            try:
                if deadline is not None and not pipe.poll(
                    max(0.0, deadline - time.monotonic())
                ):
                    missed.append(rank)
                    continue
                status, payload = pipe.recv()
            except (EOFError, OSError):
                missed.append(rank)
                continue
            if status != "ok":
                raise RuntimeError(f"shard {rank} failed: {payload}")
            parts.append((rank, payload))
        return parts, missed

    # ------------------------------------------------------------------- API
    @property
    def n(self) -> int:
        return self._n

    def add(self, codes) -> np.ndarray:
        """Append codes to the tail shard; returns the assigned global ids."""
        packed = _as_packed_codes(codes, self.n_words, n_bits=self.n_bits, name="codes")
        ids = np.arange(self._n, self._n + len(packed), dtype=np.int64)
        if self.mode == "thread":
            self._scanners[-1].append(np.ascontiguousarray(packed), self._n)
        else:
            block = np.ascontiguousarray(packed)
            self._task_qs[-1].put(("add", block, self._n))
            status, payload = self._pipes[-1].recv()
            if status != "ok":
                raise RuntimeError(f"tail shard ingest failed: {payload}")
            # Recorded *after* the ack so a respawned tail worker replays
            # exactly the blocks the dead one had acknowledged.
            self._tail_blocks.append((block, self._n))
        self._shard_rows[-1] += len(packed)
        self._n += len(packed)
        return ids

    def search(self, queries, k: int) -> ScanResult:
        """Exact sharded top-k as a :class:`ScanResult`.

        With ``scan_timeout_s`` unset this is exactly the unsharded
        index's search (full coverage, ``partial=False``). With a
        deadline, shards that miss it are dropped from the merge and
        reported via the result's ``partial`` / ``coverage`` /
        ``shards_missed`` fields; their workers (process mode) are
        respawned from the retained shm segments before returning, so
        coverage recovers by the next call.
        """
        if self._closed:
            raise RuntimeError("index is closed")
        if k > self._n:
            raise ValueError(f"k={k} exceeds index size {self._n}")
        queries = _as_packed_codes(
            queries, self.n_words, n_bits=self.n_bits, name="queries"
        )
        deadline = (
            None
            if self.scan_timeout_s is None
            else time.monotonic() + self.scan_timeout_s
        )
        if self.mode == "thread":
            futures = [
                self._pool.submit(scanner.scan, queries, k)
                for scanner in self._scanners
            ]
            parts, missed = [], []
            for rank, f in enumerate(futures):
                try:
                    if deadline is None:
                        parts.append((rank, f.result()))
                    else:
                        parts.append((rank, f.result(
                            timeout=max(0.0, deadline - time.monotonic())
                        )))
                except _FutureTimeout:
                    # The scan keeps running on its pool thread (threads
                    # cannot be killed); its shard just misses this
                    # result. No respawn needed — the thread pool reuses
                    # the worker once the stale scan finishes.
                    f.cancel()
                    missed.append(rank)
        else:
            for task_q in self._task_qs:
                task_q.put(("scan", queries, k))
            parts, missed = self._collect(deadline)
        if not missed:
            ids, ds = merge_topk([p for _, p in parts], k)
            return ScanResult(ids, ds)
        if self.mode == "process":
            for rank in missed:
                self._respawn_worker(rank)
        covered = self._n - sum(self._shard_rows[r] for r in missed)
        coverage = covered / self._n if self._n else 0.0
        if not parts:
            n_q = len(queries)
            return ScanResult(
                np.empty((n_q, 0), np.int64),
                np.empty((n_q, 0), np.uint16),
                partial=True, coverage=0.0, shards_missed=missed,
            )
        ids, ds = merge_topk([p for _, p in parts], k)
        return ScanResult(
            ids, ds, partial=True, coverage=coverage, shards_missed=missed
        )

    def close(self) -> None:
        """Stop shard workers and release shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self.mode == "thread":
            self._pool.shutdown(wait=True)
            return
        for task_q in getattr(self, "_task_qs", []):
            try:
                task_q.put(None)
            except (ValueError, OSError):
                pass
        for proc in getattr(self, "_procs", []):
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hygiene only
                proc.kill()  # a stopped worker would sit on a SIGTERM
                proc.join(timeout=1.0)
        for task_q in getattr(self, "_task_qs", []):
            task_q.close()
        for pipe in getattr(self, "_pipes", []):
            pipe.close()
        unlink_segments(getattr(self, "_segments", []))

    def __enter__(self) -> "ShardedHammingIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort hygiene
        try:
            self.close()
        except Exception:
            pass
