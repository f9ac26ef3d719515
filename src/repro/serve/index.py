"""Packed-code Hamming index with a tiled streaming top-k scan kernel.

The serving hot path never builds the ``n_q x n_base`` distance matrix
that ``hamming_cdist`` does (128 GB at n_base = 10^9, n_q = 64). **A scan
owns one k-heap from its first row to its last, whatever the rows are
stored in**: :func:`_scan_segments` walks id-ascending ``(offset,
codes)`` segments — an index buffer is one, a shard plus its streamed
``add`` blocks is many — and folds them into one per-query top-k "heap"
(two (n_q, k) arrays kept sorted by the total order below).
:func:`hamming_topk` is the one-segment case.

**Two sizes**, module constants because each wants a different value:

* *XOR/popcount call*: ``_XOR_ELEMS`` (128 Ki) uint64 elements shaped
  ``g`` queries x ``t = clamp(_XOR_ELEMS // n_q, 4096, 32768)`` rows:
  cache-sized, and a base tile is read once per query group. Rows per
  call matter more than elements (a 64 x 512 call pays per-row iterator
  overhead). Do not shrink it: with two thread shards every return from
  a ~15 us call re-takes the GIL. Closed-loop ``steady_qps`` against the
  old whole-block kernel, flat index / 2 thread shards: 32 Ki per call
  1.35x / **0.71x**, 128 Ki 1.32x / 1.00x, 256 Ki 1.09x / 1.14x.
* *Select step*: a distance pane + mask of ``_PANE_ELEMS`` (1 Mi)
  elements, ``_PANE_ELEMS // n_q`` rows per step, every step a full pane
  (one step for one query over 1M codes). uint8 (``bitwise_count``'s
  native output) when ``64 * n_words <= 254``, else uint16; the dtype's
  max is the sentinel, above every distance. Results are uint16 either way.

**Selection counts; it does not sort.** Distances are small integers, so
a pane's candidates are found by counting. A row enters the heap only by
strictly beating its query's kth-best distance: ids only grow along a
scan (hence id-ascending segments), so an equal-distance row never
displaces an earlier id. A per-query ``min`` over the pane says which
queries have such a row; only those get a compare, a count and a
``flatnonzero``. A query with more than k hits in a step (the scan's
first step, or a run of duplicated codes) is cut by the radius rule:
r is the smallest distance with at least k rows at or below it, and the
step's candidates are every row with d < r plus the lowest ids at d = r,
so no query carries more than k candidates into the merge. r is counted,
not sorted for. Seen as up to 64 strips, a row's columns are groups of
one row per strip; the kth-smallest group min bounds r from above and is
nearly always r itself, so every row below it lies in fewer than k
groups, and only ties at r need the whole row. Wide (uint16) ranges are
counted by galloping and bisection: O(log) counts, not one per value.

Queries beyond ``_PANE_ELEMS // 4096`` = 256 are scanned in chunks, so
peak scratch (:meth:`HammingIndex.memory_bound`, held to ``tracemalloc``
in the tests) depends on neither ``n_base`` nor ``n_q``: XOR words
(<= 1 MiB) + pane and mask (2-3 MiB) + one row's cut + ``O(256 k)``
merge keys.

**Total order / tie contract.** Every path — ``hamming_cdist`` + argsort,
:func:`hamming_topk`, and the sharded merge — ranks by the lexicographic
key (distance, base index): equal-distance neighbours in ascending index
order, exactly a sequential scan in database order. Selection runs on the
composite integer key ``distance * stride + id`` (``stride`` > any id), a
*total* order with no arbitrary argpartition boundary choices. That makes
the k-heap merge associative: :func:`merge_topk` over any disjoint shard
partition returns results **exactly equal** — ids, distances and tie
order — to one flat scan.

:class:`HammingIndex` wraps the kernel with an amortised-doubling code
buffer (``add()`` without per-add copies). :class:`ShardedHammingIndex`
partitions the base across worker threads or processes, scans in
parallel, merges exactly. Process shards get their codes through shared
memory and run on the training engines' runtime
(:mod:`repro.distributed.pool`): its fork site, command loop and gather,
with ``scan`` and ``append`` as their handler table. The index keeps
only its policy: a shard that misses the deadline or dies costs a
``partial`` result, then a respawn with the tail's add blocks replayed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from contextlib import suppress

import numpy as np

from repro.distributed.partition import partition_indices
from repro.distributed.pool import WorkerPool
from repro.distributed.shm import attach_array_block, pack_array_block, unlink_segments
from repro.retrieval.hamming import HAS_BITWISE_COUNT, pack_bits, popcount

__all__ = [
    "hamming_topk",
    "merge_topk",
    "HammingIndex",
    "ScanResult",
    "ShardedHammingIndex",
]

#: uint64 elements per XOR/popcount call (1 MiB of XOR words).
_XOR_ELEMS = 128 * 1024
#: Clamp on the base rows of one XOR/popcount call.
_TILE_ROWS_MIN, _TILE_ROWS_MAX = 4096, 32768
#: Distance-pane (and mask) elements per select step.
_PANE_ELEMS = 1 << 20


def _check_packed(arr, *, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional packed codes, got shape {arr.shape}")
    if arr.shape[1] * 64 >= np.iinfo(np.uint16).max:
        raise ValueError(f"{name} has {arr.shape[1]} words; distances would overflow uint16")
    return arr


def _dist_dtype(n_words: int) -> np.dtype:
    """Pane dtype: its max is the heap sentinel, above every distance."""
    return np.dtype(np.uint8 if 64 * n_words <= 254 else np.uint16)


def _pane_dists(Qw, blk, D, xflat, cflat, g: int, t: int) -> None:
    """Hamming distances of all queries to the rows of ``blk``, into ``D``:
    ``g`` queries x ``t`` rows per XOR + popcount call through flat
    scratch (contiguous per call). The first word's counts land directly
    in the pane, so one-word codes take exactly two passes per tile."""
    n_words, n_q = Qw.shape
    for r0 in range(0, len(blk), t):
        r1 = min(len(blk), r0 + t)
        for q0 in range(0, n_q, g):
            q1 = min(n_q, q0 + g)
            shape = (q1 - q0, r1 - r0)
            xb = xflat[: shape[0] * shape[1]].reshape(shape)
            out = D[q0:q1, r0:r1]
            for w in range(n_words):
                np.bitwise_xor(Qw[w, q0:q1, None], blk[r0:r1, w], out=xb)
                tgt = out if w == 0 else cflat[: xb.size].reshape(shape)
                if HAS_BITWISE_COUNT:
                    np.bitwise_count(xb, out=tgt)
                else:
                    tgt[...] = popcount(xb)
                if w:
                    np.add(out, tgt, out=out)


def _take_topk(cand_d, cand_i, k_eff: int, stride):
    """Per row, the ``k_eff`` smallest candidates under the composite
    (distance, id) key, in that order."""
    key = cand_d.astype(np.int64) * stride + cand_i
    part = np.argpartition(key, k_eff - 1, axis=1)[:, :k_eff]
    r = np.arange(len(key), dtype=np.intp)[:, None]
    sel = part[r, np.argsort(key[r, part], axis=1)]
    return cand_d[r, sel], cand_i[r, sel]


def _radius(d, lo: int, hi: int, k: int, step: int) -> tuple[int, int, int]:
    """Count for r, the smallest distance with at least k entries of ``d``
    at or below it, given count(d <= lo) < k and r <= hi, where hi may
    instead be the heap's bound (then r may not exist below it). Probes
    start at lo + step and gallop up while they fail, then bisect, so a
    wide uint16 range costs O(log) counts, not one per value. Returns
    (r or the bound, r - 1, count(d <= r - 1))."""
    n_lo = 0
    while hi - lo > 1:
        v = min(lo + step, hi - 1)
        c = np.count_nonzero(d <= v)
        if c >= k:
            hi, step = v, max(1, (v - lo) // 2)
        else:
            lo, n_lo, step = v, c, 2 * step
    return hi, lo, n_lo


def _walk(m, n: int) -> np.ndarray:
    """The first ``n`` set columns of ``m``. ``argmax`` jumps to the next
    one (it stops at the first hit), and ``flatnonzero`` reads on from it
    over 64 columns per column still wanted, so sparse and dense rows
    both take few calls and bounded scratch."""
    parts, p = [], 0
    while n:
        p += int(m[p:].argmax())
        parts.append(np.flatnonzero(m[p : p + 64 * n])[:n] + p)
        n, p = n - len(parts[-1]), int(parts[-1][-1]) + 1
    return np.concatenate(parts)


def _cut(d, bound: int, k: int, m) -> np.ndarray:
    """Columns of pane row ``d`` that can enter a heap whose kth-best
    distance is ``bound``, by the radius rule: r is the smallest distance
    with at least k entries at or below it, and the columns are every
    d < r plus the lowest at d = r (every d < bound if fewer than k are).

    Column j of ``d`` seen as an (S, c) array, S <= 64, is group j. The
    kth-smallest group min u has k entries at or below it, so r <= u,
    and every d < u lies in the fewer than k groups whose min is below u
    or in the tail of fewer than S entries past S * c. Those entries are
    all that is counted; only ties at r = u need the whole row, in one
    compare and a walk. ``m`` is the row's mask scratch."""
    bound, S = int(bound), max(1, min(64, len(d) // (4 * k)))
    d2, tail = d[: len(d) // S * S].reshape(S, -1), d[len(d) // S * S :]
    g = d2.min(axis=0)
    lo = int(tail.min(initial=g.min())) - 1
    u = _radius(g, lo, bound, k, 1)[0]
    G = np.flatnonzero(g < u)
    sub = np.concatenate([d2[:, G].ravel(), tail])
    ids = np.concatenate([(np.arange(S, dtype=np.intp)[:, None] * d2.shape[1] + G).ravel(),
                          np.arange(d2.size, len(d), dtype=np.intp)])  # ascending
    r, lo, n_lo = _radius(sub, lo, u, k, u - lo - 1)
    cols = ids[sub <= lo]
    if r == bound:
        return cols
    ties = ids[sub == r] if r < u else _walk(np.equal(d, r, out=m), k - n_lo)
    return np.concatenate([cols, ties[: k - n_lo]])


def _admit(best_d, best_i, D, mask, first_id: int, stride) -> None:
    """Fold one pane (``D[:, c]`` is id ``first_id + c``) into the heap."""
    rows, k = D.shape[1], best_d.shape[1]
    # A row enters only by strictly beating the kth-best distance
    # (sentinel until the heap fills). Ties lose by construction: every
    # id in this pane exceeds every id already held. A per-query min says
    # which queries have such a row; only theirs are compared.
    hit = np.flatnonzero(D.min(axis=1) < best_d[:, -1])
    if (n := len(hit)) == 0:
        return
    for j, q in enumerate(hit.tolist()):
        if j != q:
            D[j] = D[q]  # compact the hit rows in place, in order
    D, mask, kth, top = D[:n], mask[:n], best_d[hit, -1], np.iinfo(D.dtype).max
    flat, dense = np.empty(0, dtype=np.intp), range(n)
    # A heap still holding sentinels makes the pane dense: no compare.
    if kth.max() < top and np.count_nonzero(np.less(D, kth[:, None], out=mask)) <= n * k:
        # Sparse: flatnonzero + divmod beats 2-d nonzero ~7x at these
        # shapes. Only a query with more than k hits needs the cut.
        flat = np.flatnonzero(mask)
        counts = np.bincount(flat // rows, minlength=n)
        dense = np.flatnonzero(counts > k).tolist()
        flat = flat[counts[flat // rows] <= k]
    # Heap rows, then at most k candidates per query: the merge is small.
    cand_d = np.concatenate([best_d[hit], np.full((n, k), top, dtype=D.dtype)], axis=1)
    cand_i = np.concatenate([best_i[hit], np.zeros((n, k), dtype=np.int64)], axis=1)
    rr = flat // rows
    slot = k + np.arange(len(flat), dtype=np.intp) - np.searchsorted(rr, rr)
    cand_d[rr, slot] = D.reshape(-1)[flat]
    cand_i[rr, slot] = flat - rr * rows + first_id
    for j in dense:
        cols = _cut(D[j], kth[j], k, mask[j])
        cand_d[j, k : k + len(cols)], cand_i[j, k : k + len(cols)] = D[j, cols], cols + first_id
    best_d[hit], best_i[hit] = _take_topk(cand_d, cand_i, k, stride)


def _scan_chunk(Q, segments, k_eff: int, stride) -> tuple[np.ndarray, np.ndarray]:
    """One heap for ``Q`` (at most ``_PANE_ELEMS // _TILE_ROWS_MIN`` queries)
    carried across every segment, one full pane per select step."""
    n_q, n_words = Q.shape
    dtype = _dist_dtype(n_words)
    pane_rows = _PANE_ELEMS // n_q
    t = max(_TILE_ROWS_MIN, min(_XOR_ELEMS // n_q, _TILE_ROWS_MAX))
    g = min(n_q, _XOR_ELEMS // t)
    # Flat buffers, reshaped per step: a mask sliced out of a wider 2-d
    # buffer is non-contiguous and forces the slow 2-d nonzero.
    xflat = np.empty(g * t, dtype=np.uint64)
    cflat = np.empty(g * t, dtype=dtype) if n_words > 1 else None
    dflat = np.empty(n_q * pane_rows, dtype=dtype)
    mflat = np.empty(n_q * pane_rows, dtype=bool)
    Qw = np.ascontiguousarray(Q.T)
    best_d = np.full((n_q, k_eff), np.iinfo(dtype).max, dtype=dtype)
    best_i = np.zeros((n_q, k_eff), dtype=np.int64)
    for offset, codes in segments:
        for start in range(0, len(codes), pane_rows):
            rows = min(pane_rows, len(codes) - start)
            D = dflat[: n_q * rows].reshape(n_q, rows)
            _pane_dists(Qw, codes[start : start + rows], D, xflat, cflat, g, t)
            _admit(best_d, best_i, D, mflat[: D.size].reshape(D.shape), offset + start, stride)
    return best_i, best_d.astype(np.uint16)


def _scan_segments(queries, segments, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k over id-ascending ``(offset, codes)`` segments (``codes[r]``
    has global id ``offset + r``), one heap per scan. Returns ``(ids,
    dists)`` by (distance, id), ``min(k, total rows)`` columns wide."""
    Q = _check_packed(queries, name="queries")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    segs, end = [], None
    for offset, codes in segments:
        offset, codes = int(offset), _check_packed(codes, name="base")
        if codes.shape[1] != Q.shape[1]:
            raise ValueError(f"incompatible packed shapes {Q.shape} and {codes.shape}")
        if len(codes) == 0:
            continue
        # Strict-< admission is exact only because ids grow along the scan.
        if end is not None and offset < end:
            raise ValueError("segments must be id-ascending and disjoint")
        end = offset + len(codes)
        segs.append((offset, codes))
    n_q = len(Q)
    if not segs or n_q == 0:
        return np.empty((n_q, 0), np.int64), np.empty((n_q, 0), np.uint16)
    k_eff = min(k, sum(len(codes) for _, codes in segs))
    stride = np.int64(end + 1)
    max_q = _PANE_ELEMS // _TILE_ROWS_MIN
    chunks = [Q[q0 : q0 + max_q] for q0 in range(0, n_q, max_q)]
    ids, ds = zip(*(_scan_chunk(chunk, segs, k_eff, stride) for chunk in chunks))
    return np.concatenate(ids), np.concatenate(ds)


def hamming_topk(
    queries: np.ndarray, base: np.ndarray, k: int, *, offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k Hamming neighbours of each query by tiled streaming scan.

    Parameters
    ----------
    queries, base : uint64 arrays of shape (n_q, n_words) / (n_b, n_words)
    k : int
        Neighbours per query; capped at ``len(base)`` (sharded callers
        pass a global k that may exceed one shard).
    offset : int
        Global id of ``base[0]``: returned ids are ``offset + row``, so a
        shard scans its slice yet reports global ids.

    Returns
    -------
    (ids, dists) : int64 (n_q, k_eff), uint16 (n_q, k_eff)
        Sorted by (distance, id); ``k_eff = min(k, len(base))``.
    """
    return _scan_segments(queries, [(offset, base)], k)


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
    k_eff = min(k, ids.shape[1])
    if k_eff == 0:
        return ids[:, :0], ds[:, :0]
    ds, ids = _take_topk(ds, ids, k_eff, np.int64(ids.max(initial=0) + 1))
    return ids, ds


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

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        self.n_bits = int(n_bits)
        self.n_words = (self.n_bits + 63) // 64
        self._buf = np.empty((0, self.n_words), dtype=np.uint64)
        self._n = 0

    @classmethod
    def from_codes(cls, codes, n_bits: int) -> "HammingIndex":
        index = cls(n_bits)
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
        """Peak scan-scratch bytes of an (n_queries, k) search, whatever
        ``n``; beyond one query chunk only the result grows with n_queries."""
        item = _dist_dtype(self.n_words).itemsize
        q = min(n_queries, _PANE_ELEMS // _TILE_ROWS_MIN)
        # XOR words + word counts of one call; the pane and its mask.
        tiles = min(_XOR_ELEMS, q * _TILE_ROWS_MAX) * (8 + item) + _PANE_ELEMS * (item + 1)
        # One row's cut: group mins, <= 64 k gathered entries and their ids.
        cut = (_PANE_ELEMS // q // 64 + 64 * k) * 24
        # <= 128 bytes per heap slot in a merge (candidates, keys, orders),
        # NumPy's iterator buffers, and the result.
        return tiles + cut + q * k * 128 + (96 << 10) + 2 * n_queries * k * (8 + 2)

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
        return _scan_segments(queries, [(0, self._buf[: self._n])], k)


class _ShardScanner:
    """One shard's codes as id-ascending blocks, scanned exactly.

    The shard starts as one contiguous slice ``[offset, offset + n)`` of
    the global id space; streamed ``append()`` blocks carry later id
    ranges. A scan hands the whole block list to the kernel: one heap,
    one kernel entry, no per-block merge.
    """

    def __init__(self, codes: np.ndarray, offset: int):
        self.blocks: list[tuple[int, np.ndarray]] = [(int(offset), codes)]

    def append(self, codes: np.ndarray, offset: int) -> None:
        self.blocks.append((int(offset), codes))

    def scan(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        # Read once: an append racing this scan is seen whole or not at all.
        return _scan_segments(queries, list(self.blocks), k)


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


class _ShardProcess:
    """A process shard's handlers for the pool's command loop: ``scan``
    and ``append`` over its attached shared-memory codes."""

    def __init__(self, reply, desc, offset: int):
        self._seg, (codes,) = attach_array_block(desc)
        self._scanner = _ShardScanner(codes, offset)
        self.handlers = {"scan": self.scan, "append": self.append}

    def scan(self, queries, k: int) -> tuple:
        return "scanned", self._scanner.scan(queries, k)

    def append(self, blocks) -> tuple:
        for codes, offset in blocks:
            self._scanner.append(codes, offset)
        return "appended", None

    def close(self) -> None:
        self._seg.close()


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
        #: Per-search deadline in seconds for the whole sharded gather
        #: (None = wait indefinitely, historical behaviour). A shard that
        #: misses it is reported through ``ScanResult.partial`` /
        #: ``coverage`` instead of stalling the search; in process mode
        #: its worker is respawned from the retained shared-memory
        #: segment so the *next* search is full-coverage again. In
        #: process mode an ``add`` gets the same deadline: a tail worker
        #: that misses it is respawned and takes the block.
        self.scan_timeout_s = scan_timeout_s
        #: Shard workers automatically respawned after a deadline miss
        #: or a death (process mode; diagnostics).
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
                _ShardScanner(packed[idx[0] : idx[-1] + 1], idx[0])
                for idx in parts
            ]
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="hamming-shard"
            )
        else:
            self._start_workers(packed, parts)

    # ----------------------------------------------------------- process mode
    def _start_workers(self, packed, parts) -> None:
        self._workers = WorkerPool()
        # Retained for degraded-mode recovery: the shard descriptors
        # (the shm segments stay mapped until close(), so a replacement
        # worker re-attaches the same bytes) and the tail shard's
        # streamed add blocks, replayed into a respawned tail worker.
        self._segments, self._descs, self._tail_blocks = [], [], []
        try:
            for rank, idx in enumerate(parts):
                seg, desc = pack_array_block([packed[idx[0] : idx[-1] + 1]])
                self._segments.append(seg)
                self._descs.append(desc)
                self._workers.start(rank, _ShardProcess, desc, self._offsets[rank])
        except Exception:
            self.close()
            raise

    def _deadline(self) -> float | None:
        timeout = self.scan_timeout_s
        return None if timeout is None else time.monotonic() + timeout

    def _append(self, rank: int, blocks, deadline: float | None) -> bool:
        """Ship add blocks to ``rank``'s worker; whether it acknowledged
        them by ``deadline`` (a dead or late worker did not)."""
        self._workers.send(rank, "append", blocks)
        return rank in self._workers.gather([rank], ("appended",), deadline=deadline)[0]

    def _respawn_worker(self, rank: int, blocks=()) -> bool:
        """Replace one shard worker from its retained shm descriptor;
        whether the replacement serves the shard's rows.

        Called after the worker missed a deadline (it may be slow,
        wedged, or dead — all get the same cure) or died. The old
        process is SIGKILLed, so a late reply can never leak into a
        later command. A replacement tail worker is given the blocks the
        old one acknowledged, plus ``blocks``, and waited for without a
        deadline: it is fresh, so only its death stops the replay (under
        a deadline, ``scan_timeout_s=0`` would never get a tail back).
        One that dies, or fails the replay, is released at once, so no
        live worker holds a block the index has not recorded; its rank
        stays empty until the next ``search`` or ``add`` respawns it.
        """
        self._workers.kill(rank)
        self._workers.start(rank, _ShardProcess, self._descs[rank], self._offsets[rank])
        self.shard_respawns += 1
        blocks = self._tail_blocks + list(blocks) if rank == self.n_shards - 1 else []
        took = False
        try:
            took = not blocks or self._append(rank, blocks, None)
        finally:
            if not took:
                self._workers.kill(rank)
        return took

    # ------------------------------------------------------------------- API
    @property
    def n(self) -> int:
        return self._n

    def add(self, codes) -> np.ndarray:
        """Append codes to the tail shard; returns the assigned global ids."""
        packed = _as_packed_codes(codes, self.n_words, n_bits=self.n_bits, name="codes")
        ids = np.arange(self._n, self._n + len(packed), dtype=np.int64)
        if len(packed) == 0:
            # Nothing to scan, ship or replay: no block, no IPC round trip.
            return ids
        block = (np.ascontiguousarray(packed), self._n)
        if self.mode == "thread":
            self._scanners[-1].append(*block)
        else:
            # The scan's deadline rule: a tail that misses it, or dies,
            # is SIGKILLed and respawned, and the replacement takes the
            # block. Recorded only once acknowledged, so a respawn
            # replays exactly the blocks the tail holds.
            tail = self.n_shards - 1
            took = tail in self._workers.procs and self._append(tail, [block], self._deadline())
            if not (took or self._respawn_worker(tail, [block])):
                raise RuntimeError(f"tail shard {tail} died taking the add block after a respawn")
            self._tail_blocks.append(block)
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
        deadline = self._deadline()
        if self.mode == "thread":
            futures = [
                self._pool.submit(scanner.scan, queries, k)
                for scanner in self._scanners
            ]
            parts, missed = [], []
            for rank, f in enumerate(futures):
                try:
                    wait = None if deadline is None else max(0.0, deadline - time.monotonic())
                    parts.append((rank, f.result(timeout=wait)))
                except _FutureTimeout:
                    # The scan keeps running on its pool thread (threads
                    # cannot be killed); its shard just misses this
                    # result. No respawn needed — the thread pool reuses
                    # the worker once the stale scan finishes.
                    f.cancel()
                    missed.append(rank)
        else:
            ranks = range(self.n_shards)
            # A rank left empty by a failed replay is respawned first.
            live = [r for r in ranks if r in self._workers.procs or self._respawn_worker(r)]
            for rank in live:
                self._workers.send(rank, "scan", queries, k)
            try:
                replies, _, _ = self._workers.gather(live, ("scanned",), deadline=deadline)
            except RuntimeError:
                # A shard failed. The others' replies still in flight
                # answer this search, not the next: replace every shard,
                # then raise the shard's error.
                for rank in ranks:
                    with suppress(RuntimeError):
                        self._respawn_worker(rank)
                raise
            parts = [(r, replies[r][1]) for r in sorted(replies)]
            missed = [r for r in ranks if r not in replies]
            for rank in missed:
                self._respawn_worker(rank)
        if parts:
            ids, ds = merge_topk([p for _, p in parts], k)
        else:
            ids = np.empty((len(queries), 0), np.int64)
            ds = np.empty((len(queries), 0), np.uint16)
        covered = self._n - sum(self._shard_rows[r] for r in missed)
        return ScanResult(
            ids, ds, partial=bool(missed), coverage=covered / self._n,
            shards_missed=missed,
        )

    def close(self) -> None:
        """Stop shard workers and release shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self.mode == "thread":
            self._pool.shutdown(wait=True)
            return
        self._workers.close(wait=5.0)  # per shard, then it is killed
        unlink_segments(self._segments)

    def __enter__(self) -> "ShardedHammingIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort hygiene
        with suppress(Exception):
            self.close()
