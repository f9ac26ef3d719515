"""Exactness contracts of the packed-code index and its sharded variant.

Everything here checks *exact* equality against a brute-force
(distance, id)-lexicographic reference — ids AND distances AND tie
order — because that total order is what makes sharded merges
associative and batched serving bit-identical to offline retrieval.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serve.index as index_mod
from repro.retrieval.hamming import hamming_cdist, pack_bits
from repro.serve import (
    HammingIndex,
    ShardedHammingIndex,
    hamming_topk,
    merge_topk,
)


def shrink_kernel(monkeypatch, tile, *, xor_tiles=8, pane_tiles=32):
    """Shrink the kernel's scratch constants so a few hundred rows cross
    every tile, query-group, pane and query-chunk boundary: XOR calls of
    ``xor_tiles * tile`` elements and ``tile..4*tile`` rows, a pane of
    ``pane_tiles * tile`` elements (so ``pane_tiles`` queries per chunk)."""
    monkeypatch.setattr(index_mod, "_TILE_ROWS_MIN", tile)
    monkeypatch.setattr(index_mod, "_TILE_ROWS_MAX", 4 * tile)
    monkeypatch.setattr(index_mod, "_XOR_ELEMS", xor_tiles * tile)
    monkeypatch.setattr(index_mod, "_PANE_ELEMS", pane_tiles * tile)


def ref_topk_ids(Q, B, ids, k):
    """Brute-force (distance, id) lexicographic top-k via a full cdist,
    row ``r`` of ``B`` carrying the (ascending) global id ``ids[r]``."""
    D = hamming_cdist(Q, B)
    key = D.astype(np.int64) * (int(ids[-1]) + 1) + ids
    order = np.argsort(key, axis=1)[:, :k]
    return ids[order], np.take_along_axis(D, order, axis=1)


def ref_topk(Zq, Zb, k):
    return ref_topk_ids(pack_bits(Zq), pack_bits(Zb), np.arange(len(Zb)), k)


def random_codes(rng, n, L):
    return rng.integers(0, 2, size=(n, L)).astype(np.uint8)


class TestHammingTopk:
    @pytest.mark.parametrize(
        "n_q,n_b,L,k,tile",
        [
            (7, 500, 16, 5, 16),
            (32, 3000, 64, 10, 128),
            (5, 100, 100, 100, 4),    # k == n_b, L > one word
            (1, 1, 64, 1, None),      # degenerate single pair
            (16, 2048, 32, 3, None),  # single-step scan
            (4, 333, 7, 12, 2),       # k > first step, odd sizes
        ],
    )
    def test_matches_bruteforce(self, monkeypatch, n_q, n_b, L, k, tile):
        if tile is not None:
            shrink_kernel(monkeypatch, tile)
        rng = np.random.default_rng(n_q * n_b)
        Zq, Zb = random_codes(rng, n_q, L), random_codes(rng, n_b, L)
        ids, ds = hamming_topk(pack_bits(Zq), pack_bits(Zb), k)
        rid, rd = ref_topk(Zq, Zb, min(k, n_b))
        assert np.array_equal(ids, rid)
        assert np.array_equal(ds, rd)

    def test_tile_size_invariance(self):
        rng = np.random.default_rng(0)
        Q = pack_bits(random_codes(rng, 9, 48))
        B = pack_bits(random_codes(rng, 700, 48))
        ref = hamming_topk(Q, B, 15)  # default sizes: one step
        for tile in (1, 3, 64, 256):
            with pytest.MonkeyPatch.context() as mp:
                shrink_kernel(mp, tile)
                ids, ds = hamming_topk(Q, B, 15)
            assert np.array_equal(ids, ref[0]) and np.array_equal(ds, ref[1])

    def test_ties_break_by_ascending_id(self):
        # Heavy duplication: every distance value ties across 40 copies.
        rng = np.random.default_rng(1)
        Zb = np.repeat(random_codes(rng, 50, 32), 40, axis=0)
        Zq = random_codes(rng, 9, 32)
        ids, ds = hamming_topk(pack_bits(Zq), pack_bits(Zb), 25)
        rid, rd = ref_topk(Zq, Zb, 25)
        assert np.array_equal(ids, rid)
        assert np.array_equal(ds, rd)

    @pytest.mark.parametrize("tile", [None, 8])
    def test_duplicate_runs_cut_exactly(self, monkeypatch, tile):
        # One code repeated: every row ties at every query's kth, so each
        # step is cut at the radius and only the lowest tying ids enter.
        if tile is not None:
            shrink_kernel(monkeypatch, tile, pane_tiles=512)
        rng = np.random.default_rng(14)
        Zb = np.repeat(random_codes(rng, 1, 32), 900, axis=0)
        Zb[450] ^= 1  # one strictly worse row in the middle
        Zq = random_codes(rng, 3, 32)
        ids, ds = hamming_topk(pack_bits(Zq), pack_bits(Zb), 5)
        rid, rd = ref_topk(Zq, Zb, 5)
        assert np.array_equal(ids, rid) and np.array_equal(ds, rd)

    def test_adversarial_descending_distances(self, monkeypatch):
        # Base sorted worst-to-best: every step improves every query,
        # so every step takes the radius cut.
        shrink_kernel(monkeypatch, 64)
        Zq = np.zeros((4, 64), dtype=np.uint8)
        Zb = np.zeros((2000, 64), dtype=np.uint8)
        for i in range(2000):
            Zb[i, : 64 - (i * 64 // 2000)] = 1
        ids, ds = hamming_topk(pack_bits(Zq), pack_bits(Zb), 10)
        rid, rd = ref_topk(Zq, Zb, 10)
        assert np.array_equal(ids, rid)
        assert np.array_equal(ds, rd)

    def test_offset_shifts_ids(self, monkeypatch):
        shrink_kernel(monkeypatch, 4)
        rng = np.random.default_rng(2)
        Q = pack_bits(random_codes(rng, 3, 16))
        B = pack_bits(random_codes(rng, 64, 16))
        base_ids, base_ds = hamming_topk(Q, B, 5)
        off_ids, off_ds = hamming_topk(Q, B, 5, offset=1000)
        assert np.array_equal(off_ids, base_ids + 1000)
        assert np.array_equal(off_ds, base_ds)

    def test_rejects_bad_inputs(self):
        Q = np.zeros((2, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            hamming_topk(Q, np.zeros((4, 2), dtype=np.uint64), 1)
        with pytest.raises(ValueError):
            hamming_topk(Q, Q, 0)
        with pytest.raises(ValueError):
            hamming_topk(np.zeros((2, 1024), dtype=np.uint64),
                         np.zeros((2, 1024), dtype=np.uint64), 1)


class TestMergeTopk:
    def test_associative_over_partitions(self, monkeypatch):
        shrink_kernel(monkeypatch, 16)
        rng = np.random.default_rng(3)
        Zq, Zb = random_codes(rng, 6, 24), random_codes(rng, 501, 24)
        Q, B = pack_bits(Zq), pack_bits(Zb)
        k = 17
        flat = hamming_topk(Q, B, k)
        for cuts in ([250], [100, 300], [1, 2, 3, 500]):
            bounds = [0, *cuts, len(Zb)]
            parts = [
                hamming_topk(Q, B[lo:hi], k, offset=lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            ids, ds = merge_topk(parts, k)
            assert np.array_equal(ids, flat[0])
            assert np.array_equal(ds, flat[1])

    def test_narrow_parts(self):
        # A shard smaller than k contributes a narrow result pane.
        rng = np.random.default_rng(4)
        Zq, Zb = random_codes(rng, 3, 16), random_codes(rng, 20, 16)
        Q, B = pack_bits(Zq), pack_bits(Zb)
        parts = [
            hamming_topk(Q, B[:2], 8, offset=0),
            hamming_topk(Q, B[2:], 8, offset=2),
        ]
        ids, ds = merge_topk(parts, 8)
        flat = hamming_topk(Q, B, 8)
        assert np.array_equal(ids, flat[0]) and np.array_equal(ds, flat[1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_topk([], 3)


class TestHammingIndex:
    def test_search_matches_bruteforce(self, monkeypatch):
        shrink_kernel(monkeypatch, 16)
        rng = np.random.default_rng(5)
        Zq, Zb = random_codes(rng, 8, 40), random_codes(rng, 300, 40)
        index = HammingIndex.from_codes(pack_bits(Zb), 40)
        ids, ds = index.search(pack_bits(Zq), 12)
        rid, rd = ref_topk(Zq, Zb, 12)
        assert np.array_equal(ids, rid) and np.array_equal(ds, rd)

    def test_accepts_raw_bits(self):
        rng = np.random.default_rng(6)
        Zb = random_codes(rng, 50, 20)
        index = HammingIndex.from_codes(Zb, 20)
        ids_bits, ds_bits = index.search(Zb[:3], 4)
        ids_packed, ds_packed = index.search(pack_bits(Zb[:3]), 4)
        assert np.array_equal(ids_bits, ids_packed)
        assert np.array_equal(ds_bits, ds_packed)

    def test_incremental_add_equals_rebuild(self, monkeypatch):
        shrink_kernel(monkeypatch, 32)
        rng = np.random.default_rng(7)
        Zq, Zb = random_codes(rng, 5, 32), random_codes(rng, 400, 32)
        whole = HammingIndex.from_codes(pack_bits(Zb), 32)
        grown = HammingIndex(32)
        for lo in range(0, 400, 37):  # uneven increments
            ids = grown.add(pack_bits(Zb[lo : lo + 37]))
            assert ids[0] == lo
        assert grown.n == whole.n
        q = pack_bits(Zq)
        a, b = grown.search(q, 19), whole.search(q, 19)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_codes_view_is_read_only(self):
        Zb = random_codes(np.random.default_rng(8), 10, 16)
        index = HammingIndex.from_codes(pack_bits(Zb), 16)
        assert np.array_equal(index.codes, pack_bits(Zb))
        with pytest.raises(ValueError):
            index.codes[0, 0] = 0  # read-only view

    @staticmethod
    def scan_peak(index, queries, k):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index.search(queries, k)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_q", [1, 64, 1000])
    def test_memory_bound_holds_and_ignores_index_size(self, n_q):
        # The documented contract: scan scratch is bounded by
        # memory_bound(), tightly, and does not grow with the number of codes.
        rng = np.random.default_rng(n_q)
        codes = rng.integers(0, 2**63, size=(400_000, 1), dtype=np.uint64)
        queries = rng.integers(0, 2**63, size=(n_q, 1), dtype=np.uint64)
        peaks = []
        for n in (50_000, 400_000):
            index = HammingIndex.from_codes(codes[:n], 64)
            peaks.append(self.scan_peak(index, queries, 10))
            assert index.memory_bound(n_q, 10) / 2 <= peaks[-1] <= index.memory_bound(n_q, 10)
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]

    @pytest.mark.parametrize("n_q,n", [(1, 400_000), (64, 50_000), (1000, 50_000)])
    def test_memory_bound_is_tight_where_the_merge_dominates(self, n_q, n):
        # At k = 1000 the per-query merge term is most of the bound, so a
        # bound that overstated it (say twice over) would fall below half
        # the measured peak at 64 and 1000 queries. One query needs rows
        # enough for a full cut (64 groups of k) to fill its bound.
        rng = np.random.default_rng(n_q)
        index = HammingIndex.from_codes(
            rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64), 64
        )
        queries = rng.integers(0, 2**63, size=(n_q, 1), dtype=np.uint64)
        peak = self.scan_peak(index, queries, 1000)
        assert index.memory_bound(n_q, 1000) / 2 <= peak <= index.memory_bound(n_q, 1000)

    def test_close_drops_the_codes_and_refuses_use(self):
        Zb = random_codes(np.random.default_rng(9), 10, 16)
        index = HammingIndex.from_codes(pack_bits(Zb), 16)
        index.close()
        index.close()  # idempotent
        assert index._buf is None
        for use in (
            lambda: index.search(pack_bits(Zb[:1]), 2),
            lambda: index.add(pack_bits(Zb[:3])),
            lambda: index.codes,
        ):
            with pytest.raises(RuntimeError, match="index is closed"):
                use()
        assert index.n == 10

    def test_errors(self):
        index = HammingIndex(16)
        with pytest.raises(ValueError):
            index.search(np.zeros((1, 1), dtype=np.uint64), 1)  # empty
        index.add(np.zeros((3, 16), dtype=np.uint8))
        with pytest.raises(ValueError):
            index.search(np.zeros((1, 1), dtype=np.uint64), 4)  # k > n
        with pytest.raises(ValueError):
            index.add(np.zeros((2, 17), dtype=np.uint8))  # wrong width
        with pytest.raises(ValueError):
            HammingIndex(0)


class TestShardedHammingIndex:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_thread_shards_exactly_equal_single(self, monkeypatch, n_shards):
        rng = np.random.default_rng(9)
        Zq, Zb = random_codes(rng, 11, 48), random_codes(rng, 1501, 48)
        q = pack_bits(Zq)
        flat = HammingIndex.from_codes(pack_bits(Zb), 48).search(q, 20)
        shrink_kernel(monkeypatch, 32)
        with ShardedHammingIndex(
            pack_bits(Zb), 48, n_shards, mode="thread"
        ) as sharded:
            ids, ds = sharded.search(q, 20)
        assert np.array_equal(ids, flat[0])
        assert np.array_equal(ds, flat[1])

    def test_thread_shards_tie_order(self, monkeypatch):
        # Duplicated codes across shard boundaries: the merge must keep
        # ascending-id tie order across shards, not just within one.
        rng = np.random.default_rng(10)
        Zb = np.repeat(random_codes(rng, 30, 16), 10, axis=0)
        Zq = random_codes(rng, 4, 16)
        q = pack_bits(Zq)
        flat = HammingIndex.from_codes(pack_bits(Zb), 16).search(q, 25)
        shrink_kernel(monkeypatch, 16)
        with ShardedHammingIndex(pack_bits(Zb), 16, 4, mode="thread") as s:
            ids, ds = s.search(q, 25)
        assert np.array_equal(ids, flat[0]) and np.array_equal(ds, flat[1])

    def test_process_shards_exactly_equal_single(self, monkeypatch):
        rng = np.random.default_rng(11)
        Zq, Zb = random_codes(rng, 6, 32), random_codes(rng, 901, 32)
        q = pack_bits(Zq)
        flat = HammingIndex.from_codes(pack_bits(Zb), 32).search(q, 15)
        shrink_kernel(monkeypatch, 32)  # forked workers inherit the sizes
        with ShardedHammingIndex(
            pack_bits(Zb), 32, 3, mode="process"
        ) as sharded:
            ids, ds = sharded.search(q, 15)
        assert np.array_equal(ids, flat[0])
        assert np.array_equal(ds, flat[1])

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_add_then_query_equals_rebuild(self, monkeypatch, mode):
        rng = np.random.default_rng(12)
        Zq, Zb = random_codes(rng, 5, 24), random_codes(rng, 600, 24)
        q = pack_bits(Zq)
        flat = HammingIndex.from_codes(pack_bits(Zb), 24).search(q, 11)
        shrink_kernel(monkeypatch, 25)
        with ShardedHammingIndex(
            pack_bits(Zb[:450]), 24, 3, mode=mode
        ) as sharded:
            ids = sharded.add(pack_bits(Zb[450:]))
            assert ids[0] == 450 and ids[-1] == 599
            got = sharded.search(q, 11)
        assert np.array_equal(got[0], flat[0])
        assert np.array_equal(got[1], flat[1])

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_zero_row_add_is_a_noop(self, mode):
        rng = np.random.default_rng(15)
        Zq, Zb = random_codes(rng, 4, 24), random_codes(rng, 90, 24)
        flat = HammingIndex.from_codes(pack_bits(Zb), 24).search(pack_bits(Zq), 7)
        with ShardedHammingIndex(pack_bits(Zb), 24, 2, mode=mode) as sharded:
            for _ in range(3):
                ids = sharded.add(np.empty((0, 1), dtype=np.uint64))
                assert ids.dtype == np.int64 and len(ids) == 0
            assert sharded.n == 90
            if mode == "thread":
                assert sharded._scanners[-1]._tail[2] == 0
            else:
                assert sharded._tail_blocks == []
            got = sharded.search(pack_bits(Zq), 7)
        assert np.array_equal(got[0], flat[0]) and np.array_equal(got[1], flat[1])

    def test_errors_and_close(self):
        Zb = random_codes(np.random.default_rng(13), 10, 16)
        with pytest.raises(ValueError):
            ShardedHammingIndex(pack_bits(Zb), 16, 11)  # more shards than rows
        with pytest.raises(ValueError):
            ShardedHammingIndex(pack_bits(Zb), 16, 2, mode="coroutine")
        sharded = ShardedHammingIndex(pack_bits(Zb), 16, 2)
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(RuntimeError):
            sharded.search(pack_bits(Zb[:1]), 2)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_add_after_close_raises(self, mode):
        Zb = random_codes(np.random.default_rng(16), 10, 16)
        sharded = ShardedHammingIndex(pack_bits(Zb), 16, 2, mode=mode)
        sharded.close()
        with pytest.raises(RuntimeError, match="index is closed"):
            sharded.add(pack_bits(Zb[:3]))
        assert sharded.n == 10 and sharded.shard_respawns == 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_shards_own_their_base(self, mode):
        # The caller reusing its array after construction must not move
        # a result: each thread shard scans its own copy, as a process
        # shard scans its own shm segment.
        rng = np.random.default_rng(17)
        base, q = pack_bits(random_codes(rng, 300, 32)), pack_bits(random_codes(rng, 3, 32))
        with ShardedHammingIndex(base, 32, 2, mode=mode) as sharded:
            before = sharded.search(q, 5)
            base[:] = 0
            after = sharded.search(q, 5)
        assert np.array_equal(after.ids, before.ids)
        assert np.array_equal(after.dists, before.dists)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_add_keeps_its_own_block(self, mode):
        # Each query's nearest row is added at distance 0; zeroing the
        # caller's block afterwards must leave those hits where they are.
        rng = np.random.default_rng(18)
        Zb, Zq = random_codes(rng, 200, 32), random_codes(rng, 3, 32)
        block = pack_bits(Zq)
        with ShardedHammingIndex(pack_bits(Zb), 32, 2, mode=mode) as sharded:
            added = sharded.add(block)
            block[:] = 0
            res = sharded.search(pack_bits(Zq), 1)
        assert np.array_equal(res.ids[:, 0], added)
        assert np.array_equal(res.dists[:, 0], np.zeros(3))


# ------------------------------------------------- generated kernel cases
def make_base(rng, kind, n_b, L):
    if kind == "random":
        return random_codes(rng, n_b, L)
    if kind == "ties":
        # Three codes at interleaved ids: a few nearest rows (the zero
        # code), a tying middle (the top bit) and the far upper half.
        # Every query (zero past its first quarter) ranks them in that
        # order, so unless k is below the few nearest, the radius lands
        # on the middle, whose ties cross every step boundary: only the
        # lowest ids at the radius may enter.
        Zb = np.zeros((n_b, L), dtype=np.uint8)
        which = rng.choice(3, size=n_b, p=[0.005, 0.6, 0.395])
        Zb[which == 1, L - 1] = 1
        Zb[which == 2, L // 2 :] = 1
        return Zb
    # Worst to best, so every step improves every query; "duplicates" in
    # a few long runs of one code each, so such a step is all ties.
    levels = n_b if kind == "sorted" else int(rng.integers(1, 5))
    Zb = np.zeros((n_b, L), dtype=np.uint8)
    for i in range(n_b):
        Zb[i, : L - (i * levels // n_b) * L // levels] = 1
    return Zb


@st.composite
def scan_cases(draw):
    tile = draw(st.sampled_from([1, 2, 5, 8]))
    kind = draw(st.sampled_from(["random", "duplicates", "sorted", "ties"]))
    xor_tiles = draw(st.sampled_from([1, 8, 64]))
    pane_tiles = draw(st.sampled_from([4, 32, 512]))
    n_q = draw(st.sampled_from([1, 2, 3, 64, 65, 300]))
    L = draw(st.sampled_from([7, 64, 65, 192, 254, 255, 256, 320]))
    # Sizes straddle the tile and pane boundaries; a duplicated or
    # tying base must span many steps to matter.
    n_b = {"duplicates": 1500, "ties": 400}.get(kind, 60 * tile)
    if not _NIGHTLY:
        # The default profile bounds a draw's distance matrix, its select
        # steps (at most two a row per query chunk) and its XOR calls
        # (about one per XOR scratch of query-row words): an n_q = 300
        # draw over a 4-element pane took ~32k steps. Nightly does not.
        words = (L + 63) // 64
        n_b = max(1, min(n_b, 6000 // n_q, 500 // -(-n_q // pane_tiles),
                         10_000 * xor_tiles * tile // (n_q * words)))
    return dict(
        tile=tile,
        xor_tiles=xor_tiles,
        pane_tiles=pane_tiles,
        n_q=n_q,
        n_b=draw(st.integers(1, n_b)),
        L=L,
        # Above a first segment, above a whole base.
        k=draw(st.integers(1, 90 if kind in ("random", "sorted") else 12)),
        kind=kind,
        native_popcount=draw(st.booleans()),
        n_segments=draw(st.integers(1, 60)),
        offset=draw(st.sampled_from([0, 1, 10**6])),
        seed=draw(st.integers(0, 2**31)),
    )


_NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"


def case_arrays(case):
    rng = np.random.default_rng(case["seed"])
    Zq = random_codes(rng, case["n_q"], case["L"])
    if case["kind"] != "random":
        Zq[:, case["L"] // 4:] = 0
    Zb = make_base(rng, case["kind"], case["n_b"], case["L"])
    return rng, Zq, Zb


def shrink_for_case(monkeypatch, case):
    shrink_kernel(monkeypatch, case["tile"], xor_tiles=case["xor_tiles"],
                  pane_tiles=case["pane_tiles"])
    monkeypatch.setattr(index_mod, "HAS_BITWISE_COUNT",
                        index_mod.HAS_BITWISE_COUNT and case["native_popcount"])


def sharded_with_adds(case, mode, n_shards, n_adds):
    """Search a sharded index built from a prefix of the case's base and
    grown by ``n_adds`` blocks (zero-row ones included); brute force beside it."""
    rng, Zq, Zb = case_arrays(case)
    n_b, k = case["n_b"], min(case["k"], case["n_b"])
    n_shards = min(n_shards, n_b)
    cuts = np.sort(rng.integers(n_shards, n_b + 1, size=n_adds))
    bounds = [*cuts, n_b] if n_adds else [n_b]
    B = pack_bits(Zb)
    with pytest.MonkeyPatch.context() as mp:
        shrink_for_case(mp, case)
        with ShardedHammingIndex(B[: bounds[0]], case["L"], n_shards, mode=mode) as sharded:
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                sharded.add(B[lo:hi])
            got = sharded.search(pack_bits(Zq), k)
    return got, ref_topk(Zq, Zb, k)


def kernel_case(**fields):
    case = dict(tile=8, xor_tiles=8, pane_tiles=32, n_q=2, n_b=1000, L=64, k=12,
                kind="random", native_popcount=True, n_segments=1, offset=0, seed=0)
    return {**case, **fields}


# Example budgets relative to the loaded hypothesis profile: 150 and 40 by
# default, ten times that under HYPOTHESIS_PROFILE=nightly.
_BUDGET = settings().max_examples


class TestKernelGenerated:
    @given(scan_cases())
    # Ties at the radius across step boundaries (128-row steps).
    @example(kernel_case(kind="ties"))
    @example(kernel_case(kind="ties", n_segments=7, offset=10**6, seed=1))
    # k at or above the rows of the first step (2-row steps).
    @example(kernel_case(tile=1, pane_tiles=4, n_b=50, L=7, k=9))
    @example(kernel_case(tile=1, pane_tiles=4, n_b=50, k=50, kind="ties"))
    # Multi-word codes in a uint16 pane over a wide distance range.
    @example(kernel_case(tile=5, n_q=3, n_b=400, L=320, k=20, kind="sorted"))
    @example(kernel_case(tile=5, n_q=65, n_b=300, L=255, k=7, kind="duplicates"))
    # The popcount fallback for NumPy < 2.0.
    @example(kernel_case(L=65, kind="duplicates", native_popcount=False))
    @example(kernel_case(n_q=3, L=320, kind="ties", native_popcount=False))
    @settings(max_examples=_BUDGET * 3 // 2, deadline=None)
    def test_segments_equal_flat_equal_bruteforce(self, case):
        rng, Zq, Zb = case_arrays(case)
        n_b, k = case["n_b"], case["k"]
        Q, B = pack_bits(Zq), pack_bits(Zb)
        # 1..60 id-ascending segments (1-row ones included), optional id gaps.
        cuts = np.unique(rng.integers(1, n_b, size=case["n_segments"] - 1)) if n_b > 1 else []
        bounds = [0, *cuts, n_b]
        gaps = rng.integers(0, 3, size=len(bounds) - 1).cumsum()
        segments = [
            (case["offset"] + lo + int(gap), B[lo:hi])
            for lo, hi, gap in zip(bounds[:-1], bounds[1:], gaps)
        ]
        ids = np.concatenate(
            [np.arange(off, off + len(codes), dtype=np.int64) for off, codes in segments]
        )
        want = ref_topk_ids(Q, B, ids, min(k, n_b))
        with pytest.MonkeyPatch.context() as mp:
            shrink_for_case(mp, case)
            got = index_mod._scan_segments(Q, segments, k)
            flat = hamming_topk(Q, B, k, offset=case["offset"])
        assert got[0].dtype == np.int64 and got[1].dtype == np.uint16
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # The same rows as one segment: same distances, same row order.
        assert np.array_equal(flat[1], want[1])
        assert np.array_equal(flat[0], np.searchsorted(ids, want[0]) + case["offset"])

    @given(scan_cases(), st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=_BUDGET * 2 // 5, deadline=None)
    def test_thread_shards_equal_bruteforce(self, case, n_shards, n_adds):
        got, want = sharded_with_adds(case, "thread", n_shards, n_adds)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind", ["random", "duplicates", "sorted", "ties"])
    @pytest.mark.parametrize("n_adds", [0, 4])
    def test_process_shards_equal_bruteforce(self, kind, n_adds):
        case = dict(tile=5, xor_tiles=8, pane_tiles=32, n_q=65, n_b=700, L=65,
                    k=9, kind=kind, native_popcount=True, seed=n_adds)
        got, want = sharded_with_adds(case, "process", 3, n_adds)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_rejects_descending_or_overlapping_segments(self):
        Q = np.zeros((2, 1), dtype=np.uint64)
        B = np.zeros((4, 1), dtype=np.uint64)
        for segments in ([(4, B), (0, B)], [(0, B), (3, B)]):
            with pytest.raises(ValueError, match="id-ascending"):
                index_mod._scan_segments(Q, segments, 2)

    def test_shard_scan_enters_the_kernel_once(self, monkeypatch):
        rng = np.random.default_rng(16)
        Zq, Zb = random_codes(rng, 6, 32), random_codes(rng, 1300, 32)
        Q, B = pack_bits(Zq), pack_bits(Zb)
        scanner = index_mod._ShardScanner(B[:300], 7000)
        for lo in range(300, 1300, 20):  # 50 appended blocks
            scanner.append(B[lo : lo + 20])
        entries = []
        kernel = index_mod._scan_segments

        def counting(queries, segments, k):
            entries.append(len(segments))
            return kernel(queries, segments, k)

        def no_merge(*args):
            raise AssertionError("a shard scan must not call merge_topk")

        monkeypatch.setattr(index_mod, "_scan_segments", counting)
        monkeypatch.setattr(index_mod, "merge_topk", no_merge)
        ids, ds = scanner.scan(Q, 12)
        assert entries == [2]  # the shard's slice and its one tail buffer
        rid, rd = ref_topk(Zq, Zb, 12)
        assert np.array_equal(ids, rid + 7000) and np.array_equal(ds, rd)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_tail_stays_one_segment(self, monkeypatch, mode):
        """300 add blocks later a shard scan still reads at most two
        segments — its slice and one tail buffer — and the sharded search
        equals a flat scan."""
        rng = np.random.default_rng(17)
        Zq, Zb = random_codes(rng, 5, 40), random_codes(rng, 1500, 40)
        Q, B = pack_bits(Zq), pack_bits(Zb)
        kernel = index_mod._scan_segments

        def at_most_two(queries, segments, k):
            if len(segments) > 2:
                raise AssertionError(f"a scan read {len(segments)} segments")
            return kernel(queries, segments, k)

        # Forked shard workers inherit the patch; their AssertionError
        # comes back as the search's RuntimeError.
        monkeypatch.setattr(index_mod, "_scan_segments", at_most_two)
        with ShardedHammingIndex(B[:300], 40, 2, mode=mode) as sharded:
            for lo in range(300, 1500, 4):  # 300 blocks
                sharded.add(B[lo : lo + 4])
            got = sharded.search(Q, 13)
        want = hamming_topk(Q, B, 13)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_append_racing_a_scan_is_seen_whole_or_not_at_all(self, monkeypatch):
        """A scan that runs inside an append — its rows already written,
        in place or into a grown buffer, but not yet published — sees none
        of them; once the append returns, the next scan sees all."""
        rng = np.random.default_rng(18)
        Zq, Zb = random_codes(rng, 4, 64), random_codes(rng, 4000, 64)
        Q, B = pack_bits(Zq), pack_bits(Zb)
        scanner = index_mod._ShardScanner(B[:1000], 0)
        append_rows, mid = index_mod._append_rows, []

        def scan_midway(buf, n, rows):
            grown = append_rows(buf, n, rows)
            mid.append(scanner.scan(Q, 20))
            return grown

        monkeypatch.setattr(index_mod, "_append_rows", scan_midway)
        end = 1000
        # A first buffer of 1024 rows, filled exactly in place, then grown
        # twice (to 2048 and 4096 rows) and written in place in between.
        for size in (10, 1014, 1, 500, 530, 945):
            scanner.append(B[end : end + size])
            before = hamming_topk(Q, B[:end], 20)
            assert np.array_equal(mid[-1][0], before[0]) and np.array_equal(mid[-1][1], before[1])
            end += size
            after = hamming_topk(Q, B[:end], 20)
            got = scanner.scan(Q, 20)
            assert np.array_equal(got[0], after[0]) and np.array_equal(got[1], after[1])
        assert scanner._tail[1].shape[0] == 4096
