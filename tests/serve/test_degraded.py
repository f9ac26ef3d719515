"""Graceful degradation of the serving plane.

A retrieval service must prefer a *flagged partial* answer over a stalled
or failed one: a shard worker that dies (or misses its scan deadline)
costs coverage for one search, never the request — and the index heals
itself by respawning the worker from the retained shard descriptors, so
the very next search is exact again.

Exactness discipline carries over from ``test_index``: a partial result
must still be the *exact* top-k over the shards that did answer, and a
recovered index must be bit-identical to a never-degraded one.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.serve.index as index_mod
from repro.retrieval.hamming import hamming_cdist, pack_bits
from repro.serve import HammingIndex, ShardedHammingIndex
from repro.serve.index import ScanResult
from repro.serve.service import Overloaded, RetrievalService, ServiceClosed
from tests.serve.test_service import GatedModel

N_BITS = 32
K = 10


def random_codes(rng, n, L=N_BITS):
    return rng.integers(0, 2, size=(n, L)).astype(np.uint8)


def ref_topk_masked(Zq, Zb, k, dead_rows=()):
    """Brute-force (distance, id) top-k with ``dead_rows`` excluded."""
    D = hamming_cdist(pack_bits(Zq), pack_bits(Zb)).astype(np.int64)
    key = D * (len(Zb) + 1) + np.arange(len(Zb))
    if len(dead_rows):
        key[:, list(dead_rows)] = np.iinfo(np.int64).max
    order = np.argsort(key, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(Zq))[:, None]
    return order, D[rows, order].astype(np.uint16)


@pytest.fixture()
def problem():
    rng = np.random.default_rng(7)
    Zb = random_codes(rng, 600)
    Zq = random_codes(rng, 8)
    return pack_bits(Zb), pack_bits(Zq), Zb, Zq


def kill_shard(idx, rank):
    proc = idx._workers.procs[rank]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5.0)


class TestScanResult:
    def test_tuple_compatible(self, problem):
        """Every existing ``ids, dists = index.search(...)`` call keeps
        working: ScanResult *is* the 2-tuple, with metadata riding on
        attributes."""
        packed, Q, Zb, Zq = problem
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="thread")
        res = idx.search(Q, K)
        assert isinstance(res, ScanResult)
        ids, dists = res
        assert ids is res.ids and dists is res.dists
        assert res.partial is False
        assert res.coverage == 1.0
        assert res.shards_missed == ()
        rid, rd = ref_topk_masked(Zq, Zb, K)
        assert np.array_equal(ids, rid) and np.array_equal(dists, rd)

    def test_scan_timeout_validation(self, problem):
        packed, *_ = problem
        with pytest.raises(ValueError, match="scan_timeout_s"):
            ShardedHammingIndex(packed, N_BITS, 2, scan_timeout_s=-1.0)


class TestShardDeath:
    def test_killed_shard_yields_partial_then_respawn_restores_exact(
        self, problem
    ):
        """The serve acceptance path: SIGKILL a shard worker; the next
        search returns a *flagged* partial that is exact over the
        surviving shards, the worker is respawned from the retained
        descriptors, and the search after that is full-coverage exact."""
        packed, Q, Zb, Zq = problem
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="process", scan_timeout_s=5.0
        )
        try:
            full = idx.search(Q, K)
            assert not full.partial and idx.shard_respawns == 0

            kill_shard(idx, 1)
            t0 = time.monotonic()
            res = idx.search(Q, K)
            assert time.monotonic() - t0 < 5.0 + 2.0
            assert res.partial is True
            assert res.shards_missed == (1,)
            assert 0.0 < res.coverage < 1.0
            lo = idx._offsets[1]
            hi = lo + idx._shard_rows[1]
            assert res.coverage == (idx.n - (hi - lo)) / idx.n
            # Exact over the shards that answered: the dead shard's id
            # range is simply absent, never wrong.
            rid, rd = ref_topk_masked(Zq, Zb, K, dead_rows=range(lo, hi))
            assert np.array_equal(res.ids, rid)
            assert np.array_equal(res.dists, rd)

            # Healed: full coverage, bit-identical to the pre-kill scan.
            assert idx.shard_respawns == 1
            again = idx.search(Q, K)
            assert again.partial is False and again.coverage == 1.0
            assert np.array_equal(again.ids, full.ids)
            assert np.array_equal(again.dists, full.dists)
        finally:
            idx.close()

    def test_streamed_blocks_survive_respawn(self, problem):
        """The tail shard's streamed ``add`` blocks are replayed into the
        respawned worker — recovery restores *ingest history*, not just
        the construction-time shard."""
        packed, Q, Zb, Zq = problem
        rng = np.random.default_rng(11)
        Z_new = random_codes(rng, 40)
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="process", scan_timeout_s=5.0
        )
        try:
            ids = idx.add(pack_bits(Z_new))
            assert list(ids) == list(range(len(Zb), len(Zb) + 40))
            tail = len(idx._workers.procs) - 1
            kill_shard(idx, tail)
            res = idx.search(Q, K)
            assert res.partial is True and tail in res.shards_missed
            assert idx.shard_respawns == 1
            healed = idx.search(Q, K)
            assert healed.partial is False
            rid, rd = ref_topk_masked(Zq, np.concatenate([Zb, Z_new]), K)
            assert np.array_equal(healed.ids, rid)
            assert np.array_equal(healed.dists, rd)
        finally:
            idx.close()


def assert_flags_match_coverage(idx, res):
    """What must hold of any result, whichever side of a deadline race
    won: partial iff some shard missed, coverage == the row share of the
    shards that answered."""
    assert res.partial is bool(res.shards_missed)
    covered = idx.n - sum(idx._shard_rows[r] for r in res.shards_missed)
    assert res.coverage == covered / idx.n


class TestScanDeadline:
    def check_zero_deadline(self, problem, mode):
        packed, Q, *_ = problem
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode=mode, scan_timeout_s=0.0)
        try:
            res = idx.search(Q, K)
            assert_flags_match_coverage(idx, res)
            assert res.ids.shape[0] == len(Q)
            return idx, res
        finally:
            idx.close()

    def test_zero_deadline_flags_partial_process(self, problem):
        """``scan_timeout_s=0`` races the workers: a fast shard may still
        land (put -> scan -> send can beat the poll), a slow one is
        dropped. Either way the result's flags must describe exactly
        what was merged — nothing here depends on who wins."""
        idx, res = self.check_zero_deadline(problem, "process")
        assert idx.shard_respawns == len(res.shards_missed)

    def test_zero_deadline_flags_partial_thread(self, problem):
        """Thread mode has no process to respawn, but the deadline and
        the partial flag behave identically."""
        idx, _ = self.check_zero_deadline(problem, "thread")
        assert idx.shard_respawns == 0

    def test_stopped_worker_misses_deadline_process(self, problem):
        """A forced miss: SIGSTOP one shard worker, so it cannot answer
        however long the (generous) deadline. The search must flag that
        rank, and respawn it without waiting on the wedged process —
        SIGTERM stays pending on a stopped process, so the respawn has
        to SIGKILL or it burns the full 5 s join."""
        packed, Q, Zb, Zq = problem
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="process", scan_timeout_s=1.5
        )
        wedged = idx._workers.procs[1]
        try:
            os.kill(wedged.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            res = idx.search(Q, K)
            elapsed = time.monotonic() - t0
            assert res.partial is True
            assert res.shards_missed == (1,)
            assert_flags_match_coverage(idx, res)
            assert idx.shard_respawns == 1
            assert elapsed < 4.0, f"respawn waited on the stopped worker ({elapsed:.1f}s)"
            assert not wedged.is_alive()
            lo, n = idx._offsets[1], idx._shard_rows[1]
            rid, rd = ref_topk_masked(Zq, Zb, K, dead_rows=range(lo, lo + n))
            assert np.array_equal(res.ids, rid) and np.array_equal(res.dists, rd)
            # Healed by the respawn: the next search is full coverage.
            again = idx.search(Q, K)
            assert again.partial is False and again.coverage == 1.0
        finally:
            if wedged.is_alive():
                os.kill(wedged.pid, signal.SIGCONT)
            procs = list(idx._workers.procs.values())
            idx.close()
            wedged.join(timeout=5.0)
        assert not wedged.is_alive()
        assert not any(p.is_alive() for p in procs)

    def test_blocked_scanner_misses_deadline_thread(self, problem):
        """Thread mode's forced miss: one scanner blocks on an event the
        test holds. Its shard is dropped and flagged; there is no
        process to respawn; once released, the next search is whole."""
        import threading

        packed, Q, Zb, Zq = problem
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="thread", scan_timeout_s=1.0
        )
        release = threading.Event()
        real_scan = idx._scanners[2].scan

        def blocked_scan(queries, k):
            release.wait(timeout=30.0)
            return real_scan(queries, k)

        idx._scanners[2].scan = blocked_scan
        try:
            res = idx.search(Q, K)
            assert res.partial is True
            assert res.shards_missed == (2,)
            assert_flags_match_coverage(idx, res)
            assert idx.shard_respawns == 0
            lo, n = idx._offsets[2], idx._shard_rows[2]
            rid, rd = ref_topk_masked(Zq, Zb, K, dead_rows=range(lo, lo + n))
            assert np.array_equal(res.ids, rid) and np.array_equal(res.dists, rd)
        finally:
            release.set()
            idx._scanners[2].scan = real_scan
            idx.close()

    def test_no_deadline_is_exhaustive(self, problem):
        """Default (no scan_timeout_s): identical to the unsharded scan,
        never partial."""
        packed, Q, Zb, Zq = problem
        flat = HammingIndex.from_codes(packed, N_BITS)
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process")
        try:
            fi, fd = flat.search(Q, K)
            res = idx.search(Q, K)
            assert res.partial is False
            assert np.array_equal(res.ids, fi)
            assert np.array_equal(res.dists, fd)
        finally:
            idx.close()


#: A query that makes :class:`_PoisonedScan` shards fail.
POISON = pack_bits(np.ones((1, N_BITS), dtype=np.uint8))


class _PoisonedScan(index_mod._ShardProcess):
    """A shard worker that fails a scan of :data:`POISON`, except shard 0,
    which answers it late: its reply is still in flight when the error
    reaches the caller."""

    def scan(self, queries, k):
        if np.array_equal(queries, POISON):
            if self._scanner.blocks[0][0] > 0:
                raise ValueError("injected scan failure")
            time.sleep(0.3)
        return super().scan(queries, k)


class TestShardError:
    def test_error_raises_and_leaves_no_stale_reply(self, problem, monkeypatch):
        """A shard error is breakage, not degradation: ``search`` raises.
        The replies other shards were still sending to that search must
        not answer the next one, which equals a flat scan."""
        packed, Q, Zb, Zq = problem
        monkeypatch.setattr(index_mod, "_ShardProcess", _PoisonedScan)
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process")
        try:
            with pytest.raises(RuntimeError, match="injected scan failure"):
                idx.search(POISON, K)
            time.sleep(0.5)  # let a stale reply land, were one still owed
            res = idx.search(Q[:1], K)
            rid, rd = ref_topk_masked(Zq[:1], Zb, K)
            assert res.partial is False
            assert np.array_equal(res.ids, rid) and np.array_equal(res.dists, rd)
        finally:
            idx.close()


class _DyingAppend:
    """A shard worker whose ``append`` kills its process: a replacement
    that fails too."""

    def __init__(self, reply, desc, offset):
        self.handlers = {"append": lambda blocks: os._exit(3)}

    def close(self):
        pass


class _SlowAppend(index_mod._ShardProcess):
    """A shard worker whose ``append`` takes a second."""

    def append(self, blocks):
        time.sleep(1.0)
        return super().append(blocks)


class TestAddRecovery:
    """``add`` holds the scan's rules: a tail worker that dies or misses
    the deadline is respawned, and the replacement takes the block."""

    def check_healed(self, idx, problem, Z_new):
        packed, Q, Zb, Zq = problem
        res = idx.search(Q, K)
        assert res.partial is False and res.coverage == 1.0
        rebuilt = HammingIndex.from_codes(pack_bits(np.concatenate([Zb, Z_new])), N_BITS)
        want = rebuilt.search(Q, K)
        assert np.array_equal(res.ids, want[0]) and np.array_equal(res.dists, want[1])

    @pytest.mark.parametrize("scan_timeout_s", [None, 5.0])
    def test_add_to_killed_tail_respawns_it(self, problem, scan_timeout_s):
        """SIGKILL the tail, then ``add``: the tail is respawned with the
        blocks it had acknowledged, the new block lands on the
        replacement, and the next search equals a rebuild."""
        packed, Q, Zb, Zq = problem
        rng = np.random.default_rng(12)
        Z_old, Z_new = random_codes(rng, 30), random_codes(rng, 10)
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="process", scan_timeout_s=scan_timeout_s
        )
        try:
            idx.add(pack_bits(Z_old))
            kill_shard(idx, 2)
            ids = idx.add(pack_bits(Z_new))
            assert list(ids) == list(range(len(Zb) + 30, len(Zb) + 40))
            assert idx.shard_respawns == 1
            self.check_healed(idx, problem, np.concatenate([Z_old, Z_new]))
        finally:
            idx.close()

    def test_add_to_stopped_tail_meets_the_deadline(self, problem):
        """A SIGSTOPped tail cannot ack; ``add`` must not wait past the
        deadline for it (every search would stall behind the service's
        index lock), but SIGKILL it, respawn it and apply the block."""
        packed, Q, Zb, Zq = problem
        Z_new = random_codes(np.random.default_rng(13), 10)
        idx = ShardedHammingIndex(
            packed, N_BITS, 3, mode="process", scan_timeout_s=1.0
        )
        wedged = idx._workers.procs[2]
        try:
            os.kill(wedged.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            idx.add(pack_bits(Z_new))
            elapsed = time.monotonic() - t0
            assert elapsed < 4.0, f"add waited on the stopped tail ({elapsed:.1f}s)"
            assert not wedged.is_alive() and idx.shard_respawns == 1
            self.check_healed(idx, problem, Z_new)
        finally:
            if wedged.is_alive():
                os.kill(wedged.pid, signal.SIGCONT)
            idx.close()

    def test_failed_replacement_names_the_tail(self, problem, monkeypatch):
        """Only when the replacement fails too does ``add`` raise, naming
        the tail shard; the rows are not added, and the next search
        respawns the tail and equals a flat scan of the old rows."""
        packed, Q, Zb, Zq = problem
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process")
        try:
            kill_shard(idx, 2)
            monkeypatch.setattr(index_mod, "_ShardProcess", _DyingAppend)
            with pytest.raises(RuntimeError, match="tail shard 2"):
                idx.add(packed[:10])
            assert idx.n == len(packed)
            monkeypatch.undo()
            self.check_healed(idx, problem, Zb[:0])
        finally:
            idx.close()

    def test_slow_replacement_is_waited_for(self, problem, monkeypatch):
        """A replacement slower than the deadline is still fresh: its
        replay is waited for, never abandoned to a worker that goes on
        to hold rows the index did not add. Its late ack must not answer
        the next ``add``, which misses the deadline on the slow worker
        and heals the same way."""
        packed, Q, Zb, Zq = problem
        rng = np.random.default_rng(15)
        Z1, Z2 = random_codes(rng, 10), random_codes(rng, 10)
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process", scan_timeout_s=0.3)
        try:
            kill_shard(idx, 2)
            monkeypatch.setattr(index_mod, "_ShardProcess", _SlowAppend)
            assert list(idx.add(pack_bits(Z1))) == list(range(len(Zb), len(Zb) + 10))
            assert list(idx.add(pack_bits(Z2))) == list(range(len(Zb) + 10, len(Zb) + 20))
            assert idx.n == len(Zb) + 20 and idx.shard_respawns == 2
            monkeypatch.undo()
            idx.scan_timeout_s = None
            self.check_healed(idx, problem, np.concatenate([Z1, Z2]))
        finally:
            idx.close()

    def test_zero_deadline_add_and_search(self, problem):
        """``scan_timeout_s=0`` misses every worker: ``add`` still lands
        its block on a replacement and ``search`` returns a partial
        result instead of raising; with the deadline lifted the index
        equals a rebuild."""
        packed, Q, Zb, Zq = problem
        Z_new = random_codes(np.random.default_rng(16), 10)
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process", scan_timeout_s=0)
        try:
            assert list(idx.add(pack_bits(Z_new))) == list(range(len(Zb), len(Zb) + 10))
            assert isinstance(idx.search(Q, K), ScanResult)
            idx.scan_timeout_s = None
            self.check_healed(idx, problem, Z_new)
        finally:
            idx.close()

    def test_blocked_feeder_ends_although_a_later_worker_forked(self, problem):
        """The command-queue feeder blocked writing a big block to a dead
        tail must end when the tail is killed, also when a worker forked
        after the tail's queue was made (a respawned shard 0) inherited
        that queue's read end."""
        packed, Q, *_ = problem
        idx = ShardedHammingIndex(packed, N_BITS, 3, mode="process")
        try:
            idx.search(Q, K)
            kill_shard(idx, 0)
            assert idx.search(Q, K).partial  # respawns shard 0
            kill_shard(idx, 2)
            tail_q = idx._workers._cmd_qs[2]
            rng = np.random.default_rng(14)
            idx.add(rng.integers(0, 2**32, size=(200_000, 1), dtype=np.uint64))
            tail_q._thread.join(timeout=5.0)
            assert not tail_q._thread.is_alive()
        finally:
            idx.close()

    def test_interpreter_exits_after_add_to_dead_tail(self):
        """An ``add`` block bigger than the pipe buffer, sent to a dead
        tail, blocks the command queue's feeder thread on a pipe nobody
        reads; unless the index lets go of that queue, the interpreter's
        exit handler joins the feeder forever. The add must succeed on a
        replacement, and after ``close`` no feeder may be left."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", EXIT_AFTER_ADD_TO_DEAD_TAIL],
            env=env, timeout=30, capture_output=True, text=True,
        )
        assert done.returncode == 7, done.stderr
        assert "Traceback" not in done.stderr


#: Exits 7 when the add went through, the close left no queue feeder
#: behind, and ``main`` returned.
EXIT_AFTER_ADD_TO_DEAD_TAIL = """
import os, signal, sys, threading, time
import numpy as np
from repro.serve import ShardedHammingIndex

def main():
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 2**63, size=(600, 1), dtype=np.uint64)
    idx = ShardedHammingIndex(codes, 64, 3, mode="process")
    tail = idx._workers.procs[2]
    os.kill(tail.pid, signal.SIGKILL)
    tail.join(timeout=5.0)
    block = rng.integers(0, 2**63, size=(200_000, 1), dtype=np.uint64)
    ids = idx.add(block)
    if ids[0] != 600 or len(ids) != 200_000:
        return 1
    idx.close()
    deadline = time.monotonic() + 5.0
    while any(t.name == "QueueFeederThread" for t in threading.enumerate()):
        if time.monotonic() > deadline:
            return 8
        time.sleep(0.05)
    return 7

sys.exit(main())
"""


# ------------------------------------------------------------------ service
class _HashModel:
    """Deterministic toy encoder: sign pattern of the first N_BITS dims."""

    compute_dtype = np.float64

    def encode(self, X):
        return (np.asarray(X)[:, :N_BITS] > 0).astype(np.uint8)


def make_service(n=400, **kwargs):
    rng = np.random.default_rng(3)
    X_base = rng.standard_normal((n, N_BITS))
    return RetrievalService.from_data(_HashModel(), X_base, k=5, **kwargs), rng


class TestServiceDegradation:
    def test_submit_after_close_raises_service_closed(self):
        svc, rng = make_service()
        svc.close()
        with pytest.raises(ServiceClosed, match="service is closed"):
            svc.submit(rng.standard_normal(N_BITS))
        # Still a RuntimeError for pre-existing guards.
        assert issubclass(ServiceClosed, RuntimeError)

    def test_admission_control_rejects_when_saturated(self):
        rng = np.random.default_rng(3)
        X_base = rng.standard_normal((200, N_BITS))
        model = GatedModel(_HashModel())
        svc = RetrievalService(
            model,
            HammingIndex.from_codes(
                pack_bits(_HashModel().encode(X_base)), N_BITS
            ),
            k=5,
            max_pending=2,
        )
        try:
            with model.held():
                t1 = model.hold_batcher(svc, rng.standard_normal(N_BITS))
                t2 = svc.submit(rng.standard_normal(N_BITS))
                with pytest.raises(Overloaded, match="max_pending=2"):
                    svc.submit(rng.standard_normal(N_BITS))
                assert svc.stats.snapshot()["n_rejected"] == 1
            t1.result(10.0)
            t2.result(10.0)
            svc.submit(rng.standard_normal(N_BITS)).result(10.0)  # room again
        finally:
            svc.close()

    def test_close_timeout_names_inflight_tickets(self):
        rng = np.random.default_rng(3)
        X_base = rng.standard_normal((200, N_BITS))
        model = GatedModel(_HashModel())
        svc = RetrievalService(
            model,
            HammingIndex.from_codes(
                pack_bits(_HashModel().encode(X_base)), N_BITS
            ),
            k=5,
        )
        with model.held():
            t = model.hold_batcher(svc, rng.standard_normal(N_BITS))
            with pytest.raises(TimeoutError, match=r"1 in-flight ticket"):
                svc.close(timeout=0.2)
        # The drain finishes; a retried close succeeds and is idempotent.
        t.result(10.0)
        svc.close()
        svc.close()

    def test_partial_scan_propagates_to_ticket_and_stats(self):
        svc, rng = make_service(
            n_shards=3, shard_mode="process", scan_timeout_s=5.0
        )
        try:
            q = rng.standard_normal(N_BITS)
            t = svc.submit(q)
            t.result(10.0)
            assert t.partial is False and t.coverage == 1.0

            kill_shard(svc.index, 0)
            t = svc.submit(q)
            ids, dists = t.result(30.0)
            assert t.partial is True
            assert 0.0 < t.coverage < 1.0
            assert ids.shape == (5,)
            snap = svc.stats.snapshot()
            assert snap["n_partial"] == 1

            # The index self-healed under the service: next query is full.
            t = svc.submit(q)
            t.result(30.0)
            assert t.partial is False and t.coverage == 1.0
        finally:
            svc.close()
