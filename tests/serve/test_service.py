"""RetrievalService: batching must change how fast, never what.

The fixture model is a deterministic sign-of-projection hash, so every
test can compute a brute-force per-query reference and require exact
equality against whatever batches the service happened to form.
"""

import threading
from contextlib import contextmanager

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.retrieval.hamming import hamming_cdist, pack_bits
from repro.serve import HammingIndex, RetrievalService, ShardedHammingIndex


class SignHashModel:
    """Deterministic stand-in for a trained hash: sign of a projection."""

    def __init__(self, D, L, seed=0, compute_dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.W = rng.standard_normal((D, L))
        self.compute_dtype = compute_dtype
        self.encode_calls = 0

    def encode(self, X):
        self.encode_calls += 1
        return (np.asarray(X) @ self.W.astype(np.asarray(X).dtype) > 0).astype(
            np.uint8
        )


class ExplodingModel(SignHashModel):
    """Raises on demand, to test per-batch error propagation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.explode = False

    def encode(self, X):
        if self.explode:
            raise RuntimeError("encoder fault injected")
        return super().encode(X)


class PrefixHashModel(SignHashModel):
    """Encodes a query's first D entries: a longer query encodes like its
    prefix, a shorter one raises in the projection."""

    def encode(self, X):
        return super().encode(np.asarray(X)[:, : self.W.shape[0]])


class GatedModel:
    """Wraps a hash model so a test can hold the batcher inside ``encode``.

    While :meth:`held`, ``encode`` sets ``entered`` and blocks until the
    hold ends, so every request submitted meanwhile queues behind that
    batch, deterministically. ``sizes`` lists the rows of each ``encode``
    call since the hold began.
    """

    def __init__(self, model):
        self.model = model
        self.compute_dtype = model.compute_dtype
        self.entered = threading.Event()
        self.sizes = []
        self._gate = threading.Event()
        self._gate.set()

    def encode(self, X):
        self.sizes.append(len(X))
        self.entered.set()
        if not self._gate.wait(timeout=30.0):
            raise TimeoutError("the test never released the gate")
        return self.model.encode(X)

    @contextmanager
    def held(self):
        self.entered.clear()
        self.sizes.clear()
        self._gate.clear()
        try:
            yield
        finally:
            self._gate.set()

    def hold_batcher(self, svc, x):
        """Submit ``x`` and return its ticket once the batcher is held
        inside its encode (call within :meth:`held`)."""
        ticket = svc.submit(x)
        assert self.entered.wait(timeout=10.0), "the batcher never took the request"
        return ticket


def ref_results(model, X_base, x, k):
    """Brute-force (distance, id) top-k for one query against X_base."""
    Zb = model.encode(X_base)
    Zq = model.encode(x[None, :])
    D = hamming_cdist(pack_bits(Zq), pack_bits(Zb))[0]
    key = D.astype(np.int64) * (len(Zb) + 1) + np.arange(len(Zb))
    order = np.argsort(key)[:k]
    return order, D[order]


@pytest.fixture
def setup():
    rng = np.random.default_rng(42)
    D, L, n_base = 24, 32, 400
    model = SignHashModel(D, L, seed=1)
    X_base = rng.standard_normal((n_base, D))
    X_query = rng.standard_normal((50, D))
    return model, X_base, X_query


class TestRetrievalService:
    def test_single_query_matches_bruteforce(self, setup):
        model, X_base, X_query = setup
        with RetrievalService.from_data(model, X_base, k=7, max_wait_ms=0.1) as svc:
            for x in X_query[:5]:
                ids, dists = svc.query(x)
                rid, rd = ref_results(model, X_base, x, 7)
                assert np.array_equal(ids, rid)
                assert np.array_equal(dists, rd)

    def test_concurrent_submits_coalesce_and_stay_exact(self, setup):
        # While one batch is held in its encode, 49 threads submit: they
        # queue into batches of at most max_batch, and each per-query
        # answer must still equal the solo brute-force result.
        base_model, X_base, X_query = setup
        model = GatedModel(base_model)
        with RetrievalService.from_data(model, X_base, k=5, max_batch=16) as svc:
            tickets = [None] * len(X_query)
            with model.held():
                tickets[0] = model.hold_batcher(svc, X_query[0])

                def submitter(i):
                    tickets[i] = svc.submit(X_query[i])

                threads = [
                    threading.Thread(target=submitter, args=(i,))
                    for i in range(1, len(X_query))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            results = [t.result(timeout=30.0) for t in tickets]
            snap = svc.stats.snapshot()
        assert model.sizes == [1, 16, 16, 16, 1]
        assert snap["n_queries"] == len(X_query)
        assert snap["n_batches"] == 5
        assert snap["max_batch"] == 16
        for i, (ids, dists) in enumerate(results):
            rid, rd = ref_results(base_model, X_base, X_query[i], 5)
            assert np.array_equal(ids, rid)
            assert np.array_equal(dists, rd)

    def test_idle_service_does_not_wait(self, setup):
        # A lone request on an idle service is served on arrival; the
        # max_wait_ms keyword is accepted and has no effect.
        model, X_base, X_query = setup
        with RetrievalService.from_data(
            model, X_base, k=5, max_wait_ms=60_000
        ) as svc:
            for x in X_query[:3]:
                ids, dists = svc.submit(x).result(timeout=10.0)
                rid, rd = ref_results(model, X_base, x, 5)
                assert np.array_equal(ids, rid)
                assert np.array_equal(dists, rd)

    def test_per_request_k_is_exact_prefix(self, setup):
        model, X_base, X_query = setup
        with RetrievalService.from_data(
            model, X_base, k=4, max_wait_ms=5.0, max_batch=8
        ) as svc:
            tickets = [
                svc.submit(X_query[i], k=[2, 9, 1, 6][i % 4]) for i in range(8)
            ]
            for i, t in enumerate(tickets):
                k = [2, 9, 1, 6][i % 4]
                ids, dists = t.result(timeout=30.0)
                assert len(ids) == len(dists) == k
                rid, rd = ref_results(model, X_base, X_query[i], k)
                assert np.array_equal(ids, rid)
                assert np.array_equal(dists, rd)

    def test_mixed_k_shares_one_scan(self, setup):
        # Eight requests of one length with different k queue behind a
        # held batch, share one encode and one scan at max(k), and each
        # answer is its exact first-k prefix.
        base_model, X_base, X_query = setup
        model = GatedModel(base_model)
        ks = [2, 9, 1, 6] * 2
        with RetrievalService.from_data(model, X_base, k=4, max_batch=8) as svc:
            with model.held():
                model.hold_batcher(svc, X_query[0])
                tickets = [
                    svc.submit(X_query[i + 1], k=k) for i, k in enumerate(ks)
                ]
            for i, (t, k) in enumerate(zip(tickets, ks)):
                ids, dists = t.result(timeout=10.0)
                assert len(ids) == len(dists) == k
                rid, rd = ref_results(base_model, X_base, X_query[i + 1], k)
                assert np.array_equal(ids, rid)
                assert np.array_equal(dists, rd)
        assert model.sizes == [1, 8]

    def test_sharded_service_matches_flat(self, setup):
        model, X_base, X_query = setup
        with RetrievalService.from_data(model, X_base, k=6, max_wait_ms=0.1) as flat:
            expected = [flat.query(x) for x in X_query[:10]]
        with RetrievalService.from_data(
            model, X_base, n_shards=3, shard_mode="thread", k=6, max_wait_ms=0.1
        ) as sharded:
            assert isinstance(sharded.index, ShardedHammingIndex)
            for x, (eids, eds) in zip(X_query[:10], expected):
                ids, dists = sharded.query(x)
                assert np.array_equal(ids, eids)
                assert np.array_equal(dists, eds)

    def test_add_through_service(self, setup):
        model, X_base, X_query = setup
        X_extra = np.random.default_rng(7).standard_normal((60, X_base.shape[1]))
        with RetrievalService.from_data(model, X_base, k=5, max_wait_ms=0.1) as svc:
            ids = svc.add(X_extra)
            assert ids[0] == len(X_base) and len(ids) == len(X_extra)
            full = np.concatenate([X_base, X_extra])
            for x in X_query[:5]:
                got_ids, got_ds = svc.query(x)
                rid, rd = ref_results(model, full, x, 5)
                assert np.array_equal(got_ids, rid)
                assert np.array_equal(got_ds, rd)

    def test_error_propagates_then_service_recovers(self, setup):
        _, X_base, X_query = setup
        model = ExplodingModel(X_base.shape[1], 32, seed=1)
        with RetrievalService.from_data(model, X_base, k=3, max_wait_ms=0.1) as svc:
            model.explode = True
            ticket = svc.submit(X_query[0])
            with pytest.raises(RuntimeError, match="encoder fault"):
                ticket.result(timeout=30.0)
            model.explode = False  # next batch is a fresh one
            ids, dists = svc.query(X_query[1])
            rid, rd = ref_results(model, X_base, X_query[1], 3)
            assert np.array_equal(ids, rid) and np.array_equal(dists, rd)

    def test_submit_validation(self, setup):
        model, X_base, X_query = setup
        with RetrievalService.from_data(model, X_base) as svc:
            with pytest.raises(ValueError):
                svc.submit(X_query[:2])  # 2-d
            with pytest.raises(ValueError):
                svc.submit(X_query[0, 0])  # 0-d
            with pytest.raises(ValueError):
                svc.submit(X_query[0], k=0)
            with pytest.raises(ValueError):
                svc.submit(X_query[0], k=len(X_base) + 1)

    def test_constructor_validation(self, setup):
        model, X_base, _ = setup
        index = HammingIndex.from_codes(pack_bits(model.encode(X_base)), 32)
        with pytest.raises(ValueError):
            RetrievalService(model, index, k=0)
        with pytest.raises(ValueError):
            RetrievalService(model, index, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            RetrievalService(model, index, max_batch=0)
        with pytest.raises(TypeError):
            RetrievalService(model, np.zeros((3, 1), dtype=np.uint64))

    def test_close_drains_then_rejects(self, setup):
        base_model, X_base, X_query = setup
        model = GatedModel(base_model)
        svc = RetrievalService.from_data(model, X_base, k=3)
        with model.held():
            first = model.hold_batcher(svc, X_query[0])
            queued = svc.submit(X_query[1])  # waits behind the held batch
            with pytest.raises(TimeoutError, match=r"2 in-flight ticket"):
                svc.close(timeout=0.05)
            with pytest.raises(RuntimeError):
                svc.submit(X_query[2])
        svc.close()
        for i, ticket in enumerate((first, queued)):
            ids, dists = ticket.result(timeout=5.0)  # drained, not dropped
            rid, rd = ref_results(base_model, X_base, X_query[i], 3)
            assert np.array_equal(ids, rid) and np.array_equal(dists, rd)
        with pytest.raises(RuntimeError):
            svc.submit(X_query[1])
        svc.close()  # idempotent

    def test_ticket_timeout(self, setup):
        base_model, X_base, X_query = setup
        model = GatedModel(base_model)
        with RetrievalService.from_data(model, X_base, k=3) as svc:
            with model.held():
                ticket = model.hold_batcher(svc, X_query[0])
                with pytest.raises(TimeoutError):
                    ticket.result(timeout=0.01)
                assert not ticket.done()
            ids, dists = ticket.result(timeout=10.0)
            rid, rd = ref_results(base_model, X_base, X_query[0], 3)
            assert np.array_equal(ids, rid) and np.array_equal(dists, rd)

    def test_malformed_query_fails_only_its_own_ticket(self, setup):
        # Batch-mates are whoever queued behind the held scan: a query of
        # the wrong length must fail alone, and queries of two lengths
        # the model accepts are encoded per length, then scanned together.
        base, X_base, X_query = setup
        D = X_base.shape[1]
        model = GatedModel(PrefixHashModel(D, 32, seed=1))
        extra = np.ones(6)
        with RetrievalService.from_data(model, X_base, k=5) as svc:
            with model.held():
                model.hold_batcher(svc, X_query[0])
                good = [
                    (svc.submit(X_query[1], k=4), X_query[1], 4),
                    (svc.submit(np.concatenate([X_query[2], extra]), k=9),
                     X_query[2], 9),
                ]
                bad = svc.submit(X_query[3][: D - 1])
                good += [
                    (svc.submit(X_query[4], k=2), X_query[4], 2),
                    (svc.submit(np.concatenate([X_query[5], extra])),
                     X_query[5], 5),
                ]
            for ticket, x, k in good:
                ids, dists = ticket.result(timeout=10.0)
                rid, rd = ref_results(base, X_base, x, k)
                assert np.array_equal(ids, rid) and np.array_equal(dists, rd)
            with pytest.raises(ValueError):
                bad.result(timeout=10.0)
            # One encode per length in the mixed batch; the failed row is
            # not counted and its result never read.
            assert model.sizes == [1, 2, 2, 1]
            assert svc.stats.snapshot()["n_queries"] == 5
            ids, _ = svc.query(X_query[6])  # the service carries on
            assert np.array_equal(ids, ref_results(base, X_base, X_query[6], 5)[0])

    def test_non_finite_query_is_refused(self, setup):
        model, X_base, X_query = setup
        with RetrievalService.from_data(model, X_base, k=5) as svc:
            for bad in (np.nan, np.inf, -np.inf):
                x = X_query[0].copy()
                x[3] = bad
                with pytest.raises(ValueError, match="NaN or Inf"):
                    svc.submit(x)
            with pytest.raises(ValueError):
                svc.submit(np.array(["a"] * X_base.shape[1]))
            assert svc.stats.snapshot()["n_queries"] == 0


class TestFromData:
    def test_close_releases_the_flat_index_it_built(self, setup):
        model, X_base, X_query = setup
        svc = RetrievalService.from_data(model, X_base, k=3)
        index = svc.index
        svc.query(X_query[0])
        svc.close()
        with pytest.raises(RuntimeError, match="index is closed"):
            index.search(pack_bits(model.encode(X_query[:1])), 3)

    def test_close_leaves_a_flat_index_the_caller_built(self, setup):
        # The caller may go on searching its own index, as the bench's
        # batcher-overhead rung does.
        model, X_base, X_query = setup
        index = HammingIndex.from_codes(pack_bits(model.encode(X_base)), 32)
        with RetrievalService(model, index, k=3) as svc:
            want = svc.query(X_query[0])
        got = index.search(pack_bits(model.encode(X_query[:1])), 3)
        assert np.array_equal(got[0][0], want[0]) and np.array_equal(got[1][0], want[1])

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_empty_base_is_refused(self, n_shards):
        from repro.autoencoder import BinaryAutoencoder

        model = BinaryAutoencoder.linear(8, 4)
        with pytest.raises(ValueError, match="empty base"):
            RetrievalService.from_data(model, np.zeros((0, 8)), n_shards=n_shards)

    def test_packed_base_equals_one_block_per_chunk(self, setup):
        # Chunks packed into one preallocated array hold the same bytes as
        # packing each chunk and concatenating (the older build).
        model, _, _ = setup
        X_base = np.random.default_rng(3).standard_normal((2 * service_mod._BUILD_ROWS + 123, 24))
        want = np.concatenate([
            pack_bits(model.encode(X_base[s : s + 4096])) for s in range(0, len(X_base), 4096)
        ])
        calls = model.encode_calls
        with RetrievalService.from_data(model, X_base, k=3) as svc:
            assert model.encode_calls - calls == 3
            assert svc.index.codes.dtype == np.uint64
            assert svc.index.codes.tobytes() == want.tobytes()

    def test_encode_batch_keyword_is_gone(self, setup):
        model, X_base, _ = setup
        with pytest.raises(TypeError):
            RetrievalService.from_data(model, X_base, encode_batch=64)
