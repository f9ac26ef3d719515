"""Image-retrieval scenario: BA vs truncated PCA vs ITQ hash functions.

The application from the paper's section 3.1: learn an unsupervised binary
hash for fast approximate nearest-neighbour search, comparing the MAC-
trained binary autoencoder against the two standard baselines it is
evaluated against (tPCA — also its initialisation — and ITQ, Gong et al.
2013). Prints precision@k and recall@R for all three plus an RBF-encoder
variant (section 8.4).

Then stands the best model up as a micro-batched retrieval service
(``repro.serve``) and reports measured QPS: per-query sequential loop vs
64 concurrent clients coalescing into shared encode+scan batches.

Run:  python examples/image_retrieval.py
"""

import threading
import time


from repro import (
    BAAdapter,
    BinaryAutoencoder,
    GeometricSchedule,
    ITQHash,
    ParMACTrainer,
    TruncatedPCAHash,
    build_ba_shards,
)
from repro.data.synthetic import make_sift_like
from repro.retrieval.groundtruth import euclidean_knn
from repro.retrieval.hamming import pack_bits
from repro.retrieval.metrics import precision_at_k, recall_curve
from repro.serve import RetrievalService


def standardise(X):
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - X.mean(axis=0)) / sd


def train_mac(ba, X, schedule):
    """Serial MAC (paper fig. 1): the fit loop on one shard, exact decoder."""
    adapter = BAAdapter(ba, decoder_exact=True)
    trainer = ParMACTrainer(adapter, schedule, epochs=2, stop_on_fixed_point=True, seed=0)
    trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))


def main():
    n_base, n_queries, dim, n_bits = 3000, 80, 64, 16
    cloud = standardise(make_sift_like(n_base + n_queries, dim, n_clusters=12, rng=0))
    X, Q = cloud[:n_base], cloud[n_base:]
    truth_k = euclidean_knn(Q, X, 50)
    nn1 = truth_k[:, 0]

    schedule = GeometricSchedule(mu0=1e-3, factor=2.0, n_iters=12)

    print("training hash functions ...")
    models = {}
    models["tPCA"] = TruncatedPCAHash(n_bits).fit(X)
    models["ITQ"] = ITQHash(n_bits, seed=0).fit(X)

    ba_lin = BinaryAutoencoder.linear(dim, n_bits)
    train_mac(ba_lin, X, schedule)
    models["BA (linear)"] = ba_lin

    ba_rbf = BinaryAutoencoder.rbf(X, n_centres=200, n_bits=n_bits, rng=0)
    train_mac(ba_rbf, X, schedule)
    models["BA (RBF)"] = ba_rbf

    print(f"\n{'hash':>14} | {'prec@30':>8} | recall@R for R=1,10,100")
    print("-" * 60)
    Rs = [1, 10, 100]
    for name, model in models.items():
        qc, bc = pack_bits(model.encode(Q)), pack_bits(model.encode(X))
        prec = precision_at_k(qc, bc, truth_k, 30)
        rec = recall_curve(qc, bc, nn1, Rs)
        rec_str = ", ".join(f"{r:.3f}" for r in rec)
        print(f"{name:>14} | {prec:8.4f} | {rec_str}")

    print("\nNotes: the RBF encoder usually dominates at small R (paper")
    print("fig. 12); on synthetic Gaussian clouds tPCA is a strong baseline")
    print("because the neighbourhood structure is exactly its subspace.")

    serve_demo(ba_lin, X, Q)


def serve_demo(model, X, Q, k=10, n_requests=2000):
    """Stand up a RetrievalService over X and measure QPS two ways."""
    print("\nserving: micro-batched retrieval over the trained BA ...")
    with RetrievalService.from_data(
        model, X, k=k, max_batch=128
    ) as svc:
        # One sequential client: every request finds the service idle,
        # so it is encoded and scanned at once, alone — no batch to share.
        t0 = time.perf_counter()
        for i in range(200):
            svc.query(Q[i % len(Q)])
        seq_qps = 200 / (time.perf_counter() - t0)

        # Concurrent clients: requests coalesce into shared batches.
        per_client = n_requests // 64

        def client(j):
            for i in range(per_client):
                svc.query(Q[(j * per_client + i) % len(Q)])

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(j,)) for j in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batched_qps = 64 * per_client / (time.perf_counter() - t0)
        snap = svc.stats.snapshot()

    print(f"  1 client, unbatched  : {seq_qps:10.0f} qps")
    print(
        f"  64 clients, batched  : {batched_qps:10.0f} qps"
        f"  (mean batch {snap['mean_batch']:.1f}, "
        f"speedup {batched_qps / seq_qps:.1f}x)"
    )


if __name__ == "__main__":
    main()
