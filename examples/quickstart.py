"""Quickstart: train a binary autoencoder with MAC and search with it.

Covers the core loop of the paper in ~50 lines:

1. make a feature cloud (stand-in for GIST/SIFT descriptors);
2. train an L-bit binary autoencoder with the method of auxiliary
   coordinates (alternating W and Z steps over an increasing penalty) —
   serial MAC, i.e. the ParMAC fit loop on one shard;
3. compress the database to packed binary codes;
4. answer nearest-neighbour queries by Hamming distance and score them
   against the exact Euclidean ground truth.

Run:  python examples/quickstart.py
"""


from repro import (
    BAAdapter,
    BinaryAutoencoder,
    GeometricSchedule,
    ParMACTrainer,
    build_ba_shards,
)
from repro.data.synthetic import make_clustered
from repro.retrieval.groundtruth import euclidean_knn
from repro.retrieval.hamming import hamming_knn, pack_bits
from repro.retrieval.metrics import precision_at_k


def main():
    rng_seed = 0
    n_base, n_queries, dim, n_bits = 2000, 50, 48, 12

    print(f"1) dataset: {n_base} base + {n_queries} query points, D={dim}")
    cloud = make_clustered(n_base + n_queries, dim, n_clusters=8, rng=rng_seed)
    X, queries = cloud[:n_base], cloud[n_base:]

    print(f"2) training a {n_bits}-bit binary autoencoder with MAC ...")
    ba = BinaryAutoencoder.linear(n_features=dim, n_bits=n_bits)
    adapter = BAAdapter(ba, decoder_exact=True)
    trainer = ParMACTrainer(
        adapter,
        GeometricSchedule(mu0=1e-3, factor=2.0, n_iters=12),
        epochs=2,
        stop_on_fixed_point=True,
        seed=rng_seed,
    )
    history = trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=rng_seed))
    print(f"   E_BA: {history.e_ba[0]:.0f} -> {history.e_ba[-1]:.0f} "
          f"over {len(history)} iterations "
          f"({history.records[-1].violations} constraint violations left)")

    print("3) compressing the database to packed codes ...")
    base_codes = pack_bits(ba.encode(X))
    query_codes = pack_bits(ba.encode(queries))
    print(f"   {X.nbytes / 1e6:.1f} MB of floats -> "
          f"{base_codes.nbytes / 1e3:.1f} kB of codes")

    print("4) Hamming search vs exact search ...")
    k = 10
    retrieved = hamming_knn(query_codes, base_codes, k)
    truth = euclidean_knn(queries, X, 20)
    prec = precision_at_k(query_codes, base_codes, truth, k)
    print(f"   precision@{k} (K=20 true neighbours): {prec:.3f}")
    print(f"   first query retrieves rows {retrieved[0].tolist()}")


if __name__ == "__main__":
    main()
