"""Streaming and fault tolerance on the simulated cluster (section 4.3).

Walks the operational scenarios ParMAC supports without any central
coordinator:

1. a machine collects new data mid-training (within-machine streaming);
2. a machine discards stale data;
3. a brand-new, preloaded machine joins the ring;
4. a machine dies mid-W-step and its in-flight submodels are recovered
   from the copies their senders kept;
5. the network turns hostile — lossy, jittery, briefly partitioned,
   with one straggling machine — and the fit degrades in *time only*:
   the final model is bit-identical to the clean run's.

The simulated cluster is the ``sync`` backend: arrivals and joins queue
through ``ingest``/``add_machine`` and land at the next iteration
boundary, exactly as on the wall-clock engines.

Run:  python examples/streaming_and_faults.py
"""

import numpy as np

from repro import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.data.synthetic import make_clustered
from repro.distributed import ChaosConfig, PartitionWindow
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices


def main():
    dim, n_bits, P = 24, 8, 4
    X = make_clustered(800, dim, n_clusters=6, rng=0)
    stream = make_clustered(400, dim, n_clusters=6, rng=1)

    ba = BinaryAutoencoder.linear(dim, n_bits)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, n_bits, rng=0)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, adapter.features(X), Z, parts)
    cluster = get_backend("sync")(epochs=2, seed=0, fault_policy="drop_shard")
    cluster.setup(adapter, shards)

    mus = iter(1e-3 * 2.0 ** np.arange(12))

    def iterate(label):
        stats = cluster.run_iteration(next(mus))
        print(f"{label:>34}: machines={stats.n_machines} "
              f"points={cluster.n_points} E_Q={stats.e_q:9.1f} "
              f"copies-consistent={cluster.model_copies_consistent()}")

    print("warm-up iterations")
    iterate("iteration 1")
    iterate("iteration 2")

    print("\n1) machine 1 collects 150 new points (codes = h(x), no comm)")
    cluster.ingest(1, stream[:150])
    iterate("after ingest")

    print("\n2) machine 0 discards its 20 oldest points")
    cluster.dataplane.remove_rows(0, list(range(20)))
    iterate("after remove_rows")

    print("\n3) a new preloaded machine joins the ring")
    new_id = cluster.add_machine(stream[150:300])
    iterate("after add_machine")
    print(f"   machine {new_id} inserted; ring: {cluster.topology}")

    print("\n4) machine 2 dies at tick 1 of the next W step")
    cluster.inject_fault(2, tick=1)
    iterate("fault + recovery")
    iterate("next full iteration")

    print("\n5) the network turns hostile (loss, jitter, a partition, a straggler)")
    chaos = ChaosConfig(
        packet_loss_rate=0.2,
        delay_ms=2.0,
        jitter_ms=1.0,
        # Default cost model: a W-step tick is ~1600 virtual s, so this
        # window cuts the ring across the 2nd and 3rd rounds of hops.
        partitions=[PartitionWindow(1500.0, 4000.0)],
        stragglers={1: 2.0},
        seed=7,
    )

    def short_fit(chaos_cfg):
        ba = BinaryAutoencoder.linear(dim, n_bits)
        adapter = BAAdapter(ba)
        Z, _ = init_codes_pca(X, n_bits, rng=0)
        shards = make_shards(X, adapter.features(X), Z, parts)
        backend = get_backend("sync")(epochs=2, seed=0, chaos=chaos_cfg)
        backend.setup(adapter, shards)
        stats = backend.run_iteration(1e-3)
        finals = [adapter.get_params(s).copy() for s in adapter.submodel_specs()]
        return stats.extra, finals

    clean, clean_finals = short_fit(None)
    chaotic, chaos_finals = short_fit(chaos)
    identical = all(
        np.array_equal(a, b) for a, b in zip(clean_finals, chaos_finals)
    )
    print(f"   clean   W step: {clean['w_sim_time']:8.1f} virtual s")
    print(f"   chaotic W step: {chaotic['w_sim_time']:8.1f} virtual s "
          f"(drops={chaotic['chaos_drops']}, "
          f"partition holds={chaotic['chaos_partition_holds']})")
    print(f"   final submodels bit-identical to the clean run: {identical}")

    print("\nThe model kept training through every event; at the end of every")
    print("W step all surviving machines still hold identical final submodels,")
    print("and chaos only moved the clock — never the bits.")


if __name__ == "__main__":
    main()
