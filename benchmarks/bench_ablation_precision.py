"""Ablation (section 9) — reduced-precision submodel communication.

"One can store and communicate reduced-precision values for data and
parameters with little effect of the accuracy." The bench trains the same
BA with float64 / float32 / float16 wire formats and reports communication
volume/time against the E_Q reached.
"""

import numpy as np

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.data.synthetic import make_gist_like
from repro.distributed.backends import get_backend
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import make_shards, partition_indices
from repro.utils.ascii_plot import ascii_table

from conftest import standardised

N, D, L, P = 2000, 64, 16, 8
SCHEDULE = GeometricSchedule(5e-3, 1.5, 10)


def run_precision(X, dtype):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, L, rng=0)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, adapter.features(X), Z, parts)
    cluster = get_backend("sync")(
        epochs=2, cost=CostModel(t_wr=1.0, t_wc=300.0, t_zr=2.0),
        message_dtype=dtype, seed=0,
    )
    cluster.setup(adapter, shards)
    total_bytes = 0
    total_comm = 0.0
    for mu in SCHEDULE:
        stats = cluster.run_iteration(mu)
        total_bytes += stats.bytes_sent
        total_comm += stats.extra["comm_time"]
    return stats.e_q, total_bytes, total_comm


def test_ablation_precision(benchmark, report):
    X = standardised(make_gist_like(N, D, n_clusters=8, rng=6))
    results = benchmark.pedantic(
        lambda: {
            label: run_precision(X, dtype)
            for label, dtype in [("float64", None), ("float32", np.float32),
                                 ("float16", np.float16)]
        },
        rounds=1, iterations=1,
    )

    report()
    report("=" * 72)
    report("Ablation: reduced-precision submodel communication (section 9)")
    base_eq = results["float64"][0]
    rows = [
        [label, round(eq, 1), round(eq / base_eq, 4), by, round(ct, 0)]
        for label, (eq, by, ct) in results.items()
    ]
    report(ascii_table(
        ["wire format", "final E_Q", "vs float64", "bytes sent",
         "comm time"], rows))

    eq64, by64, _ = results["float64"]
    eq32, by32, _ = results["float32"]
    eq16, by16, _ = results["float16"]
    # Communication halves/quarters exactly.
    assert by32 * 2 == by64 and by16 * 4 == by64
    # Accuracy effect is small: float32 within 2%, float16 within 15%.
    assert abs(eq32 - eq64) / eq64 < 0.02
    assert abs(eq16 - eq64) / eq64 < 0.15
