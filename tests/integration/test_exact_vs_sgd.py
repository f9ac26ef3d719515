"""Section 6 ablation: SGD W step vs exact (allreduced) W step.

"One to two epochs in the W step make ParMAC very similar to MAC using an
exact step."
"""

import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.autoencoder.zstep import zstep
from repro.distributed.allreduce import exact_w_step_ba
from repro.distributed.partition import make_shards, partition_indices
from tests.fits import sim


@pytest.fixture(scope="module")
def problem():
    from repro.data.synthetic import make_clustered

    X = make_clustered(300, 12, n_clusters=5, rng=10)
    return X


def run_exact(X, mus, P=4, seed=0):
    """MAC iterations with the exact distributed W step."""
    ba = BinaryAutoencoder.linear(12, 6)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, 6, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    shards = make_shards(X, X, Z, parts)
    eqs = []
    for mu in mus:
        exact_w_step_ba(ba, shards, svm_steps=40)
        for s in shards:
            s.Z = zstep(s.X, ba.decoder.B, ba.decoder.c,
                        adapter._encode_features(s.F), mu, Z0=s.Z)
        eqs.append(sum(adapter.e_q_shard(s, mu) for s in shards))
    return ba, eqs


def run_sgd(X, mus, P=4, epochs=2, seed=0):
    ba = BinaryAutoencoder.linear(12, 6)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, 6, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    shards = make_shards(X, X, Z, parts)
    cluster = sim(adapter, shards, epochs=epochs, seed=seed)
    eqs = [cluster.run_iteration(mu).e_q for mu in mus]
    return ba, eqs


class TestExactVsSGD:
    def test_epochs_converge_to_exact(self, problem):
        # Section 8.2: "as the number of epochs increases, the W step is
        # solved more exactly (8 epochs is practically exact)". The
        # SGD/exact E_Q ratio must shrink monotonically with e.
        X = problem
        mus = [1e-3 * 2**i for i in range(8)]
        _, eq_exact = run_exact(X, mus)
        ratios = []
        for e in (1, 2, 4, 8):
            _, eq = run_sgd(X, mus, epochs=e)
            ratios.append(eq[-1] / eq_exact[-1])
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.3  # e = 8 is practically exact

    def test_both_reduce_e_q(self, problem):
        X = problem
        mus = [1e-3 * 2**i for i in range(8)]
        _, eq_exact = run_exact(X, mus)
        _, eq_sgd = run_sgd(X, mus)
        assert eq_exact[-1] < eq_exact[0]
        assert eq_sgd[-1] < eq_sgd[0]
