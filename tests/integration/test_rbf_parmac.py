"""RBF-encoder BAs on the ring: kernel features live in the shards.

Section 8.4's memory discipline: kernel values are computed once (stored
quantised in the paper) and the travelling SVM submodels train on them —
the raw inputs never need re-kernelising per visit. The shards' F matrix
carries the kernel features; this test exercises the whole path through
the ParMAC fit loop.
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.core.penalty import GeometricSchedule
from tests.fits import fit_ba


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(250, 10, n_clusters=5, rng=20)


class TestRBFThroughParMAC:
    def test_trains_on_simulated_ring(self, X):
        ba = BinaryAutoencoder.rbf(X, n_centres=40, n_bits=6, rng=0)
        trainer = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 6), n_machines=4, seed=0)
        h = trainer.history_
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].e_q < h.records[0].e_q
        assert trainer.backend.model_copies_consistent()

    def test_shards_store_kernel_features(self, X):
        ba = BinaryAutoencoder.rbf(X, n_centres=40, n_bits=6, rng=0)
        trainer = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 2), n_machines=3, seed=0)
        for p in trainer.backend.machines:
            shard = trainer.backend.shards[p]
            assert shard.F.shape[1] == 40  # kernel features, not raw dims
            assert shard.X.shape[1] == 10  # decoder still sees raw space

    def test_trains_on_multiprocess_ring(self, X):
        ba = BinaryAutoencoder.rbf(X, n_centres=30, n_bits=5, rng=0)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-3, 2.0, 3), n_machines=2,
            backend="multiprocess", seed=0,
        ).history_
        assert np.isfinite(h.records[-1].e_q)

    def test_quantised_kernel_features_close(self, X):
        # The uint8 kernel storage of section 8.4 perturbs codes only
        # marginally.
        from repro.autoencoder.encoder import gaussian_kernel_features

        ba = BinaryAutoencoder.rbf(X, n_centres=40, n_bits=6, rng=0)
        enc = ba.encoder
        K = gaussian_kernel_features(X, enc.centres, enc.sigma)
        Kq = gaussian_kernel_features(X, enc.centres, enc.sigma, quantize=True)
        assert np.abs(K - Kq.astype(np.float64) / 255.0).max() <= 0.5 / 255 + 1e-12
