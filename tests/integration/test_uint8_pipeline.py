"""Section 8.4 memory path: train from uint8-at-rest features.

SIFT-1B stores one byte per feature and dequantises per minibatch / per
point. Training on the dequantised data must closely track training on
the original floats — quantisation noise is far below the SGD noise floor.
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.core.penalty import GeometricSchedule
from repro.data.quantize import Uint8Store
from repro.data.synthetic import make_sift_like
from tests.fits import fit_ba


@pytest.fixture(scope="module")
def clouds():
    X = make_sift_like(400, 16, n_clusters=6, rng=30)
    store = Uint8Store(X)
    return X, store


class TestUint8Pipeline:
    def test_quantisation_error_small_vs_data_scale(self, clouds):
        X, store = clouds
        err = np.abs(store.all_rows() - X).max()
        assert err < 0.01 * np.abs(X).max()

    def test_mac_training_tracks_float_training(self, clouds):
        X, store = clouds
        sched = GeometricSchedule(1e-2, 2.0, 6)
        ba_f = BinaryAutoencoder.linear(16, 4)
        h_f = fit_ba(ba_f, X, sched, seed=0).history_
        ba_q = BinaryAutoencoder.linear(16, 4)
        h_q = fit_ba(ba_q, store.all_rows(), sched, seed=0).history_
        assert h_q.records[-1].e_ba == pytest.approx(
            h_f.records[-1].e_ba, rel=0.05
        )

    def test_minibatch_access_pattern(self, clouds):
        # The W-step access pattern: dequantise one minibatch at a time.
        X, store = clouds
        from repro.optim.sgd import minibatch_indices

        batches = minibatch_indices(len(store), 50, shuffle=True, rng=0)
        seen = 0
        for idx in batches:
            block = store.rows(idx)
            assert block.dtype == np.float64
            seen += len(block)
        assert seen == len(X)

    def test_memory_at_rest_is_one_byte_per_feature(self, clouds):
        X, store = clouds
        assert store.nbytes == X.shape[0] * X.shape[1]
