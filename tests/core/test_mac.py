"""Serial MAC — the fit loop on one shard with the exact decoder:
algorithmic behaviour of fig. 1."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.core.evaluation import PrecisionEvaluator
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from tests.fits import fit_ba


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(250, 12, n_clusters=5, rng=1)


class TestFit:
    def test_improves_over_pca_init(self, X):
        ba = BinaryAutoencoder.linear(12, 6)
        history = fit_ba(ba, X, GeometricSchedule(1e-4, 2.0, 10), seed=0).history_
        # MAC must beat the tPCA initialisation on the nested error.
        from repro.autoencoder.init import init_codes_pca
        from repro.autoencoder.decoder import LinearDecoder

        Z0, _ = init_codes_pca(X, 6, rng=0)
        dec0 = LinearDecoder(6, 12).fit_lstsq(Z0, X)
        resid0 = X - dec0.decode(Z0)
        baseline = float((resid0 * resid0).sum())  # best case for tPCA codes
        assert history.records[-1].e_ba < baseline * 1.5
        assert history.records[-1].e_ba <= history.records[0].e_ba

    def test_history_fields_populated(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        h = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 3), seed=0).history_
        for r in h.records:
            assert np.isfinite(r.e_q) and np.isfinite(r.e_ba)
            assert r.z_changes >= 0 and r.violations >= 0
            assert r.time > 0

    def test_z_returned_matches_shape(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        trainer = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 3), seed=0)
        _, Z = trainer.backend.gather_codes()
        assert Z.shape == (len(X), 4)

    def test_custom_z0(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        Z0 = np.random.default_rng(0).integers(0, 2, size=(len(X), 4)).astype(np.uint8)
        h = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 3), Z0=Z0, seed=0).history_
        assert len(h) >= 1

    def test_rejects_bad_z0(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        with pytest.raises(ValueError):
            fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 3),
                   Z0=np.zeros((len(X), 5), dtype=np.uint8))

    def test_stops_at_z_fixed_point(self):
        # A trivially encodable dataset converges early: Z = h(X) fixed.
        rng = np.random.default_rng(0)
        B = rng.normal(size=(8, 3))
        Z = rng.integers(0, 2, size=(150, 3)).astype(np.uint8)
        X = Z.astype(float) @ B.T + 0.01 * rng.normal(size=(150, 8))
        ba = BinaryAutoencoder.linear(8, 3)
        h = fit_ba(ba, X, GeometricSchedule(1e-2, 3.0, 25), epochs=3, seed=0).history_
        assert len(h) < 25  # stopped before exhausting the schedule
        assert h.records[-1].violations == 0 and h.records[-1].z_changes == 0

    def test_deterministic(self, X):
        a = BinaryAutoencoder.linear(12, 4)
        b = BinaryAutoencoder.linear(12, 4)
        fit_ba(a, X, GeometricSchedule(1e-3, 2.0, 3), seed=7)
        fit_ba(b, X, GeometricSchedule(1e-3, 2.0, 3), seed=7)
        assert np.array_equal(a.encoder.A, b.encoder.A)
        assert np.array_equal(a.decoder.B, b.decoder.B)

    def test_decoder_sgd_variant(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-3, 2.0, 3), decoder_exact=False, seed=0
        ).history_
        assert np.isfinite(h.records[-1].e_ba)

    def test_more_w_epochs_not_worse(self, X):
        # More exact W steps should not substantially hurt E_Q (fig. 7).
        h1 = fit_ba(
            BinaryAutoencoder.linear(12, 4), X,
            GeometricSchedule(1e-3, 2.0, 6), epochs=1, seed=0,
        ).history_
        h8 = fit_ba(
            BinaryAutoencoder.linear(12, 4), X,
            GeometricSchedule(1e-3, 2.0, 6), epochs=8, seed=0,
        ).history_
        assert h8.records[-1].e_q <= h1.records[-1].e_q * 1.15


class TestEvaluatorIntegration:
    def test_precision_recorded(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        ev = PrecisionEvaluator(X[:20], X, K=20, k=10)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-3, 2.0, 3), evaluator=ev, seed=0
        ).history_
        assert all(0.0 <= r.precision <= 1.0 for r in h.records)

    def test_early_stopping_restores_best(self, X):
        ba = BinaryAutoencoder.linear(12, 4)
        ev = PrecisionEvaluator(X[:20], X, K=20, k=10)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-3, 2.0, 12), evaluator=ev,
            early_stopping=True, seed=0,
        ).history_
        final_prec = ev(ba)["precision"]
        best_seen = max(r.precision for r in h.records)
        assert final_prec == pytest.approx(best_seen, abs=1e-9)

    def test_early_stopping_requires_evaluator(self, X):
        with pytest.raises(ValueError):
            ParMACTrainer(
                BAAdapter(BinaryAutoencoder.linear(12, 4), decoder_exact=True),
                GeometricSchedule(1e-3, 2.0, 3),
                early_stopping=True,
            )


class TestRBFTraining:
    def test_rbf_encoder_trains(self, X):
        ba = BinaryAutoencoder.rbf(X, n_centres=30, n_bits=4, rng=0)
        h = fit_ba(ba, X, GeometricSchedule(1e-3, 2.0, 4), seed=0).history_
        assert np.isfinite(h.records[-1].e_ba)
        assert ba.encode(X).shape == (len(X), 4)
