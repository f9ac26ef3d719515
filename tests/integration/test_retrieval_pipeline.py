"""End-to-end retrieval: the paper's qualitative orderings (section 8).

Shape targets (absolute numbers are synthetic-data-specific):
* the BA achieves lower nested reconstruction error than its tPCA
  initialisation with an optimal decoder — E_BA is the BA's objective;
* the RBF encoder beats tPCA in recall across small R (fig. 12);
* the linear encoder catches up at larger R (fig. 12's crossing pattern);
* early stopping guarantees validation precision never ends below the best
  iterate (section 3.1).
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.decoder import LinearDecoder
from repro.core.evaluation import PrecisionEvaluator
from repro.core.penalty import GeometricSchedule
from repro.data.synthetic import make_sift_like
from repro.retrieval.baselines import TruncatedPCAHash
from repro.retrieval.groundtruth import euclidean_knn
from repro.retrieval.hamming import pack_bits
from repro.retrieval.metrics import recall_at_R
from tests.fits import fit_ba

L = 16


@pytest.fixture(scope="module")
def workload():
    cloud = make_sift_like(1000, 32, n_clusters=10, rng=0)
    X, Q = cloud[:900], cloud[900:950]
    nn1 = euclidean_knn(Q, X, 1)[:, 0]
    return X, Q, nn1


@pytest.fixture(scope="module")
def trained(workload):
    # The orderings below do not need the exact Z step; the alternating
    # solver (what auto dispatch picked before the L=16 enumeration cutoff)
    # keeps this 28-iteration fixture fast.
    X, Q, nn1 = workload
    tpca = TruncatedPCAHash(L).fit(X)
    kw = dict(epochs=2, adapter_options=dict(zstep_method="alternate"), seed=0)
    ba_lin = BinaryAutoencoder.linear(32, L)
    fit_ba(ba_lin, X, GeometricSchedule(1e-2, 2.0, 14), **kw)
    ba_rbf = BinaryAutoencoder.rbf(X, n_centres=200, n_bits=L, rng=0)
    fit_ba(ba_rbf, X, GeometricSchedule(1e-2, 2.0, 14), **kw)
    return tpca, ba_lin, ba_rbf


def recall(X, Q, nn1, encode, R):
    return recall_at_R(pack_bits(encode(Q)), pack_bits(encode(X)), nn1, R)


class TestReconstruction:
    def test_ba_beats_tpca_codes_on_e_ba(self, workload, trained):
        X, _, _ = workload
        tpca, ba_lin, _ = trained
        Z0 = tpca.encode(X)
        dec0 = LinearDecoder(L, X.shape[1]).fit_lstsq(Z0, X)
        eba_tpca = float(((X - dec0.decode(Z0)) ** 2).sum())
        assert ba_lin.e_ba(X) < eba_tpca

    def test_constraints_eventually_satisfied(self, workload):
        X, _, _ = workload
        ba = BinaryAutoencoder.linear(32, 8)
        h = fit_ba(ba, X, GeometricSchedule(1e-2, 2.5, 16), epochs=2, seed=0).history_
        assert h.records[-1].violations == 0


class TestRecallOrdering:
    def test_rbf_beats_tpca_at_small_R(self, workload, trained):
        X, Q, nn1 = workload
        tpca, _, ba_rbf = trained
        assert recall(X, Q, nn1, ba_rbf.encode, 10) > recall(X, Q, nn1, tpca.encode, 10)

    def test_rbf_beats_linear_at_small_R(self, workload, trained):
        # Fig. 11: "the nonlinear RBF hash function outperforms the linear
        # one in recall, as one would expect".
        X, Q, nn1 = workload
        _, ba_lin, ba_rbf = trained
        assert recall(X, Q, nn1, ba_rbf.encode, 10) >= recall(X, Q, nn1, ba_lin.encode, 10)

    def test_linear_at_least_matches_tpca_at_larger_R(self, workload, trained):
        X, Q, nn1 = workload
        tpca, ba_lin, _ = trained
        assert recall(X, Q, nn1, ba_lin.encode, 50) >= recall(X, Q, nn1, tpca.encode, 50)

    def test_recall_curves_monotone(self, workload, trained):
        X, Q, nn1 = workload
        _, ba_lin, _ = trained
        from repro.retrieval.metrics import recall_curve

        curve = recall_curve(
            pack_bits(ba_lin.encode(Q)), pack_bits(ba_lin.encode(X)), nn1,
            [1, 5, 10, 50, 100, 500],
        )
        assert (np.diff(curve) >= 0).all()


class TestEarlyStoppingGuarantee:
    def test_final_precision_is_best_seen(self, workload):
        X, Q, _ = workload
        ev = PrecisionEvaluator(Q, X, K=50, k=30)
        ba = BinaryAutoencoder.linear(32, 8)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-2, 2.0, 14), evaluator=ev,
            early_stopping=True, seed=0,
        ).history_
        final = ev(ba)["precision"]
        assert final >= max(r.precision for r in h.records) - 1e-12
