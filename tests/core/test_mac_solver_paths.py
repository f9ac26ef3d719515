"""Serial MAC exercised through every Z-step solver path."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.core.penalty import GeometricSchedule
from tests.fits import fit_ba


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(200, 10, n_clusters=4, rng=50)


SCHED = GeometricSchedule(1e-3, 2.0, 5)


def serial(ba, X, **adapter_options):
    return fit_ba(ba, X, SCHED, adapter_options=adapter_options, seed=0).history_


class TestSolverPaths:
    @pytest.mark.parametrize("method", ["enumerate", "alternate", "relaxed"])
    def test_all_methods_train(self, X, method):
        ba = BinaryAutoencoder.linear(10, 5)
        h = serial(ba, X, zstep_method=method)
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].e_q < h.records[0].e_q * 1.5

    def test_auto_switches_on_max_enum_bits(self, X):
        # With max_enum_bits below L the auto path must use alternation;
        # both runs stay finite and close in objective.
        h_enum = serial(BinaryAutoencoder.linear(10, 5), X, max_enum_bits=5)
        h_alt = serial(BinaryAutoencoder.linear(10, 5), X, max_enum_bits=2)
        assert h_alt.records[-1].e_q <= h_enum.records[-1].e_q * 1.3

    def test_enumerate_no_worse_than_alternate(self, X):
        # Exact Z steps can only help the penalised objective per step.
        h_enum = serial(BinaryAutoencoder.linear(10, 5), X, zstep_method="enumerate")
        h_alt = serial(BinaryAutoencoder.linear(10, 5), X, zstep_method="alternate")
        # Same W-step trajectory seeds; exact solver ends at least as low
        # up to SGD noise.
        assert h_enum.records[-1].e_q <= h_alt.records[-1].e_q * 1.1

    def test_max_sweeps_one_still_trains(self, X):
        ba = BinaryAutoencoder.linear(10, 5)
        h = serial(ba, X, zstep_method="alternate", max_sweeps=1)
        assert np.isfinite(h.records[-1].e_q)

    def test_rejects_bad_w_epochs(self, X):
        with pytest.raises(ValueError):
            fit_ba(BinaryAutoencoder.linear(10, 5), X, SCHED, epochs=0)
