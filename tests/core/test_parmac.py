"""ParMAC — the fit loop on several shards: distributed training matches
serial behaviour."""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.core.evaluation import PrecisionEvaluator
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.costmodel import CostModel
from tests.fits import fit_ba


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(240, 10, n_clusters=4, rng=2)


SCHED = GeometricSchedule(1e-4, 2.0, 6)


class TestSimulatedBackends:
    @pytest.mark.parametrize("backend", ["sync", "async"])
    def test_trains_and_records(self, X, backend):
        ba = BinaryAutoencoder.linear(10, 4)
        h = fit_ba(ba, X, SCHED, n_machines=4, backend=backend, seed=0).history_
        assert len(h) >= 1
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].time > 0  # virtual clock populated

    def test_close_to_serial_mac(self, X):
        # ParMAC "gives almost identical results to MAC" (section 6):
        # P = 4 against P = 1, both with the SGD decoder.
        serial = BinaryAutoencoder.linear(10, 4)
        fit_ba(serial, X, SCHED, epochs=2, decoder_exact=False, seed=0)
        par = BinaryAutoencoder.linear(10, 4)
        fit_ba(par, X, SCHED, n_machines=4, epochs=2, seed=0)
        e_serial = serial.e_ba(X)
        e_par = par.e_ba(X)
        assert e_par <= e_serial * 1.25 + 1e-9

    def test_machine_count_does_not_degrade(self, X):
        # Figs. 7-8: varying P jitters the curve (minibatch ordering) but
        # does not systematically degrade the result.
        sched = GeometricSchedule(1e-3, 2.5, 8)
        finals = []
        for P in (1, 2, 4, 8):
            ba = BinaryAutoencoder.linear(10, 4)
            h = fit_ba(ba, X, sched, n_machines=P, decoder_exact=False, seed=0).history_
            finals.append(h.records[-1].e_ba)
        assert max(finals) <= min(finals) * 2.0

    def test_evaluator_integration(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        ev = PrecisionEvaluator(X[:15], X, K=20, k=10)
        h = fit_ba(ba, X, SCHED, n_machines=3, evaluator=ev, seed=0).history_
        assert all(r.precision is not None for r in h.records)

    def test_cost_model_drives_times(self, X):
        cheap = fit_ba(
            BinaryAutoencoder.linear(10, 4), X, SCHED, n_machines=4,
            cost=CostModel(t_wr=1, t_wc=0, t_zr=1), seed=0,
        )
        pricey = fit_ba(
            BinaryAutoencoder.linear(10, 4), X, SCHED, n_machines=4,
            cost=CostModel(t_wr=1, t_wc=10_000, t_zr=1), seed=0,
        )
        t_cheap = cheap.history_.total_time
        t_pricey = pricey.history_.total_time
        assert t_pricey > t_cheap

    def test_alphas_load_balancing(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        tr = fit_ba(ba, X, SCHED, n_machines=3, alphas=[2.0, 1.0, 1.0], seed=0)
        sizes = [tr.backend.shards[p].n for p in tr.backend.machines]
        assert sizes[0] == pytest.approx(2 * sizes[1], abs=2)

    def test_shuffle_ring_works(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        h = fit_ba(
            ba, X, SCHED, n_machines=4, shuffle_ring=True, epochs=2, seed=0
        ).history_
        assert np.isfinite(h.records[-1].e_q)

    def test_tworound_scheme(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        h = fit_ba(
            ba, X, SCHED, n_machines=4, epochs=2, scheme="tworound", seed=0
        ).history_
        assert np.isfinite(h.records[-1].e_q)

    def test_rejects_bad_backend(self, X):
        with pytest.raises(ValueError):
            ParMACTrainer(
                BAAdapter(BinaryAutoencoder.linear(10, 4)), SCHED,
                backend="smoke-signals",
            )

    def test_rejects_bad_z0(self, X):
        with pytest.raises(ValueError):
            fit_ba(
                BinaryAutoencoder.linear(10, 4), X, SCHED, n_machines=2,
                Z0=np.zeros((10, 4), dtype=np.uint8), seed=0,
            )


class TestMultiprocessBackend:
    def test_trains(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-4, 2.0, 4), n_machines=2,
            backend="multiprocess", seed=0,
        ).history_
        assert len(h) == 4
        assert np.isfinite(h.records[-1].e_q)
        assert h.records[-1].e_q < h.records[0].e_q * 1.5

    def test_evaluator_sees_each_iteration(self, X):
        ba = BinaryAutoencoder.linear(10, 4)
        ev = PrecisionEvaluator(X[:10], X, K=20, k=10)
        h = fit_ba(
            ba, X, GeometricSchedule(1e-4, 2.0, 3), n_machines=2,
            backend="multiprocess", evaluator=ev, seed=0,
        ).history_
        assert all(r.precision is not None for r in h.records)
