"""Deep nets through the one fit loop on several shards."""

import numpy as np
import pytest

from repro.core.penalty import GeometricSchedule
from repro.nets.deepnet import DeepNet
from tests.fits import fit_net


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(150, 4))
    Y = np.sin(X @ rng.normal(size=(4, 2)))
    return X, Y


class TestParMACNet:
    def test_reduces_nested_loss(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 8, 2], rng=0)
        before = net.loss(X, Y)
        h = fit_net(
            net, X, Y, GeometricSchedule(0.5, 1.6, 8), n_machines=3, epochs=2, seed=0
        ).history_
        assert h.records[-1].e_ba < before
        assert len(h) == 8

    def test_ring_invariants(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=1)
        trainer = fit_net(net, X, Y, n_machines=4, seed=0)
        assert trainer.backend.model_copies_consistent()

    def test_close_to_serial_mac_net(self, problem):
        X, Y = problem
        sched = GeometricSchedule(0.5, 1.6, 6)
        serial = DeepNet.create([4, 8, 2], rng=2)
        fit_net(serial, X, Y, sched, epochs=2, seed=0)
        par = DeepNet.create([4, 8, 2], rng=2)
        fit_net(par, X, Y, sched, n_machines=3, epochs=2, seed=0)
        assert par.loss(X, Y) <= serial.loss(X, Y) * 1.6

    def test_1d_targets(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] ** 2
        net = DeepNet.create([3, 5, 1], rng=0)
        h = fit_net(net, X, y, n_machines=2, seed=0).history_
        assert np.isfinite(h.records[-1].e_ba)

    def test_rejects_length_mismatch(self):
        net = DeepNet.create([3, 4, 2], rng=0)
        with pytest.raises(ValueError):
            fit_net(net, np.zeros((5, 3)), np.zeros((4, 2)), n_machines=2)

    def test_virtual_time_recorded(self, problem):
        X, Y = problem
        from repro.distributed.costmodel import CostModel

        net = DeepNet.create([4, 6, 2], rng=4)
        h = fit_net(
            net, X, Y, n_machines=3, cost=CostModel(t_wr=1, t_wc=50, t_zr=2), seed=0
        ).history_
        assert all(r.time > 0 for r in h.records)


class TestHistoryExport:
    def test_to_rows_includes_extras(self, problem):
        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=5)
        h = fit_net(
            net, X, Y, GeometricSchedule(0.5, 2.0, 3), n_machines=2, seed=0
        ).history_
        rows = h.to_rows()
        assert len(rows) == 3
        assert "wall_time" in rows[0] and "e_q" in rows[0]

    def test_to_csv_roundtrip(self, problem, tmp_path):
        import csv

        X, Y = problem
        net = DeepNet.create([4, 6, 2], rng=6)
        h = fit_net(
            net, X, Y, GeometricSchedule(0.5, 2.0, 3), n_machines=2, seed=0
        ).history_
        path = tmp_path / "history.csv"
        h.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[0]["mu"]) == pytest.approx(0.5)

    def test_empty_history_export_rejected(self, tmp_path):
        from repro.core.history import TrainingHistory

        with pytest.raises(ValueError):
            TrainingHistory().to_csv(tmp_path / "x.csv")
