"""The one fit loop: serial MAC is ParMAC on one shard.

Covers what moved onto :class:`ParMACTrainer` and the adapters when the
serial and front-end trainers went: evaluator handling, early stopping,
the exact decoder's one-shard rule on every engine, and bit-parity of
the shard builders with the front ends they replace.
"""

import hashlib

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.core.evaluation import PrecisionEvaluator
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.data.synthetic import make_clustered
from repro.distributed.backends import available_backends
from repro.nets.adapter import NetAdapter, build_net_shards
from repro.nets.deepnet import DeepNet
from repro.optim.linreg import LinearRegression

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def X():
    return make_clustered(250, 12, n_clusters=5, rng=1)


def exact_trainer(X, backend="sync", **options):
    adapter = BAAdapter(BinaryAutoencoder.linear(X.shape[1], 4), decoder_exact=True)
    trainer = ParMACTrainer(
        adapter, GeometricSchedule(1e-3, 2.0, 12), backend=backend,
        shuffle_within=False, stop_on_fixed_point=True, seed=0, **options,
    )
    return adapter, trainer


class TestEvaluator:
    def test_evaluator_returning_none_is_no_metrics(self, X):
        calls = []
        adapter, trainer = exact_trainer(X, evaluator=lambda model: calls.append(1))
        h = trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))
        assert len(calls) == len(h) >= 1
        assert all(r.precision is None and r.recall is None for r in h.records)

    def test_early_stopping_needs_the_score_key(self, X):
        def no_score(model):
            return {"recall": 0.5}

        no_score.score_key = "precision"
        adapter, trainer = exact_trainer(X, evaluator=no_score, early_stopping=True)
        with pytest.raises(ValueError, match="'precision'"):
            trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))

    def test_early_stopping_refuses_resume(self, X, tmp_path):
        adapter, trainer = exact_trainer(X)
        trainer.fit(
            build_ba_shards(adapter, X, n_machines=1, seed=0),
            checkpoint_path=tmp_path / "fit.ckpt",
        )
        ev = PrecisionEvaluator(X[:20], X, K=20, k=10)
        _, resumed = exact_trainer(X, evaluator=ev, early_stopping=True)
        with pytest.raises(ValueError, match="cannot resume"):
            resumed.fit(resume=tmp_path / "fit.ckpt")
        assert resumed.history_ is None


class TestExactDecoderSolve:
    """The exact decoder solves once per iteration, not once per group."""

    @pytest.mark.parametrize("shuffle_within", [True, False])
    def test_one_solve_per_iteration(self, X, shuffle_within, monkeypatch):
        calls = []
        real = LinearRegression.fit_lstsq

        def counted(reg, Z, X_rows):
            calls.append(X_rows.shape)
            return real(reg, Z, X_rows)

        monkeypatch.setattr(LinearRegression, "fit_lstsq", counted)
        adapter = BAAdapter(
            BinaryAutoencoder.linear(X.shape[1], 4), n_decoder_groups=4,
            decoder_exact=True,
        )
        h = ParMACTrainer(
            adapter, GeometricSchedule(1e-3, 2.0, 3), epochs=2,
            shuffle_within=shuffle_within, seed=0,
        ).fit(build_ba_shards(adapter, X, n_machines=1, seed=0))
        assert calls == [X.shape] * len(h)


class TestEarlyStoppingConformance:
    """A one-shard exact-decoder fit with early stopping is the same fit
    on every engine: same stopping iteration, parameters and codes."""

    @pytest.fixture(scope="class")
    def runs(self, X):
        out = {}
        for name in BACKENDS:
            ev = PrecisionEvaluator(X[:20], X, K=20, k=10)
            adapter, trainer = exact_trainer(
                X, name, evaluator=ev, early_stopping=True
            )
            with trainer:
                h = trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))
                (shard,) = trainer.checkpoint().shards.values()
            params = [adapter.get_params(s).copy() for s in adapter.submodel_specs()]
            out[name] = (h, params, shard.Z.copy(), ev(adapter.model)["precision"])
        return out

    def test_stops_early_at_the_best_precision(self, runs):
        h, _, _, final = runs["sync"]
        assert len(h) < 12  # the fixture's schedule really is cut short
        assert final == pytest.approx(max(r.precision for r in h.records), abs=1e-9)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_identical_to_sync(self, runs, name):
        h, params, Z, _ = runs[name]
        h_ref, params_ref, Z_ref, _ = runs["sync"]
        assert len(h) == len(h_ref)
        assert [r.e_q for r in h.records] == [r.e_q for r in h_ref.records]
        for got, ref in zip(params, params_ref):
            assert np.array_equal(got, ref)
        assert np.array_equal(Z, Z_ref)


@pytest.mark.parametrize("name", BACKENDS)
class TestExactDecoderIsOneShard:
    """Least squares on the visited shard is the whole-data solve only
    with one shard; every engine refuses a second machine up front."""

    def test_two_shards_refused_before_training(self, X, name):
        adapter, trainer = exact_trainer(X, name)
        before = adapter.model.decoder.B.copy()
        with trainer, pytest.raises(ValueError, match="at most 1 machine"):
            trainer.fit(build_ba_shards(adapter, X, n_machines=2, seed=0))
        assert np.array_equal(adapter.model.decoder.B, before)

    def test_add_machine_refused(self, X, name):
        adapter, trainer = exact_trainer(X, name)
        joins = {0: [make_clustered(20, X.shape[1], n_clusters=2, rng=3)]}
        with trainer, pytest.raises(ValueError, match="at most 1 machine"):
            trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0), joins=joins)
        assert trainer.history_ is None  # no iteration ran


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class TestBuilderParity:
    """The shard builders plus the fit loop reproduce, bit for bit, the
    final parameters the removed BA and net front ends produced at the
    same seed (digests recorded from those front ends, then re-recorded
    when the shuffled W step's minibatch orders became keyed draws: these
    fits shuffle within machines, the trainer's default)."""

    @pytest.mark.parametrize("P, expected", [(1, "d8b826754d7c6c58"), (4, "1a46ba01aa04b0a0")])
    def test_ba(self, P, expected):
        X = make_clustered(240, 10, n_clusters=4, rng=2)
        ba = BinaryAutoencoder.linear(10, 4)
        adapter = BAAdapter(ba)
        ParMACTrainer(
            adapter, GeometricSchedule(1e-4, 2.0, 6), stop_on_fixed_point=True, seed=0
        ).fit(build_ba_shards(adapter, X, n_machines=P, seed=0))
        assert digest([ba.encoder.A, ba.encoder.a, ba.decoder.B, ba.decoder.c]) == expected

    @pytest.mark.parametrize("P, expected", [(1, "bf8c5de45dbfaaa2"), (4, "09cc7dc52672009d")])
    def test_net(self, P, expected):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 4))
        Y = np.sin(X @ rng.normal(size=(4, 2)))
        net = DeepNet.create([4, 8, 2], rng=0)
        adapter = NetAdapter(net)
        ParMACTrainer(
            adapter, GeometricSchedule(0.5, 1.6, 8), epochs=2, batch_size=32, seed=0
        ).fit(build_net_shards(adapter, X, Y, n_machines=P, seed=0))
        assert digest([a for layer in net.layers for a in (layer.W, layer.b)]) == expected
