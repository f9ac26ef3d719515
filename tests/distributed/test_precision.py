"""Reduced-precision training and communication (paper section 9).

Two independent knobs, both covered here:

* ``message_dtype`` — the *wire* precision: every ring hop round-trips
  parameters through a reduced dtype. Historically simulator-only; now a
  base-backend knob honoured by the wall-clock engines too (cast at pack
  time on the pickle-free wire).
* ``compute_dtype`` — the *model's* end-to-end precision, set at model
  construction (``BinaryAutoencoder.linear(..., dtype=...)`` /
  ``DeepNet.create(..., dtype=...)``) and threaded through shards,
  engines, the data plane and checkpoints.
"""

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import available_backends, get_backend
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import make_shards, partition_indices
from repro.nets.adapter import NetAdapter, make_net_shards
from repro.nets.deepnet import DeepNet
from repro.nets.mac import init_coords

from .test_cluster import build_cluster

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def X():
    from repro.data.synthetic import make_clustered

    return make_clustered(160, 10, n_clusters=4, rng=12)


def ba_setup(X, dtype=np.float64, P=3, n_bits=4, seed=0):
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits, dtype=dtype)
    adapter = BAAdapter(ba)
    Xc = np.asarray(X, dtype=dtype)
    Z, _ = init_codes_pca(X, n_bits, rng=seed)
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_shards(Xc, adapter.features(Xc), Z, parts)


def net_setup(X, dtype=np.float64, P=3, seed=0):
    rng = np.random.default_rng(7)
    Y = np.sin(np.asarray(X) @ rng.normal(size=(X.shape[1], 2)))
    net = DeepNet.create([X.shape[1], 6, 2], rng=1, dtype=dtype)
    adapter = NetAdapter(net, z_steps=5)
    Zs = init_coords(net, np.asarray(X, dtype=dtype))
    parts = partition_indices(len(X), P, rng=seed)
    return adapter, make_net_shards(X, Y, Zs, parts)


def fit(make_problem, backend, *, n_iters=4, **backend_options):
    adapter, shards = make_problem()
    trainer = ParMACTrainer(
        adapter,
        GeometricSchedule(1e-3, 2.0, n_iters),
        backend=backend,
        epochs=2,
        shuffle_within=False,
        seed=0,
        backend_options=backend_options,
    )
    history = trainer.fit(shards)
    trainer.close()
    return adapter, history


def final_params(adapter):
    return {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}


class TestMessagePrecision:
    def test_rejects_non_float_dtype(self, X):
        with pytest.raises(ValueError, match="float"):
            build_cluster(X, message_dtype=np.int32)

    def test_bytes_halved_at_float32(self, X):
        full, _ = build_cluster(X, P=4, cost=CostModel(t_wc=10.0))
        half, _ = build_cluster(X, P=4, cost=CostModel(t_wc=10.0),
                                message_dtype=np.float32)
        s_full = full.w_step(0.1)
        s_half = half.w_step(0.1)
        assert s_half.bytes_sent * 2 == s_full.bytes_sent
        assert s_half.comm_time == pytest.approx(s_full.comm_time / 2)

    def test_float16_quarters_comm(self, X):
        full, _ = build_cluster(X, P=4, cost=CostModel(t_wc=10.0))
        quarter, _ = build_cluster(X, P=4, cost=CostModel(t_wc=10.0),
                                   message_dtype=np.float16)
        assert quarter.w_step(0.1).comm_time == pytest.approx(
            full.w_step(0.1).comm_time / 4
        )

    def test_float32_accuracy_nearly_unchanged(self, X):
        # "with little effect on the accuracy" — E_Q after several
        # iterations must track the full-precision run closely.
        full, af = build_cluster(X, P=4, seed=3)
        low, al = build_cluster(X, P=4, seed=3, message_dtype=np.float32)
        mus = [1e-3 * 2**i for i in range(5)]
        for mu in mus:
            e_full = full.run_iteration(mu).e_q
            e_low = low.run_iteration(mu).e_q
        assert e_low == pytest.approx(e_full, rel=0.02)

    def test_float16_still_trains(self, X):
        low, _ = build_cluster(X, P=4, seed=3, message_dtype=np.float16)
        mus = [1e-3 * 2**i for i in range(5)]
        eqs = []
        for mu in mus:
            eqs.append(low.run_iteration(mu).e_q)
        assert np.isfinite(eqs[-1])
        assert eqs[-1] < eqs[0]

    def test_invariants_hold_under_precision_loss(self, X):
        low, _ = build_cluster(X, P=4, message_dtype=np.float16)
        low.w_step(0.1)
        assert low.model_copies_consistent()

    def test_parameters_are_float64_in_model(self, X):
        # The wire format is reduced; the model itself stays float64.
        low, adapter = build_cluster(X, P=3, message_dtype=np.float32)
        low.w_step(0.1)
        assert adapter.model.encoder.A.dtype == np.float64

    def test_p1_unaffected_by_dtype(self, X):
        # Self-hops never serialise, so P=1 results are bit-identical.
        a, ad_a = build_cluster(X, P=1, seed=5)
        b, ad_b = build_cluster(X, P=1, seed=5, message_dtype=np.float16)
        a.w_step(0.1)
        b.w_step(0.1)
        assert np.array_equal(ad_a.model.encoder.A, ad_b.model.encoder.A)


class TestMessageDtypeAllBackends:
    """``message_dtype`` is a backend capability now, not a sim special:
    the wall-clock engines cast at pack time on the pickle-free wire and
    produce bit-identical results to the simulators."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rejected_when_not_float(self, name):
        with pytest.raises(ValueError, match="float"):
            get_backend(name)(message_dtype=np.int32)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_wire_precision_bit_identical_across_engines(self, X, name):
        ref, _ = fit(lambda: ba_setup(X), "sync", message_dtype=np.float32)
        got, history = fit(lambda: ba_setup(X), name, message_dtype=np.float32)
        assert history.records[-1].extra["message_dtype"] == "float32"
        pref, pgot = final_params(ref), final_params(got)
        for sid in pref:
            assert np.array_equal(pref[sid], pgot[sid]), (name, sid)

    def test_wire_precision_changes_bits_but_not_quality(self, X):
        full, h_full = fit(lambda: ba_setup(X), "multiprocess")
        low, h_low = fit(lambda: ba_setup(X), "multiprocess",
                         message_dtype=np.float32)
        pf, pl = final_params(full), final_params(low)
        assert any(not np.array_equal(pf[sid], pl[sid]) for sid in pf)
        assert h_low.records[-1].e_q == pytest.approx(
            h_full.records[-1].e_q, rel=0.02
        )

    @pytest.mark.parametrize("name", ["tcp", "multiprocess"])
    def test_tcp_wire_bytes_shrink(self, X, name):
        _, h_full = fit(lambda: ba_setup(X), name)
        _, h_low = fit(lambda: ba_setup(X), name, message_dtype=np.float32)
        assert h_low.records[-1].extra["payload_bytes"] < (
            0.6 * h_full.records[-1].extra["payload_bytes"]
        )


class TestComputeDtype:
    """float32 end to end: model, shards, engines, wire, checkpoints."""

    def test_model_and_shards_carry_the_dtype(self, X):
        adapter, shards = ba_setup(X, dtype=np.float32)
        assert adapter.compute_dtype == np.float32
        assert adapter.model.encoder.A.dtype == np.float32
        assert shards[0].X.dtype == np.float32
        assert shards[0].F.dtype == np.float32

    @pytest.mark.parametrize("name", BACKENDS)
    def test_float32_ba_bit_identical_across_engines(self, X, name):
        ref, _ = fit(lambda: ba_setup(X, np.float32), "sync")
        got, history = fit(lambda: ba_setup(X, np.float32), name)
        assert history.records[-1].extra["compute_dtype"] == "float32"
        pref, pgot = final_params(ref), final_params(got)
        for sid in pref:
            assert pgot[sid].dtype == np.float32
            assert np.array_equal(pref[sid], pgot[sid]), (name, sid)

    def test_float32_ba_tracks_float64_e_q(self, X):
        _, h64 = fit(lambda: ba_setup(X, np.float64), "sync")
        _, h32 = fit(lambda: ba_setup(X, np.float32), "sync")
        assert h32.records[-1].e_q == pytest.approx(
            h64.records[-1].e_q, rel=1e-3
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_float32_net_trains_everywhere(self, X, name):
        adapter, history = fit(lambda: net_setup(X, np.float32), name)
        assert adapter.model.compute_dtype == np.float32
        assert np.isfinite(history.records[-1].e_q)
        assert history.records[-1].e_ba < history.records[0].e_ba * 1.5

    def test_float32_net_tracks_float64_e_q(self, X):
        _, h64 = fit(lambda: net_setup(X, np.float64), "sync")
        _, h32 = fit(lambda: net_setup(X, np.float32), "sync")
        assert h32.records[-1].e_q == pytest.approx(
            h64.records[-1].e_q, rel=1e-3
        )

    def test_float32_survives_checkpoint_restore(self, X, tmp_path):
        from repro.distributed.dataplane import ClusterState

        adapter, shards = ba_setup(X, dtype=np.float32)
        backend = get_backend("sync")(epochs=2, shuffle_within=False, seed=0)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        path = tmp_path / "f32.ckpt"
        backend.checkpoint().save(path)
        backend.close()

        state = ClusterState.load(path)
        assert state.meta["compute_dtype"] == "float32"
        fresh = get_backend("sync")(epochs=2, shuffle_within=False, seed=0)
        fresh.restore(state)  # snapshot's own adapter: dtype preserved
        assert fresh.compute_dtype == np.float32
        assert fresh.dataplane.shards[0].X.dtype == np.float32
        stats = fresh.run_iteration(2e-3)
        assert np.isfinite(stats.e_q)
        params = final_params(fresh.adapter)
        assert all(theta.dtype == np.float32 for theta in params.values())
        fresh.close()

    def test_restore_refuses_dtype_mismatch(self, X):
        adapter, shards = ba_setup(X, dtype=np.float32)
        backend = get_backend("sync")(epochs=2, shuffle_within=False, seed=0)
        backend.setup(adapter, shards)
        backend.run_iteration(1e-3)
        state = backend.checkpoint()
        backend.close()

        adapter64, _ = ba_setup(X, dtype=np.float64)
        fresh = get_backend("sync")(epochs=2, shuffle_within=False, seed=0)
        with pytest.raises(ValueError, match="compute"):
            fresh.restore(state, adapter=adapter64)

    def test_ingest_enters_at_compute_dtype(self, X):
        adapter, shards = ba_setup(X, dtype=np.float32)
        backend = get_backend("sync")(epochs=1, shuffle_within=False, seed=0)
        backend.setup(adapter, shards)
        backend.ingest(0, np.asarray(X[:7], dtype=np.float64))
        backend.run_iteration(1e-3)
        assert backend.dataplane.shards[0].X.dtype == np.float32
        backend.close()
