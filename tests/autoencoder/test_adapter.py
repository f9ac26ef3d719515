import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import (
    BAAdapter,
    _linear_stats,
    _sum_sq,
    _take_columns,
)
from repro.autoencoder.init import init_codes_pca
from repro.autoencoder.zstep import MAX_ENUM_BITS, _centre, _linear_term, zstep
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.data.synthetic import make_gist_like
from repro.distributed.interfaces import ParMACAdapter, ZStepResult
from repro.distributed.partition import Shard, make_shards, partition_indices
from repro.nets.adapter import NetAdapter
from repro.nets.deepnet import DeepNet
from repro.optim.sgd import SGDState, _visit_plan


@pytest.fixture()
def shard(small_cloud):
    ba = BinaryAutoencoder.linear(12, 6)
    adapter = BAAdapter(ba)
    # Learnable codes: thresholded random linear projections of the data.
    w = np.random.default_rng(0).normal(size=(12, 6))
    Z = (small_cloud @ w >= 0).astype(np.uint8)
    s = Shard(
        X=small_cloud.copy(),
        F=adapter.features(small_cloud),
        Z=Z,
        indices=np.arange(len(small_cloud)),
    )
    return adapter, s


class TestSpecs:
    def test_default_grouping_is_2L(self):
        ba = BinaryAutoencoder.linear(20, 8)
        adapter = BAAdapter(ba)
        specs = adapter.submodel_specs()
        assert len(specs) == 16  # M = 2L (section 5.4)
        assert sum(s.kind == "enc" for s in specs) == 8
        assert sum(s.kind == "dec" for s in specs) == 8

    def test_decoder_groups_cover_all_rows(self):
        ba = BinaryAutoencoder.linear(20, 8)
        adapter = BAAdapter(ba, n_decoder_groups=3)
        rows = sorted(
            r for s in adapter.submodel_specs() if s.kind == "dec" for r in s.index
        )
        assert rows == list(range(20))

    def test_sids_dense(self):
        adapter = BAAdapter(BinaryAutoencoder.linear(10, 4))
        sids = [s.sid for s in adapter.submodel_specs()]
        assert sids == list(range(len(sids)))

    def test_rejects_bad_grouping(self):
        with pytest.raises(ValueError):
            BAAdapter(BinaryAutoencoder.linear(10, 4), n_decoder_groups=11)

    @pytest.mark.parametrize("option, match", [
        (dict(zstep_method="bogus"), "unknown Z-step method"),
        (dict(max_sweeps=0), "max_sweeps"),
        (dict(max_enum_bits=MAX_ENUM_BITS + 4), "max_enum_bits"),
        (dict(max_enum_bits=-1), "max_enum_bits"),
    ])
    def test_rejects_bad_zstep_options(self, option, match):
        # Regression: these once passed construction and failed only in
        # the first Z step, after setup and a whole W step.
        with pytest.raises(ValueError, match=match):
            BAAdapter(BinaryAutoencoder.linear(10, 4), **option)

    def test_rejects_enumeration_past_the_limit(self):
        # Regression: a 32-bit model with zstep_method="enumerate" once
        # constructed and failed only in the first Z step.
        with pytest.raises(ValueError, match=r"enumeration over 2\^32 codes refused"):
            BAAdapter(BinaryAutoencoder.linear(64, 32), zstep_method="enumerate")
        BAAdapter(BinaryAutoencoder.linear(64, 16), zstep_method="enumerate")
        BAAdapter(BinaryAutoencoder.linear(64, 32))  # auto alternates there


class TestParams:
    def test_roundtrip_all_specs(self):
        ba = BinaryAutoencoder.linear(10, 4)
        rng = np.random.default_rng(0)
        ba.encoder.A = rng.normal(size=ba.encoder.A.shape)
        ba.decoder.B = rng.normal(size=ba.decoder.B.shape)
        adapter = BAAdapter(ba)
        for spec in adapter.submodel_specs():
            theta = adapter.get_params(spec)
            adapter.set_params(spec, theta * 2.0)
            assert np.allclose(adapter.get_params(spec), theta * 2.0)

    def test_total_params_cover_model(self):
        ba = BinaryAutoencoder.linear(10, 4)
        adapter = BAAdapter(ba)
        total = sum(len(adapter.get_params(s)) for s in adapter.submodel_specs())
        # encoder: L*(D+1); decoder: D*(L+1).
        assert total == 4 * 11 + 10 * 5


class TestWUpdate:
    def test_does_not_touch_model(self, shard):
        adapter, s = shard
        spec = adapter.submodel_specs()[0]
        theta0 = adapter.get_params(spec)
        adapter.w_update(spec, theta0.copy(), SGDState(), s, 0.0,
                         batch_size=32, shuffle=True, rng=np.random.default_rng(0))
        assert np.array_equal(adapter.get_params(spec), theta0)

    def test_enc_update_reduces_hinge(self, shard):
        adapter, s = shard
        spec = adapter.submodel_specs()[0]
        from repro.optim.svm import LinearSVM

        theta = adapter.get_params(spec)
        state = SGDState()
        for _ in range(20):
            theta = adapter.w_update(spec, theta, state, s, 0.0,
                                     batch_size=32, shuffle=True,
                                     rng=np.random.default_rng(1))
        svm = LinearSVM(12)
        svm.set_params(theta)
        y = 2.0 * s.Z[:, 0].astype(float) - 1.0
        svm0 = LinearSVM(12)
        assert svm.objective(s.F, y) < svm0.objective(s.F, y)

    def test_dec_update_reduces_mse(self, shard):
        adapter, s = shard
        spec = next(sp for sp in adapter.submodel_specs() if sp.kind == "dec")
        theta = adapter.get_params(spec)
        state = SGDState()
        rows = np.asarray(spec.index)
        from repro.optim.linreg import LinearRegression

        def mse(th):
            reg = LinearRegression(6, len(rows))
            reg.set_params(th)
            return reg.objective(s.Z.astype(float), s.X[:, rows])

        before = mse(theta)
        for _ in range(20):
            theta = adapter.w_update(spec, theta, state, s, 0.0,
                                     batch_size=32, shuffle=True,
                                     rng=np.random.default_rng(2))
        assert mse(theta) < before


class TestZUpdateAndObjectives:
    def test_z_update_never_increases_e_q(self, shard):
        adapter, s = shard
        before = adapter.e_q_shard(s, mu=0.5)
        adapter.z_update(s, mu=0.5)
        assert adapter.e_q_shard(s, mu=0.5) <= before + 1e-9

    def test_z_update_returns_change_count(self, shard):
        adapter, s = shard
        Z_before = s.Z.copy()
        result = adapter.z_update(s, mu=0.5)
        assert isinstance(result, ZStepResult)
        assert result.z_changes == int((s.Z != Z_before).sum())

    def test_e_q_shard_matches_model(self, shard):
        adapter, s = shard
        assert adapter.e_q_shard(s, 0.7) == pytest.approx(
            adapter.model.e_q(s.X, s.Z, 0.7)
        )

    def test_e_ba_shard_matches_model(self, shard):
        adapter, s = shard
        assert adapter.e_ba_shard(s) == pytest.approx(adapter.model.e_ba(s.X))

    def test_violations_shard(self, shard):
        adapter, s = shard
        s.Z = adapter.init_codes(s.F)
        assert adapter.violations_shard(s) == 0
        s.Z[0, 0] ^= 1
        assert adapter.violations_shard(s) == 1

    def test_init_codes_match_encode(self, shard):
        adapter, s = shard
        assert np.array_equal(adapter.init_codes(s.F), adapter.model.encode(s.X))


# ------------------------------------------------------------------ oracles
# The expression forms of the batched kernels' operation order (the
# kernels run them over preallocated buffers, and must match them bit
# for bit), the residual forms the kernels had before the Gram-form and
# two-pass rewrite (matched to a stated tolerance), and the shard
# statistics' expression form (matched to rounding for E_Q and E_BA,
# exactly for violations).
def oracle_batch_enc(adapter, specs, thetas, states, shard, batch_size):
    enc = adapter.model.encoder
    cd = adapter.compute_dtype
    lam = enc.lam
    F = np.asarray(shard.F, dtype=cd)
    bits = np.fromiter((spec.index for spec in specs), dtype=np.intp)
    Yt = 2.0 * shard.Z[:, bits].astype(cd) - 1.0
    Theta = np.stack([np.asarray(th, dtype=cd).ravel() for th in thetas])
    W = np.ascontiguousarray(Theta[:, :-1])
    b = np.ascontiguousarray(Theta[:, -1])
    n = shard.n
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        m_b = sl.stop - sl.start
        etas = np.array([enc.schedule.rate(st.t) for st in states]).astype(cd)
        scores = F[sl] @ W.T + b
        Ya = Yt[sl] * ((Yt[sl] * scores) < 1.0)
        gb = Ya.sum(axis=0)
        Ya = Ya * (etas / m_b)
        W *= (1.0 - lam * etas)[:, None]
        W += Ya.T @ F[sl]
        b += gb * (etas / m_b)
        for st in states:
            st.advance(m_b)
    return [np.concatenate([W[i], b[i : i + 1]]) for i in range(len(specs))]


def oracle_batch_dec(adapter, specs, thetas, states, shard, batch_size):
    dec = adapter.model.decoder
    cd = adapter.compute_dtype
    L = adapter.model.n_bits
    groups = [np.asarray(spec.index, dtype=np.intp) for spec in specs]
    sizes = [len(rows) for rows in groups]
    A = np.hstack([shard.Z, np.ones((shard.n, 1))]).astype(cd)
    # Row-major, as the kernel's targets: the GEMM's bits follow layout.
    T = np.take(np.asarray(shard.X, dtype=cd), np.concatenate(groups), axis=1)
    Theta = np.hstack([  # [W | c]^T, (L + 1) x R
        np.vstack([th[: len(rows) * L].reshape(len(rows), L).T, th[None, len(rows) * L :]])
        for th, rows in zip((np.asarray(t, dtype=cd).ravel() for t in thetas), groups)
    ])
    group_of_row = np.repeat(np.arange(len(specs), dtype=np.intp), sizes)
    n = shard.n
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        m_b = sl.stop - sl.start
        etas = np.array([dec.schedule.rate(st.t) for st in states]).astype(cd)
        As, Ts = A[sl], T[sl]
        coef = etas[group_of_row] * (2.0 / m_b)
        Theta -= ((As.T @ As) @ Theta - As.T @ Ts) * coef
        for st in states:
            st.advance(m_b)
    out, offset = [], 0
    for size in sizes:
        block = Theta[:, offset : offset + size]
        out.append(np.concatenate([block[:L].T.ravel(), block[L]]))
        offset += size
    return out


def residual_batch_enc(adapter, specs, thetas, states, shard, batch_size):
    enc = adapter.model.encoder
    cd = adapter.compute_dtype
    lam = enc.lam
    F = np.asarray(shard.F, dtype=cd)
    bits = np.fromiter((spec.index for spec in specs), dtype=np.intp)
    Yt = 2.0 * shard.Z[:, bits].astype(cd) - 1.0
    Theta = np.stack([np.asarray(th, dtype=cd).ravel() for th in thetas])
    W = np.ascontiguousarray(Theta[:, :-1])
    b = np.ascontiguousarray(Theta[:, -1])
    n = shard.n
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        m_b = sl.stop - sl.start
        etas = np.array([enc.schedule.rate(st.t) for st in states]).astype(cd)
        scores = F[sl] @ W.T + b
        Ya = Yt[sl] * ((Yt[sl] * scores) < 1.0)
        W -= etas[:, None] * (lam * W - (Ya.T @ F[sl]) / m_b)
        b -= etas * (-Ya.sum(axis=0) / m_b)
        for st in states:
            st.advance(m_b)
    return [np.concatenate([W[i], b[i : i + 1]]) for i in range(len(specs))]


def residual_batch_dec(adapter, specs, thetas, states, shard, batch_size):
    dec = adapter.model.decoder
    cd = adapter.compute_dtype
    L = adapter.model.n_bits
    groups = [np.asarray(spec.index, dtype=np.intp) for spec in specs]
    sizes = [len(rows) for rows in groups]
    Z = shard.Z.astype(cd)
    T = np.asarray(shard.X, dtype=cd)[:, np.concatenate(groups)]
    W_blocks, c_blocks = [], []
    for theta, rows in zip(thetas, groups):
        theta = np.asarray(theta, dtype=cd).ravel()
        kk = len(rows) * L
        W_blocks.append(theta[:kk].reshape(len(rows), L))
        c_blocks.append(theta[kk:])
    W = np.ascontiguousarray(np.vstack(W_blocks))
    c = np.concatenate(c_blocks)
    group_of_row = np.repeat(np.arange(len(specs), dtype=np.intp), sizes)
    n = shard.n
    for start in range(0, n, batch_size):
        sl = slice(start, min(start + batch_size, n))
        m_b = sl.stop - sl.start
        etas = np.array([dec.schedule.rate(st.t) for st in states]).astype(cd)
        eta_rows = etas[group_of_row]
        resid = Z[sl] @ W.T + c - T[sl]
        W -= eta_rows[:, None] * ((2.0 / m_b) * (resid.T @ Z[sl]))
        c -= eta_rows * ((2.0 / m_b) * resid.sum(axis=0))
        for st in states:
            st.advance(m_b)
    out, offset = [], 0
    for size in sizes:
        rows = slice(offset, offset + size)
        out.append(np.concatenate([W[rows].ravel(), c[rows]]))
        offset += size
    return out


ORACLE_KERNEL = {"enc": oracle_batch_enc, "dec": oracle_batch_dec}
RESIDUAL_KERNEL = {"enc": residual_batch_enc, "dec": residual_batch_dec}


def per_minibatch_plan(schedule, states, n, batch_size, dtype):
    """The step sizes and state advances as the kernels made them before
    a visit planned them once: a dict, a list and an array per minibatch,
    and every state advanced after each one."""
    rows = []
    for start in range(0, n, batch_size):
        rate_of = {t: schedule.rate(t) for t in {st.t for st in states}}
        rows.append(np.array([rate_of[st.t] for st in states]).astype(dtype))
        for st in states:
            st.advance(min(start + batch_size, n) - start)
    return rows


def oracle_stats(adapter, shard, mu):
    cd = adapter.compute_dtype
    decode = adapter.model.decoder.decode
    Zf = shard.Z.astype(cd)
    H = adapter._encode_features(shard.F)
    R = shard.X - decode(Zf)
    dzh = Zf - H.astype(cd)
    e_q = float((R * R).sum() + mu * (dzh * dzh).sum())
    R = shard.X - decode(H)
    return e_q, float((R * R).sum()), int((shard.Z != H).sum())


def random_problem(n, D, L, dtype=np.float64, seed=0, n_decoder_groups=None):
    """A BA with generic (non-zero) parameters and a shard of n rows."""
    rng = np.random.default_rng(seed)
    ba = BinaryAutoencoder.linear(D, L, dtype=dtype)
    ba.encoder.A[:] = 0.3 * rng.normal(size=ba.encoder.A.shape)
    ba.encoder.a[:] = 0.1 * rng.normal(size=L)
    ba.decoder.B[:] = 0.3 * rng.normal(size=ba.decoder.B.shape)
    ba.decoder.c[:] = 0.1 * rng.normal(size=D)
    adapter = BAAdapter(ba, n_decoder_groups=n_decoder_groups)
    X = rng.normal(size=(n, D)).astype(dtype)
    Z = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
    return adapter, Shard(X=X, F=adapter.features(X), Z=Z, indices=np.arange(n))


def chained_passes(kernel, adapter, specs, shard, batch_size, ts):
    """Two chained passes from the model's parameters; returns the final
    thetas and the carried states."""
    thetas = [adapter.get_params(spec) for spec in specs]
    states = [SGDState(t=t, n_updates=3 * t) for t in ts]
    for _ in range(2):
        thetas = kernel(adapter, specs, thetas, states, shard, batch_size)
    return thetas, states


def assert_kernel_matches_oracle(adapter, specs, shard, batch_size, ts=None):
    ts = [0] * len(specs) if ts is None else ts
    kind = specs[0].kind

    def kernel(adapter, specs, thetas, states, shard, batch_size):
        return adapter.w_update_batch(
            specs, thetas, states, shard, 1.0,
            batch_size=batch_size, shuffle=False, rng=None,
        )

    got, got_states = chained_passes(kernel, adapter, specs, shard, batch_size, ts)
    want, want_states = chained_passes(
        ORACLE_KERNEL[kind], adapter, specs, shard, batch_size, ts
    )
    assert got_states == want_states
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def of_kind(adapter, kind):
    return [s for s in adapter.submodel_specs() if s.kind == kind]


class TestBatchedKernelsMatchExpressionForm:
    """The buffered kernels keep the expression forms' bits."""

    # batch_size 50: a multiple, a ragged tail, n < batch_size, empty.
    @pytest.mark.parametrize("n", [100, 130, 37, 0])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["enc", "dec"])
    def test_full_convoy(self, kind, dtype, n):
        adapter, shard = random_problem(n, 24, 6, dtype)
        assert_kernel_matches_oracle(adapter, of_kind(adapter, kind), shard, 50)

    @pytest.mark.parametrize("kind", ["enc", "dec"])
    def test_each_state_keeps_its_own_rate(self, kind):
        adapter, shard = random_problem(130, 24, 6)
        specs = of_kind(adapter, kind)
        assert_kernel_matches_oracle(
            adapter, specs, shard, 50, ts=[0, 7, 7, 200, 3, 0][: len(specs)]
        )

    @pytest.mark.parametrize("order", [[4, 1, 2], [0, 2, 3], [3, 2, 1, 0]])
    def test_noncontiguous_decoder_groups_take_the_gather(self, order):
        adapter, shard = random_problem(130, 24, 6)
        dec = of_kind(adapter, "dec")
        specs = [dec[i] for i in order]
        cols = np.concatenate([np.asarray(s.index) for s in specs])
        assert not np.shares_memory(_take_columns(shard.X, cols), shard.X)
        assert_kernel_matches_oracle(adapter, specs, shard, 50)

    def test_a_home_block_of_decoder_groups_is_a_view(self):
        adapter, shard = random_problem(10, 24, 6)
        specs = of_kind(adapter, "dec")[1:4]
        cols = np.concatenate([np.asarray(s.index) for s in specs])
        T = _take_columns(shard.X, cols)
        assert np.shares_memory(T, shard.X)
        assert np.array_equal(T, shard.X[:, cols])

    @given(
        n=st.integers(0, 70),
        D=st.integers(2, 20),
        L=st.integers(1, 5),
        batch_size=st.integers(1, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(["enc", "dec"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_shape_any_subset(self, n, D, L, batch_size, dtype, kind, seed):
        adapter, shard = random_problem(n, D, L, dtype, seed)
        rng = np.random.default_rng(seed)
        specs = of_kind(adapter, kind)
        # A random same-kind subset in random order, with random counters.
        pick = rng.permutation(len(specs))[: rng.integers(1, len(specs) + 1)]
        specs = [specs[i] for i in pick]
        ts = [int(t) for t in rng.integers(0, 3, size=len(specs))]
        assert_kernel_matches_oracle(adapter, specs, shard, batch_size, ts)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_per_unit_decoder_update_is_unchanged_by_the_view(self, dtype):
        # w_update(kind="dec") slices its contiguous rows; a spec whose
        # rows are the same set out of order still gathers. Both must
        # give what LinearRegression gives on the gathered columns.
        from repro.distributed.interfaces import SubmodelSpec
        from repro.optim.linreg import LinearRegression

        adapter, shard = random_problem(130, 24, 6, dtype)
        spec = of_kind(adapter, "dec")[2]
        for rows in (spec.index, spec.index[::-1]):
            theta0 = adapter.model.decoder.row_params(np.asarray(rows))
            reg = LinearRegression(
                6, len(rows), schedule=adapter.model.decoder.schedule, dtype=dtype
            )
            reg.set_params(theta0)
            reg.partial_fit(
                shard.Z.astype(dtype), shard.X[:, np.asarray(rows)], SGDState(),
                batch_size=50, shuffle=False,
            )
            got = adapter.w_update(
                SubmodelSpec(sid=spec.sid, kind="dec", index=rows), theta0,
                SGDState(), shard, 1.0, batch_size=50, shuffle=False, rng=None,
            )
            assert np.array_equal(got, reg.get_params())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [0, 37, 100, 130])
    def test_the_visit_plan_is_the_per_minibatch_bookkeeping(self, n, dtype):
        adapter, _ = random_problem(1, 24, 6)
        schedule = adapter.model.decoder.schedule
        ts = [0, 7, 7, 200, 3, 8]
        old = [SGDState(t=t, n_updates=3 * t) for t in ts]
        new = [st.copy() for st in old]
        want = per_minibatch_plan(schedule, old, n, 50, dtype)
        slices, rows, table = _visit_plan(schedule, new, n, 50)
        assert new == old
        spans = [(a, min(a + 50, n)) for a in range(0, n, 50)]
        assert [(sl.start, sl.stop) for sl in slices] == spans
        assert rows.tolist() == [b - a for a, b in spans]
        assert table.dtype == np.float64 and table.shape == (len(want), len(ts))
        assert all(np.array_equal(row.astype(dtype), w) for row, w in zip(table, want))
        # Under an order, minibatch k gathers the same span of the order.
        order = np.random.default_rng(n).permutation(n)
        fresh = [SGDState(t=t, n_updates=3 * t) for t in ts]
        gathered, _, again = _visit_plan(schedule, fresh, n, 50, order)
        assert all(np.array_equal(g, order[a:b]) for g, (a, b) in zip(gathered, spans))
        assert np.array_equal(again, table)

    def test_sync_fit_is_bit_identical_to_the_expression_forms(self, monkeypatch):
        """The bench's train_w32_tcp shape, shrunk: P = 2, two epochs,
        batched W, alternating Z."""

        def fit():
            X = make_gist_like(400, 96, n_clusters=10, rng=0)
            ba = BinaryAutoencoder.linear(96, 32)
            adapter = BAAdapter(ba)
            Z0, _ = init_codes_pca(X, 32, rng=0)
            shards = make_shards(
                X, adapter.features(X), Z0, partition_indices(400, 2, rng=0)
            )
            trainer = ParMACTrainer(
                adapter, GeometricSchedule(1e-3, 2.0, 4), backend="sync",
                epochs=2, shuffle_within=False, batch_size=100, seed=0,
            )
            history = trainer.fit(shards)
            trainer.close()
            return [adapter.get_params(s) for s in adapter.submodel_specs()], history

        new, new_history = fit()
        visits = []

        def counted(kernel):
            def run(*args):
                *args, order = args
                assert order is None  # shuffle_within=False: sequential
                visits.append(kernel)
                return kernel(*args)
            return run

        monkeypatch.setattr(BAAdapter, "_w_update_batch_enc", counted(oracle_batch_enc))
        monkeypatch.setattr(BAAdapter, "_w_update_batch_dec", counted(oracle_batch_dec))
        old, old_history = fit()
        # 4 iterations x 2 epochs x 2 machines, one convoy of each kind.
        assert visits.count(oracle_batch_enc) == visits.count(oracle_batch_dec) == 16
        assert all(np.array_equal(a, b) for a, b in zip(new, old))
        assert [(r.z_changes, r.violations) for r in new_history.records] == [
            (r.z_changes, r.violations) for r in old_history.records
        ]


class TestKernelsAgreeWithTheResidualForm:
    """The Gram-form decoder and two-pass encoder against the residual
    forms the kernels replaced, to ``RTOL`` of the parameters' largest
    magnitude after two chained passes."""

    RTOL = {np.float64: 1e-12, np.float32: 5e-5}

    # Derandomised: a hinge score within rounding of the margin flips one
    # encoder step, which no tolerance covers, so the draws are fixed.
    @given(
        n=st.integers(0, 70),
        D=st.integers(2, 20),
        L=st.integers(1, 6),
        batch_size=st.integers(1, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(["enc", "dec"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_generated(self, n, D, L, batch_size, dtype, kind, seed):
        adapter, shard = random_problem(n, D, L, dtype, seed)
        rng = np.random.default_rng(seed)
        specs = of_kind(adapter, kind)
        # A random subset in random order (non-contiguous decoder groups),
        # with differing counters; n = 0 is the empty shard.
        pick = rng.permutation(len(specs))[: rng.integers(1, len(specs) + 1)]
        specs = [specs[i] for i in pick]
        ts = [int(t) for t in rng.integers(0, 50, size=len(specs))]

        def kernel(adapter, specs, thetas, states, shard, batch_size):
            return adapter.w_update_batch(
                specs, thetas, states, shard, 1.0,
                batch_size=batch_size, shuffle=False, rng=None,
            )

        got, got_states = chained_passes(kernel, adapter, specs, shard, batch_size, ts)
        want, want_states = chained_passes(
            RESIDUAL_KERNEL[kind], adapter, specs, shard, batch_size, ts
        )
        assert got_states == want_states
        got, want = np.concatenate(got), np.concatenate(want)
        assert got.dtype == want.dtype == dtype
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= self.RTOL[dtype] * scale


class TestShardStats:
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 2000])
    @pytest.mark.parametrize("mu", [0.0, 0.7])
    def test_matches_model_and_expression_form(self, n, mu):
        adapter, s = random_problem(n, 40, 8, seed=n)
        e_q, e_ba, violations = adapter.shard_stats(s, mu)
        want_q, want_ba, want_v = oracle_stats(adapter, s, mu)
        assert isinstance(violations, int) and violations == want_v
        assert e_q == pytest.approx(want_q, rel=1e-12)
        assert e_ba == pytest.approx(want_ba, rel=1e-12)
        if n:
            assert e_q == pytest.approx(adapter.model.e_q(s.X, s.Z, mu), rel=1e-12)
            assert e_ba == pytest.approx(adapter.model.e_ba(s.X), rel=1e-12)
        else:
            assert (e_q, e_ba, violations) == (0.0, 0.0, 0)

    def test_float32_model(self):
        adapter, s = random_problem(600, 40, 8, np.float32)
        e_q, e_ba, violations = adapter.shard_stats(s, 0.7)
        want_q, want_ba, want_v = oracle_stats(adapter, s, 0.7)
        assert violations == want_v
        assert e_q == pytest.approx(want_q, rel=1e-5)
        assert e_ba == pytest.approx(want_ba, rel=1e-5)

    def test_the_three_statistics_are_its_components(self, shard):
        adapter, s = shard
        e_q, e_ba, violations = adapter.shard_stats(s, 0.7)
        assert adapter.e_q_shard(s, 0.7) == e_q
        assert adapter.e_ba_shard(s) == e_ba
        assert adapter.violations_shard(s) == violations

    def test_encodes_the_shard_once(self, shard, monkeypatch):
        adapter, s = shard
        calls = []
        encode = adapter._encode_features
        monkeypatch.setattr(
            adapter, "_encode_features", lambda F: calls.append(1) or encode(F)
        )
        adapter.shard_stats(s, 0.5)
        assert len(calls) == 1

    def test_no_shard_sized_temporaries(self):
        # A 2000 x 960 float64 shard is 15 MB; three expression-form
        # statistics peak at 30 MB. One block of centred rows is 1.9 MB.
        adapter, s = random_problem(2000, 960, 32)
        adapter.shard_stats(s, 0.5)
        tracemalloc.start()
        try:
            adapter.shard_stats(s, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_both_adapters_satisfy_the_protocol(self):
        ba = BAAdapter(BinaryAutoencoder.linear(10, 4))
        net = NetAdapter(DeepNet.create([4, 6, 2], rng=1))
        assert isinstance(ba, ParMACAdapter)
        assert isinstance(net, ParMACAdapter)

    def test_net_adapter_composes_its_three_statistics(self):
        from repro.nets.adapter import make_net_shards
        from repro.nets.mac import init_coords

        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        Y = np.sin(X @ rng.normal(size=(4, 2)))
        net = DeepNet.create([4, 6, 2], rng=1)
        adapter = NetAdapter(net)
        Zs = init_coords(net, X)
        (s,) = make_net_shards(X, Y, Zs, [np.arange(30)])
        assert adapter.shard_stats(s, 0.5) == (
            adapter.e_q_shard(s, 0.5), adapter.e_ba_shard(s), adapter.violations_shard(s)
        )
        # Its Z step reports them under the new coordinates.
        result = adapter.z_update(s, 0.5)
        assert isinstance(result, ZStepResult) and result.z_changes > 0
        assert result[1:] == adapter.shard_stats(s, 0.5)


class TestZStepReportsTheStatistics:
    """``z_update`` solves with the public solver's bits and reports the
    shard's statistics under the new codes: :meth:`shard_stats`', bit for
    bit (and so the expression form's to rounding)."""

    @given(
        method=st.sampled_from(["auto", "enumerate", "alternate", "relaxed"]),
        n=st.sampled_from([0, 1, 255, 256, 257]),
        mu=st.sampled_from([0.0, 0.7, 1e3]),
        L=st.sampled_from([3, MAX_ENUM_BITS, MAX_ENUM_BITS + 1]),
        dtype=st.sampled_from([np.float64, np.float32]),
        seed=st.integers(0, 10_000),
    )
    def test_matches_the_expression_form(self, method, n, mu, L, dtype, seed):
        assume(method != "enumerate" or L <= MAX_ENUM_BITS)
        adapter, s = random_problem(n, 24, L, dtype, seed)
        adapter.zstep_method = method
        dec = adapter.model.decoder
        Z0 = s.Z.copy()
        H = adapter._encode_features(s.F)
        want_Z = zstep(s.X, dec.B, dec.c, H, mu, method=method, Z0=Z0)

        result = adapter.z_update(s, mu)
        assert np.array_equal(s.Z, want_Z)
        assert result.z_changes == int((want_Z != Z0).sum())
        assert isinstance(result.violations, int)
        assert tuple(result[1:]) == adapter.shard_stats(s, mu)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 2000, 2050])
    def test_blocked_codes_are_the_whole_arrays(self, n):
        # At the W-bound bench shape (D = 960, L = 32: 273-row blocks of
        # 2 MB), every block's GEMM takes the whole array's BLAS path, so
        # the linear term, and with it the codes, keep their bits.
        adapter, s = random_problem(n, 960, 32, seed=n)
        dec = adapter.model.decoder
        whole = _linear_term(_centre(s.X, dec.c, dec.B), dec.B)
        XcB, _ = _linear_stats(s.X, dec.c, dec.B)
        assert np.array_equal(XcB, whole)
        H = adapter._encode_features(s.F)
        want_Z = zstep(s.X, dec.B, dec.c, H, 0.5, method="alternate", Z0=s.Z.copy())
        adapter.z_update(s, 0.5)
        assert np.array_equal(s.Z, want_Z)

    @pytest.mark.parametrize("n, D", [(1000, 128), (0, 960), (300, 960)])
    def test_a_shard_of_one_block_takes_the_whole_array_path(self, n, D):
        # train_z16_mp's shard (1,000 x 128 is 1 MB), an empty shard, and
        # one under two minimum blocks.
        adapter, s = random_problem(n, D, 16, seed=1)
        dec = adapter.model.decoder
        Xc = _centre(s.X, dec.c, dec.B)
        XcB, sq = _linear_stats(s.X, dec.c, dec.B)
        assert np.array_equal(XcB, _linear_term(Xc, dec.B))
        assert sq == _sum_sq(Xc)

    def test_non_finite_rows_are_named_across_blocks(self):
        adapter, s = random_problem(2000, 960, 8)
        s.X[1500, 3] = np.nan
        dec = adapter.model.decoder
        with pytest.raises(ValueError, match="row 1500"):
            _linear_stats(s.X, dec.c, dec.B)
