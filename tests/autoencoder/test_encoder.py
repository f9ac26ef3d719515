import importlib
import tracemalloc

import numpy as np
import pytest

from repro.autoencoder.encoder import LinearEncoder, RBFEncoder, gaussian_kernel_features
from repro.optim.sgd import SGDState

emod = importlib.import_module("repro.autoencoder.encoder")


def encode_oracle(enc, X):
    """The unblocked threshold the blocked encode must equal."""
    return (enc.features(X) @ enc.A.T + enc.a >= 0).astype(np.uint8)


def dyadic(rng, size, scale=2):
    """Small multiples of ``1/scale``: every sum and product of a few is
    exact, so no GEMM blocking can move a score (ties at 0 included)."""
    return rng.integers(-4, 5, size=size) / scale


def parity_encoder(kind, dtype, seed):
    """An encoder and an input maker whose scores are exact in any row
    grouping. The RBF one has two centres and power-of-two weights:
    each kernel value times its weight is exact, and two terms sum with
    one rounding in either order."""
    rng = np.random.default_rng(seed)
    if kind == "linear":
        enc = LinearEncoder(6, 5, dtype=dtype)
        enc.A[:] = dyadic(rng, enc.A.shape)
        enc.a[:] = dyadic(rng, enc.a.shape, scale=4)
        return enc, lambda n: dyadic(rng, (n, 6)).astype(np.float32)
    enc = RBFEncoder(dyadic(rng, (2, 3)), 1.5, 5, dtype=dtype)
    enc.A[:] = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=enc.A.shape)
    enc.a[:] = dyadic(rng, enc.a.shape, scale=4)
    return enc, lambda n: dyadic(rng, (n, 3))


class TestGaussianKernelFeatures:
    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        K = gaussian_kernel_features(rng.normal(size=(20, 4)), rng.normal(size=(5, 4)), 2.0)
        assert (K > 0).all() and (K <= 1).all()

    def test_self_kernel_is_one(self):
        C = np.random.default_rng(1).normal(size=(4, 3))
        K = gaussian_kernel_features(C, C, 1.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_quantised_storage(self):
        rng = np.random.default_rng(2)
        K = gaussian_kernel_features(rng.normal(size=(10, 3)), rng.normal(size=(4, 3)), 1.0,
                                     quantize=True)
        assert K.dtype == np.uint8

    def test_wider_sigma_larger_values(self):
        rng = np.random.default_rng(3)
        X, C = rng.normal(size=(10, 3)), rng.normal(size=(4, 3))
        narrow = gaussian_kernel_features(X, C, 0.5)
        wide = gaussian_kernel_features(X, C, 5.0)
        assert (wide >= narrow - 1e-12).all()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_features(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)


class TestLinearEncoder:
    def test_encode_step_convention(self):
        enc = LinearEncoder(2, 1)
        enc.A[0] = [1.0, 0.0]
        Z = enc.encode(np.array([[0.0, 5.0], [1.0, 0.0], [-1.0, 0.0]]))
        # score 0 -> 1 (step(0) = 1), positive -> 1, negative -> 0.
        assert Z.ravel().tolist() == [1, 1, 0]

    def test_fit_learns_separable_bits(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        w = rng.normal(size=(5, 3))
        Z = (X @ w >= 0).astype(np.uint8)
        enc = LinearEncoder(5, 3).fit(X, Z, epochs=20, rng=0)
        assert (enc.encode(X) == Z).mean() > 0.95

    def test_fit_bit_updates_single_row(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        z = rng.integers(0, 2, size=50).astype(np.uint8)
        enc = LinearEncoder(4, 3)
        A_before = enc.A.copy()
        enc.fit_bit(1, X, z, SGDState(), rng=0)
        assert not np.array_equal(enc.A[1], A_before[1])
        assert np.array_equal(enc.A[0], A_before[0])
        assert np.array_equal(enc.A[2], A_before[2])

    def test_fit_bit_rejects_bad_index(self):
        enc = LinearEncoder(4, 3)
        with pytest.raises(IndexError):
            enc.fit_bit(3, np.zeros((2, 4)), np.zeros(2), SGDState())

    def test_bit_params_roundtrip(self):
        enc = LinearEncoder(4, 2)
        theta = np.arange(5, dtype=float)
        enc.set_bit_params(1, theta)
        assert np.array_equal(enc.bit_params(1), theta)

    def test_copy_is_deep(self):
        enc = LinearEncoder(3, 2)
        cp = enc.copy()
        cp.A[0, 0] = 99.0
        assert enc.A[0, 0] == 0.0


class TestBlockedEncode:
    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_parity_with_unblocked_oracle(self, kind, dtype, block):
        # Every row count around the block size, with the real constant
        # and with it patched small so a few rows cross many blocks.
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(emod, "_ENCODE_BLOCK_ROWS", block)
            B = emod._ENCODE_BLOCK_ROWS
            enc, inputs = parity_encoder(kind, dtype, seed=B)
            for n in (0, 1, B - 1, B, B + 1, 2 * B + 1, 10 * B + 3):
                X = inputs(n)
                Z = enc.encode(X)
                assert Z.dtype == np.uint8 and Z.shape == (n, 5)
                assert np.array_equal(Z, encode_oracle(enc, X))

    def test_memory_is_one_block(self):
        # Beyond its (n, L) output the encode holds one block's features
        # and scores, however many rows it is given: eight blocks peak
        # where one does.
        rng = np.random.default_rng(0)
        enc = LinearEncoder(64, 16)
        enc.A[:] = rng.normal(size=enc.A.shape)
        extra = []
        for n in (emod._ENCODE_BLOCK_ROWS, 8 * emod._ENCODE_BLOCK_ROWS):
            X = rng.standard_normal((n, 64), dtype=np.float32)
            tracemalloc.start()
            try:
                Z = enc.encode(X)
                extra.append(tracemalloc.get_traced_memory()[1] - Z.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] <= 1.10 * extra[0]

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            LinearEncoder(3, 2).encode(np.zeros(3))


class _Scores:
    """Stands in for a block's features: its product with ``A^T`` *is*
    the block's scores, so a test picks every score ``encode`` compares."""

    def __init__(self, S):
        self.S = S

    def __matmul__(self, _):
        return self.S.copy()


def threshold_by_adding(S, a):
    """The formula ``encode`` used to run: the bias added in place, then ``>= 0``."""
    S = S.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        S += a
    return (S >= 0).astype(np.uint8)


class TestBiasFoldedIntoTheCompare:
    """``encode`` writes ``s >= -a`` where it used to add the bias and
    compare with 0. Under round-to-nearest with gradual underflow,
    ``fl(s + a) >= 0`` exactly when ``s >= -a`` for every finite ``a``:
    the two must agree bit for bit."""

    @staticmethod
    def threshold(S, a):
        enc = LinearEncoder(1, S.shape[1], dtype=S.dtype)
        enc.a[:] = a
        return enc._threshold(S, _Scores)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_scores(self, dtype):
        fi = np.finfo(dtype)
        tiny, big = fi.smallest_subnormal, fi.max
        finite = np.array(
            [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, fi.tiny, -fi.tiny,
             fi.eps, -fi.eps, 1.0, -1.0, 0.5 * big, -0.5 * big, big, -big],
            dtype=dtype,
        )
        scores = np.concatenate([finite, np.array([np.inf, -np.inf], dtype=dtype)])
        # Every (score, bias) pair: exact ties s = -a, both signed zeros,
        # subnormal sums and differences, sums that overflow to +-inf.
        S = np.repeat(scores[:, None], len(finite), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            overflowed = np.isinf(S + finite) & np.isfinite(S)
        assert (S == -finite).any() and overflowed.any()
        assert np.array_equal(self.threshold(S, finite), threshold_by_adding(S, finite))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_blocks(self, dtype):
        rng = np.random.default_rng(5)
        n, L = 3 * emod._ENCODE_BLOCK_ROWS + 7, 64
        # Magnitudes from subnormal to huge, and a tie planted in every row.
        exp = rng.integers(np.finfo(dtype).minexp - 20, np.finfo(dtype).maxexp - 4, size=(n, L))
        S = (rng.standard_normal((n, L)) * np.exp2(exp)).astype(dtype)
        a = (rng.standard_normal(L) * np.exp2(rng.integers(-30, 30, size=L))).astype(dtype)
        cols = rng.integers(0, L, size=n)
        S[np.arange(n), cols] = -a[cols]
        assert np.array_equal(self.threshold(S, a), threshold_by_adding(S, a))


class TestRBFEncoder:
    def test_from_data_centres_subset(self):
        X = np.random.default_rng(0).normal(size=(50, 4))
        enc = RBFEncoder.from_data(X, n_centres=10, n_bits=3, rng=0)
        assert enc.centres.shape == (10, 4)
        assert enc.n_features == 10  # trains on kernel features

    def test_sigma_median_heuristic_positive(self):
        X = np.random.default_rng(1).normal(size=(30, 4))
        enc = RBFEncoder.from_data(X, 8, 2, rng=0)
        assert enc.sigma > 0

    def test_encode_from_raw_input(self):
        X = np.random.default_rng(2).normal(size=(40, 5))
        enc = RBFEncoder.from_data(X, 12, 4, rng=0)
        Z = enc.encode(X)
        assert Z.shape == (40, 4)

    def test_features_passthrough_for_kernel_matrix(self):
        X = np.random.default_rng(3).normal(size=(20, 5))
        enc = RBFEncoder.from_data(X, 8, 3, rng=0)
        K = gaussian_kernel_features(X, enc.centres, enc.sigma)
        # Precomputed features must be accepted and give identical codes.
        assert np.array_equal(enc.encode(K), enc.encode(X))

    def test_rejects_ambiguous_width(self):
        X = np.random.default_rng(4).normal(size=(20, 5))
        enc = RBFEncoder.from_data(X, 8, 3, rng=0)
        with pytest.raises(ValueError):
            enc.features(np.zeros((3, 7)))

    def test_nonlinear_bits_learnable(self):
        # XOR-ish layout unlearnable by a linear encoder in raw space.
        rng = np.random.default_rng(5)
        X = np.vstack(
            [
                rng.normal([3, 3], 0.3, size=(40, 2)),
                rng.normal([-3, -3], 0.3, size=(40, 2)),
                rng.normal([3, -3], 0.3, size=(40, 2)),
                rng.normal([-3, 3], 0.3, size=(40, 2)),
            ]
        )
        z = np.array([1] * 80 + [0] * 80, dtype=np.uint8)  # diagonal pairs
        enc = RBFEncoder.from_data(X, n_centres=40, n_bits=1, rng=0)
        F = enc.features(X)
        state = SGDState()
        for _ in range(60):
            enc.fit_bit(0, F, z, state, rng=0)
        acc = (enc.encode(X)[:, 0] == z).mean()
        assert acc > 0.9
