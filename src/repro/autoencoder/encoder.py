"""BA encoders: linear step encoder and RBF-kernel step encoder.

The encoder is L single-bit hash functions; in the W step each bit is fit
as an independent binary linear SVM predicting that bit of ``Z`` from ``X``
(paper section 3.1). The RBF variant (section 8.4) replaces the raw input
with ``m`` Gaussian kernel values against fixed centres — only the linear
weights on those features are trainable, so the MAC algorithm is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.optim.schedules import BottouSchedule
from repro.optim.sgd import SGDState
from repro.optim.svm import LinearSVM
from repro.utils.rng import check_random_state
from repro.utils.validation import (
    check_array,
    check_float_dtype,
    check_positive,
    check_positive_int,
)

__all__ = ["LinearEncoder", "RBFEncoder", "gaussian_kernel_features"]

#: Rows per encode block. A block's features and scores (block x D and
#: block x L floats) stay in cache, where a whole 100k-row chunk streamed
#: three chunk-sized temporaries through memory. On the 1M x 64 serving
#: build, 512-2048 rows read within 7 % of each other and larger blocks
#: slower; 2048 is the largest of those, so a training shard of <= 2000
#: rows stays one GEMM. Rows split into near-equal blocks, none a thin
#: tail that BLAS might route to gemv.
_ENCODE_BLOCK_ROWS = 2048


def gaussian_kernel_features(
    X: np.ndarray,
    centres: np.ndarray,
    sigma: float,
    *,
    quantize: bool = False,
) -> np.ndarray:
    """Gaussian RBF feature map ``k_j(x) = exp(-||x - c_j||^2 / (2 sigma^2))``.

    With ``quantize`` the values in ``(0, 1]`` are stored as uint8 in
    ``[0, 255]`` (rounded), matching the one-byte storage of section 8.4;
    callers rescale by ``1/255`` when converting back to float.
    """
    X = np.asarray(X, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    sigma = check_positive(sigma, name="sigma")
    x2 = (X * X).sum(axis=1)[:, None]
    c2 = (centres * centres).sum(axis=1)[None, :]
    d2 = np.maximum(x2 - 2.0 * X @ centres.T + c2, 0.0)
    K = np.exp(-d2 / (2.0 * sigma * sigma))
    if quantize:
        return np.round(K * 255.0).astype(np.uint8)
    return K


class LinearEncoder:
    """Step encoder ``h(x) = step(A x + a)`` with per-bit SVM training.

    Parameters
    ----------
    n_features : int
        Input dimension D.
    n_bits : int
        Code length L.
    lam : float
        L2 regularisation of each per-bit SVM.
    dtype : float dtype, optional
        Compute precision of the parameters, features and SGD updates
        (paper section 9's reduced-precision refinement); default float64.

    Attributes
    ----------
    A : ndarray (n_bits, n_features)
        Weight matrix; row l is the l-th hash function.
    a : ndarray (n_bits,)
        Biases.
    """

    def __init__(self, n_features: int, n_bits: int, *, lam: float = 1e-4,
                 schedule=None, dtype=np.float64):
        self.n_features = check_positive_int(n_features, name="n_features")
        self.n_bits = check_positive_int(n_bits, name="n_bits")
        self.lam = check_positive(lam, name="lam")
        self.schedule = schedule if schedule is not None else BottouSchedule(lam=lam)
        self.dtype = check_float_dtype(dtype)
        self.A = np.zeros((self.n_bits, self.n_features), dtype=self.dtype)
        self.a = np.zeros(self.n_bits, dtype=self.dtype)

    # ------------------------------------------------------------------ API
    def features(self, X: np.ndarray) -> np.ndarray:
        """Feature map seen by the linear hash functions (identity here)."""
        return np.asarray(X, dtype=self.dtype)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Binary codes ``step(features(X) A^T + a)`` (step(0) = 1), uint8
        (n, n_bits).

        Computed a block of at most ``_ENCODE_BLOCK_ROWS`` rows at a time:
        per block one feature map, one GEMM and ``>= -a`` written straight
        into the output, so the temporaries are a block's, not the
        input's, and the codes are those of one whole-input threshold.
        """
        return self._threshold(X, self.features)

    def _threshold(self, X, features) -> np.ndarray:
        """``step(features(X) A^T + a)`` over near-equal row blocks.

        ``features`` maps a block of ``X`` to this encoder's features; the
        adapter passes ``np.asarray`` for rows that already hold them.
        """
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        n = len(X)
        out = np.empty((n, self.n_bits), dtype=np.uint8)
        flags = out.view(np.bool_)
        n_blocks = max(1, -(-n // _ENCODE_BLOCK_ROWS))
        for i in range(n_blocks):
            lo, hi = i * n // n_blocks, (i + 1) * n // n_blocks
            # step(s + a) without the add: for a finite bias, the rounded
            # sum fl(s + a) >= 0 exactly when s >= -a (ties, signed zeros,
            # subnormals and sums that overflow included).
            np.greater_equal(features(X[lo:hi]) @ self.A.T, -self.a, out=flags[lo:hi])
        return out

    # ------------------------------------------------------------ training
    def _svm_for_bit(self, l: int) -> LinearSVM:
        """Materialise bit ``l`` as a LinearSVM sharing this encoder's row."""
        svm = LinearSVM(self.n_features, lam=self.lam, schedule=self.schedule,
                        dtype=self.dtype)
        svm.w = self.A[l].copy()
        svm.b = self.a[l]
        return svm

    def fit_bit(
        self,
        l: int,
        X: np.ndarray,
        z_l: np.ndarray,
        state: SGDState,
        *,
        batch_size: int = 32,
        shuffle: bool = True,
        rng=None,
    ) -> SGDState:
        """One SGD pass fitting hash function ``l`` to binary targets ``z_l``.

        This is the travelling-submodel work unit for an encoder bit.
        """
        if not 0 <= l < self.n_bits:
            raise IndexError(f"bit index {l} out of range [0, {self.n_bits})")
        y = 2.0 * np.asarray(z_l, dtype=self.dtype) - 1.0
        svm = self._svm_for_bit(l)
        state = svm.partial_fit(
            self.features(X), y, state, batch_size=batch_size, shuffle=shuffle, rng=rng
        )
        self.A[l] = svm.w
        self.a[l] = svm.b
        return state

    def fit(
        self,
        X: np.ndarray,
        Z: np.ndarray,
        *,
        epochs: int = 5,
        batch_size: int = 32,
        rng=None,
    ) -> "LinearEncoder":
        """Serial W-step-h: fit all L SVMs to (X, Z) with ``epochs`` passes."""
        X = check_array(X, name="X", dtype=self.dtype)
        rng = check_random_state(rng)
        F = self.features(X)
        for l in range(self.n_bits):
            state = SGDState()
            for _ in range(epochs):
                self.fit_bit(l, F, Z[:, l], state, batch_size=batch_size, rng=rng)
        return self

    # -------------------------------------------------------- (de)serialise
    def bit_params(self, l: int) -> np.ndarray:
        """Flat parameters ``[A[l], a[l]]`` of hash function ``l``."""
        return np.concatenate([self.A[l], [self.a[l]]])

    def set_bit_params(self, l: int, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=self.dtype).ravel()
        if theta.shape != (self.n_features + 1,):
            raise ValueError(f"expected {self.n_features + 1} params, got {theta.shape}")
        self.A[l] = theta[:-1]
        self.a[l] = theta[-1]

    def copy(self) -> "LinearEncoder":
        new = LinearEncoder(self.n_features, self.n_bits, lam=self.lam,
                            schedule=self.schedule, dtype=self.dtype)
        new.A = self.A.copy()
        new.a = self.a.copy()
        return new


class RBFEncoder(LinearEncoder):
    """Kernel-SVM encoder: Gaussian RBF features, then a linear step encoder.

    Centres and bandwidth are fixed (picked at random from the training set
    in the paper, sigma tuned on a subset), so "only the weights are
    trainable and the MAC algorithm does not change except that it operates
    on an m-dimensional input vector of kernel values" (section 8.4).
    """

    def __init__(
        self,
        centres: np.ndarray,
        sigma: float,
        n_bits: int,
        *,
        lam: float = 1e-4,
        schedule=None,
        dtype=np.float64,
    ):
        centres = check_array(np.asarray(centres, dtype=np.float64), name="centres")
        super().__init__(n_features=len(centres), n_bits=n_bits, lam=lam,
                         schedule=schedule, dtype=dtype)
        self.centres = centres
        self.sigma = check_positive(sigma, name="sigma")
        self.input_dim = centres.shape[1]

    @classmethod
    def from_data(
        cls, X: np.ndarray, n_centres: int, n_bits: int, *, sigma=None,
        lam: float = 1e-4, rng=None, dtype=np.float64
    ) -> "RBFEncoder":
        """Pick ``n_centres`` random training points as centres.

        When ``sigma`` is None it is set to the median pairwise distance of
        the centres — a standard bandwidth heuristic playing the role of the
        paper's offline tuning, wide enough that no point yields all-zero
        kernel rows.
        """
        X = check_array(np.asarray(X, dtype=np.float64), name="X")
        rng = check_random_state(rng)
        n_centres = min(check_positive_int(n_centres, name="n_centres"), len(X))
        idx = rng.choice(len(X), size=n_centres, replace=False)
        centres = X[idx].copy()
        if sigma is None:
            diffs = centres[:, None, :] - centres[None, :, :]
            d = np.sqrt((diffs * diffs).sum(axis=2))
            off = d[np.triu_indices(n_centres, k=1)]
            sigma = float(np.median(off)) if off.size else 1.0
            if sigma <= 0:
                sigma = 1.0
        return cls(centres, sigma, n_bits, lam=lam, dtype=dtype)

    def features(self, X: np.ndarray) -> np.ndarray:
        """Kernel feature map; passes through already-mapped (n, m) inputs.

        A (n, m) float array whose width equals the number of centres is
        assumed to be precomputed kernel values (the ParMAC shards store
        those, quantised, rather than recomputing per visit).
        """
        X = np.asarray(X)
        if X.ndim == 2 and X.shape[1] == self.n_features and self.input_dim != self.n_features:
            return np.asarray(X, dtype=self.dtype)
        if X.ndim == 2 and X.shape[1] == self.input_dim:
            # The kernel map itself is evaluated in float64 for a stable
            # exp() — from the raw inputs, not dtype-truncated ones;
            # storage/compute precision applies to the result.
            return gaussian_kernel_features(
                np.asarray(X, dtype=np.float64), self.centres, self.sigma
            ).astype(self.dtype)
        raise ValueError(
            f"expected inputs of dim {self.input_dim} (raw) or {self.n_features} "
            f"(kernel features), got shape {X.shape}"
        )

    def copy(self) -> "RBFEncoder":
        new = RBFEncoder(self.centres, self.sigma, self.n_bits, lam=self.lam,
                         schedule=self.schedule, dtype=self.dtype)
        new.A = self.A.copy()
        new.a = self.a.copy()
        return new
