"""The binary autoencoder model: encoder + decoder + objectives.

Holds the model state and the two objective functions of paper section 3.1:

* ``E_BA(h, f) = sum_n ||x_n - f(h(x_n))||^2``  (eq. 1, the nested error)
* ``E_Q(h, f, Z; mu) = sum_n ||x_n - f(z_n)||^2 + mu ||z_n - h(x_n)||^2``
  (eq. 3, the quadratic-penalty surrogate MAC actually minimises)

Training is :class:`~repro.core.trainer.ParMACTrainer` over a
:class:`~repro.autoencoder.adapter.BAAdapter`; serial MAC is one shard.
"""

from __future__ import annotations

import numpy as np

from repro.autoencoder.decoder import LinearDecoder
from repro.autoencoder.encoder import LinearEncoder, RBFEncoder
from repro.utils.validation import check_positive_int

__all__ = ["BinaryAutoencoder"]


class BinaryAutoencoder:
    """Binary autoencoder ``x -> h(x) -> f(h(x))``.

    Parameters
    ----------
    encoder : LinearEncoder or RBFEncoder
    decoder : LinearDecoder
        Must agree with the encoder on the number of bits.
    """

    def __init__(self, encoder: LinearEncoder, decoder: LinearDecoder):
        if encoder.n_bits != decoder.n_bits:
            raise ValueError(
                f"encoder has {encoder.n_bits} bits but decoder expects {decoder.n_bits}"
            )
        if encoder.dtype != decoder.dtype:
            raise ValueError(
                f"encoder computes in {encoder.dtype} but decoder in "
                f"{decoder.dtype}; both halves must share one compute dtype"
            )
        self.encoder = encoder
        self.decoder = decoder

    # ------------------------------------------------------------ factory
    @classmethod
    def linear(cls, n_features: int, n_bits: int, *, lam: float = 1e-4,
               dtype=np.float64) -> "BinaryAutoencoder":
        """Linear-encoder BA for D-dimensional inputs and L-bit codes.

        ``dtype`` sets the end-to-end compute precision (paper section 9).
        """
        n_features = check_positive_int(n_features, name="n_features")
        n_bits = check_positive_int(n_bits, name="n_bits")
        return cls(
            LinearEncoder(n_features, n_bits, lam=lam, dtype=dtype),
            LinearDecoder(n_bits, n_features, dtype=dtype),
        )

    @classmethod
    def rbf(
        cls,
        X: np.ndarray,
        n_centres: int,
        n_bits: int,
        *,
        sigma=None,
        lam: float = 1e-4,
        rng=None,
        dtype=np.float64,
    ) -> "BinaryAutoencoder":
        """RBF-encoder BA with centres sampled from ``X`` (section 8.4).

        The decoder still reconstructs the raw input space.
        """
        enc = RBFEncoder.from_data(X, n_centres, n_bits, sigma=sigma, lam=lam,
                                   rng=rng, dtype=dtype)
        dec = LinearDecoder(n_bits, np.asarray(X).shape[1], dtype=dtype)
        return cls(enc, dec)

    # ------------------------------------------------------------------ API
    @property
    def n_bits(self) -> int:
        return self.encoder.n_bits

    @property
    def compute_dtype(self) -> np.dtype:
        """The model's end-to-end compute precision."""
        return self.encoder.dtype

    def encode(self, X: np.ndarray) -> np.ndarray:
        """L-bit binary codes, uint8 (n, L)."""
        return self.encoder.encode(X)

    def decode(self, Z: np.ndarray) -> np.ndarray:
        """Reconstructions from codes."""
        return self.decoder.decode(Z)

    def reconstruct(self, X: np.ndarray) -> np.ndarray:
        """Round trip ``f(h(x))``."""
        return self.decode(self.encode(X))

    # ------------------------------------------------------------ objectives
    def e_ba(self, X: np.ndarray) -> float:
        """Nested reconstruction error ``E_BA`` (eq. 1), summed over points."""
        X = np.asarray(X, dtype=self.compute_dtype)
        R = X - self.reconstruct(X)
        return float((R * R).sum())

    def e_q(self, X: np.ndarray, Z: np.ndarray, mu: float) -> float:
        """Quadratic-penalty objective ``E_Q`` (eq. 3), summed over points."""
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        cd = self.compute_dtype
        X = np.asarray(X, dtype=cd)
        Zf = np.asarray(Z, dtype=cd)
        R = X - self.decode(Zf)
        dzh = Zf - self.encode(X).astype(cd)
        return float((R * R).sum() + mu * (dzh * dzh).sum())

    def constraint_violation(self, X: np.ndarray, Z: np.ndarray) -> int:
        """Number of bits where ``Z != h(X)`` — 0 means the penalty-method
        constraints are satisfied and MAC stops."""
        return int((np.asarray(Z) != self.encode(X)).sum())

    def copy(self) -> "BinaryAutoencoder":
        return BinaryAutoencoder(self.encoder.copy(), self.decoder.copy())
