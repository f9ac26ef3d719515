"""Initialisation of the auxiliary binary codes Z.

The paper initialises "the binary codes from truncated PCA ran on a subset
of the training set (small enough that it fits in one machine)"
(section 8.1).
"""

from __future__ import annotations

import numpy as np

from repro.retrieval.baselines import TruncatedPCAHash

__all__ = ["init_codes_pca"]


def init_codes_pca(
    X: np.ndarray, n_bits: int, *, subset: int | None = None, rng=None
) -> tuple[np.ndarray, TruncatedPCAHash]:
    """Truncated-PCA code initialisation.

    Fits tPCA (optionally on a random subset) and returns the binary codes
    for all of ``X`` plus the fitted hash (used as the tPCA baseline in the
    recall figures).
    """
    hash_ = TruncatedPCAHash(n_bits).fit(X, subset=subset, rng=rng)
    return hash_.encode(X), hash_
