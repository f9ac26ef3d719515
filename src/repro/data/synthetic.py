"""Generators for GIST-like and SIFT-like feature clouds.

Design notes
------------
Binary-hashing retrieval benchmarks need two properties from the data:

* **cluster structure** — true Euclidean neighbours concentrate inside
  clusters, so a good L-bit code can separate them;
* **anisotropy / redundancy** — real descriptors have rapidly decaying
  spectra, which is why truncated PCA is a sensible initialisation and why
  one SGD epoch already fits well (paper section 8.2).

``make_clustered`` draws a Gaussian mixture with per-cluster anisotropic
covariances (decaying eigenspectrum, random orientation). GIST-like data
keeps the float profile of GIST (D=320, roughly centred); SIFT-like data is
clipped non-negative and quantised to uint8 like real SIFT descriptors.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import check_random_state
from repro.utils.validation import check_positive_int

__all__ = [
    "make_clustered",
    "make_gist_like",
    "make_sift_like",
]


def make_clustered(
    n: int,
    dim: int,
    *,
    n_clusters: int = 10,
    spread: float = 1.0,
    cluster_scale: float = 4.0,
    decay: float = 0.9,
    rng=None,
) -> np.ndarray:
    """Anisotropic Gaussian-mixture cloud of shape ``(n, dim)``.

    Each cluster has covariance ``R diag(s) R^T`` with eigenvalues
    ``s_j = spread^2 * decay^j`` and a random rotation ``R``; centres are
    drawn from ``N(0, cluster_scale^2 I)``. ``decay < 1`` produces the fast
    spectral decay typical of image descriptors.
    """
    n = check_positive_int(n, name="n")
    dim = check_positive_int(dim, name="dim")
    n_clusters = check_positive_int(n_clusters, name="n_clusters")
    rng = check_random_state(rng)

    centres = rng.normal(0.0, cluster_scale, size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=n)
    X = np.empty((n, dim), dtype=np.float64)
    # Eigen-spectrum shared across clusters; orientation differs per cluster.
    eigs = spread * decay ** (0.5 * np.arange(dim))
    for c in range(n_clusters):
        mask = assign == c
        m = int(mask.sum())
        if m == 0:
            continue
        # Random orthogonal matrix via QR of a Gaussian matrix.
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        X[mask] = centres[c] + (rng.normal(size=(m, dim)) * eigs) @ Q.T
    return X


def make_gist_like(n: int, dim: int = 320, *, n_clusters: int = 10, rng=None) -> np.ndarray:
    """GIST-like float features (CIFAR stand-in): D=320, centred, anisotropic."""
    return make_clustered(n, dim, n_clusters=n_clusters, spread=1.0, cluster_scale=2.0, rng=rng)


def make_sift_like(
    n: int, dim: int = 128, *, n_clusters: int = 20, rng=None, as_uint8: bool = False
) -> np.ndarray:
    """SIFT-like features: non-negative, heavy cluster structure, uint8 range.

    Values are clipped to ``[0, 255]``; with ``as_uint8`` the array is
    returned quantised, matching the one-byte-per-feature storage of the
    real SIFT corpora (paper section 8.4).
    """
    rng = check_random_state(rng)
    X = make_clustered(
        n, dim, n_clusters=n_clusters, spread=12.0, cluster_scale=35.0, rng=rng
    )
    X = np.clip(np.abs(X) , 0.0, 255.0)
    if as_uint8:
        return np.round(X).astype(np.uint8)
    return X
