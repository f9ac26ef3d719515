"""Seeded inputs: the program receives only what is generated here.

Single-process NumPy; the same seed gives the same arrays. Training data
comes from the repo's own ``make_gist_like``; the serving base is a plain
Gaussian mixture generated in 100k-row float32 chunks so that a 1M-row
base never exists as one float64 array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.data.synthetic import make_gist_like
from repro.distributed.partition import make_shards, partition_indices
from repro.retrieval.baselines import TruncatedPCAHash

from .spec import ServeSpec, TrainSpec

__all__ = ["TrainData", "ServeData", "make_train_data", "make_serve_data"]

_CHUNK = 100_000
_N_QUERIES = 4096


@dataclass
class TrainData:
    """Training inputs; ``fresh()`` hands out an untouched model + shards,
    since a fit mutates both."""

    spec: TrainSpec
    X: np.ndarray
    Z0: np.ndarray
    parts: list

    def fresh(self):
        adapter = BAAdapter(BinaryAutoencoder.linear(self.spec.dim, self.spec.n_bits))
        shards = make_shards(self.X, adapter.features(self.X), self.Z0, self.parts)
        return adapter, shards


def make_train_data(spec: TrainSpec, seed: int) -> TrainData:
    X = make_gist_like(spec.n, spec.dim, n_clusters=spec.n_clusters, rng=seed)
    Z0, _ = init_codes_pca(X, spec.n_bits, rng=seed)
    parts = partition_indices(spec.n, spec.n_machines, rng=seed)
    return TrainData(spec, X, Z0, parts)


@dataclass
class ServeData:
    spec: ServeSpec
    model: BinaryAutoencoder      # tPCA-initialised linear BA
    base_chunks: list             # float32 (<=100k, dim) blocks
    queries: np.ndarray           # float64 (4096, dim)
    add_blocks: list              # float32 (add_rows, dim) blocks


def _mixture(rng, centres: np.ndarray, n: int) -> np.ndarray:
    assign = rng.integers(0, len(centres), size=n)
    X = rng.standard_normal(size=(n, centres.shape[1]), dtype=np.float32)
    X += centres[assign]
    return X


def make_serve_data(spec: ServeSpec, seed: int, *, n_add_blocks: int) -> ServeData:
    rng = np.random.default_rng([seed, 0x5E12])
    centres = rng.normal(0.0, 2.0, size=(spec.n_clusters, spec.dim)).astype(np.float32)
    sample = _mixture(rng, centres, 20_000).astype(np.float64)
    pca = TruncatedPCAHash(spec.n_bits).fit(sample)
    model = BinaryAutoencoder.linear(spec.dim, spec.n_bits)
    # step(V (x - mean)) as the encoder's affine map: A = V, a = -V mean.
    model.encoder.A[:] = pca.V_
    model.encoder.a[:] = -pca.V_ @ pca.mean_
    chunks = [
        _mixture(rng, centres, min(_CHUNK, spec.n_base - start))
        for start in range(0, spec.n_base, _CHUNK)
    ]
    queries = _mixture(rng, centres, _N_QUERIES).astype(np.float64)
    add_blocks = [_mixture(rng, centres, spec.add_rows) for _ in range(n_add_blocks)]
    return ServeData(spec, model, chunks, queries, add_blocks)
