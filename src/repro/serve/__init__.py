"""Serving side of the paper's use case: batch encode + Hamming retrieval.

The training half of this repo produces a binary hash; this package is
the query-side hot path that makes it useful at production scale — a
packed-code index with a tiled streaming top-k scan kernel (never the
``n_q x n_base`` distance matrix), optional sharding across worker
threads or processes with an exact heap merge, a dynamically micro-
batching front end that coalesces concurrent queries into one stacked
encode GEMM plus one shared scan. The bench drives it with its own load
generator; see ``python3 bench/run.py --trace`` for the measured rungs and
``docs/architecture.md`` ("Serving") for the contracts.
"""

from repro.serve.index import (
    HammingIndex,
    ShardedHammingIndex,
    hamming_topk,
    merge_topk,
)
from repro.serve.service import RetrievalService, ServiceStats

__all__ = [
    "hamming_topk",
    "merge_topk",
    "HammingIndex",
    "ShardedHammingIndex",
    "RetrievalService",
    "ServiceStats",
]
