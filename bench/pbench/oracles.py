"""Correctness oracles. Every failure here counts into ``failed``.

Training: per-iteration E_Q against the in-process ``sync`` engine on the
same shards and seed, and no /dev/shm residue after ``close``. Serving:
every response gets the cheap structural check (k ids, in range, sorted
by (distance, id), distances recomputed by popcount); a sample of them,
and a sweep after the last add, must equal a flat ``hamming_topk`` over
the index contents.
"""

from __future__ import annotations

import numpy as np

from repro.serve import hamming_topk, merge_topk

__all__ = [
    "e_q_matches",
    "cheap_check",
    "prefix_oracles",
    "matches_some_prefix",
]


def e_q_matches(got, want, rtol: float) -> bool:
    """Same iteration count and every E_Q within ``rtol`` (relative)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


_BYTE_BITS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint16)


def _popcount64(a: np.ndarray) -> np.ndarray:
    """Bit counts of uint64 words without the program's popcount: sum of
    the eight byte-wise counts from a 256-entry table."""
    as_bytes = np.ascontiguousarray(a).view(np.uint8).reshape(a.shape + (8,))
    return _BYTE_BITS[as_bytes].sum(axis=-1)


def cheap_check(ids, dists, q_codes, codes, k: int) -> np.ndarray:
    """Structural check of ``R`` responses at once; True per good response.

    ``ids``/``dists`` are (R, k) stacks, ``q_codes`` (R, n_words) the
    packed query codes, ``codes`` the packed index contents (all rows
    ever indexed). Rows shorter than k, out-of-range ids, unsorted
    (distance, id) order or a distance that is not the popcount of the
    XOR all fail the response.
    """
    ids = np.asarray(ids)
    dists = np.asarray(dists)
    if ids.ndim != 2 or ids.shape[1] != k or dists.shape != ids.shape:
        return np.zeros(len(ids), dtype=bool)
    in_range = ((ids >= 0) & (ids < len(codes))).all(axis=1)
    safe = np.where((ids >= 0) & (ids < len(codes)), ids, 0)
    true_d = _popcount64(codes[safe] ^ q_codes[:, None, :]).sum(axis=-1)
    exact = (true_d == dists).all(axis=1)
    key = dists.astype(np.int64) * (len(codes) + 1) + ids
    ordered = (np.diff(key, axis=1) > 0).all(axis=1)
    return in_range & exact & ordered


def prefix_oracles(q_codes, base_codes, add_blocks, k: int) -> list:
    """Flat top-k over ``base + first j add blocks`` for every j.

    A read that raced the writer saw the index at some block boundary;
    folding each block's own top-k into the running result with
    ``merge_topk`` gives every boundary's exact answer in one pass.
    """
    out = [hamming_topk(q_codes, base_codes, k)]
    offset = len(base_codes)
    for block in add_blocks:
        part = hamming_topk(q_codes, block, k, offset=offset)
        out.append(merge_topk([out[-1], part], k))
        offset += len(block)
    return out


def matches_some_prefix(ids, dists, row: int, oracles) -> bool:
    """Whether one response equals the flat scan at any block boundary."""
    return any(
        np.array_equal(ids, o_ids[row]) and np.array_equal(dists, o_d[row])
        for o_ids, o_d in oracles
    )
