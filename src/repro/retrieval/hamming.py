"""Packed binary codes and Hamming-distance search.

The point of binary hashing (paper section 3.1) is that an L-bit code per
point turns nearest-neighbour search into popcounts on machine words: 10^9
points at D=500 floats take 2 TB, but 8 GB at L=64 bits. We reproduce the
packed representation: codes are stored as uint64 words (ceil(L/64) per
point) and distances are computed with vectorised XOR + popcount.

The popcount itself is ``np.bitwise_count`` where available (NumPy >= 2.0)
and a 16-bit lookup table otherwise — same counts either way, parity-tested.
All k-NN paths share one total order: increasing distance, ties broken by
ascending base index (the order a sequential scan in database order would
produce). That contract is what makes sharded retrieval in ``repro.serve``
exactly equal to a single scan.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_binary_codes

__all__ = [
    "HAS_BITWISE_COUNT",
    "pack_bits",
    "popcount",
    "hamming_cdist",
    "hamming_knn",
]

#: Whether this NumPy has the native popcount ufunc (added in 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

_LUT16: np.ndarray | None = None


def _popcount_table() -> np.ndarray:
    """Popcounts of all 16-bit values, built once by doubling."""
    global _LUT16
    if _LUT16 is None:
        t = np.zeros(1, dtype=np.uint8)
        for _ in range(16):
            t = np.concatenate([t, t + 1])
        _LUT16 = t
    return _LUT16


def _popcount_lut16(a: np.ndarray) -> np.ndarray:
    """Table-driven popcount: view each uint64 as four uint16 halfwords."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    halves = a.view(np.uint16).reshape(a.shape + (4,))
    return _popcount_table()[halves].sum(axis=-1, dtype=np.uint8)


def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint64 array, as uint8.

    Dispatches to ``np.bitwise_count`` when the installed NumPy has it
    (>= 2.0); otherwise falls back to a 16-bit lookup table with identical
    results. The NumPy floor in setup.py is set by the *fallback*, not the
    native path.
    """
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(a).astype(np.uint8, copy=False)
    return _popcount_lut16(a)


def pack_bits(Z: np.ndarray) -> np.ndarray:
    """Pack an (n, L) 0/1 matrix into (n, ceil(L/64)) uint64 words.

    Bit ``l`` of point ``i`` is bit ``l % 64`` of word ``l // 64`` — a fixed
    layout so packed codes from different calls are comparable. Vectorised:
    ``np.packbits(..., bitorder="little")`` produces exactly the byte
    ``l // 8`` / bit ``l % 8`` layout, and a little-endian uint64 view of
    each 8-byte group lands byte ``j`` at bits ``8j..8j+7`` of the word —
    together bit ``l`` -> bit ``l % 64`` of word ``l // 64``, byte-identical
    to the original per-bit shift loop. The 0/1 check before it is one
    pass over ``Z`` (:func:`~repro.utils.validation.check_binary_codes`),
    so packing stays about as cheap as ``np.packbits`` itself.
    """
    Z = check_binary_codes(Z)
    n, L = Z.shape
    n_words = (L + 63) // 64
    nbytes = n_words * 8
    b = np.packbits(Z, axis=1, bitorder="little")
    if b.shape[1] < nbytes:
        b = np.pad(b, ((0, 0), (0, nbytes - b.shape[1])))
    words = np.ascontiguousarray(b).view("<u8")
    # No-op on little-endian hosts; byteswapping copy on big-endian ones.
    return np.ascontiguousarray(words.astype(np.uint64, copy=False))


def hamming_cdist(A: np.ndarray, B: np.ndarray, *, chunk: int = 1024) -> np.ndarray:
    """All-pairs Hamming distances between packed code matrices.

    Parameters
    ----------
    A : uint64 array of shape (na, n_words)
    B : uint64 array of shape (nb, n_words)
    chunk : int
        Rows of ``A`` processed per block, bounding peak memory at
        ``chunk * nb * n_words`` words.

    Returns
    -------
    uint16 array of shape (na, nb)
    """
    A = np.asarray(A, dtype=np.uint64)
    B = np.asarray(B, dtype=np.uint64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"incompatible packed shapes {A.shape} and {B.shape}")
    na, nb = len(A), len(B)
    out = np.empty((na, nb), dtype=np.uint16)
    for start in range(0, na, chunk):
        blk = A[start : start + chunk]
        xor = blk[:, None, :] ^ B[None, :, :]
        out[start : start + chunk] = popcount(xor).sum(axis=2, dtype=np.uint16)
    return out


def hamming_knn(
    queries: np.ndarray, base: np.ndarray, k: int, *, chunk: int = 1024
) -> np.ndarray:
    """Indices of the k Hamming-nearest base codes for each query.

    Results are sorted by increasing distance; equal-distance neighbours
    come in ascending base-index order — the exact (distance, index)
    lexicographic head, matching a scan in database order. The selection
    runs on a composite integer key ``distance * nb + index`` so the
    argpartition boundary itself respects the tie order (partitioning on
    raw distances may keep an arbitrary subset of the boundary ties).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(base):
        raise ValueError(f"k={k} exceeds base size {len(base)}")
    D = hamming_cdist(queries, base, chunk=chunk)
    nb = D.shape[1]
    idx = np.arange(nb, dtype=np.int64)[None, :]
    out = np.empty((len(D), k), dtype=np.int64)
    for start in range(0, len(D), chunk):
        key = D[start : start + chunk].astype(np.int64) * nb + idx
        part = np.argpartition(key, k - 1, axis=1)[:, :k]
        rows = np.arange(len(part))[:, None]
        order = np.argsort(key[rows, part], axis=1)
        out[start : start + chunk] = part[rows, order]
    return out
