"""Per-point Z-step solvers for the binary autoencoder.

The Z step solves, independently for every data point (paper section 3.1):

    min_{z in {0,1}^L}  ||x - B z - c||^2 + mu ||z - h(x)||^2

a binary proximal operator. Expanding with binary identities
(``z_l^2 = z_l``) the objective is a binary quadratic:

    E(z) = z^T (B^T B) z - 2 z . (B^T (x - c) + mu h) + mu sum(z) + const(x)

Three solvers, as in the paper:

* **enumeration** — exact for small L by scoring all 2^L codes (used for
  SIFT-10K / SIFT-1M with L=16);
* **alternating** — coordinate minimisation over bits, each sweep never
  increasing the objective, converging to a local minimum;
* **relaxed** — the [0,1]-box relaxation solved in closed form and
  truncated at 1/2, used to initialise the alternating solver.

All solvers are vectorised across points: the per-point problems share
``B^T B`` so the quadratic term is computed once.

Every solver ships two implementations selected by ``impl``:

* ``"stacked"`` (default) — loop-free linear algebra: the alternating
  solver maintains ``G = R B`` (an n x L stack of per-bit linear terms)
  with one rank-1 update per flipped bit instead of materialising per-bit
  n x D residual copies, and enumeration reuses the code table and the
  per-code quadratic across calls (they depend only on ``(L, B, dtype)``,
  which is constant across the minibatch chunks and shards of one
  iteration).
* ``"legacy"`` — the original residual-sweeping formulation, kept as the
  reference the parity tests compare against.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_binary_codes


def _solver_dtype(B) -> np.dtype:
    """Compute precision of a Z-step solve: the decoder matrix's float
    dtype (float64 when ``B`` is not floating) — the solvers run entirely
    in the model's compute precision (paper section 9)."""
    dtype = np.asarray(B).dtype
    return dtype if dtype.kind == "f" else np.dtype(np.float64)

__all__ = [
    "zstep_objective",
    "zstep_enumerate",
    "zstep_alternate",
    "zstep_relaxed",
    "zstep",
]

# Enumeration scores all 2^L codes; beyond this many bits we refuse and the
# dispatcher switches to the alternating solver (the paper does the same).
MAX_ENUM_BITS = 16

# Structure caches: the code table and its row sums depend only on
# (L, dtype) — never on the model — so reuse is trivially bit-identical.
# (Decoder-dependent work is recomputed per call: the decoder changes
# every iteration, so nothing keyed on it is ever seen twice in a fit.)
_CODES_CACHE: dict[tuple[int, str], np.ndarray] = {}
_CSUM_CACHE: dict[tuple[int, str], np.ndarray] = {}
_CACHE_MAX = 8


def _cache_put(cache: dict, key, value: np.ndarray) -> np.ndarray:
    value.setflags(write=False)
    if len(cache) >= _CACHE_MAX:
        cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _code_sums(L: int, dtype) -> np.ndarray:
    """Cached ``sum(z)`` per code (the mu-linear term's code part)."""
    key = (int(L), np.dtype(dtype).str)
    hit = _CSUM_CACHE.get(key)
    if hit is None:
        hit = _cache_put(_CSUM_CACHE, key, _all_codes(L, dtype).sum(axis=1))
    return hit


def zstep_objective(
    X: np.ndarray, B: np.ndarray, c: np.ndarray, H: np.ndarray, mu: float, Z: np.ndarray
) -> np.ndarray:
    """Per-point Z-step objective values (n,) for codes ``Z``."""
    cd = _solver_dtype(B)
    Zf = np.asarray(Z, dtype=cd)
    Hf = np.asarray(H, dtype=cd)
    R = np.asarray(X, dtype=cd) - Zf @ B.T - c
    dzh = Zf - Hf
    return (R * R).sum(axis=1) + mu * (dzh * dzh).sum(axis=1)


def _all_codes(L: int, dtype=np.float64) -> np.ndarray:
    """All 2^L binary codes as a (2^L, L) float array (bit l = column l).

    Cached (read-only) per ``(L, dtype)``: the table is pure structure, so
    reuse is trivially bit-identical and saves the dominant allocation of
    repeated enumeration calls.
    """
    key = (int(L), np.dtype(dtype).str)
    C = _CODES_CACHE.get(key)
    if C is None:
        ints = np.arange(2**L, dtype=np.uint32)
        C = ((ints[:, None] >> np.arange(L, dtype=np.uint32)[None, :]) & 1).astype(
            dtype
        )
        C = _cache_put(_CODES_CACHE, key, C)
    return C


def zstep_enumerate(
    X: np.ndarray,
    B: np.ndarray,
    c: np.ndarray,
    H: np.ndarray,
    mu: float,
    *,
    chunk: int = 2048,
    impl: str = "stacked",
) -> np.ndarray:
    """Exact Z step by enumerating all 2^L codes.

    Memory is bounded by ``chunk * 2^L`` scores at a time. Raises for
    ``L > MAX_ENUM_BITS``. ``impl="stacked"`` computes the per-code quadratic
    with one GEMM and reuses the cached code row sums; ``impl="legacy"``
    contracts it with einsum.
    """
    L = B.shape[1]
    if L > MAX_ENUM_BITS:
        raise ValueError(
            f"enumeration over 2^{L} codes refused (max {MAX_ENUM_BITS} bits); "
            "use zstep_alternate"
        )
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    cd = _solver_dtype(B)
    X = np.asarray(X, dtype=cd)
    Hf = np.asarray(H, dtype=cd)
    C = _all_codes(L, cd)  # (2^L, L)
    # Per-code quadratic term: z^T BtB z + mu * sum(z); shared by all points.
    if impl == "legacy":
        BtB = B.T @ B
        quad = np.einsum("kl,lm,km->k", C, BtB, C) + mu * C.sum(axis=1)
    elif impl == "stacked":
        # One GEMM + an elementwise reduce beats the einsum contraction
        # the legacy path uses.
        quad = ((C @ (B.T @ B)) * C).sum(axis=1) + mu * _code_sums(L, cd)
    else:
        raise ValueError(f"unknown impl {impl!r}")
    # Per-point linear term coefficient.
    Lin = (X - c) @ B + mu * Hf  # (n, L)
    n = len(X)
    Z = np.empty((n, L), dtype=np.uint8)
    for start in range(0, n, chunk):
        scores = quad[None, :] - 2.0 * Lin[start : start + chunk] @ C.T
        best = np.argmin(scores, axis=1)
        Z[start : start + chunk] = C[best].astype(np.uint8)
    return Z


def zstep_relaxed(
    X: np.ndarray,
    B: np.ndarray,
    c: np.ndarray,
    H: np.ndarray,
    mu: float,
    *,
    impl: str = "stacked",
) -> np.ndarray:
    """Truncated solution of the [0,1]-relaxed Z step.

    The relaxed problem is unconstrained quadratic with solution
    ``(B^T B + mu I) z = B^T (x - c) + mu h``; we clip to [0,1] and
    threshold at 1/2 (ties -> 1, matching the step convention).
    The solve is one GEMM pair either way, so both ``impl`` values run
    the same code (the parameter is kept for a uniform solver signature).
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    cd = _solver_dtype(B)
    X = np.asarray(X, dtype=cd)
    Hf = np.asarray(H, dtype=cd)
    L = B.shape[1]
    if impl not in ("legacy", "stacked"):
        raise ValueError(f"unknown impl {impl!r}")
    G = B.T @ B + mu * np.eye(L, dtype=cd)
    Lin = (X - c) @ B + mu * Hf  # (n, L)
    # Guard the mu = 0, rank-deficient-decoder corner with a pseudo-inverse.
    try:
        Zrel = np.linalg.solve(G, Lin.T).T
    except np.linalg.LinAlgError:
        Zrel = (np.linalg.pinv(G) @ Lin.T).T
    return (np.clip(Zrel, 0.0, 1.0) >= 0.5).astype(np.uint8)


def zstep_alternate(
    X: np.ndarray,
    B: np.ndarray,
    c: np.ndarray,
    H: np.ndarray,
    mu: float,
    Z0: np.ndarray | None = None,
    *,
    max_sweeps: int = 20,
    impl: str = "stacked",
) -> np.ndarray:
    """Alternating optimisation over bits, initialised from ``Z0``.

    For bit ``l`` with the other bits fixed, setting ``z_l = 1`` rather than
    0 changes the objective by

        delta_l = ||b_l||^2 - 2 b_l . r_base + mu (1 - 2 h_l)

    where ``r_base = x - c - sum_{m != l} z_m b_m`` is the residual with bit
    l removed; we set ``z_l = 1`` iff ``delta_l <= 0`` (tie -> 1). Each bit
    update is exact given the others, so sweeps never increase the
    objective; we stop when a full sweep changes nothing.

    ``impl="stacked"`` never materialises ``r_base``: since
    ``r_base . b_l == (R B)_l + z_l ||b_l||^2``, it maintains the n x L
    stack ``G = R B`` with one GEMM up front and a rank-1 update per
    flipped bit — O(n L) per bit instead of O(n D). ``impl="legacy"`` is
    the original per-bit residual sweep.

    ``Z0`` defaults to the truncated relaxed solution (the paper's
    initialisation).
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if impl not in ("stacked", "legacy"):
        raise ValueError(f"unknown impl {impl!r}")
    cd = _solver_dtype(B)
    X = np.asarray(X, dtype=cd)
    Hf = np.asarray(H, dtype=cd)
    if Z0 is None:
        Z0 = zstep_relaxed(X, B, c, H, mu, impl=impl)
    Z = check_binary_codes(Z0).astype(cd)
    L = B.shape[1]
    b_norms = (B * B).sum(axis=0)  # ||b_l||^2 for each column l
    if impl == "legacy":
        R = X - Z @ B.T - c  # current residual x - f(z)
        for _ in range(max_sweeps):
            changed = False
            for l in range(L):
                b_l = B[:, l]
                # Residual with bit l's contribution removed.
                r_base = R + np.outer(Z[:, l], b_l)
                delta = b_norms[l] - 2.0 * r_base @ b_l + mu * (1.0 - 2.0 * Hf[:, l])
                new_zl = (delta <= 0.0).astype(cd)
                diff = new_zl - Z[:, l]
                if np.any(diff != 0.0):
                    changed = True
                    R -= np.outer(diff, b_l)
                    Z[:, l] = new_zl
            if not changed:
                break
        return Z.astype(np.uint8)
    BtB = B.T @ B
    # G = R @ B, the per-bit linear terms, built by one GEMM pair; flipping
    # bit l of some rows moves G by a rank-1 update with row l of B^T B.
    G = (X - c) @ B - Z @ BtB
    mu_term = mu * (1.0 - 2.0 * Hf)
    for _ in range(max_sweeps):
        changed = False
        for l in range(L):
            delta = b_norms[l] - 2.0 * (G[:, l] + Z[:, l] * b_norms[l]) + mu_term[:, l]
            new_zl = (delta <= 0.0).astype(cd)
            diff = new_zl - Z[:, l]
            rows = np.flatnonzero(diff)
            if rows.size:
                changed = True
                G[rows] -= diff[rows, None] * BtB[l][None, :]
                Z[rows, l] = new_zl[rows]
        if not changed:
            break
    return Z.astype(np.uint8)


def zstep(
    X: np.ndarray,
    B: np.ndarray,
    c: np.ndarray,
    H: np.ndarray,
    mu: float,
    *,
    method: str = "auto",
    Z0: np.ndarray | None = None,
    max_enum_bits: int = MAX_ENUM_BITS,
    max_sweeps: int = 20,
) -> np.ndarray:
    """Dispatch to a Z-step solver.

    ``method='auto'`` enumerates exactly when ``L <= max_enum_bits`` and
    otherwise runs the alternating solver from the truncated relaxed
    initialisation — the paper's policy ("enumeration for SIFT-10K and
    SIFT-1M, and alternating optimisation ... otherwise"). The cutoff
    defaults to :data:`MAX_ENUM_BITS`, the same bound ``zstep_enumerate``
    enforces, so auto dispatch uses exact enumeration everywhere it is
    allowed (L = 16 is the paper's SIFT setting).
    """
    if method == "auto":
        method = "enumerate" if B.shape[1] <= max_enum_bits else "alternate"
    if method == "enumerate":
        return zstep_enumerate(X, B, c, H, mu)
    if method == "alternate":
        return zstep_alternate(X, B, c, H, mu, Z0, max_sweeps=max_sweeps)
    if method == "relaxed":
        return zstep_relaxed(X, B, c, H, mu)
    raise ValueError(f"unknown Z-step method {method!r}")
