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

Each public solver is the linear term ``(X - c) B`` (:func:`_linear_term`)
followed by one private kernel on it, so a caller that already holds the
linear term (the BA adapter, which also derives the shard statistics
from it) runs the kernel directly. The alternating kernel maintains
``G = R B`` (an n x L stack of per-bit linear terms) with one rank-1
update per flipped bit instead of materialising per-bit n x D residual
copies.
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

# Scratch bytes of one enumeration row tile (two blocks of rows x 2^(L - L//2)
# scores), chosen on the bench's ``zstep.enum_ns_per_code`` rung: big enough
# to amortise the per-call cost of the 2^(L//2) ufunc pairs a tile takes,
# small enough to stay in L2 beside the 512 KiB pair table at L = 16.
_ENUM_SCRATCH_BYTES = 1 << 19


def _centre(X, c, B: np.ndarray) -> np.ndarray:
    """``X - c`` in the compute precision of a solve with decoder ``B``,
    shape (n, D). Non-finite values pass through; :func:`_linear_term`
    refuses them."""
    cd = _solver_dtype(B)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.asarray(X, dtype=cd) - np.asarray(c, dtype=cd)


def _linear_term(Xc: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Xc @ B`` for centred data ``Xc = X - c``, shape (n, L): the
    data-dependent linear term every solver starts from. Refuses
    non-finite values: ``argmin`` and ``delta <= 0`` would turn them into
    a silent all-zero code."""
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        XcB = Xc @ B
    if not np.isfinite(XcB).all():
        row = np.flatnonzero(~np.isfinite(XcB).all(axis=1))[0]
        raise ValueError(
            f"non-finite Z-step linear term at row {row}: X, B or c holds "
            "NaN/inf, or the product overflowed the compute precision"
        )
    return XcB


def zstep_objective(
    X: np.ndarray, B: np.ndarray, c: np.ndarray, H: np.ndarray, mu: float, Z: np.ndarray
) -> np.ndarray:
    """Per-point Z-step objective values (n,) for codes ``Z``."""
    cd = _solver_dtype(B)
    Zf = np.asarray(Z, dtype=cd)
    Hf = np.asarray(H, dtype=cd)
    R = np.asarray(X, dtype=cd) - Zf @ B.T - np.asarray(c, dtype=cd)
    dzh = Zf - Hf
    return (R * R).sum(axis=1) + mu * (dzh * dzh).sum(axis=1)


def _all_codes(L: int, dtype) -> np.ndarray:
    """All 2^L binary codes as a (2^L, L) float array: row k is the integer
    k, bit l in column l."""
    ints = np.arange(2**L, dtype=np.uint32)
    return ((ints[:, None] >> np.arange(L, dtype=np.uint32)) & 1).astype(dtype)


def zstep_enumerate(
    X: np.ndarray, B: np.ndarray, c: np.ndarray, H: np.ndarray, mu: float
) -> np.ndarray:
    """Exact Z step by enumerating all 2^L codes, in constant memory.

    Split a code into its low ``Llo = L // 2`` bits ``a`` and its high bits
    ``b``. With ``G = B^T B`` and ``lin = (x - c) B + mu h`` the score is

        E(b, a) = Q[a, b] + U[i, a] + V[i, b]

    where ``Q`` (2^Llo x 2^(L-Llo)) holds the quadratic and ``mu sum(z)``
    terms and depends on the model only, and ``U = -2 lin_lo . a``,
    ``V = -2 lin_hi . b`` are two small GEMMs. No rows x 2^L matrix is ever
    formed: per row tile, a running ``min`` over ``a`` of ``Q[a] + U[:, a]``
    leaves one score per high half; adding ``V`` and taking ``argmin`` picks
    ``b``, and one more ``argmin`` over that ``b``'s 2^Llo scores picks ``a``.
    Rounding is monotone, so this is exactly the first minimum of
    ``(Q + U) + V`` in code order ``b * 2^Llo + a`` (bit l = column l):
    exact ties go to the lowest code. Raises for ``L > MAX_ENUM_BITS``.
    """
    return _enumerate(_linear_term(_centre(X, c, B), B), B, H, mu)


def _enumerate(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """The :func:`zstep_enumerate` kernel on the linear term ``XcB``."""
    L = B.shape[1]
    if L > MAX_ENUM_BITS:
        raise ValueError(
            f"enumeration over 2^{L} codes refused (max {MAX_ENUM_BITS} bits); "
            "use zstep_alternate"
        )
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    cd = _solver_dtype(B)
    H = np.asarray(H)
    Llo = L // 2
    Clo, Chi = _all_codes(Llo, cd), _all_codes(L - Llo, cd)
    G = B.T @ B

    def quad(C, g):  # z^T g z + mu sum(z) for each half-code
        return ((C @ g) * C).sum(axis=1) + mu * C.sum(axis=1)

    Q = Clo @ (2.0 * G[:Llo, Llo:]) @ Chi.T
    Q += quad(Clo, G[:Llo, :Llo])[:, None]
    Q += quad(Chi, G[Llo:, Llo:])
    Clo *= -2.0  # from here on only the linear terms use the code tables
    Chi *= -2.0
    n, (nlo, nhi) = len(XcB), Q.shape
    tile = max(1, _ENUM_SCRATCH_BYTES // (2 * nhi * cd.itemsize))
    M, T = np.empty((2, min(tile, n), nhi), dtype=cd)
    shifts = np.arange(L, dtype=np.intp)
    Z = np.empty((n, L), dtype=np.uint8)
    for start in range(0, n, tile):
        rows = slice(start, start + tile)
        lin = XcB[rows] + mu * np.asarray(H[rows], dtype=cd)  # (m, L)
        U = Clo @ lin[:, :Llo].T  # (2^Llo, m)
        V = lin[:, Llo:] @ Chi.T  # (m, 2^(L-Llo))
        m = len(V)
        Mm, Tm = M[:m], T[:m]
        # Mm[i, b] = min_a Q[a, b] + U[a, i], one low half-code per pass.
        np.add(Q[0], U[0, :, None], out=Mm)
        for a in range(1, nlo):
            np.add(Q[a], U[a, :, None], out=Tm)
            np.minimum(Mm, Tm, out=Mm)
        Mm += V
        hi = Mm.argmin(axis=1)
        v_hi = np.take_along_axis(V, hi[:, None], axis=1)[:, 0]
        lo = ((Q[:, hi] + U) + v_hi).argmin(axis=0)
        Z[rows] = (((hi << Llo) | lo)[:, None] >> shifts) & 1
    return Z


def zstep_relaxed(
    X: np.ndarray,
    B: np.ndarray,
    c: np.ndarray,
    H: np.ndarray,
    mu: float,
) -> np.ndarray:
    """Truncated solution of the [0,1]-relaxed Z step.

    The relaxed problem is unconstrained quadratic with solution
    ``(B^T B + mu I) z = B^T (x - c) + mu h``; we clip to [0,1] and
    threshold at 1/2 (ties -> 1, matching the step convention).
    """
    return _relaxed(_linear_term(_centre(X, c, B), B), B, H, mu)


def _relaxed(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """The :func:`zstep_relaxed` kernel on the linear term ``XcB``."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    cd = _solver_dtype(B)
    G = B.T @ B + mu * np.eye(B.shape[1], dtype=cd)
    Lin = XcB + mu * np.asarray(H, dtype=cd)  # (n, L)
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
) -> np.ndarray:
    """Alternating optimisation over bits, initialised from ``Z0``.

    For bit ``l`` with the other bits fixed, setting ``z_l = 1`` rather than
    0 changes the objective by

        delta_l = ||b_l||^2 - 2 b_l . r_base + mu (1 - 2 h_l)

    where ``r_base = x - c - sum_{m != l} z_m b_m`` is the residual with bit
    l removed; we set ``z_l = 1`` iff ``delta_l <= 0`` (tie -> 1). Each bit
    update is exact given the others, so sweeps never increase the
    objective; we stop when a full sweep changes nothing.

    ``r_base`` is never materialised: since
    ``r_base . b_l == (R B)_l + z_l ||b_l||^2``, the solver maintains the
    n x L stack ``G = R B`` with one GEMM up front and a rank-1 update per
    flipped bit — O(n L) per bit instead of O(n D).

    ``Z0`` defaults to the truncated relaxed solution (the paper's
    initialisation).
    """
    return _alternate(
        _linear_term(_centre(X, c, B), B), B, H, mu, Z0, max_sweeps=max_sweeps
    )


def _alternate(
    XcB: np.ndarray,
    B: np.ndarray,
    H: np.ndarray,
    mu: float,
    Z0: np.ndarray | None,
    *,
    max_sweeps: int,
) -> np.ndarray:
    """The :func:`zstep_alternate` kernel on the linear term ``XcB``."""
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    cd = _solver_dtype(B)
    if Z0 is None:
        Z0 = _relaxed(XcB, B, H, mu)
    Z = check_binary_codes(Z0).astype(cd)
    L = B.shape[1]
    b_norms = (B * B).sum(axis=0)  # ||b_l||^2 for each column l
    BtB = B.T @ B
    # G = R @ B, the per-bit linear terms, built by one GEMM pair; flipping
    # bit l of some rows moves G by a rank-1 update with row l of B^T B.
    G = XcB - Z @ BtB
    mu_term = mu * (1.0 - 2.0 * np.asarray(H, dtype=cd))
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
    return _zstep(
        _linear_term(_centre(X, c, B), B), B, H, mu, method=method, Z0=Z0,
        max_enum_bits=max_enum_bits, max_sweeps=max_sweeps,
    )


def _zstep(XcB, B, H, mu, *, method, Z0, max_enum_bits, max_sweeps) -> np.ndarray:
    """The :func:`zstep` dispatch over the kernels, on the linear term."""
    if method == "auto":
        method = "enumerate" if B.shape[1] <= max_enum_bits else "alternate"
    if method == "enumerate":
        return _enumerate(XcB, B, H, mu)
    if method == "alternate":
        return _alternate(XcB, B, H, mu, Z0, max_sweeps=max_sweeps)
    if method == "relaxed":
        return _relaxed(XcB, B, H, mu)
    raise ValueError(f"unknown Z-step method {method!r}")
