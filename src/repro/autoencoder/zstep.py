"""Per-point Z-step solvers for the binary autoencoder.

The Z step solves, independently for every data point (paper section 3.1):

    min_{z in {0,1}^L}  ||x - B z - c||^2 + mu ||z - h(x)||^2

a binary proximal operator. Expanding with binary identities
(``z_l^2 = z_l``) the objective is a binary quadratic:

    E(z) = z^T (B^T B) z - 2 z . (B^T (x - c) + mu h) + mu sum(z) + const(x)

Three solvers, as in the paper:

* **enumeration** — exact for small L (used for SIFT-10K / SIFT-1M with
  L=16): per point, a dominance pass first fixes every bit whose flip
  gain has one sign whatever the other bits are, then only the codes
  that agree with the fixed bits are scored (all 2^L when too few bits
  are fixed). The codes are those of scoring all 2^L, bit for bit;
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

_METHODS = ("auto", "enumerate", "alternate", "relaxed")

# Scratch bytes of one enumeration row tile (two blocks of rows x 2^(L - L//2)
# scores), chosen on the bench's ``zstep.enum_ns_per_code`` rung: big enough
# to amortise the per-call cost of the 2^(L//2) ufunc pairs a tile takes,
# small enough to stay in L2 beside the 512 KiB pair table at L = 16.
_ENUM_SCRATCH_BYTES = 1 << 19

# Rows the dominance pass leaves with at least this many free bits are
# scored by the min-plus kernel over all 2^L codes; fewer free bits, only
# the 2^f codes that agree with the fixed ones. Chosen with the bench's
# ``backend.z_s`` rung: a kept code costs about 5 ns to score against
# 2.3 ns a code for the min-plus kernel, so at L = 16 a row is cheaper
# reduced up to 14 free bits.
_ENUM_DENSE_BITS = 15


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
    """Exact Z step over all 2^L codes, in constant memory.

    Split a code into its low ``Llo = L // 2`` bits ``a`` and its high bits
    ``b``. With ``G = B^T B`` and ``lin = (x - c) B + mu h`` the score is

        E(b, a) = Q[a, b] + U[i, a] + V[i, b]

    where ``Q`` (2^Llo x 2^(L-Llo)) holds the quadratic and ``mu sum(z)``
    terms and depends on the model only, and ``U = -2 lin_lo . a``,
    ``V = -2 lin_hi . b`` are two small GEMMs. The answer is the first
    minimum of ``(Q + U) + V`` in code order ``b * 2^Llo + a`` (bit l =
    column l): exact ties go to the lowest code.

    Most of the 2^L codes provably cannot win: a dominance pass fixes the
    bits whose flip gain keeps one sign over every code, and a row scores
    only the codes that agree with them. Rows left with many free bits
    take the min-plus kernel over all codes, which never forms a rows x
    2^L matrix. Both read the same ``Q``, ``U`` and ``V``, so the codes
    are those of scoring every code. Raises for ``L > MAX_ENUM_BITS``.
    """
    return _enumerate(_linear_term(_centre(X, c, B), B), B, H, mu)


def _enum_tables(B: np.ndarray, mu: float):
    """The model-only half of an enumeration: the pair table ``Q``, the
    half-code tables scaled by -2 (``U = Clo @ lin_lo``, ``V = lin_hi @
    Chi``) and ``G = B^T B``. Raises for ``L > MAX_ENUM_BITS``."""
    L = B.shape[1]
    if L > MAX_ENUM_BITS:
        raise ValueError(
            f"enumeration over 2^{L} codes refused (max {MAX_ENUM_BITS} bits); "
            "use zstep_alternate"
        )
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    cd = _solver_dtype(B)
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
    return Q, Clo, Chi, G


def _enum_tile(Q: np.ndarray) -> int:
    """Rows per enumeration tile: two blocks of rows x 2^(L - L//2) scores
    in :data:`_ENUM_SCRATCH_BYTES`."""
    return max(1, _ENUM_SCRATCH_BYTES // (2 * Q.shape[1] * Q.itemsize))


def _tile_terms(XcB, H, mu: float, Clo: np.ndarray, Chi: np.ndarray):
    """``lin = (x - c) B + mu h`` of one row tile and its two half-code
    terms ``U`` (2^Llo, m) and ``V`` (m, 2^(L-Llo))."""
    lin = XcB + mu * np.asarray(H, dtype=Clo.dtype)  # (m, L)
    Llo = Clo.shape[1]
    return lin, Clo @ lin[:, :Llo].T, lin[:, Llo:] @ Chi.T


def _minplus(Q, U, V, M, T) -> np.ndarray:
    """Per row ``i`` of ``V``, the lowest code ``b * 2^Llo + a`` that
    minimises ``(Q[a, b] + U[a, i]) + V[i, b]``; ``M``, ``T`` are (rows,
    2^(L-Llo)) scratch of at least that many rows.

    A running ``min`` over ``a`` of ``Q[a] + U[a]`` leaves one score per
    high half; adding ``V`` and taking ``argmin`` picks ``b``, and one more
    ``argmin`` over that ``b``'s scores picks ``a``. Rounding is monotone,
    so this is exactly the first minimum in code order.
    """
    m, nlo = len(V), len(Q)
    Mm, Tm = M[:m], T[:m]
    # Mm[i, b] = min_a Q[a, b] + U[a, i], one low half-code per pass.
    np.add(Q[0], U[0, :, None], out=Mm)
    for a in range(1, nlo):
        np.add(Q[a], U[a, :, None], out=Tm)
        np.minimum(Mm, Tm, out=Mm)
    Mm += V
    hi = Mm.argmin(axis=1)
    v_hi = np.take_along_axis(V, hi[:, None], axis=1)[:, 0]
    return hi * nlo + ((Q[:, hi] + U) + v_hi).argmin(axis=0)


def _code_bits(codes: np.ndarray, L: int) -> np.ndarray:
    """Integer codes as (m, L) bits, bit l in column l."""
    return (codes[:, None] >> np.arange(L, dtype=np.intp)) & 1


def _enumerate_dense(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """Every row through the min-plus kernel (:func:`_minplus`), one row
    tile at a time: all 2^L codes scored. :func:`_enumerate` returns the
    same codes bit for bit."""
    Q, Clo, Chi, _ = _enum_tables(B, mu)
    n, L, tile = len(XcB), B.shape[1], _enum_tile(Q)
    H = np.asarray(H)
    M, T = np.empty((2, min(tile, n), Q.shape[1]), dtype=Q.dtype)
    Z = np.empty((n, L), dtype=np.uint8)
    for start in range(0, n, tile):
        rows = slice(start, start + tile)
        _, U, V = _tile_terms(XcB[rows], H[rows], mu, Clo, Chi)
        Z[rows] = _code_bits(_minplus(Q, U, V, M, T), L)
    return Z


def _dominance(lin: np.ndarray, G: np.ndarray, mu: float):
    """Bits no optimal code can change, per row: ``(free, ones)``, the
    (m, L) mask of bits left free and the integer code of the bits fixed
    to one.

    Setting bit l gains ``d_l(z) = G_ll - 2 lin_l + mu + 2 sum_{m != l}
    G_lm z_m``. Over the codes that agree with the bits fixed so far it
    lies in ``[d_min, d_max]``, from ``min(0, G_lm)`` / ``max(0, G_lm)``
    on the free bits; ``d_min > tau`` fixes ``z_l = 0`` and ``d_max <
    -tau`` fixes ``z_l = 1``, until a round fixes nothing.

    ``tau`` is ``sqrt(eps)`` times ``sum|G| + 2 |lin|_1 + mu L``, a bound
    on every partial sum of any score. A computed score or gain carries at
    most ``O(L) eps`` of that scale in rounding, orders of magnitude less,
    so a dropped code's computed score is strictly above that of a kept
    code and exact ties are never fixed.
    """
    m, L = lin.shape
    cd = G.dtype  # the pair table's precision, never finer than lin's
    off = G - np.diag(np.diag(G))
    neg, pos = np.minimum(off, 0.0), np.maximum(off, 0.0)
    gain0 = np.diag(G) + mu - 2.0 * lin  # d_l with every other bit zero
    fi = np.finfo(cd)
    # (8 L + 32) eps bounds the rounding of two scores and one gain; it
    # only exceeds sqrt(eps) below float32. ``tiny`` covers subnormal scales.
    margin = max(np.sqrt(fi.eps), (8 * L + 32) * fi.eps)
    scale = np.abs(G).sum() + 2.0 * np.abs(lin).sum(axis=1) + mu * L
    tau = (margin * scale + fi.tiny)[:, None]
    free = np.ones((m, L), dtype=bool)
    one = np.zeros((m, L), dtype=bool)
    for _ in range(L):
        gain = gain0 + 2.0 * (one.astype(cd) @ off)
        F = free.astype(cd)
        to0 = free & (gain + 2.0 * (F @ neg) > tau)
        to1 = free & (gain + 2.0 * (F @ pos) < -tau)
        fixed = to0 | to1
        if not fixed.any():
            break
        free &= ~fixed
        one |= to1
    return free, one.astype(np.intp) @ (1 << np.arange(L, dtype=np.intp))


def _deposit(base: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(r, 2^f): ``base`` plus ``arange(2^f)`` deposited on the bits whose
    values are ``weights`` (r, f), ascending when the weights are."""
    out = np.empty((len(base), 1 << weights.shape[1]), dtype=np.intp)
    out[:, 0] = base
    for j in range(weights.shape[1]):
        h = 1 << j
        out[:, h : 2 * h] = out[:, :h] + weights[:, j, None]
    return out


def _score_free(Q, U, V, at, free, ones, scratch) -> np.ndarray:
    """Codes of tile rows ``at`` by scoring only the codes that agree with
    their fixed bits; every row in ``at`` has the same number of free low
    bits (``Llo = L // 2``) and the same number of free high bits.

    A row's candidates are its low halves ``a`` (2^f_lo, ascending) times
    its high halves ``b`` (2^f_hi). Each scores ``(Q[a, b] + U[a, i]) +
    V[i, b]`` from the min-plus kernel's arrays, laid out ``b``-major so
    the first ``argmin`` is the lowest code among exact ties.
    """
    nlo, nhi = Q.shape
    m, Llo = len(V), nlo.bit_length() - 1
    fr, shift = free[at], np.arange(free.shape[1], dtype=np.intp)
    f_lo, f_hi = int(fr[0, :Llo].sum()), int(fr[0, Llo:].sum())
    P = np.nonzero(fr)[1].reshape(len(at), f_lo + f_hi)  # free bits, ascending
    W = 1 << shift[P]
    A = _deposit(ones[at] & (nlo - 1), W[:, :f_lo])
    Bh = _deposit(ones[at] >> Llo, W[:, f_lo:] >> Llo)
    na, nb = A.shape[1], Bh.shape[1]
    UA = U.reshape(-1).take(A * m + at[:, None])  # U[a, i]
    VB = V.reshape(-1).take(at[:, None] * nhi + Bh)  # V[i, b]
    QA = A * nhi
    Qf = Q.reshape(-1)
    ib = np.dtype(np.intp).itemsize
    step = max(1, scratch.nbytes // ((ib + Q.itemsize) * na * nb))
    out = np.empty(len(at), dtype=np.intp)
    for s0 in range(0, len(at), step):
        r = min(step, len(at) - s0)
        c = r * na * nb
        idx = scratch[: ib * c].view(np.intp).reshape(r, nb, na)
        s = scratch[ib * c : (ib + Q.itemsize) * c].view(Q.dtype).reshape(r, nb, na)
        part = slice(s0, s0 + r)
        np.add(Bh[part, :, None], QA[part, None, :], out=idx)  # a * nhi + b
        np.take(Qf, idx, out=s)
        s += UA[part, None, :]
        s += VB[part, :, None]
        kb, ka = np.divmod(s.reshape(r, -1).argmin(axis=1), na)
        rr = np.arange(r, dtype=np.intp)
        out[part] = (Bh[part][rr, kb] << Llo) | A[part][rr, ka]
    return out


class _MinPlusQueue:
    """Rows bound for :func:`_minplus`, run a whole row tile at a time (its
    cost is two ufunc calls per low half-code, however few the rows). Each
    row keeps the ``U`` column and ``V`` row its own tile computed, so its
    code is the one :func:`_enumerate_dense` picks."""

    def __init__(self, Q: np.ndarray, tile: int, Z: np.ndarray, scratch: np.ndarray):
        nhi = Q.shape[1]
        self.Q, self.tile, self.Z, self.m = Q, tile, Z, 0
        self.M, self.T = scratch[: 2 * tile * nhi * Q.itemsize].view(Q.dtype).reshape(
            2, tile, nhi
        )
        self.UT = self.V = None  # allocated by the first push

    def push(self, U: np.ndarray, V: np.ndarray, at: np.ndarray, start: int) -> None:
        """Queue tile rows ``at`` (``U`` column, ``V`` row) for ``Z[start + at]``."""
        if self.UT is None and len(at):
            self.UT = np.empty((self.tile, len(U)), dtype=U.dtype)
            self.V = np.empty((self.tile, V.shape[1]), dtype=V.dtype)
            self.rows = np.empty(self.tile, dtype=np.intp)
        while len(at):
            k = min(len(at), self.tile - self.m)
            into = slice(self.m, self.m + k)
            np.take(U.T, at[:k], axis=0, out=self.UT[into])
            np.take(V, at[:k], axis=0, out=self.V[into])
            self.rows[into] = start + at[:k]
            self.m += k
            at = at[k:]
            if self.m == self.tile:
                self.flush()

    def flush(self) -> None:
        m, self.m = self.m, 0
        if m:
            codes = _minplus(self.Q, self.UT[:m].T, self.V[:m], self.M, self.T)
            self.Z[self.rows[:m]] = _code_bits(codes, self.Z.shape[1])


def _enumerate(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """The :func:`zstep_enumerate` kernel on the linear term ``XcB``.

    Per row tile, the dominance pass (:func:`_dominance`) fixes the bits
    no optimal code can change. A row left with fewer than
    :data:`_ENUM_DENSE_BITS` free bits scores only the codes that agree
    with its fixed bits (:func:`_score_free`); the others queue for the
    min-plus kernel (:class:`_MinPlusQueue`). Both score a code as ``(Q[a,
    b] + U[a, i]) + V[i, b]`` from the same arrays and take its first
    minimum, so the codes equal :func:`_enumerate_dense`'s bit for bit.
    """
    Q, Clo, Chi, G = _enum_tables(B, mu)
    n, L, tile = len(XcB), B.shape[1], _enum_tile(Q)
    Llo = L // 2
    H = np.asarray(H)
    Z = np.empty((n, L), dtype=np.uint8)
    # One scratch block: the min-plus kernel's M, T, or the scores of the
    # codes kept by the dominance pass, never both at once.
    scratch = np.empty(_ENUM_SCRATCH_BYTES, dtype=np.uint8)
    dense = _MinPlusQueue(Q, min(tile, n), Z, scratch)
    for start in range(0, n, tile):
        rows = slice(start, start + tile)
        lin, U, V = _tile_terms(XcB[rows], H[rows], mu, Clo, Chi)
        free, ones = _dominance(lin, G, mu)
        f_lo, f_hi = free[:, :Llo].sum(axis=1), free[:, Llo:].sum(axis=1)
        # A numpy float64 ``mu`` makes float32 ``U``, ``V`` float64, and the
        # min-plus kernel then rounds its two levels differently: score
        # every row there.
        heavy = (f_lo + f_hi >= _ENUM_DENSE_BITS) | (U.dtype != Q.dtype)
        group = np.where(heavy, -1, f_lo * (L + 1) + f_hi)
        for g in np.unique(group[~heavy]):
            at = np.flatnonzero(group == g)
            Z[start + at] = _code_bits(_score_free(Q, U, V, at, free, ones, scratch), L)
        dense.push(U, V, np.flatnonzero(heavy), start)
    dense.flush()
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
    allowed (L = 16 is the paper's SIFT setting). ``max_enum_bits`` must
    lie in ``[0, MAX_ENUM_BITS]``.
    """
    _check_options(method, max_enum_bits, max_sweeps)
    return _zstep(
        _linear_term(_centre(X, c, B), B), B, H, mu, method=method, Z0=Z0,
        max_enum_bits=max_enum_bits, max_sweeps=max_sweeps,
    )


def _check_options(method: str, max_enum_bits: int, max_sweeps: int) -> None:
    """Refuse :func:`zstep` options no solve can run with, before any
    data is touched."""
    if method not in _METHODS:
        raise ValueError(f"unknown Z-step method {method!r}; expected one of {_METHODS}")
    if not 0 <= max_enum_bits <= MAX_ENUM_BITS:
        raise ValueError(
            f"max_enum_bits must be in [0, {MAX_ENUM_BITS}], got {max_enum_bits}"
        )
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")


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
