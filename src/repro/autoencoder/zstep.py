"""Per-point Z-step solvers for the binary autoencoder.

The Z step solves, independently for every data point (paper section 3.1):

    min_{z in {0,1}^L}  ||x - B z - c||^2 + mu ||z - h(x)||^2

a binary proximal operator. Expanding with binary identities
(``z_l^2 = z_l``) the objective is a binary quadratic:

    E(z) = z^T (B^T B) z - 2 z . (B^T (x - c) + mu h) + mu sum(z) + const(x)

Three solvers, as in the paper:

* **enumeration** — exact for small L (used for SIFT-10K / SIFT-1M with
  L=16): per point, a dominance test fixes every bit whose flip gain has
  one sign whatever the other bits are; a point left with many free bits
  branches on one of them and each half is tested again, and only the
  codes that agree with some leaf's fixed bits are scored (all 2^L when
  a point's tree grows past its node budget). The codes are those of
  scoring all 2^L, bit for bit;
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
    "zstep_enumerate",
    "zstep_alternate",
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

# Rows per block: the branch-and-fix tree and the leaves' scoring run a
# block of whole row tiles at a time, so their per-call numpy cost is paid
# once for several tiles.
_ENUM_BLOCK_ROWS = 512

# The branch-and-fix tree (:func:`_leaves`) splits a node left with at
# least ``_BRANCH_BITS`` free bits. A row goes to the min-plus kernel once
# its tree would pass ``_ROW_NODES`` nodes, or once one level of a block's
# trees would pass ``_LEVEL_NODES`` (which bounds the tree's memory).
# Chosen with the bench's ``backend.z_s`` rung, like
# ``_ENUM_SCRATCH_BYTES``: on the Z calls of its fit the kernel time is
# flat within noise for 9-11 bits, 32-64 nodes per row and 2048-4096 per
# level, and smaller budgets send rows to the min-plus kernel.
_BRANCH_BITS = 9
_ROW_NODES = 32
_LEVEL_NODES = 2048


def _check_mu(mu: float) -> None:
    """Refuse a penalty weight no solve can use. A negative ``mu`` makes
    the Z step no proximal operator; a NaN or infinite one makes every
    score non-finite, and ``argmin`` / ``delta <= 0`` would decode that to
    a silent all-zero code."""
    if not (np.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")


def _check_enum_bits(L: int) -> None:
    """Refuse an enumeration over more than ``2^MAX_ENUM_BITS`` codes."""
    if L > MAX_ENUM_BITS:
        raise ValueError(
            f"enumeration over 2^{L} codes refused (max {MAX_ENUM_BITS} bits); "
            "use zstep_alternate"
        )


def _centre(X, c, B: np.ndarray) -> np.ndarray:
    """``X - c`` in the compute precision of a solve with decoder ``B``,
    shape (n, D). Non-finite values pass through; :func:`_linear_term`
    refuses them."""
    cd = _solver_dtype(B)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.asarray(X, dtype=cd) - np.asarray(c, dtype=cd)


def _linear_term(Xc: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Xc @ B`` for centred data ``Xc = X - c``, shape (n, L): the
    data-dependent linear term every solver starts from, checked by
    :func:`_finite_term`."""
    with np.errstate(invalid="ignore", over="ignore"):  # checked just below
        return _finite_term(Xc @ B)


def _finite_term(XcB: np.ndarray) -> np.ndarray:
    """``XcB``, or an error naming its first non-finite row: ``argmin``
    and ``delta <= 0`` would turn one into a silent all-zero code."""
    if not np.isfinite(XcB).all():
        row = np.flatnonzero(~np.isfinite(XcB).all(axis=1))[0]
        raise ValueError(
            f"non-finite Z-step linear term at row {row}: X, B or c holds "
            "NaN/inf, or the product overflowed the compute precision"
        )
    return XcB


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

    Most of the 2^L codes provably cannot win: a dominance test fixes the
    bits whose flip gain keeps one sign over every code, a row left with
    many free bits branches on one and tests each half again, and a row
    scores only the codes that agree with its leaves. Rows whose tree
    outgrows its budget take the min-plus kernel over all codes, which
    never forms a rows x 2^L matrix. Both read the same ``Q``, ``U`` and
    ``V``, so the codes are those of scoring every code. Raises for ``L >
    MAX_ENUM_BITS``.
    """
    return _enumerate(_linear_term(_centre(X, c, B), B), B, H, mu)


def _enum_tables(B: np.ndarray, mu: float):
    """The model-only half of an enumeration: the pair table ``Q``, the
    half-code tables scaled by -2 (``U = Clo @ lin_lo``, ``V = lin_hi @
    Chi``) and ``G = B^T B``. Raises for ``L > MAX_ENUM_BITS``."""
    L = B.shape[1]
    _check_enum_bits(L)
    _check_mu(mu)
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


def _settle(FO, gs, tau, W) -> None:
    """The dominance test on nodes, in place: fix every free bit whose
    flip gain keeps one sign over the node's codes, until a round fixes
    nothing. Column j of ``FO`` (2L, k) stacks node j's bits fixed to one
    over its free bits, as 0/1; ``gs`` (2L, k) is ``[d0; -d0]`` and
    ``tau`` (k,) the margin, both of the node's row.

    Setting bit l gains ``d_l(z) = d0_l + 2 sum_{m != l} G_lm z_m`` with
    ``d0_l = G_ll - 2 lin_l + mu``. Over the codes that agree with the
    fixed bits it lies in ``[d_min, d_max]``, the sums with ``min(0,
    G_lm)`` / ``max(0, G_lm)`` on the free bits; ``gs + W @ FO`` is
    ``[d_min; -d_max]``. ``d_min > tau`` fixes ``z_l = 0`` and ``d_max <
    -tau`` fixes ``z_l = 1``.
    """
    L = len(FO) // 2
    while True:
        X = (W @ FO + gs > tau).reshape(2, L, -1)
        X &= FO[L:] > 0.0  # (to 0, to 1) per bit and node
        if not X.any():
            return
        FO[L:] -= X[0] | X[1]
        FO[:L] += X[1]


def _leaves(lin: np.ndarray, G: np.ndarray, mu: float):
    """The branch-and-fix tree of every row: ``(row, free, ones, dense)``,
    the leaves' rows, their free bits and their bits fixed to one (as
    integer codes), and the (m,) mask of rows over a node budget.

    A node is a row plus fixed bits; the root fixes none. Each node first
    runs the dominance test (:func:`_settle`). One left with at least
    :data:`_BRANCH_BITS` free bits splits on the free bit most coupled to
    the others (largest ``sum |G_lm|`` over its free bits) into ``z_l =
    0`` and ``z_l = 1``, and each child runs the test again; fewer free
    bits make a leaf. A row whose tree would pass :data:`_ROW_NODES`
    nodes, or whose children would pass :data:`_LEVEL_NODES` in one level
    of the block, is ``dense``: its leaves are dropped and it takes
    :func:`_minplus`.

    ``tau`` is ``sqrt(eps)`` times ``sum|G| + 2 |lin|_1 + mu L``, a bound
    on every partial sum of any score. A computed score or gain carries at
    most ``O(L) eps`` of that scale in rounding, orders of magnitude less,
    so a fixed bit's flip strictly lowers the computed score and exact
    ties are never fixed.
    """
    m, L = lin.shape
    cd = G.dtype  # the pair table's precision, never finer than lin's
    off = G - np.diag(np.diag(G))
    neg, pos = np.minimum(off, 0.0), np.maximum(off, 0.0)
    W = 2.0 * np.block([[off, neg], [-off, -pos]])
    d0 = (np.diag(G) + mu - 2.0 * lin).T  # d_l with every other bit zero
    gs = np.concatenate((d0, -d0))
    fi = np.finfo(cd)
    # (8 L + 32) eps bounds the rounding of two scores and one gain; it
    # only exceeds sqrt(eps) below float32. ``tiny`` covers subnormal scales.
    margin = max(np.sqrt(fi.eps), (8 * L + 32) * fi.eps)
    tau = margin * (np.abs(G).sum() + 2.0 * np.abs(lin).sum(axis=1) + mu * L) + fi.tiny
    row = np.arange(m, dtype=np.intp)
    FO = np.zeros((2 * L, m), dtype=cd)
    FO[L:] = 1.0
    nodes = np.ones(m, dtype=np.intp)
    dense = np.zeros(m, dtype=bool)
    weights = 1 << np.arange(L, dtype=np.intp)
    out = []
    while len(row):
        _settle(FO, gs.take(row, axis=1), tau[row], W)
        split = FO[L:].sum(axis=0) >= _BRANCH_BITS
        leaf = ~split
        out.append((row[leaf], weights @ (FO[:, leaf] > 0.0).reshape(2, L, -1)))
        row, FO = row[split], FO[:, split]
        # Two children per split node; a row past a budget goes dense.
        want = 2 * np.bincount(row, minlength=m)
        over = nodes + want > _ROW_NODES
        over |= np.cumsum(np.where(over, 0, want)) > _LEVEL_NODES
        over &= want > 0
        dense |= over
        nodes += want
        keep = ~over[row]
        row, FO = row[keep], FO[:, keep]
        bit = np.where(FO[L:] > 0.0, np.abs(off) @ FO[L:], -1.0).argmax(axis=0)
        row, FO = np.repeat(row, 2), np.repeat(FO, 2, axis=1)
        kids = np.arange(len(row), dtype=np.intp)
        FO[L + bit.repeat(2), kids] = 0.0
        FO[bit, kids[1::2]] = 1.0
    row = np.concatenate([r for r, _ in out])
    ones, free = np.concatenate([f for _, f in out], axis=1)
    keep = ~dense[row]
    return row[keep], free[keep], ones[keep], dense


def _deposit(base: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(2^f, r): ``base`` (r,) plus ``arange(2^f)`` deposited on the bits
    whose values are ``weights`` (f, r), ascending when the weights are."""
    out = np.empty((1 << len(weights), len(base)), dtype=np.intp)
    out[0] = base
    for j, w in enumerate(weights):
        h = 1 << j
        np.add(out[:h], w, out=out[h : 2 * h])
    return out


def _score_leaves(Q, U, V, row, free, ones, scratch):
    """``(score, code)`` of each leaf: the first code, in code order, at
    the minimum score of the codes that agree with its fixed bits, and
    that minimum.

    A leaf's candidates are its free low halves ``a`` (2^f_lo, ascending)
    times its free high halves ``b`` (2^f_hi); leaves with the same
    ``(f_lo, f_hi)`` are scored together, laid out ``(b, a, leaf)`` so
    that a code's position is its rank in code order and every ufunc runs
    along the leaves. Each code scores ``(Q[a, b] + U[a, i]) + V[i, b]``
    from the min-plus kernel's arrays, so the first ``argmin`` is the
    lowest code among exact ties.
    """
    nlo, nhi = Q.shape
    Llo = nlo.bit_length() - 1
    bits = 1 << np.arange(Llo + nhi.bit_length() - 1, dtype=np.intp)
    is_free = (free[:, None] & bits) != 0  # (leaves, L)
    f_lo, f_hi = is_free[:, :Llo].sum(axis=1), is_free[:, Llo:].sum(axis=1)
    group = f_lo * len(bits) + f_hi
    score, code = np.empty(len(row), dtype=Q.dtype), np.empty(len(row), dtype=np.intp)
    ib = np.dtype(np.intp).itemsize
    per = ib + Q.itemsize  # an index and a score per code
    for g in np.unique(group).tolist():
        at = np.flatnonzero(group == g)
        fl, fh = int(f_lo[at[0]]), int(f_hi[at[0]])
        P = bits[np.nonzero(is_free[at])[1]].reshape(len(at), fl + fh).T
        step = max(1, scratch.nbytes // (per << (fl + fh)))
        for s0 in range(0, len(at), step):
            part, p = at[s0 : s0 + step], P[:, s0 : s0 + step]
            r, c = len(part), len(part) << (fl + fh)
            o, i = ones[part], row[part]
            A = _deposit(o & (nlo - 1), p[:fl])  # (2^f_lo, r)
            Bh = _deposit(o >> Llo, p[fl:] >> Llo)  # (2^f_hi, r)
            idx = scratch[: ib * c].view(np.intp).reshape(len(Bh), len(A), r)
            s = scratch[ib * c : per * c].view(Q.dtype).reshape(len(Bh), len(A), r)
            np.add(Bh[:, None], A * nhi, out=idx)  # a * nhi + b
            Q.take(idx, out=s)
            s += U.take(A * U.shape[1] + i)  # U[a, i]
            s += V.take(i * nhi + Bh)[:, None]  # V[i, b]
            s = s.reshape(-1, r)
            k, rr = s.argmin(axis=0), np.arange(r, dtype=np.intp)
            score[part] = s[k, rr]
            kb, ka = np.divmod(k, len(A))
            code[part] = (Bh[kb, rr] << Llo) | A[ka, rr]
    return score, code


def _enumerate(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """The :func:`zstep_enumerate` kernel on the linear term ``XcB``.

    Rows go a block of whole row tiles (:data:`_ENUM_BLOCK_ROWS`) at a time,
    with ``U`` and ``V`` computed per tile. Per block, the branch-and-fix
    tree (:func:`_leaves`) splits each row's codes into leaves that hold
    every code that can win; each leaf is scored (:func:`_score_leaves`)
    and a row takes the lowest ``(score, code)`` over its leaves. Rows over
    a node budget take the min-plus kernel. Both score a code as ``(Q[a,
    b] + U[a, i]) + V[i, b]`` from the same arrays and take its first
    minimum, so the codes equal those of sending every row through the
    min-plus kernel, bit for bit.
    """
    Q, Clo, Chi, G = _enum_tables(B, mu)
    n, L, tile = len(XcB), B.shape[1], _enum_tile(Q)
    nlo, nhi = Q.shape
    block = tile * max(1, _ENUM_BLOCK_ROWS // tile)
    H = np.asarray(H)
    Z = np.empty((n, L), dtype=np.uint8)
    # One scratch block: the min-plus kernel's M, T, or the scores of the
    # leaves' codes, never both at once.
    scratch = np.empty(_ENUM_SCRATCH_BYTES, dtype=np.uint8)
    M, T = scratch[: 2 * tile * nhi * Q.itemsize].view(Q.dtype).reshape(2, tile, nhi)
    # One block's terms, allocated by the first tile. They are sized for a
    # whole block even when n is smaller, so that a call's peak memory is
    # the same for one row tile as for many.
    lin = U = V = None
    for b0 in range(0, n, block):
        m = min(block, n - b0)
        for t0 in range(0, m, tile):
            rows = slice(b0 + t0, b0 + min(t0 + tile, m))
            lt, Ut, Vt = _tile_terms(XcB[rows], H[rows], mu, Clo, Chi)
            if U is None:
                lin = np.empty((block, L), dtype=lt.dtype)
                U = np.empty((nlo, block), dtype=Ut.dtype)
                V = np.empty((block, nhi), dtype=Vt.dtype)
            k = slice(t0, t0 + len(lt))
            lin[k], U[:, k], V[k] = lt, Ut, Vt
        # A numpy float64 ``mu`` makes float32 ``U``, ``V`` float64, and the
        # min-plus kernel then rounds its two levels differently: score
        # every row there.
        if U.dtype != Q.dtype:
            dense = np.arange(m, dtype=np.intp)
        else:
            row, free, ones, heavy = _leaves(lin[:m], G, mu)
            score, code = _score_leaves(Q, U, V, row, free, ones, scratch)
            # Each row's code: the lowest (score, code) over its leaves.
            order = np.lexsort((code, score, row))
            head = np.ones(len(order), dtype=bool)
            head[1:] = row[order[1:]] != row[order[:-1]]
            Z[b0 + row[order[head]]] = _code_bits(code[order[head]], L)
            dense = np.flatnonzero(heavy)
        for d0 in range(0, len(dense), tile):
            at = dense[d0 : d0 + tile]
            Z[b0 + at] = _code_bits(_minplus(Q, U[:, at], V[at], M, T), L)
    return Z


def _relaxed(XcB: np.ndarray, B: np.ndarray, H: np.ndarray, mu: float) -> np.ndarray:
    """Truncated solution of the [0,1]-relaxed Z step on the linear term
    ``XcB``.

    The relaxed problem is unconstrained quadratic with solution
    ``(B^T B + mu I) z = B^T (x - c) + mu h``; we clip to [0,1] and
    threshold at 1/2 (ties -> 1, matching the step convention).
    """
    _check_mu(mu)
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
    _check_mu(mu)
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
    # Rows are independent problems, and a row that a whole sweep left
    # alone is at a fixed point: later sweeps work on the moving rows
    # (``live``) only, which gives every row the full sweeps' bits.
    out, live = Z, np.arange(len(Z), dtype=np.intp)
    for _ in range(max_sweeps):
        moved = np.zeros(len(live), dtype=bool)
        for l in range(L):
            delta = b_norms[l] - 2.0 * (G[:, l] + Z[:, l] * b_norms[l]) + mu_term[:, l]
            new_zl = (delta <= 0.0).astype(cd)
            diff = new_zl - Z[:, l]
            rows = np.flatnonzero(diff)
            if rows.size:
                moved[rows] = True
                G[rows] -= diff[rows, None] * BtB[l][None, :]
                Z[rows, l] = new_zl[rows]
        if not moved.all():
            out[live[~moved]] = Z[~moved]
            live, G, Z, mu_term = live[moved], G[moved], Z[moved], mu_term[moved]
            if not live.size:
                break
    out[live] = Z
    return out.astype(np.uint8)


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
    _check_options(method, max_enum_bits, max_sweeps, np.shape(B)[1])
    return _zstep(
        _linear_term(_centre(X, c, B), B), B, H, mu, method=method, Z0=Z0,
        max_enum_bits=max_enum_bits, max_sweeps=max_sweeps,
    )


def _check_options(method: str, max_enum_bits: int, max_sweeps: int, n_bits: int) -> None:
    """Refuse :func:`zstep` options no solve with ``n_bits``-bit codes can
    run with, before any data is touched."""
    if method not in _METHODS:
        raise ValueError(f"unknown Z-step method {method!r}; expected one of {_METHODS}")
    if method == "enumerate":
        _check_enum_bits(n_bits)
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
