"""Z-step solver correctness: the binary proximal operator of section 3.1."""

import hashlib
import importlib
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.autoencoder.zstep import (
    _BRANCH_BITS,
    _ENUM_BLOCK_ROWS,
    _ENUM_SCRATCH_BYTES,
    _METHODS,
    MAX_ENUM_BITS,
    _alternate,
    _code_bits,
    _enum_tables,
    _enum_tile,
    _enumerate,
    _minplus,
    _solver_dtype,
    _relaxed,
    _tile_terms,
    zstep,
    zstep_alternate,
    zstep_enumerate,
)
from repro.core.penalty import GeometricSchedule
from repro.data.synthetic import make_gist_like
from tests.fits import sim

# The module itself (``repro.autoencoder.zstep`` the attribute is the
# re-exported function), for patching its kernels.
zmod = importlib.import_module("repro.autoencoder.zstep")


def random_problem(n=20, D=6, L=4, mu=1.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, D))
    B = rng.normal(size=(D, L))
    c = rng.normal(size=D)
    H = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
    return X, B, c, H, mu


def zstep_objective(X, B, c, H, mu, Z):
    """Per-point Z-step objective values (n,) for codes ``Z``, in the
    solvers' compute precision."""
    cd = _solver_dtype(B)
    Zf = np.asarray(Z, dtype=cd)
    R = np.asarray(X, dtype=cd) - Zf @ B.T - np.asarray(c, dtype=cd)
    dzh = Zf - np.asarray(H, dtype=cd)
    return (R * R).sum(axis=1) + mu * (dzh * dzh).sum(axis=1)


def zstep_relaxed(X, B, c, H, mu):
    """The truncated [0,1]-relaxed solution, through the dispatcher."""
    return zstep(X, B, c, H, mu, method="relaxed")


def enumerate_dense(XcB, B, H, mu):
    """Every row through the min-plus kernel (``_minplus``), one row tile
    at a time: all 2^L codes scored. The kernel ``_enumerate`` must return
    the same codes bit for bit."""
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


def brute_force(X, B, c, H, mu):
    """Reference: per-point exhaustive search via explicit python loops."""
    n, L = len(X), B.shape[1]
    best = np.zeros((n, L), dtype=np.uint8)
    for i in range(n):
        best_val = np.inf
        for bits in itertools.product((0, 1), repeat=L):
            z = np.array(bits, dtype=np.float64)
            val = np.sum((X[i] - B @ z - c) ** 2) + mu * np.sum((z - H[i]) ** 2)
            if val < best_val:
                best_val = val
                best[i] = bits
    return best


def enumerate_oracle(X, B, c, H, mu):
    """The full-matrix formulation ``zstep_enumerate`` used to run: score
    every code for every row with an einsum quadratic and one (n, 2^L)
    GEMM, take ``argmin`` (first minimum = lowest code). Kept here as the
    reference the streaming kernel is compared against."""
    L = B.shape[1]
    ints = np.arange(2**L, dtype=np.uint32)
    C = ((ints[:, None] >> np.arange(L, dtype=np.uint32)) & 1).astype(B.dtype)
    quad = np.einsum("kl,lm,km->k", C, B.T @ B, C) + mu * C.sum(axis=1)
    Lin = (X.astype(B.dtype) - c.astype(B.dtype)) @ B + mu * H.astype(B.dtype)
    scores = quad[None, :] - 2.0 * Lin @ C.T
    return C[np.argmin(scores, axis=1)].astype(np.uint8)


def alternate_oracle(X, B, c, H, mu, Z0=None, max_sweeps=20):
    """The per-bit residual sweep ``zstep_alternate`` used to run: keep
    the n x D residual ``x - f(z)`` and, for each bit, rebuild the
    residual with that bit removed. Kept here as the reference the
    stacked ``G = R B`` solver is compared against."""
    cd = B.dtype
    Hf = np.asarray(H, dtype=cd)
    if Z0 is None:
        Z0 = zstep_relaxed(X, B, c, H, mu)
    Z = np.asarray(Z0).astype(cd)
    b_norms = (B * B).sum(axis=0)
    R = np.asarray(X, dtype=cd) - Z @ B.T - np.asarray(c, dtype=cd)
    for _ in range(max_sweeps):
        changed = False
        for l in range(B.shape[1]):
            b_l = B[:, l]
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


def full_sweep_oracle(XcB, B, H, mu, Z0, max_sweeps):
    """The stacked ``G = R B`` kernel as it ran before it dropped settled
    rows: every sweep visits all n rows, until a sweep flips nothing or
    ``max_sweeps`` is spent. Kept here as the reference ``_alternate``
    must equal bit for bit."""
    cd = _solver_dtype(B)
    Z = np.asarray(Z0).astype(cd)
    b_norms = (B * B).sum(axis=0)
    BtB = B.T @ B
    G = XcB - Z @ BtB
    mu_term = mu * (1.0 - 2.0 * np.asarray(H, dtype=cd))
    for _ in range(max_sweeps):
        changed = False
        for l in range(B.shape[1]):
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


class TestObjective:
    def test_matches_definition(self):
        X, B, c, H, mu = random_problem()
        Z = np.random.default_rng(1).integers(0, 2, size=H.shape).astype(np.uint8)
        vals = zstep_objective(X, B, c, H, mu, Z)
        i = 3
        z = Z[i].astype(float)
        expected = np.sum((X[i] - B @ z - c) ** 2) + mu * np.sum((z - H[i]) ** 2)
        assert vals[i] == pytest.approx(expected)

    def test_zero_when_perfect(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(4, 3))
        c = rng.normal(size=4)
        Z = rng.integers(0, 2, size=(5, 3)).astype(np.uint8)
        X = Z.astype(float) @ B.T + c
        assert np.allclose(zstep_objective(X, B, c, Z, 1.0, Z), 0.0)


class TestComputePrecision:
    """Solvers run in the decoder's float dtype whatever ``X``, ``c`` and
    ``H`` arrive as; a non-finite linear term is an error, not a code."""

    def test_float64_bias_does_not_promote(self):
        X, B, c, H, mu = random_problem(n=40, L=6, seed=13)
        B32, c32 = B.astype(np.float32), c.astype(np.float32)
        # c as float64 but holding float32 values: same problem, wider box.
        c64 = c32.astype(np.float64)
        Z = zstep_enumerate(X, B32, c32, H, mu)
        assert zstep_objective(X, B32, c64, H, mu, Z).dtype == np.float32
        assert np.array_equal(zstep_enumerate(X, B32, c64, H, mu), Z)
        assert np.array_equal(
            zstep_alternate(X, B32, c64, H, mu), zstep_alternate(X, B32, c32, H, mu)
        )
        assert np.array_equal(
            zstep_relaxed(X, B32, c64, H, mu), zstep_relaxed(X, B32, c32, H, mu)
        )

    @pytest.mark.parametrize("solver", [zstep_enumerate, zstep_alternate, zstep_relaxed])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_is_refused(self, solver, bad):
        X, B, c, H, mu = random_problem(n=10, L=4)
        X[3, 2] = X[7, 0] = bad
        with pytest.raises(ValueError, match="row 3"):
            solver(X, B, c, H, mu)

    @pytest.mark.parametrize("solver", [
        zstep_enumerate, zstep_alternate, zstep_relaxed,
        lambda X, B, c, H, mu: zstep_alternate(X, B, c, H, mu, H),
        *(lambda X, B, c, H, mu, m=m: zstep(X, B, c, H, mu, method=m) for m in _METHODS),
    ], ids=["enumerate", "alternate", "relaxed", "alternate_warm",
            *(f"zstep_{m}" for m in _METHODS)])
    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_mu_is_refused(self, solver, mu):
        # Regression: a NaN mu (and an infinite one for enumeration and
        # the relaxed solver) made every score non-finite, which the
        # solvers decoded to 0...0 instead of raising.
        X, B, c, H, _ = random_problem(n=10, L=4)
        with pytest.raises(ValueError, match="mu must be finite and >= 0"):
            solver(X, B, c, H, mu)

    @pytest.mark.parametrize("solver", [zstep_enumerate, zstep_alternate, zstep_relaxed])
    def test_empty_shard(self, solver):
        X, B, c, H, mu = random_problem(n=0, L=5)
        Z = solver(X, B, c, H, mu)
        assert Z.shape == (0, 5) and Z.dtype == np.uint8


class TestEnumerate:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        X, B, c, H, mu = random_problem(n=12, L=4, mu=0.7, seed=seed)
        Z = zstep_enumerate(X, B, c, H, mu)
        ref = brute_force(X, B, c, H, mu)
        # Optimal objective must match (argmin may tie).
        assert np.allclose(
            zstep_objective(X, B, c, H, mu, Z), zstep_objective(X, B, c, H, mu, ref)
        )

    def test_huge_mu_returns_h(self):
        X, B, c, H, _ = random_problem()
        Z = zstep_enumerate(X, B, c, H, mu=1e12)
        assert np.array_equal(Z, H)

    def test_mu_zero_ignores_h(self):
        # With mu=0 the solution depends only on reconstruction.
        X, B, c, H, _ = random_problem(seed=3)
        H2 = 1 - H
        a = zstep_enumerate(X, B, c, H, 0.0)
        b = zstep_enumerate(X, B, c, H2, 0.0)
        assert np.allclose(
            zstep_objective(X, B, c, H, 0.0, a), zstep_objective(X, B, c, H, 0.0, b)
        )

    def test_refuses_large_L(self):
        X, B, c, H, mu = random_problem(L=4)
        B_big = np.random.default_rng(0).normal(size=(6, 20))
        H_big = np.zeros((len(X), 20), dtype=np.uint8)
        with pytest.raises(ValueError, match="enumeration"):
            zstep_enumerate(X, B_big, c[:6], H_big, mu)

    def test_rejects_negative_mu(self):
        X, B, c, H, _ = random_problem()
        with pytest.raises(ValueError):
            zstep_enumerate(X, B, c, H, -1.0)


class TestAlternate:
    def test_never_increases_objective(self):
        X, B, c, H, mu = random_problem(n=25, L=8, seed=4)
        Z0 = np.random.default_rng(5).integers(0, 2, size=H.shape).astype(np.uint8)
        before = zstep_objective(X, B, c, H, mu, Z0)
        Z = zstep_alternate(X, B, c, H, mu, Z0, max_sweeps=5)
        after = zstep_objective(X, B, c, H, mu, Z)
        assert (after <= before + 1e-9).all()

    @given(st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_monotone_property(self, seed):
        X, B, c, H, mu = random_problem(n=8, L=5, mu=0.5, seed=seed)
        Z0 = np.random.default_rng(seed + 100).integers(0, 2, size=H.shape).astype(np.uint8)
        before = zstep_objective(X, B, c, H, mu, Z0)
        Z1 = zstep_alternate(X, B, c, H, mu, Z0, max_sweeps=1)
        assert (zstep_objective(X, B, c, H, mu, Z1) <= before + 1e-9).all()

    def test_fixed_point_of_optimum(self):
        # Starting from the global optimum, alternating must not move.
        X, B, c, H, mu = random_problem(n=10, L=4, seed=6)
        Z_opt = zstep_enumerate(X, B, c, H, mu)
        Z = zstep_alternate(X, B, c, H, mu, Z_opt, max_sweeps=3)
        assert np.allclose(
            zstep_objective(X, B, c, H, mu, Z),
            zstep_objective(X, B, c, H, mu, Z_opt),
        )

    def test_close_to_exact_on_small_problems(self):
        # Local minima exist, but with the relaxed init the gap is small.
        X, B, c, H, mu = random_problem(n=40, L=6, mu=1.0, seed=7)
        exact = zstep_objective(X, B, c, H, mu, zstep_enumerate(X, B, c, H, mu)).sum()
        alt = zstep_objective(X, B, c, H, mu, zstep_alternate(X, B, c, H, mu)).sum()
        assert alt <= exact * 1.15 + 1e-9

    def test_rejects_bad_sweeps(self):
        X, B, c, H, mu = random_problem()
        with pytest.raises(ValueError):
            zstep_alternate(X, B, c, H, mu, max_sweeps=0)

    @pytest.mark.parametrize("L", [4, 8, 12])
    def test_gap_to_exact(self, L):
        # Section 3.1's trade: alternation from the relaxed start lands
        # within 10 % of the exact optimum, and never below it.
        X, B, c, H, mu = random_problem(n=2000, D=32, L=L, mu=0.5)
        exact = zstep_objective(X, B, c, H, mu, zstep_enumerate(X, B, c, H, mu)).sum()
        alt = zstep_objective(X, B, c, H, mu, zstep_alternate(X, B, c, H, mu)).sum()
        assert 1.0 <= alt / exact < 1.10

    def test_polishes_the_relaxed_start(self):
        X, B, c, H, mu = random_problem(n=2000, D=32, L=8, mu=0.5, seed=1)
        relaxed = zstep_objective(X, B, c, H, mu, zstep_relaxed(X, B, c, H, mu)).sum()
        alt = zstep_objective(X, B, c, H, mu, zstep_alternate(X, B, c, H, mu)).sum()
        assert alt <= relaxed


class TestRelaxed:
    def test_binary_output(self):
        X, B, c, H, mu = random_problem()
        Z = zstep_relaxed(X, B, c, H, mu)
        assert set(np.unique(Z)) <= {0, 1}

    def test_huge_mu_returns_h(self):
        X, B, c, H, _ = random_problem()
        assert np.array_equal(zstep_relaxed(X, B, c, H, 1e12), H)

    def test_mu_zero_with_singular_decoder(self):
        # Rank-deficient B at mu=0 exercises the pinv fallback.
        X = np.random.default_rng(0).normal(size=(5, 4))
        B = np.zeros((4, 3))
        Z = zstep_relaxed(X, B, np.zeros(4), np.zeros((5, 3), dtype=np.uint8), 0.0)
        assert Z.shape == (5, 3)


# Rows per enumeration tile at L = 16 in float64 (two scratch blocks of
# rows x 2^8 scores).
_TILE_16 = _ENUM_SCRATCH_BYTES // (2 * 2**8 * 8)


def dyadic_problem(seed, dtype, n=12, D=6, L=5, mu=0.5):
    """Inputs on a dyadic grid (multiples of 1/4, magnitude <= 2).

    Every intermediate the solvers form — Gram entries, linear terms,
    per-bit deltas — is then a small multiple of 1/16, exactly
    representable in float32 and float64 alike. Solver and oracle therefore
    compute *exactly* the same deltas and scores, so bit-parity of the
    stacked rewrites is a theorem on this grid, not a lucky draw.
    """
    rng = np.random.default_rng(seed)

    def grid(shape):
        return (rng.integers(-8, 9, size=shape) * 0.25).astype(dtype)

    X, B, c = grid((n, D)), grid((D, L)), grid(D)
    H = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
    Z0 = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
    return X, B, c, H, mu, Z0


class TestEnumerateKernel:
    """The streaming half-split kernel against the full-matrix oracle.
    The contract is the chosen codes: on the dyadic grid they are equal
    bit for bit, exact ties included (lowest code wins)."""

    @given(seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]),
           L=st.integers(1, 12),
           mu=st.sampled_from([0.0, 0.5, 2.0]),
           ties=st.sampled_from(["none", "duplicate", "zero"]))
    @settings(max_examples=60, deadline=None)
    def test_parity_dyadic(self, seed, dtype, L, mu, ties):
        X, B, c, H, mu, _ = dyadic_problem(seed, dtype, n=9, L=L, mu=mu)
        # Duplicated / all-zero decoder columns make distinct codes score
        # exactly the same (at mu = 0, or where h agrees on those bits).
        if ties == "duplicate":
            B[:, L // 2 :] = B[:, : L - L // 2]
        elif ties == "zero":
            B[:, ::2] = 0.0
        assert np.array_equal(
            zstep_enumerate(X, B, c, H, mu), enumerate_oracle(X, B, c, H, mu)
        )

    def test_all_codes_tie_picks_zero(self):
        # B = 0, mu = 0: every code scores ||x - c||^2; the lowest wins.
        X, _, c, H, _, _ = dyadic_problem(0, np.float64, L=7)
        Z = zstep_enumerate(X, np.zeros((6, 7)), c, H, 0.0)
        assert not Z.any()

    def test_matches_oracle_at_16_bits(self):
        # The paper's L = 16, continuous inputs: off the dyadic grid the
        # two summation orders may round differently, but generic gaussian
        # rows have no near-tie between their two best codes.
        X, B, c, H, mu = random_problem(n=64, D=10, L=16, mu=0.3, seed=11)
        assert np.array_equal(
            zstep_enumerate(X, B, c, H, mu), enumerate_oracle(X, B, c, H, mu)
        )

    def test_row_independence(self):
        # A row's code does not depend on what it is batched with: solved
        # alone, in a batch that is not a whole number of row tiles, and
        # permuted. (Dyadic inputs, so BLAS blocking cannot matter either.)
        n = _TILE_16 + 2
        X, B, c, H, mu, _ = dyadic_problem(3, np.float64, n=n, L=16)
        whole = zstep_enumerate(X, B, c, H, mu)
        for i in (0, _TILE_16 - 1, _TILE_16, n - 1):
            alone = zstep_enumerate(X[i : i + 1], B, c, H[i : i + 1], mu)
            assert np.array_equal(alone[0], whole[i])
        perm = np.random.default_rng(1).permutation(n)
        assert np.array_equal(zstep_enumerate(X[perm], B, c, H[perm], mu), whole[perm])

    def test_constant_memory(self):
        # No rows x 2^L matrix (64 MiB at n = 128): the scratch is one row
        # tile whatever n is, so eight tiles peak where one does, up to the
        # (n, L) linear term and output.
        peaks = []
        for n in (_TILE_16, 8 * _TILE_16):
            X, B, c, H, mu = random_problem(n=n, D=8, L=16, seed=12)
            tracemalloc.start()
            try:
                zstep_enumerate(X, B, c, H, mu)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 8 * 2**20
        assert peaks[1] <= 1.10 * peaks[0]


def tile_rows(L, dtype):
    """Rows per enumeration tile (two blocks of rows x 2^(L - L//2) scores)."""
    return max(1, _ENUM_SCRATCH_BYTES // (2 * 2 ** (L - L // 2) * np.dtype(dtype).itemsize))


def block_rows(L, dtype):
    """Rows per branch-and-fix block: whole tiles, about ``_ENUM_BLOCK_ROWS``."""
    tile = tile_rows(L, dtype)
    return tile * max(1, _ENUM_BLOCK_ROWS // tile)


def parity_problem(seed, dtype, n, D, L, inputs):
    """``(XcB, B, H)`` for the parity tests: continuous inputs, or dyadic
    ones, optionally with duplicated or all-zero decoder columns, which
    make distinct codes score exactly the same."""
    if inputs == "continuous":
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(D, L)).astype(dtype)
        Xc = rng.normal(size=(n, D)).astype(dtype)
        H = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
    else:
        X, B, c, H, _, _ = dyadic_problem(seed, dtype, n=n, D=D, L=L)
        Xc = X - c
        if inputs == "duplicate":
            B[:, L // 2 :] = B[:, : L - L // 2]
        elif inputs == "zero":
            B[:, ::2] = 0.0
    return Xc @ B, B, H


@pytest.fixture
def dense_rows(monkeypatch):
    """Rows the enumeration sends through the min-plus kernel, per call."""
    rows, real = [], zmod._minplus

    def counted(Q, U, V, M, T):
        rows.append(len(V))
        return real(Q, U, V, M, T)

    monkeypatch.setattr(zmod, "_minplus", counted)
    return rows


class TestDominance:
    """The dominance pass and the branch-and-fix tree drop only codes that
    cannot win, so the reduced kernel returns the dense kernel's codes bit
    for bit: continuous and dyadic inputs, exact ties, both precisions,
    and row counts around a tile and a block."""

    @given(seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]),
           L=st.integers(1, 16),
           mu=st.sampled_from([0.0, 1e-3, 0.7, 1e3]),
           rows=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
                                 ("block", -1), ("block", 0), ("block", 1)]),
           inputs=st.sampled_from(["continuous", "dyadic", "duplicate", "zero"]),
           D=st.integers(1, 24))
    def test_parity_with_dense(self, seed, dtype, L, mu, rows, inputs, D):
        # n = 0, 1, or a row tile or a block and -1, 0, +1 rows
        unit, extra = rows
        n = (block_rows(L, dtype) if unit == "block" else unit * tile_rows(L, dtype)) + extra
        XcB, B, H = parity_problem(seed, dtype, n, D, L, inputs)
        assert np.array_equal(_enumerate(XcB, B, H, mu), enumerate_dense(XcB, B, H, mu))

    # (_BRANCH_BITS, _ROW_NODES, _LEVEL_NODES, _ENUM_BLOCK_ROWS): trees deep
    # enough at any L for a level's node budget to cut a block mid-way and
    # for a row to go dense after it already emitted leaves; blocks of one
    # row tile and of several.
    @pytest.mark.parametrize("budgets", [(1, 6, 16, 1), (2, 4, 8, 1), (3, 16, 64, 4096)])
    @given(seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]),
           L=st.integers(1, 16),
           mu=st.sampled_from([0.0, 1e-3, 0.7]),
           rows=st.sampled_from([(1, 0), ("tile", 1), ("block", -1), ("block", 1)]),
           inputs=st.sampled_from(["continuous", "dyadic", "duplicate", "zero"]),
           D=st.integers(1, 24))
    def test_parity_with_dense_small_budgets(self, budgets, seed, dtype, L, mu, rows,
                                             inputs, D):
        names = ("_BRANCH_BITS", "_ROW_NODES", "_LEVEL_NODES", "_ENUM_BLOCK_ROWS")
        with pytest.MonkeyPatch.context() as mp:
            for name, value in zip(names, budgets):
                mp.setattr(zmod, name, value)
            tile = tile_rows(L, dtype)
            block = tile * max(1, zmod._ENUM_BLOCK_ROWS // tile)
            unit, extra = rows
            n = {"tile": tile, "block": block}.get(unit, unit) + extra
            XcB, B, H = parity_problem(seed, dtype, n, D, L, inputs)
            Z = _enumerate(XcB, B, H, mu)
        assert np.array_equal(Z, enumerate_dense(XcB, B, H, mu))

    def test_without_numpy_2_popcount(self, monkeypatch):
        # The kernel runs on NumPy < 2.0, which has no ``bitwise_count``.
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        X, B, c, H, mu = random_problem(n=300, D=24, L=16, mu=1e-3, seed=17)
        XcB = (X - c) @ B
        assert np.array_equal(_enumerate(XcB, B, H, mu), enumerate_dense(XcB, B, H, mu))

    def test_numpy_mu_on_a_float32_model(self):
        # A float64 scalar mu lifts float32 U, V to float64; the kernel
        # still returns the dense codes.
        X, B, c, H, _ = random_problem(n=200, D=20, L=12, seed=16)
        B32 = B.astype(np.float32)
        XcB = ((X - c) @ B).astype(np.float32)
        mu = np.float64(0.7)
        assert np.array_equal(_enumerate(XcB, B32, H, mu), enumerate_dense(XcB, B32, H, mu))

    def test_huge_mu_never_goes_dense(self, dense_rows):
        # mu = 1e3 outweighs every reconstruction term: dominance fixes
        # every bit to h, and no row reaches the min-plus kernel.
        X, B, c, H, _ = random_problem(n=300, D=10, L=16, seed=14)
        assert np.array_equal(zstep_enumerate(X, B, c, H, 1e3), H)
        assert sum(dense_rows) == 0

    def test_coupled_bits_go_dense(self, dense_rows):
        # D = 3 < L: B^T B has rank 3, and its strong off-diagonal terms
        # leave most bits undecided, so rows take the min-plus kernel.
        X, B, c, H, mu = random_problem(n=300, D=3, L=16, mu=1e-3, seed=15)
        Z = zstep_enumerate(X, B, c, H, mu)
        assert sum(dense_rows) > 0
        XcB = (X - c) @ B
        assert np.array_equal(Z, enumerate_dense(XcB, B, H, mu))


def fit_digests(n=600, seed=0):
    """Per-iteration (z_changes, code digest) of a ``train_z16_mp``-shaped
    fit on ``sync``: GIST-like data, L = 16 (the Z step enumerates), two
    machines, shuffled W step, a doubling mu schedule."""
    X = make_gist_like(n, 128, n_clusters=8, rng=seed)
    adapter = BAAdapter(BinaryAutoencoder.linear(128, 16))
    cluster = sim(adapter, build_ba_shards(adapter, X, n_machines=2, seed=seed),
                  epochs=1, shuffle_within=True, seed=seed)
    out = []
    for mu in GeometricSchedule(1e-3, 2.0, 5):
        z_changes = cluster.run_iteration(float(mu)).z_changes
        codes = np.ascontiguousarray(cluster.gather_codes()[1])
        out.append((z_changes, hashlib.sha256(codes.tobytes()).hexdigest()[:16]))
    return out


class TestBranching:
    """The branch-and-fix tree on the Z calls of a real fit: the pinned
    ``train_z16_mp``-shaped fit, whose late iterations leave rows with
    many free bits."""

    def test_replay_matches_dense(self, monkeypatch):
        # Every Z call of the fit: the kernel's codes are the dense ones.
        calls, real = [], zmod._enumerate

        def checked(XcB, B, H, mu):
            Z = real(XcB, B, H, mu)
            calls.append(np.array_equal(Z, enumerate_dense(XcB, B, H, mu)))
            return Z

        monkeypatch.setattr(zmod, "_enumerate", checked)
        fit_digests()
        assert calls == [True] * 10  # 5 iterations x 2 machines

    def test_heavy_rows_branch_instead_of_going_dense(self, monkeypatch, dense_rows):
        # Rows the dominance test alone leaves with >= _BRANCH_BITS free
        # bits exist in this fit; the tree splits them, and no row of any
        # Z call reaches the min-plus kernel.
        heavy, children, real = [], [], zmod._settle

        def counted(FO, gs, tau, W):
            L = len(FO) // 2
            root = bool(FO[L:].all())  # only the roots have no fixed bit
            real(FO, gs, tau, W)
            if root:
                heavy.append(int((FO[L:].sum(axis=0) >= _BRANCH_BITS).sum()))
            else:
                children.append(FO.shape[1])

        monkeypatch.setattr(zmod, "_settle", counted)
        fit_digests()
        assert sum(heavy) > 0 and sum(children) > 0
        assert sum(dense_rows) == 0


class TestPinnedFit:
    def test_z16_fit_codes(self):
        # Recorded from the full 2^16 enumeration: any kernel change that
        # moves one code of one row in any iteration fails here. (Last
        # re-recorded when the shuffled W step's minibatch orders became
        # keyed draws; test_replay_matches_dense holds this fit's every Z
        # call to the dense kernel.)
        assert fit_digests() == [
            (2587, "8ce9efe1f43910e7"),
            (171, "159b4e4e64eadc4e"),
            (2, "d135752ab1e9f5e6"),
            (114, "52b3237df1709ebe"),
            (50, "fca8bf059f73c995"),
        ]


class TestStackedParity:
    """The stacked alternating solver is bit-identical to the per-bit
    residual sweep (``alternate_oracle``) — the contract the engines'
    cross-backend conformance relies on (a Z step must not depend on
    which kernel ran it)."""

    @given(seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=25, deadline=None)
    def test_alternate_parity_dyadic(self, seed, dtype):
        X, B, c, H, mu, Z0 = dyadic_problem(seed, dtype)
        oracle = alternate_oracle(X, B, c, H, mu, Z0)
        stacked = zstep_alternate(X, B, c, H, mu, Z0)
        assert np.array_equal(oracle, stacked)

    @given(seed=st.integers(0, 10_000),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=25, deadline=None)
    def test_alternate_parity_from_relaxed_init_dyadic(self, seed, dtype):
        # With no Z0 both start from the one relaxed kernel and must
        # still agree.
        X, B, c, H, mu, _ = dyadic_problem(seed, dtype)
        oracle = alternate_oracle(X, B, c, H, mu)
        stacked = zstep_alternate(X, B, c, H, mu)
        assert np.array_equal(oracle, stacked)

    @pytest.mark.parametrize("seed", range(4))
    def test_alternate_parity_continuous(self, seed):
        # Off the grid too: generic gaussian inputs never land a per-bit
        # delta close enough to the flip threshold for the two rewrites'
        # rounding to disagree.
        X, B, c, H, mu = random_problem(n=30, D=8, L=6, mu=0.7, seed=seed)
        Z0 = np.random.default_rng(seed + 50).integers(0, 2, size=H.shape)
        oracle = alternate_oracle(X, B, c, H, mu, Z0.astype(np.uint8))
        stacked = zstep_alternate(X, B, c, H, mu, Z0.astype(np.uint8))
        assert np.array_equal(oracle, stacked)

    @given(
        n=st.integers(0, 60),
        L=st.integers(1, 10),
        mu=st.sampled_from([0.0, 0.3, 5.0]),
        max_sweeps=st.integers(1, 6),
        relaxed_start=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_sweeping_only_moving_rows_is_the_full_sweep(
        self, n, L, mu, max_sweeps, relaxed_start, dtype, seed
    ):
        # Random starts keep rows moving for several sweeps, so small caps
        # stop some rows mid-descent and the live set shrinks unevenly.
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(8, L)).astype(dtype)
        XcB = (rng.normal(size=(n, 8)) @ B).astype(dtype)
        H = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
        Z0 = rng.integers(0, 2, size=(n, L)).astype(np.uint8)
        if relaxed_start:
            Z0 = _relaxed(XcB, B, H, mu)
        want = full_sweep_oracle(XcB, B, H, mu, Z0, max_sweeps)
        got = _alternate(XcB, B, H, mu, Z0.copy(), max_sweeps=max_sweeps)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_no_kernel_knob(self):
        # Every solver has one kernel, so none takes an ``impl``.
        assert list(inspect.signature(zstep_enumerate).parameters) == list("XBcH") + ["mu"]
        assert list(inspect.signature(zstep_alternate).parameters) == (
            list("XBcH") + ["mu", "Z0", "max_sweeps"]
        )


class TestDispatcher:
    def test_auto_enumerates_small(self):
        X, B, c, H, mu = random_problem(L=4)
        assert np.array_equal(
            zstep(X, B, c, H, mu, method="auto", max_enum_bits=4),
            zstep_enumerate(X, B, c, H, mu),
        )

    def test_auto_alternates_large(self):
        X, B, c, H, mu = random_problem(L=4)
        Z = zstep(X, B, c, H, mu, method="auto", max_enum_bits=2)
        # Must still be a valid, non-worsening solution vs the relaxed init.
        init = zstep_relaxed(X, B, c, H, mu)
        assert (
            zstep_objective(X, B, c, H, mu, Z)
            <= zstep_objective(X, B, c, H, mu, init) + 1e-9
        ).all()

    def test_default_cutoff_is_enum_limit(self):
        # Regression: the dispatcher's default cutoff once sat at 12 bits
        # while zstep_enumerate allowed 16, silently switching the paper's
        # L in (12, 16] settings to the inexact alternating solver. The
        # default must track the enumeration limit itself.
        sig = inspect.signature(zstep)
        assert sig.parameters["max_enum_bits"].default == MAX_ENUM_BITS
        assert MAX_ENUM_BITS == 16

    def test_auto_enumerates_at_the_limit(self):
        # L == MAX_ENUM_BITS must dispatch to exact enumeration...
        X, B, c, H, mu = random_problem(n=4, D=5, L=MAX_ENUM_BITS, seed=8)
        assert np.array_equal(
            zstep(X, B, c, H, mu, method="auto"),
            zstep_enumerate(X, B, c, H, mu),
        )

    def test_auto_alternates_past_the_limit(self):
        # ...and L == MAX_ENUM_BITS + 1 must fall back to alternating
        # (enumeration would refuse) without raising.
        L = MAX_ENUM_BITS + 1
        X, B, c, H, mu = random_problem(n=4, D=5, L=L, seed=9)
        assert np.array_equal(
            zstep(X, B, c, H, mu, method="auto"),
            zstep_alternate(X, B, c, H, mu),
        )

    def test_unknown_method_raises(self):
        X, B, c, H, mu = random_problem()
        with pytest.raises(ValueError):
            zstep(X, B, c, H, mu, method="quantum")

    @pytest.mark.parametrize("bits", [-1, MAX_ENUM_BITS + 1, MAX_ENUM_BITS + 4])
    def test_rejects_enum_bits_past_the_limit(self, bits):
        # Regression: max_enum_bits = 20 at L = 18 once auto-dispatched to
        # enumeration, which then refused with "use zstep_alternate".
        X, B, c, H, mu = random_problem(n=4, D=5, L=18, seed=10)
        with pytest.raises(ValueError, match="max_enum_bits"):
            zstep(X, B, c, H, mu, max_enum_bits=bits)
