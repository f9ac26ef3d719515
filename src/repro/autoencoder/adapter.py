"""Bridge between the binary autoencoder and the ParMAC engines.

Submodel layout (paper section 5.4): the L single-bit hash functions are
one submodel each; the D decoder rows are grouped into ``n_decoder_groups``
(default L) groups of ~D/L rows so that encoder and decoder submodels have
comparable size, giving M = 2L effective submodels — the value used
throughout the speedup analysis.

During the W step the authoritative parameters are the ones travelling in
messages, so ``w_update`` works on raw flat vectors and never touches the
model; the engines call ``set_params`` with the final copies afterwards.

:func:`build_ba_shards` prepares a fit's data (tPCA codes, load-balanced
partition, shards); serial MAC (paper fig. 1) is then
:class:`~repro.core.trainer.ParMACTrainer` on one shard with
``BAAdapter(model, decoder_exact=True)``.
"""

from __future__ import annotations

import numpy as np

from repro.autoencoder.binary_autoencoder import BinaryAutoencoder
from repro.autoencoder.init import init_codes_pca
from repro.autoencoder.zstep import (
    MAX_ENUM_BITS,
    _centre,
    _check_options,
    _finite_term,
    _solver_dtype,
    _zstep,
)
from repro.distributed.interfaces import SubmodelSpec, ZStepResult
from repro.distributed.partition import make_shards, partition_indices
from repro.optim.linreg import LinearRegression
from repro.optim.sgd import SGDState, _visit_plan
from repro.optim.svm import LinearSVM
from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_binary_codes

__all__ = ["BAAdapter", "build_ba_shards"]

# Centred data per block of the Z step's linear term: about 2 MB, which
# stays in L2/L3. Blocks are near-equal and never under 256 rows: BLAS
# may take another kernel for a small block, and so move XcB's bits.
_BLOCK_BYTES = 2 << 20
_BLOCK_MIN_ROWS = 256


def _sum_sq(A: np.ndarray) -> float:
    """``sum(A * A)`` accumulated in float64 (one ``vdot`` when ``A``
    already is), without a float64 copy of ``A``."""
    if A.dtype == np.float64:
        return float(np.vdot(A, A))
    return float(np.einsum("ij,ij->", A, A, dtype=np.float64))


def _linear_stats(X, c, B) -> tuple[np.ndarray, float]:
    """The Z step's linear term ``XcB = (X - c) B`` and ``sum ||x - c||^2``,
    built one block of centred rows at a time, so no (n, D) temporary
    exists. A shard of one block takes the whole-array path."""
    n, D = X.shape
    cd = _solver_dtype(B)
    n_blocks = max(1, min(-(-n * D * cd.itemsize // _BLOCK_BYTES), n // _BLOCK_MIN_ROWS))
    XcB = np.empty((n, B.shape[1]), dtype=cd)
    sq = 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # checked whole below
        for i in range(n_blocks):
            blk = slice(n * i // n_blocks, n * (i + 1) // n_blocks)
            Xc = _centre(X[blk], c, B)
            np.matmul(Xc, B, out=XcB[blk])
            sq += _sum_sq(Xc)
    return _finite_term(XcB), sq


def _statistics(sq: float, XcB, B, Z, H, mu: float) -> tuple[float, float, int]:
    """A shard's ``(E_Q, E_BA, violations)`` from its Z-step terms.

    ``sq`` is ``sum ||x - c||^2`` and ``XcB`` the linear term ``(X - c) B``.
    The quadratic expansion of the Z-step objective gives each residual
    without decoding a row:

        sum ||x - c - B z||^2 = sq - 2 sum z . XcB + sum z^T (B^T B) z

    which is O(n L^2) for ``Z`` and the encoder's codes ``H`` alike, all
    in float64. For binary codes ``sum (z - h)^2`` *is* the violation
    count, which makes the E_Q penalty ``mu * violations`` exactly.
    """
    B64 = np.asarray(B, dtype=np.float64)
    G = B64.T @ B64
    XcB2 = 2.0 * np.asarray(XcB, dtype=np.float64)

    def residual(C) -> float:
        Cf = C.astype(np.float64)
        return sq + float(np.vdot(Cf @ G - XcB2, Cf))

    violations = int(np.count_nonzero(Z != H))
    return residual(Z) + mu * violations, residual(H), violations


def _take_columns(X: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns ``cols`` of ``X``: a zero-copy view when they are one
    ascending run (decoder groups are contiguous row blocks), a gather
    of the same numbers otherwise. Both are row-major, so a GEMM on
    either takes the same BLAS path and gives the same bits."""
    lo = int(cols[0]) if len(cols) else 0
    if np.array_equal(cols, np.arange(lo, lo + len(cols), dtype=np.intp)):
        return X[:, lo : lo + len(cols)]
    return np.take(X, cols, axis=1)


class BAAdapter:
    """ParMAC adapter for a :class:`BinaryAutoencoder`.

    Parameters
    ----------
    model : BinaryAutoencoder
    n_decoder_groups : int, optional
        Decoder row groups (default: L, giving M = 2L submodels).
    zstep_method, max_enum_bits, max_sweeps :
        Passed through to :func:`repro.autoencoder.zstep.zstep`, and
        checked here: a bad value fails at construction, not in the first
        Z step.
    decoder_exact : bool
        Fit each visited decoder group exactly by least squares on the
        visited shard instead of an SGD pass — fig. 1's serial algorithm.
        That is the whole-data solve only when there is one shard, so the
        data plane refuses a second machine (:attr:`max_machines`).
    """

    def __init__(
        self,
        model: BinaryAutoencoder,
        *,
        n_decoder_groups: int | None = None,
        zstep_method: str = "auto",
        max_enum_bits: int = MAX_ENUM_BITS,
        max_sweeps: int = 20,
        decoder_exact: bool = False,
    ):
        self.model = model
        L = model.n_bits
        D = model.decoder.n_outputs
        if n_decoder_groups is None:
            n_decoder_groups = min(L, D)
        if not 1 <= n_decoder_groups <= D:
            raise ValueError(
                f"n_decoder_groups must be in [1, {D}], got {n_decoder_groups}"
            )
        self.n_decoder_groups = int(n_decoder_groups)
        _check_options(zstep_method, max_enum_bits, max_sweeps, L)
        self.zstep_method = zstep_method
        self.max_enum_bits = int(max_enum_bits)
        self.max_sweeps = int(max_sweeps)
        self.decoder_exact = bool(decoder_exact)
        self._lstsq = None  # (X, Z, W, c) of the last exact decoder solve
        # Decoder rows split into near-equal contiguous groups.
        self._groups = [
            tuple(int(r) for r in rows)
            for rows in np.array_split(np.arange(D, dtype=np.intp), self.n_decoder_groups)
        ]
        self._specs = [
            SubmodelSpec(sid=l, kind="enc", index=l) for l in range(L)
        ] + [
            SubmodelSpec(sid=L + g, kind="dec", index=rows)
            for g, rows in enumerate(self._groups)
        ]

    # -------------------------------------------------------------- specs
    def submodel_specs(self) -> list[SubmodelSpec]:
        return list(self._specs)

    @property
    def n_submodels(self) -> int:
        return len(self._specs)

    @property
    def compute_dtype(self) -> np.dtype:
        """End-to-end compute precision (the model's parameter dtype)."""
        return self.model.compute_dtype

    @property
    def max_machines(self) -> int | None:
        """Machines a fit may use: 1 with the exact decoder, else no cap."""
        return 1 if self.decoder_exact else None

    def batch_key(self, spec: SubmodelSpec):
        """Encoder bits batch with encoder bits (shared SVM features),
        decoder groups with decoder groups (shared code inputs)."""
        return (spec.kind,)

    # ------------------------------------------------------------- params
    def get_params(self, spec: SubmodelSpec) -> np.ndarray:
        if spec.kind == "enc":
            return self.model.encoder.bit_params(spec.index)
        if spec.kind == "dec":
            return self.model.decoder.row_params(np.asarray(spec.index))
        raise ValueError(f"unknown submodel kind {spec.kind!r}")

    def set_params(self, spec: SubmodelSpec, theta: np.ndarray) -> None:
        if spec.kind == "enc":
            self.model.encoder.set_bit_params(spec.index, theta)
        elif spec.kind == "dec":
            self.model.decoder.set_row_params(np.asarray(spec.index), theta)
        else:
            raise ValueError(f"unknown submodel kind {spec.kind!r}")

    # ------------------------------------------------------------- W step
    def w_update(
        self,
        spec: SubmodelSpec,
        theta: np.ndarray,
        state: SGDState,
        shard,
        mu: float,
        *,
        batch_size: int,
        shuffle: bool,
        rng,
    ) -> np.ndarray:
        """One SGD pass of one submodel over one shard (pure on the model).

        Neither BA subproblem depends on mu — the penalty weight scales out
        of each separable W-step objective (section 3.1) — but the argument
        is part of the generic adapter signature.
        """
        cd = self.compute_dtype
        if spec.kind == "enc":
            svm = LinearSVM(
                self.model.encoder.n_features,
                lam=self.model.encoder.lam,
                schedule=self.model.encoder.schedule,
                dtype=cd,
            )
            svm.set_params(theta)
            y = 2.0 * shard.Z[:, spec.index].astype(cd) - 1.0
            svm.partial_fit(
                shard.F, y, state, batch_size=batch_size, shuffle=shuffle, rng=rng
            )
            return svm.get_params()
        if spec.kind == "dec":
            rows = np.asarray(spec.index)
            if self.decoder_exact:
                return self._decoder_lstsq(shard, rows)
            reg = LinearRegression(
                self.model.n_bits, len(rows), schedule=self.model.decoder.schedule,
                dtype=cd,
            )
            reg.set_params(theta)
            reg.partial_fit(
                shard.Z.astype(cd),
                _take_columns(shard.X, rows),
                state,
                batch_size=batch_size,
                shuffle=shuffle,
                rng=rng,
            )
            return reg.get_params()
        raise ValueError(f"unknown submodel kind {spec.kind!r}")

    def w_update_batch(
        self,
        specs,
        thetas,
        states,
        shard,
        mu: float,
        *,
        batch_size: int,
        shuffle: bool,
        rng,
    ) -> list[np.ndarray]:
        """One shared SGD pass for co-resident submodels of one kind.

        Encoder bits stack into one multi-column SVM pass (scores and the
        hinge-masked gradient are single GEMMs over all bits); decoder row
        groups stack into one multi-output regression pass. The members
        share one minibatch order: sequential, or under ``shuffle``
        ``rng.permutation(n)`` — the order :meth:`w_update` draws from
        the same ``rng``. Per-submodel schedules are preserved through
        each carried ``SGDState``.
        """
        order = rng.permutation(shard.n) if shuffle else None
        kinds = {spec.kind for spec in specs}
        if kinds == {"enc"}:
            return self._w_update_batch_enc(specs, thetas, states, shard, batch_size, order)
        if kinds == {"dec"} and self.decoder_exact:
            return [self._decoder_lstsq(shard, np.asarray(s.index)) for s in specs]
        if kinds == {"dec"}:
            return self._w_update_batch_dec(specs, thetas, states, shard, batch_size, order)
        raise ValueError(
            f"a BA batch must be all-encoder or all-decoder, got kinds {sorted(kinds)}"
        )

    def _decoder_lstsq(self, shard, rows: np.ndarray) -> np.ndarray:
        """Flat parameters of decoder rows ``rows`` fitted exactly by least
        squares to the shard's ``(Z, X[:, rows])``.

        The whole decoder is solved once per shard state (its ``X`` and
        ``Z`` arrays, which updates rebind rather than mutate) and each
        group takes its rows, so an iteration solves once however many
        groups visit, as fig. 1 does.
        """
        solved = self._lstsq
        if solved is None or solved[0] is not shard.X or solved[1] is not shard.Z:
            cd = self.compute_dtype
            reg = LinearRegression(self.model.n_bits, self.model.decoder.n_outputs, dtype=cd)
            reg.fit_lstsq(shard.Z.astype(cd), shard.X)
            solved = self._lstsq = (shard.X, shard.Z, reg.W, reg.c)
        W, c = solved[2], solved[3]
        return np.concatenate([W[rows].ravel(), c[rows]])

    def _w_update_batch_enc(self, specs, thetas, states, shard, batch_size, order):
        """Stacked SVMSGD: all bits' hinge subgradients from two GEMMs.

        Every minibatch works in buffers allocated once per visit. With
        ``Ya`` the hinge-masked labels, per minibatch: ``gb = sum Ya``,
        ``Ya *= eta / m`` per bit, ``G = Ya^T Fs``, then two passes over
        ``W``: ``W *= 1 - eta lam``, ``W += G``; and ``b += gb eta / m``.
        Under an ``order`` each minibatch gathers only its own rows.
        """
        enc = self.model.encoder
        cd = self.compute_dtype
        F = np.asarray(shard.F, dtype=cd)
        bits = np.fromiter((spec.index for spec in specs), dtype=np.intp)
        Yt = 2.0 * shard.Z[:, bits].astype(cd) - 1.0  # (n, m) in {-1, +1}
        Theta = np.stack([np.asarray(th, dtype=cd).ravel() for th in thetas])
        if Theta.shape[1] != enc.n_features + 1:
            raise ValueError(
                f"expected {enc.n_features + 1} params per bit, got {Theta.shape[1]}"
            )
        W = np.ascontiguousarray(Theta[:, :-1])
        b = np.ascontiguousarray(Theta[:, -1])
        n = shard.n
        batches, rows, rates = _visit_plan(enc.schedule, states, n, batch_size, order)
        etas = rates.astype(cd)
        steps = etas / rows.astype(cd)[:, None]  # eta / m per minibatch and bit
        decays = 1.0 - enc.lam * etas
        S_buf = np.empty((min(batch_size, n), len(specs)), dtype=cd)
        mask_buf = np.empty(S_buf.shape, dtype=bool)
        G = np.empty(W.shape, dtype=cd)
        gb = np.empty(len(specs), dtype=cd)
        for idx, step, decay in zip(batches, steps, decays):
            Fs, Ys = F[idx], Yt[idx]
            S, mask = S_buf[: len(Fs)], mask_buf[: len(Fs)]
            np.matmul(Fs, W.T, out=S)  # scores (m_b, m)
            S += b
            # Hinge-active mask per bit; inactive terms contribute exact
            # zeros, so the masked GEMM equals the per-bit subset sums.
            np.multiply(Ys, S, out=S)
            np.less(S, 1.0, out=mask)
            np.multiply(Ys, mask, out=S)
            np.sum(S, axis=0, out=gb)
            S *= step
            np.matmul(S.T, Fs, out=G)
            W *= decay[:, None]
            W += G
            gb *= step
            b += gb
        return [np.concatenate([W[i], b[i : i + 1]]) for i in range(len(specs))]

    def _w_update_batch_dec(self, specs, thetas, states, shard, batch_size, order):
        """Stacked least-squares SGD over concatenated decoder row groups,
        in Gram form.

        ``Theta = [W | c]^T`` ((L+1) x R) regresses the targets ``T`` on
        ``A = [Z, 1]``, so a minibatch's gradient needs only its
        statistics ``K = As^T As`` (``Zs^T Zs``, ``Zs^T 1`` and m, all
        exact) and ``P = As^T Ts`` (``Zs^T Ts`` over ``Ts^T 1``): ``G = (K
        Theta - P) * 2 eta / m`` per column, then ``Theta -= G``. No (m, R)
        residual exists, and every product is row-major. The targets are
        a view of the shard when the groups are one run of columns
        (always, for a convoy: a home's contiguous sid block); under an
        ``order`` each minibatch gathers only its own rows.
        """
        dec = self.model.decoder
        cd = self.compute_dtype
        L = self.model.n_bits
        groups = [np.asarray(spec.index, dtype=np.intp) for spec in specs]
        sizes = [len(rows) for rows in groups]
        n = shard.n
        A = np.hstack([shard.Z, np.ones((n, 1), dtype=np.uint8)]).astype(cd)
        T = np.asarray(_take_columns(shard.X, np.concatenate(groups)), dtype=cd)
        blocks = []
        for spec, theta, size in zip(specs, thetas, sizes):
            theta = np.asarray(theta, dtype=cd).ravel()
            if theta.shape != (size * (L + 1),):
                raise ValueError(
                    f"expected {size * (L + 1)} params for decoder group "
                    f"{spec.sid}, got {theta.shape}"
                )
            blocks.append(np.vstack([theta[: size * L].reshape(size, L).T, theta[size * L :]]))
        Theta = np.hstack(blocks)
        # Each column's step size comes from its group's carried schedule.
        group_of_row = np.repeat(np.arange(len(specs), dtype=np.intp), sizes)
        batches, rows, rates = _visit_plan(dec.schedule, states, n, batch_size, order)
        scale = (2.0 / rows).astype(cd)
        coefs = rates.astype(cd)[:, group_of_row] * scale[:, None]  # 2 eta / m per column
        K = np.empty((L + 1, L + 1), dtype=cd)
        P = np.empty(Theta.shape, dtype=cd)
        G = np.empty(Theta.shape, dtype=cd)
        for idx, coef in zip(batches, coefs):
            As = A[idx]
            np.matmul(As.T, As, out=K)
            np.matmul(As.T, T[idx], out=P)
            np.matmul(K, Theta, out=G)
            G -= P
            G *= coef
            Theta -= G
        return [
            np.concatenate([block[:L].T.ravel(), block[L]])
            for block in np.split(Theta, np.cumsum(sizes)[:-1], axis=1)
        ]

    # ------------------------------------------------------------- Z step
    def _encode_features(self, F: np.ndarray) -> np.ndarray:
        """Codes from precomputed encoder features (shard.F): the encoder's
        blocked threshold, with no feature map applied to ``F``."""
        return self.model.encoder._threshold(F, np.asarray)

    def z_update(self, shard, mu: float) -> ZStepResult:
        """Exact/alternating Z step on one shard, with the shard's
        statistics under the new codes.

        One encode ``H`` and one :func:`_linear_stats` serve the solver
        and the statistics (:func:`_statistics`), which therefore equal
        :meth:`shard_stats`' under the new codes bit for bit.
        """
        dec = self.model.decoder
        H = self._encode_features(shard.F)
        XcB, sq = _linear_stats(shard.X, dec.c, dec.B)
        Z_new = _zstep(
            XcB,
            dec.B,
            H,
            mu,
            method=self.zstep_method,
            Z0=shard.Z,
            max_enum_bits=self.max_enum_bits,
            max_sweeps=self.max_sweeps,
        )
        changes = int((Z_new != shard.Z).sum())
        shard.Z = Z_new
        self._lstsq = None  # the W step's solve is spent; drop its arrays
        return ZStepResult(changes, *_statistics(sq, XcB, dec.B, Z_new, H, mu))

    # --------------------------------------------------------- objectives
    def shard_stats(self, shard, mu: float) -> tuple[float, float, int]:
        """Shard contributions ``(E_Q, E_BA, violations)`` of the current
        codes: :func:`_statistics` on :func:`_linear_stats`, as
        :meth:`z_update` reports them.
        """
        dec = self.model.decoder
        XcB, sq = _linear_stats(shard.X, dec.c, dec.B)
        H = self._encode_features(shard.F)
        return _statistics(sq, XcB, dec.B, shard.Z, H, mu)

    def e_q_shard(self, shard, mu: float) -> float:
        """Shard contribution to E_Q (eq. 3)."""
        return self.shard_stats(shard, mu)[0]

    def e_ba_shard(self, shard) -> float:
        """Shard contribution to E_BA (eq. 1)."""
        return self.shard_stats(shard, 0.0)[1]

    def violations_shard(self, shard) -> int:
        """Bits where the shard's codes disagree with the encoder."""
        return self.shard_stats(shard, 0.0)[2]

    # ----------------------------------------------------------- streaming
    def features(self, X: np.ndarray) -> np.ndarray:
        """Encoder feature map for new raw points (streaming support)."""
        return self.model.encoder.features(X)

    def init_codes(self, F: np.ndarray) -> np.ndarray:
        """Codes for new points "by applying the nested model" (section 4.3)."""
        return self._encode_features(F)


def build_ba_shards(
    adapter: BAAdapter, X, Z0=None, *, n_machines: int, alphas=None, seed=None
) -> list:
    """Shards for a BA fit from the global data ``X``.

    ``X`` is cast to the model's compute dtype. Initial codes are ``Z0``
    or, by default, truncated-PCA codes (section 8.1); rows are then
    split over ``n_machines`` in proportion to ``alphas`` (relative
    machine speeds, section 4.3), shuffled. Both draws come from
    ``seed``'s stream, codes first.
    """
    model = adapter.model
    X = check_array(X, name="X", dtype=model.compute_dtype)
    rng = check_random_state(seed)
    F = adapter.features(X)
    if Z0 is None:
        Z, _ = init_codes_pca(F, model.n_bits, rng=rng)
    else:
        Z = check_binary_codes(Z0)
        if Z.shape != (len(X), model.n_bits):
            raise ValueError(
                f"Z0 must have shape {(len(X), model.n_bits)}, got {Z.shape}"
            )
    parts = partition_indices(len(X), n_machines, alphas=alphas, rng=rng, shuffle=True)
    return make_shards(X, F, Z, parts)
