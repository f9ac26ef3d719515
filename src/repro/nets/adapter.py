"""ParMAC adapter for deep nets — the same ring engines, different model.

Submodels are *hidden units*: "M is the number of hidden units in a deep
net" (paper section 4). Each unit (k, j) owns row j of layer k's weights
plus its bias, and its W-step subproblem — fit ``sigma(w . z_{k-1} + b)``
to column j of ``z_k`` under squared loss — depends only on the shard's
coordinates for layers k-1 and k, exactly the reduced-dependency structure
section 9 points out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.interfaces import SubmodelSpec, ZStepResult
from repro.distributed.partition import partition_indices
from repro.nets.deepnet import DeepNet
from repro.nets.layers import ACTIVATIONS
from repro.nets.mac import e_q, init_coords, z_step
from repro.optim.schedules import InverseSchedule
from repro.optim.sgd import SGDState, _visit_plan, minibatch_indices
from repro.utils.rng import check_random_state

__all__ = ["NetShard", "NetAdapter", "make_net_shards", "build_net_shards"]


@dataclass
class NetShard:
    """One machine's private (X, Y, Z_1..Z_K) for a deep net."""

    X: np.ndarray
    Y: np.ndarray
    Zs: list

    def __post_init__(self):
        if len(self.X) != len(self.Y) or any(len(Z) != len(self.X) for Z in self.Zs):
            raise ValueError("inconsistent shard lengths")

    @property
    def n(self) -> int:
        return len(self.X)


def make_net_shards(X, Y, Zs, parts, *, dtype=None) -> list[NetShard]:
    """Materialise deep-net shards from global arrays and a partition.

    ``dtype`` fixes the shards' compute precision; when omitted it is
    inferred from the auxiliary coordinates (which the net's forward pass
    produced in the model's compute dtype), falling back to float64.
    """
    if dtype is None:
        z_dtype = np.asarray(Zs[0]).dtype if len(Zs) else np.dtype(np.float64)
        dtype = z_dtype if z_dtype.kind == "f" else np.dtype(np.float64)
    dtype = np.dtype(dtype)
    X = np.asarray(X, dtype=dtype)
    Y = np.asarray(Y, dtype=dtype)
    Zs = [np.asarray(Z, dtype=dtype) for Z in Zs]
    return [
        NetShard(X=X[idx].copy(), Y=Y[idx].copy(), Zs=[Z[idx].copy() for Z in Zs])
        for idx in parts
    ]


def build_net_shards(adapter, X, Y, *, n_machines: int, seed=None) -> list[NetShard]:
    """Shards for a deep-net fit from global ``(X, Y)``.

    Coordinates start at the forward pass of ``adapter.model``; rows are
    split evenly over ``n_machines`` by ``seed``'s stream. Everything is
    cast to the net's compute dtype, and 1-d targets become one column.
    """
    net = adapter.model
    X = np.asarray(X, dtype=net.compute_dtype)
    Y = np.asarray(Y, dtype=net.compute_dtype)
    if Y.ndim == 1:
        Y = Y[:, None]
    if len(X) != len(Y):
        raise ValueError(f"X has {len(X)} rows but Y has {len(Y)}")
    rng = check_random_state(seed)
    parts = partition_indices(len(X), n_machines, rng=rng)
    return make_net_shards(X, Y, init_coords(net, X), parts)


class NetAdapter:
    """ParMAC adapter exposing a :class:`DeepNet`'s hidden units as submodels.

    Parameters
    ----------
    net : DeepNet
    z_steps, z_lr : Z-step optimiser settings (:func:`repro.nets.mac.z_step`'s
        safeguarded gradient descent, run shard-locally).
    """

    def __init__(self, net: DeepNet, *, z_steps: int = 10, z_lr: float = 0.5, w_schedule=None):
        self.model = net
        self.z_steps = int(z_steps)
        self.z_lr = float(z_lr)
        self.w_schedule = (
            w_schedule if w_schedule is not None else InverseSchedule(eta0=0.5, t0=100.0)
        )
        self._specs = []
        sid = 0
        for k, layer in enumerate(net.layers):
            for j in range(layer.n_out):
                self._specs.append(SubmodelSpec(sid=sid, kind="unit", index=(k, j)))
                sid += 1

    # -------------------------------------------------------------- specs
    def submodel_specs(self) -> list[SubmodelSpec]:
        return list(self._specs)

    @property
    def compute_dtype(self) -> np.dtype:
        """End-to-end compute precision (the model's parameter dtype)."""
        return self.model.compute_dtype

    def batch_key(self, spec: SubmodelSpec):
        """Units of one layer may share a batched W update (they read the
        same shard inputs/targets, so their SGD passes stack into one
        GEMM per minibatch)."""
        return ("unit", spec.index[0])

    # ------------------------------------------------------------- params
    def get_params(self, spec: SubmodelSpec) -> np.ndarray:
        k, j = spec.index
        layer = self.model.layers[k]
        return np.concatenate([layer.W[j], layer.b[j : j + 1]])

    def set_params(self, spec: SubmodelSpec, theta: np.ndarray) -> None:
        k, j = spec.index
        layer = self.model.layers[k]
        theta = np.asarray(theta, dtype=layer.W.dtype).ravel()
        if theta.shape != (layer.n_in + 1,):
            raise ValueError(f"expected {layer.n_in + 1} params, got {theta.shape}")
        layer.W[j] = theta[:-1]
        layer.b[j] = theta[-1]

    # Batched variants: the engines read every resident unit at seeding
    # and write all M units back at assembly, every iteration, on every
    # machine — per-unit concatenate/assign there is M python-level ops
    # where one matrix slice per layer suffices. The wire keeps sid-level
    # granularity (one travelling message per unit) regardless.
    def get_params_batch(self, specs) -> list[np.ndarray]:
        """Per-spec flat parameter vectors, one matrix op per layer."""
        specs = list(specs)
        by_layer: dict[int, list[tuple[int, SubmodelSpec]]] = {}
        for pos, spec in enumerate(specs):
            by_layer.setdefault(spec.index[0], []).append((pos, spec))
        out: list[np.ndarray | None] = [None] * len(specs)
        for k, group in by_layer.items():
            layer = self.model.layers[k]
            rows = np.fromiter((s.index[1] for _, s in group), dtype=np.intp)
            Theta = np.concatenate([layer.W[rows], layer.b[rows, None]], axis=1)
            for i, (pos, _) in enumerate(group):
                out[pos] = Theta[i]
        return out

    def set_params_batch(self, items) -> None:
        """Write many ``(spec, theta)`` pairs, one matrix op per layer."""
        by_layer: dict[int, list] = {}
        for spec, theta in items:
            by_layer.setdefault(spec.index[0], []).append((spec, theta))
        for k, group in by_layer.items():
            layer = self.model.layers[k]
            rows = np.fromiter((s.index[1] for s, _ in group), dtype=np.intp)
            Theta = np.stack(
                [np.asarray(th, dtype=layer.W.dtype).ravel() for _, th in group]
            )
            if Theta.shape[1] != layer.n_in + 1:
                raise ValueError(
                    f"expected {layer.n_in + 1} params per unit of layer {k}, "
                    f"got {Theta.shape[1]}"
                )
            layer.W[rows] = Theta[:, :-1]
            layer.b[rows] = Theta[:, -1]

    # ------------------------------------------------------------- W step
    def w_update(
        self,
        spec: SubmodelSpec,
        theta: np.ndarray,
        state: SGDState,
        shard: NetShard,
        mu: float,
        *,
        batch_size: int,
        shuffle: bool,
        rng,
    ) -> np.ndarray:
        """One SGD pass of one hidden unit over one shard."""
        k, j = spec.index
        layer = self.model.layers[k]
        A_in = shard.X if k == 0 else shard.Zs[k - 1]
        target = shard.Y if k == len(self.model.layers) - 1 else shard.Zs[k]
        t = target[:, j] if target.ndim == 2 else target
        theta = np.asarray(theta, dtype=layer.W.dtype).ravel()
        w = theta[:-1].copy()
        b = theta[-1]
        f, fprime = ACTIVATIONS[layer.activation]
        for idx in minibatch_indices(shard.n, batch_size, shuffle=shuffle, rng=rng):
            eta = self.w_schedule.rate(state.t) / len(idx)
            pre = A_in[idx] @ w + b
            a = f(pre)
            delta = (a - t[idx]) * fprime(a)
            w -= eta * (delta @ A_in[idx])
            b = b - eta * delta.sum()
            state.advance(len(idx))
        return np.concatenate([w, np.asarray([b], dtype=w.dtype)])

    def w_update_batch(
        self,
        specs,
        thetas,
        states,
        shard: NetShard,
        mu: float,
        *,
        batch_size: int,
        shuffle: bool,
        rng,
    ) -> list[np.ndarray]:
        """One shared SGD pass of co-resident units of one layer.

        The whole group shares one minibatch order — sequential, or under
        ``shuffle`` ``rng.permutation(n)``, the order :meth:`w_update`
        draws from the same ``rng`` — and each minibatch, gathered under
        an order, becomes one stacked GEMM: the per-unit ``delta``
        vectors form an ``(n_batch, m_units)`` matrix and all gradients
        come from one ``Delta.T @ A_in[idx]`` instead of ``m_units``
        Python-level loops. Per-unit step-size schedules are preserved:
        each unit's carried ``SGDState`` drives its own row of the update.
        """
        ks = {spec.index[0] for spec in specs}
        if len(ks) != 1:
            raise ValueError(
                f"a unit batch must come from one layer, got layers {sorted(ks)}"
            )
        (k,) = ks
        layer = self.model.layers[k]
        cd = layer.W.dtype
        A_in = shard.X if k == 0 else shard.Zs[k - 1]
        target = shard.Y if k == len(self.model.layers) - 1 else shard.Zs[k]
        cols = np.fromiter((spec.index[1] for spec in specs), dtype=np.intp)
        T = target[:, cols] if target.ndim == 2 else np.asarray(target)[:, None]
        Theta = np.stack([np.asarray(th, dtype=cd).ravel() for th in thetas])
        if Theta.shape[1] != layer.n_in + 1:
            raise ValueError(
                f"expected {layer.n_in + 1} params per unit, got {Theta.shape[1]}"
            )
        W = np.ascontiguousarray(Theta[:, :-1])
        b = np.ascontiguousarray(Theta[:, -1])
        f, fprime = ACTIVATIONS[layer.activation]
        order = rng.permutation(shard.n) if shuffle else None
        batches, sizes, rates = _visit_plan(self.w_schedule, states, shard.n, batch_size, order)
        # Same scalar rounding as the per-unit path: rate/m in float64,
        # then one cast into the compute dtype.
        for idx, etas in zip(batches, (rates / sizes[:, None]).astype(cd)):
            A_s = A_in[idx]
            Pre = A_s @ W.T + b
            A = f(Pre)
            Delta = (A - T[idx]) * fprime(A)
            W -= etas[:, None] * (Delta.T @ A_s)
            b -= etas * Delta.sum(axis=0)
        return [np.concatenate([W[i], b[i : i + 1]]) for i in range(len(specs))]

    # ------------------------------------------------------------- Z step
    def z_update(self, shard: NetShard, mu: float) -> ZStepResult:
        """Shard-local safeguarded gradient Z step; returns the coords
        changed and :meth:`shard_stats` under the new coordinates.

        Runs the activation-cached solver: a shard's Z solves are a handful
        of whole-shard GEMMs per gradient step in the model's compute
        dtype — the Z-step mirror of ``w_update_batch``.
        """
        new_Zs = z_step(
            self.model, shard.X, shard.Y, shard.Zs, mu,
            z_steps=self.z_steps, z_lr=self.z_lr,
        )
        changed = sum(
            int((np.abs(new - old) > 1e-12).sum())
            for new, old in zip(new_Zs, shard.Zs)
        )
        shard.Zs = new_Zs
        return ZStepResult(changed, *self.shard_stats(shard, mu))

    # --------------------------------------------------------- objectives
    def shard_stats(self, shard: NetShard, mu: float) -> tuple[float, float, float]:
        """``(E_Q, nested objective, constraint residual)`` of one shard."""
        return self.e_q_shard(shard, mu), self.e_ba_shard(shard), self.violations_shard(shard)

    def e_q_shard(self, shard: NetShard, mu: float) -> float:
        return e_q(self.model, shard.X, shard.Y, shard.Zs, mu)

    def e_ba_shard(self, shard: NetShard) -> float:
        """Shard contribution to the nested objective (name kept for the
        generic engine interface)."""
        return self.model.loss(shard.X, shard.Y)

    def violations_shard(self, shard: NetShard) -> float:
        """Constraint residual ``sum_k ||Z_k - f_k(Z_{k-1})||^2``."""
        ins = [shard.X] + list(shard.Zs)
        total = 0.0
        for k, layer in enumerate(self.model.layers[:-1]):
            R = shard.Zs[k] - layer.forward(ins[k])
            total += float((R * R).sum())
        return total
