"""MAC numerics for K-hidden-layer nets (paper section 3.2, eqs. 5-6).

Auxiliary coordinates ``z_{k,n}`` are introduced for every hidden layer
and data point; the quadratic-penalty objective is

    E_Q(W, Z; mu) = 1/2 sum_n ||y_n - f_{K+1}(z_{K,n})||^2
                  + mu/2 sum_n sum_k ||z_{k,n} - f_k(z_{k-1,n})||^2

The W step is :class:`~repro.nets.adapter.NetAdapter`'s per-unit SGD; this
module holds the rest: the forward-pass warm start, E_Q, and the Z step —
per point a "generalised proximal operator", minimised by vectorised
gradient descent with a per-point acceptance safeguard (a step is only
kept for points whose objective did not increase, so the step is
monotone per point).
"""

from __future__ import annotations

import numpy as np

from repro.nets.deepnet import DeepNet

__all__ = ["init_coords", "e_q", "z_step"]


def init_coords(net: DeepNet, X: np.ndarray) -> list[np.ndarray]:
    """Z from the forward pass (the usual MAC warm start): every penalty
    term is zero there, so E_Q equals the nested loss."""
    return [A.copy() for A in net.activations(X)[:-1]]


def e_q(net: DeepNet, X, Y, Zs, mu: float) -> float:
    """Quadratic-penalty objective, eq. (6)."""
    cd = net.compute_dtype
    ins = [np.asarray(X, dtype=cd)] + list(Zs)
    total = 0.0
    for k, layer in enumerate(net.layers[:-1]):
        R = Zs[k] - layer.forward(ins[k])
        total += 0.5 * mu * float((R * R).sum())
    R = np.asarray(Y, dtype=cd) - net.layers[-1].forward(Zs[-1])
    total += 0.5 * float((R * R).sum())
    return total


def _obj_from_acts(net: DeepNet, Y, Zs, acts, mu: float) -> np.ndarray:
    """Per-point E_Q from cached activations ``acts[k] = f_k(ins[k])``,
    accumulated in float64 whatever the compute dtype (E_Q parity across
    engines is asserted bit-exactly on these sums)."""
    total = np.zeros(len(acts[0]), dtype=np.float64)
    for k in range(len(Zs)):
        R = Zs[k] - acts[k]
        total += 0.5 * mu * (R * R).sum(axis=1)
    R = np.asarray(Y, dtype=net.compute_dtype) - acts[-1]
    total += 0.5 * (R * R).sum(axis=1)
    return total


def _grads_from_acts(net: DeepNet, Y, Zs, acts, mu: float) -> list[np.ndarray]:
    """E_Q gradients w.r.t. each Z_k from cached activations.

    The gradient needs layer k forwarded on ``ins[k]`` and layer k+1 on
    ``Zs[k]`` — but ``ins[k+1] is Zs[k]``, so both are exactly the
    activations ``acts`` already holds; no forward pass is needed.
    """
    grads = []
    for k in range(len(Zs)):
        g = mu * (Zs[k] - acts[k])
        nxt = net.layers[k + 1]
        A_next = acts[k + 1]
        if k + 1 < len(Zs):
            R_next = Zs[k + 1] - A_next
            weight = mu
        else:
            R_next = np.asarray(Y, dtype=net.compute_dtype) - A_next
            weight = 1.0
        g -= weight * (R_next * nxt.derivative_from_output(A_next)) @ nxt.W
        grads.append(g)
    return grads


def z_step(
    net: DeepNet, X, Y, Zs, mu: float, *, z_steps: int = 10, z_lr: float = 0.5
) -> list[np.ndarray]:
    """Safeguarded gradient descent on the per-point proximal problems.

    One set of layer activations is computed per candidate point and
    shared between the objective and the gradient. Rows of a forward pass
    depend only on the matching input rows, so the per-point acceptance
    safeguard updates the cached activations row-wise; ``z_lr`` halves
    whenever no point accepts a step.
    """
    Zs = [Z.copy() for Z in Zs]
    layers = net.layers
    ins = [np.asarray(X, dtype=net.compute_dtype)] + Zs
    # acts[k] = f_k(ins[k]); acts[0] depends only on X, so it is
    # computed once for the whole solve.
    acts = [layer.forward(ins[k]) for k, layer in enumerate(layers)]
    obj = _obj_from_acts(net, Y, Zs, acts, mu)
    lr = z_lr
    for _ in range(z_steps):
        grads = _grads_from_acts(net, Y, Zs, acts, mu)
        trial = [Z - lr * g for Z, g in zip(Zs, grads)]
        trial_acts = [acts[0]] + [
            layers[k].forward(trial[k - 1]) for k in range(1, len(layers))
        ]
        new_obj = _obj_from_acts(net, Y, trial, trial_acts, mu)
        accept = new_obj <= obj
        if not accept.any():
            lr *= 0.5
            continue
        for Z, T in zip(Zs, trial):
            Z[accept] = T[accept]
        for k in range(1, len(acts)):
            acts[k][accept] = trial_acts[k][accept]
        obj = np.where(accept, new_obj, obj)
    return Zs
