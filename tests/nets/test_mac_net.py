"""MAC numerics for deep nets: coordinates, E_Q, the Z step, and serial
MAC (the fit loop on one shard)."""

import numpy as np
import pytest

from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.nets.adapter import NetAdapter, make_net_shards
from repro.nets.deepnet import DeepNet
from repro.nets.mac import e_q, init_coords, z_step
from tests.fits import fit_net


@pytest.fixture(scope="module")
def regression_problem():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    Y = np.sin(X @ rng.normal(size=(4, 2)))
    return X, Y


# ------------------------------------------------------------- oracle
# The Z step as first written: every gradient and objective recomputes
# the forward passes it needs (roughly three per accepted step). Kept
# here as the reference the activation-cached ``z_step`` is compared
# against bit for bit, and the gradient the finite differences check.
def e_q_per_point_oracle(net, X, Y, Zs, mu):
    cd = net.compute_dtype
    ins = [np.asarray(X, dtype=cd)] + list(Zs)
    total = np.zeros(len(X), dtype=np.float64)
    for k, layer in enumerate(net.layers[:-1]):
        R = Zs[k] - layer.forward(ins[k])
        total += 0.5 * mu * (R * R).sum(axis=1)
    R = np.asarray(Y, dtype=cd) - net.layers[-1].forward(Zs[-1])
    total += 0.5 * (R * R).sum(axis=1)
    return total


def z_gradients_oracle(net, X, Y, Zs, mu):
    """Gradient of E_Q w.r.t. each Z_k, forwarding every layer afresh."""
    cd = net.compute_dtype
    ins = [np.asarray(X, dtype=cd)] + list(Zs)
    grads = []
    for k in range(len(Zs)):
        g = mu * (Zs[k] - net.layers[k].forward(ins[k]))
        nxt = net.layers[k + 1]
        A_next = nxt.forward(Zs[k])
        if k + 1 < len(Zs):
            R_next, weight = Zs[k + 1] - A_next, mu
        else:
            R_next, weight = np.asarray(Y, dtype=cd) - A_next, 1.0
        g -= weight * (R_next * nxt.derivative_from_output(A_next)) @ nxt.W
        grads.append(g)
    return grads


def z_step_oracle(net, X, Y, Zs, mu, *, z_steps, z_lr=0.5):
    Zs = [Z.copy() for Z in Zs]
    obj = e_q_per_point_oracle(net, X, Y, Zs, mu)
    lr = z_lr
    for _ in range(z_steps):
        grads = z_gradients_oracle(net, X, Y, Zs, mu)
        trial = [Z - lr * g for Z, g in zip(Zs, grads)]
        new_obj = e_q_per_point_oracle(net, X, Y, trial, mu)
        accept = new_obj <= obj
        if not accept.any():
            lr *= 0.5
            continue
        for Z, T in zip(Zs, trial):
            Z[accept] = T[accept]
        obj = np.where(accept, new_obj, obj)
    return Zs


class TestCoordinates:
    def test_init_from_forward_pass(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 2], rng=0)
        Zs = init_coords(net, X)
        assert len(Zs) == 1 and Zs[0].shape == (120, 6)
        assert np.allclose(Zs[0], net.activations(X)[0])

    def test_e_q_at_init_equals_nested_loss(self, regression_problem):
        # With Z = forward activations, every penalty term is zero.
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 2], rng=0)
        Zs = init_coords(net, X)
        assert e_q(net, X, Y, Zs, mu=5.0) == pytest.approx(net.loss(X, Y))


class TestZStep:
    def test_never_increases_e_q(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 2], rng=1)
        Zs = [z + 0.3 for z in init_coords(net, X)]  # perturbed start
        before = e_q(net, X, Y, Zs, 1.0)
        Zs_new = z_step(net, X, Y, Zs, 1.0, z_steps=5)
        assert e_q(net, X, Y, Zs_new, 1.0) <= before + 1e-9

    def test_gradient_matches_finite_difference(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 5, 3, 2], rng=2)
        Zs = init_coords(net, X[:6])
        Zs = [z + 0.1 for z in Zs]
        grads = z_gradients_oracle(net, X[:6], Y[:6], Zs, mu=0.7)
        eps = 1e-6
        for k in range(len(Zs)):
            i, j = 2, 1
            Zs[k][i, j] += eps
            up = e_q(net, X[:6], Y[:6], Zs, 0.7)
            Zs[k][i, j] -= 2 * eps
            down = e_q(net, X[:6], Y[:6], Zs, 0.7)
            Zs[k][i, j] += eps
            numeric = (up - down) / (2 * eps)
            assert grads[k][i, j] == pytest.approx(numeric, abs=1e-4)


class TestWStep:
    def test_reduces_layer_losses(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 2], rng=3)
        Zs = init_coords(net, X)
        # Perturb weights so there is something to recover.
        for layer in net.layers:
            layer.W += 0.5 * np.random.default_rng(1).normal(size=layer.W.shape)
        before = e_q(net, X, Y, Zs, 1.0)
        # A one-iteration fit whose Z step takes no steps is a W step.
        shards = make_net_shards(X, Y, Zs, [np.arange(len(X))])
        ParMACTrainer(
            NetAdapter(net, z_steps=0), GeometricSchedule(1.0, 2.0, 1),
            epochs=5, batch_size=32, seed=0,
        ).fit(shards)
        assert e_q(net, X, Y, Zs, 1.0) < before


class TestFit:
    def test_nested_loss_decreases(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 8, 2], rng=4)
        before = net.loss(X, Y)
        h = fit_net(net, X, Y, GeometricSchedule(0.5, 1.5, 8), epochs=2, seed=0).history_
        assert h.records[-1].e_ba < before
        assert len(h) == 8

    def test_comparable_to_backprop(self, regression_problem):
        # MAC should land within a reasonable factor of backprop's loss.
        X, Y = regression_problem
        from repro.nets.backprop import BackpropTrainer

        mac_net = DeepNet.create([4, 8, 2], rng=5)
        fit_net(mac_net, X, Y, GeometricSchedule(0.5, 1.6, 10), epochs=3, seed=0)
        bp_net = DeepNet.create([4, 8, 2], rng=5)
        BackpropTrainer(bp_net, seed=0).fit(X, Y, epochs=10)
        assert mac_net.loss(X, Y) <= bp_net.loss(X, Y) * 2.0

    def test_two_hidden_layers(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 5, 2], rng=6)
        h = fit_net(net, X, Y, GeometricSchedule(0.5, 1.5, 5), epochs=2, seed=0).history_
        assert np.isfinite(h.records[-1].e_ba)

    def test_1d_targets(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] ** 2
        net = DeepNet.create([3, 5, 1], rng=0)
        h = fit_net(net, X, y, GeometricSchedule(0.5, 1.5, 4), epochs=2, seed=0).history_
        assert np.isfinite(h.records[-1].e_ba)

    def test_rejects_length_mismatch(self):
        net = DeepNet.create([3, 4, 2], rng=0)
        with pytest.raises(ValueError):
            fit_net(net, np.zeros((5, 3)), np.zeros((4, 2)), seed=0)


class TestZStepStackedParity:
    """The activation-cached z_step must reproduce ``z_step_oracle`` bit
    for bit — same forwards on the same rows, just fewer of them."""

    @pytest.mark.parametrize("dims", [[4, 6, 2], [4, 5, 3, 2]])
    def test_bit_identical_to_reference(self, regression_problem, dims):
        X, Y = regression_problem
        net = DeepNet.create(dims, rng=3)
        Zs = [z + 0.3 for z in init_coords(net, X)]  # off the fixed point
        ref = z_step_oracle(net, X, Y, Zs, 0.7, z_steps=6)
        fast = z_step(net, X, Y, Zs, 0.7, z_steps=6)
        assert len(ref) == len(fast)
        for R, F in zip(ref, fast):
            assert np.array_equal(R, F)

    def test_bit_identical_float32(self, regression_problem):
        X, Y = regression_problem
        net = DeepNet.create([4, 6, 2], rng=3, dtype=np.float32)
        Zs = [(z + 0.3).astype(np.float32) for z in init_coords(net, X)]
        ref = z_step_oracle(net, X, Y, Zs, 0.7, z_steps=6)
        fast = z_step(net, X, Y, Zs, 0.7, z_steps=6)
        for R, F in zip(ref, fast):
            assert np.array_equal(R, F)
