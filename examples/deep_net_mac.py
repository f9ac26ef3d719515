"""K-layer MAC beyond autoencoders: a sigmoid deep net (section 3.2).

MAC is a meta-algorithm: the same W/Z alternation trains any nested model.
This example fits a 2-hidden-layer sigmoid regression net four ways —

* conventional backprop SGD (the chain-rule baseline),
* serial MAC with per-unit W steps and the generalised-proximal Z step
  (the ParMAC fit loop on one shard),
* ParMAC on a simulated 4-machine ring, one travelling submodel per
  hidden unit,
* ParMAC on *real OS processes* (``backend="multiprocess"``) — the same
  fit loop, a different entry in the backend registry —

and compares the nested objective reached by each.

Run:  python examples/deep_net_mac.py
"""

import numpy as np

from repro import (
    BackpropTrainer,
    DeepNet,
    GeometricSchedule,
    NetAdapter,
    ParMACTrainer,
    build_net_shards,
)


def make_problem(n=600, d_in=6, d_out=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d_in))
    W1 = rng.normal(size=(d_in, 8))
    W2 = rng.normal(size=(8, d_out))
    Y = np.tanh(np.tanh(X @ W1) @ W2)
    return X, Y


def train_mac(net, X, Y, schedule, *, n_machines, epochs, z_steps=10,
              backend="sync"):
    """MAC on ``n_machines`` shards; returns the closed trainer."""
    adapter = NetAdapter(net, z_steps=z_steps)
    with ParMACTrainer(
        adapter, schedule, backend=backend, epochs=epochs, batch_size=32, seed=0
    ) as trainer:
        trainer.fit(build_net_shards(adapter, X, Y, n_machines=n_machines, seed=0))
    return trainer


def main():
    X, Y = make_problem()
    sizes = [6, 10, 8, 2]
    schedule = GeometricSchedule(mu0=0.5, factor=1.6, n_iters=10)
    print(f"problem: {len(X)} points, net {sizes} (K=2 hidden layers)\n")

    net_bp = DeepNet.create(sizes, rng=0)
    print(f"initial nested loss: {net_bp.loss(X, Y):.2f}\n")

    print("1) backprop SGD (10 epochs)")
    BackpropTrainer(net_bp, seed=0).fit(X, Y, epochs=10)
    print(f"   nested loss: {net_bp.loss(X, Y):.2f}")

    print("2) serial MAC (10 iterations, no chain rule anywhere)")
    net_mac = DeepNet.create(sizes, rng=0)
    history = train_mac(net_mac, X, Y, schedule, n_machines=1, epochs=3).history_
    print(f"   nested loss: {net_mac.loss(X, Y):.2f} "
          f"(E_Q {history.e_q[0]:.1f} -> {history.e_q[-1]:.1f})")

    print("3) ParMAC: hidden units travel a simulated 4-machine ring")
    net_par = DeepNet.create(sizes, rng=0)
    M = sum(layer.n_out for layer in net_par.layers)
    print(f"   M = {M} submodels (one per unit) over P = 4 machines")
    trainer = train_mac(net_par, X, Y, schedule, n_machines=4, epochs=2, z_steps=8)
    print(f"   nested loss: {net_par.loss(X, Y):.2f}  "
          f"copies-consistent={trainer.backend.model_copies_consistent()}")

    print("4) ParMAC on real OS processes (backend='multiprocess')")
    net_mp = DeepNet.create(sizes, rng=0)
    history = train_mac(
        net_mp, X, Y, schedule, n_machines=4, epochs=2, z_steps=8,
        backend="multiprocess",
    ).history_
    print(f"   nested loss: {net_mp.loss(X, Y):.2f}  "
          f"({history.total_time:.2f} s wall across {len(history)} iterations)")

    print("\nMAC reaches comparable quality to backprop without ever")
    print("computing a backpropagated gradient — and its W step exposes one")
    print("independent submodel per unit for distributed training, on")
    print("simulated or real machines alike.")


if __name__ == "__main__":
    main()
