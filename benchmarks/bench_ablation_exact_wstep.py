"""Ablation (section 6) — SGD W step vs exact allreduced W step.

ParMAC's only approximation to MAC is the stochastic W step. The exact
alternative (per-machine gradients summed by allreduce; closed-form normal
equations for the decoder) recovers MAC exactly but "is far slower than
using SGD". The bench sweeps e and prints the E_Q gap to exact, plus the
communication cost of each strategy.
"""


from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.autoencoder.zstep import zstep
from repro.data.synthetic import make_clustered
from repro.distributed.allreduce import exact_w_step_ba
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices
from repro.utils.ascii_plot import ascii_table

N, D, L, P = 1500, 32, 8, 4
MUS = [1e-3 * 2**i for i in range(8)]
SVM_STEPS = 40


def run_exact(X):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, L, rng=0)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, X, Z, parts)
    for mu in MUS:
        exact_w_step_ba(ba, shards, svm_steps=SVM_STEPS)
        for s in shards:
            s.Z = zstep(s.X, ba.decoder.B, ba.decoder.c,
                        adapter._encode_features(s.F), mu, Z0=s.Z)
    return sum(adapter.e_q_shard(s, MUS[-1]) for s in shards)


def run_sgd(X, epochs):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba)
    Z, _ = init_codes_pca(X, L, rng=0)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, X, Z, parts)
    cluster = get_backend("sync")(epochs=epochs, seed=0)
    cluster.setup(adapter, shards)
    for mu in MUS:
        e_q = cluster.run_iteration(mu).e_q
    return e_q


def test_ablation_exact_wstep(benchmark, report):
    X = make_clustered(N, D, n_clusters=6, rng=4)

    def run_all():
        exact = run_exact(X)
        sgd = {e: run_sgd(X, e) for e in (1, 2, 4, 8)}
        return exact, sgd

    exact, sgd = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report()
    report("=" * 72)
    report("Ablation: exact (allreduce) vs SGD W step — final E_Q")
    # Communication: SGD ships the model e+1 times per iteration; the
    # exact W step ships one gradient per full-batch step per submodel.
    rows = [["exact allreduce", round(exact, 1), 1.0,
             f"{SVM_STEPS} allreduces/iter"]]
    for e, val in sgd.items():
        rows.append([f"SGD e={e}", round(val, 1), round(val / exact, 3),
                     f"{e + 1} model rounds/iter"])
    report(ascii_table(["W step", "final E_Q", "ratio to exact",
                        "communication"], rows))
    report("  (paper: 'one to two epochs in the W step make ParMAC very "
           "similar to MAC using an exact step')")

    ratios = [sgd[e] / exact for e in (1, 2, 4, 8)]
    # Monotone convergence towards exact as e grows.
    assert all(a >= b - 0.05 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.35
    # Communication rounds: SGD needs e+1 model laps, exact needs one
    # allreduce per gradient step — 40 vs at most 9 here.
    assert SVM_STEPS > max(e + 1 for e in (1, 2, 4, 8))
