"""Self-healing cost: the respawn tax and kill-to-recovery latency.

``fault_policy="respawn"`` buys zero-loss bit-identical recovery with
two observable costs, both measured here where they matter:

* **boundary-snapshot tax** — every iteration under respawn re-collects
  the whole-cluster boundary (worker shards + SGD streams + route RNG),
  so a healthy iteration pays a steady overhead vs ``fail_fast``;
* **kill-to-recovery latency** — a scheduled mid-iteration SIGKILL
  (:class:`~repro.distributed.chaos.CrashEvent`) turns one iteration
  into detect + backoff + full pool rebuild + boundary re-ship + retry;
  the crash iteration's wall time against its healthy neighbours is the
  honest price of not losing the shard;
* **degraded-serve latency** — a sharded index with a scan deadline
  answers *through* a shard kill: the partial answer's latency and
  coverage, then the post-respawn full-coverage search.
"""

import time

import numpy as np

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.data.synthetic import make_gist_like
from repro.distributed.backends import get_backend
from repro.distributed.chaos import ChaosConfig, CrashEvent
from repro.distributed.partition import make_shards, partition_indices
from repro.retrieval.hamming import pack_bits
from repro.serve import ShardedHammingIndex
from repro.utils.ascii_plot import ascii_table

N, D, L, P = 3_000, 48, 16, 3
N_BASE, N_QUERY = 60_000, 16
WALLCLOCK = ("multiprocess", "tcp")


def ba_problem(X, Z):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba)
    parts = partition_indices(len(X), P, rng=0)
    return adapter, make_shards(X, adapter.features(X), Z, parts)


def snapshot_tax(name, X, Z, n_iters=3):
    """Mean healthy-iteration wall seconds under fail_fast vs respawn."""
    walls = {}
    for policy in ("fail_fast", "respawn"):
        adapter, shards = ba_problem(X, Z)
        with get_backend(name)(
            epochs=1, seed=0, shuffle_within=False, fault_policy=policy
        ) as backend:
            backend.setup(adapter, shards)
            ws = [backend.run_iteration(1e-3 * 2**i).wall_time
                  for i in range(n_iters)]
        walls[policy] = float(np.mean(ws))
    return walls["fail_fast"], walls["respawn"]


def recovery_latency(name, X, Z):
    """(healthy s, crash-iteration s, respawn wait s) for one SIGKILL."""
    adapter, shards = ba_problem(X, Z)
    chaos = ChaosConfig(crashes=(CrashEvent(machine=1, iteration=1),))
    with get_backend(name)(
        epochs=1, seed=0, shuffle_within=False,
        fault_policy="respawn", respawn_backoff=0.0, chaos=chaos,
    ) as backend:
        backend.setup(adapter, shards)
        healthy = backend.run_iteration(1e-3).wall_time
        crash_stats = backend.run_iteration(2e-3)
        assert crash_stats.extra["respawns"] == 1
        assert crash_stats.shards_lost == 0
        post = backend.run_iteration(4e-3).wall_time
    return healthy, crash_stats.wall_time, crash_stats.extra["respawn_wait_s"], post


def degraded_serve():
    """Healthy / partial / recovered search latency through a shard kill."""
    import os
    import signal

    rng = np.random.default_rng(0)
    base = pack_bits(rng.integers(0, 2, size=(N_BASE, 32)).astype(np.uint8))
    queries = pack_bits(rng.integers(0, 2, size=(N_QUERY, 32)).astype(np.uint8))
    idx = ShardedHammingIndex(base, 32, 3, mode="process", scan_timeout_s=2.0)
    try:
        def timed_search():
            t0 = time.perf_counter()
            res = idx.search(queries, 10)
            return time.perf_counter() - t0, res

        timed_search()  # warm the workers
        healthy = min(timed_search()[0] for _ in range(5))
        proc = idx._workers.procs[1]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5.0)
        partial_s, partial = timed_search()
        assert partial.partial and idx.shard_respawns == 1
        recovered_s, recovered = timed_search()
        assert not recovered.partial
        return healthy, partial_s, float(partial.coverage), recovered_s
    finally:
        idx.close()


def test_recovery_cost(benchmark, report):
    X = make_gist_like(N, D, n_clusters=6, rng=5)
    Z, _ = init_codes_pca(X, L, subset=1000, rng=0)

    def run_all():
        taxes = {name: snapshot_tax(name, X, Z) for name in WALLCLOCK}
        recoveries = {name: recovery_latency(name, X, Z) for name in WALLCLOCK}
        return taxes, recoveries, degraded_serve()

    taxes, recoveries, serve = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report()
    report("=" * 72)
    report(f"Respawn boundary-snapshot tax (N={N}, D={D}, L={L}, P={P})")
    rows = [
        [name, f"{ff * 1e3:.0f}", f"{rs * 1e3:.0f}", f"{rs / ff:.2f}x"]
        for name, (ff, rs) in taxes.items()
    ]
    report(ascii_table(
        ["backend", "fail_fast ms", "respawn ms", "tax"], rows
    ))
    report("respawn re-collects every worker's shard + SGD stream each "
           "iteration so a death can rewind bit-identically.")

    report()
    report("Kill-to-recovery latency (scheduled mid-W SIGKILL, zero backoff)")
    rows = [
        [name, f"{h * 1e3:.0f}", f"{c * 1e3:.0f}", f"{w * 1e3:.0f}",
         f"{p * 1e3:.0f}", f"{c / h:.2f}x"]
        for name, (h, c, w, p) in recoveries.items()
    ]
    report(ascii_table(
        ["backend", "healthy ms", "crash-iter ms", "respawn-wait ms",
         "post ms", "crash/healthy"],
        rows,
    ))
    report("crash-iter = detect + pool rebuild + boundary re-ship + "
           "bit-identical retry; shards_lost stays 0.")

    report()
    healthy_s, partial_s, coverage, recovered_s = serve
    report(f"Degraded serving ({N_BASE:,} x 32-bit codes, 3 process shards, "
           "2 s scan deadline, shard 1 SIGKILLed)")
    report(ascii_table(
        ["healthy ms", "partial ms", "coverage", "recovered ms"],
        [[f"{healthy_s * 1e3:.1f}", f"{partial_s * 1e3:.1f}",
          f"{coverage:.2f}", f"{recovered_s * 1e3:.1f}"]],
    ))
    report("the partial answer is exact over the surviving shards; the "
           "worker respawns from retained descriptors before the next "
           "search.")

    from conftest import write_bench_json

    write_bench_json("recovery", {
        "snapshot_tax": {
            name: {"fail_fast_s": ff, "respawn_s": rs, "tax": rs / ff}
            for name, (ff, rs) in taxes.items()
        },
        "kill_to_recovery": {
            name: {
                "healthy_s": h,
                "crash_iteration_s": c,
                "respawn_wait_s": w,
                "post_s": p,
                "ratio": c / h,
            }
            for name, (h, c, w, p) in recoveries.items()
        },
        "degraded_serve": {
            "healthy_s": healthy_s,
            "partial_s": partial_s,
            "partial_coverage": coverage,
            "recovered_s": recovered_s,
        },
    })
