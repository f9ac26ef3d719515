"""Stacked Z-step kernels and overlapped ring sends: wall-clock speedups.

The PR-6 "hot paths" items, measured:

* **Stacked vs legacy BA alternating solver.** The legacy formulation
  materialises an n x D residual copy per bit per sweep; the stacked one
  maintains the n x L linear-term matrix ``G = R B`` with a rank-1 update
  per flipped bit (see ``repro.autoencoder.zstep``). Both are
  bit-identical from a shared initialisation. Acceptance floor for this
  repo: >= 3x on the wide-code 256-dimensional layer.

* **Activation-cached net Z step.** ``z_step_reference`` runs roughly
  three full forward passes per descent step; ``z_step`` computes one
  set of layer activations per candidate and shares it between objective
  and gradient, updating cached rows under the per-point safeguard.

* **Overlapped ring sends, end to end.** With ``overlap_send`` the TCP
  workers hand outgoing submodel batches to a double-buffered background
  sender and keep training; this times real iterations over sockets with
  the flag off and on and checks the learned bits are identical.

Writes ``BENCH_zstep.json`` via the shared helper in conftest.py (the
wire-dtype sweep in bench_tcp_wire.py merges its section into the same
file).

Run standalone (the nightly lane does)::

    PYTHONPATH=src python benchmarks/bench_zstep_stacked.py --smoke

or through pytest: ``pytest benchmarks/bench_zstep_stacked.py``.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import write_bench_json  # noqa: E402  (shared bench helper)

from repro.autoencoder import BinaryAutoencoder  # noqa: E402
from repro.autoencoder.adapter import BAAdapter  # noqa: E402
from repro.autoencoder.init import init_codes_pca  # noqa: E402
from repro.autoencoder.zstep import (  # noqa: E402
    zstep_alternate,
    zstep_relaxed,
)
from repro.distributed.backends import get_backend  # noqa: E402
from repro.distributed.partition import make_shards, partition_indices  # noqa: E402
from repro.nets.deepnet import DeepNet  # noqa: E402
from repro.nets.mac_net import MACTrainerNet  # noqa: E402

FULL = {
    "alt": {"n": 4000, "D": 256, "L": 32, "reps": 3},
    "net": {"n": 1500, "dims": [32, 256, 16], "reps": 3},
    "overlap": {"n": 2400, "D": 48, "L": 16, "P": 3, "mus": [1e-3, 2e-3, 4e-3]},
}
SMOKE = {
    "alt": {"n": 600, "D": 256, "L": 32, "reps": 2},
    "net": {"n": 400, "dims": [16, 256, 8], "reps": 2},
    "overlap": {"n": 900, "D": 32, "L": 12, "P": 3, "mus": [1e-3, 2e-3]},
}


def _best_of(fn, reps):
    """Best-of-``reps`` wall time and the last return value."""
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def ba_problem(cfg, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(cfg["n"], cfg["D"]))
    B = rng.normal(size=(cfg["D"], cfg["L"]))
    c = rng.normal(size=cfg["D"])
    H = rng.random(size=(cfg["n"], cfg["L"]))
    return X, B, c, H, 0.5


def measure_alternate(cfg) -> dict:
    """Legacy vs stacked alternating solver from one shared Z0."""
    X, B, c, H, mu = ba_problem(cfg)
    Z0 = zstep_relaxed(X, B, c, H, mu)
    t_leg, Z_leg = _best_of(
        lambda: zstep_alternate(X, B, c, H, mu, Z0, impl="legacy"), cfg["reps"]
    )
    t_stk, Z_stk = _best_of(
        lambda: zstep_alternate(X, B, c, H, mu, Z0, impl="stacked"), cfg["reps"]
    )
    assert np.array_equal(Z_leg, Z_stk), "stacked alternate changed the bits"
    return {
        "config": dict(cfg),
        "legacy_s": t_leg,
        "stacked_s": t_stk,
        "speedup": t_leg / t_stk,
        "bit_identical": True,
    }


def measure_net(cfg) -> dict:
    """Reference vs activation-cached net Z step on a wide hidden layer."""
    rng = np.random.default_rng(0)
    dims = cfg["dims"]
    X = rng.normal(size=(cfg["n"], dims[0]))
    Y = np.tanh(X @ rng.normal(size=(dims[0], dims[-1])))
    trainer = MACTrainerNet(DeepNet.create(dims, rng=1), seed=0)
    Zs = trainer.init_coords(X)
    mu = 0.5
    t_ref, Z_ref = _best_of(lambda: trainer.z_step_reference(X, Y, Zs, mu), cfg["reps"])
    t_stk, Z_stk = _best_of(lambda: trainer.z_step(X, Y, Zs, mu), cfg["reps"])
    assert all(np.array_equal(a, b) for a, b in zip(Z_ref, Z_stk)), (
        "activation-cached net Z step changed the coordinates"
    )
    return {
        "config": dict(cfg),
        "reference_s": t_ref,
        "stacked_s": t_stk,
        "speedup": t_ref / t_stk,
        "bit_identical": True,
    }


def _overlap_run(cfg, X, Z, *, overlap_send):
    """Real-socket iterations; returns (mean iteration seconds, finals,
    last stats)."""
    ba = BinaryAutoencoder.linear(cfg["D"], cfg["L"])
    adapter = BAAdapter(ba)
    parts = partition_indices(len(X), cfg["P"], rng=0)
    shards = make_shards(X, adapter.features(X), Z, parts)
    with get_backend("tcp")(
        epochs=2, batch_size=100, seed=0, shuffle_within=False,
        overlap_send=overlap_send,
    ) as backend:
        backend.setup(adapter, shards)
        t0 = time.perf_counter()
        results = [backend.run_iteration(mu) for mu in cfg["mus"]]
        elapsed = time.perf_counter() - t0
    finals = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
    return elapsed / len(cfg["mus"]), finals, results[-1]


def measure_overlap(cfg) -> dict:
    """End-to-end TCP iterations with the background sender off vs on."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(cfg["n"], cfg["D"]))
    Z, _ = init_codes_pca(X, cfg["L"], subset=min(1000, cfg["n"]), rng=0)
    t_off, finals_off, _ = _overlap_run(cfg, X, Z, overlap_send=False)
    t_on, finals_on, last = _overlap_run(cfg, X, Z, overlap_send=True)
    assert last.extra["overlap_send"] is True
    bit_identical = all(
        np.array_equal(theta, finals_on[sid]) for sid, theta in finals_off.items()
    )
    assert bit_identical, "overlap_send changed the learned parameters"
    return {
        "config": {k: v for k, v in cfg.items()},
        "iteration_s_serial": t_off,
        "iteration_s_overlap": t_on,
        "iteration_speedup": t_off / t_on,
        "bit_identical": bit_identical,
    }


def measure(cfgs) -> dict:
    return {
        "alternate": measure_alternate(cfgs["alt"]),
        "net": measure_net(cfgs["net"]),
        "overlap": measure_overlap(cfgs["overlap"]),
    }


def report_lines(results) -> list:
    alt, net = results["alternate"], results["net"]
    ov = results["overlap"]
    a_cfg, o_cfg = alt["config"], ov["config"]
    return [
        "=" * 72,
        f"Stacked Z step (BA alternate: n={a_cfg['n']}, D={a_cfg['D']}, "
        f"L={a_cfg['L']}; shared relaxed Z0)",
        f"  legacy  alternate : {alt['legacy_s'] * 1e3:8.1f} ms",
        f"  stacked alternate : {alt['stacked_s'] * 1e3:8.1f} ms",
        f"  speedup           : {alt['speedup']:8.2f}x   (bit-identical)",
        f"  net z_step        : {net['speedup']:8.2f}x   "
        f"(dims={net['config']['dims']}, vs reference, bit-identical)",
        f"Overlapped ring sends (tcp engine: N={o_cfg['n']}, L={o_cfg['L']} "
        f"-> M={2 * o_cfg['L']}, P={o_cfg['P']}, e=2)",
        f"  iteration serial  : {ov['iteration_s_serial'] * 1e3:8.1f} ms",
        f"  iteration overlap : {ov['iteration_s_overlap'] * 1e3:8.1f} ms",
        f"  speedup           : {ov['iteration_speedup']:8.2f}x   "
        f"(bit-identical)",
    ]


def test_zstep_stacked_speedup(benchmark, report):
    """Pytest entry: smoke-size run with the >= 3x acceptance assertion."""
    results = benchmark.pedantic(lambda: measure(SMOKE), rounds=1, iterations=1)
    report()
    for line in report_lines(results):
        report(line)
    write_bench_json("zstep", results, merge=True)
    assert results["alternate"]["speedup"] >= 3.0
    assert results["alternate"]["bit_identical"]
    assert results["net"]["bit_identical"]
    assert results["overlap"]["bit_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small problem sizes (nightly CI lane)",
    )
    parser.add_argument(
        "--out", default=None,
        help="directory for BENCH_zstep.json (default: benchmarks/)",
    )
    args = parser.parse_args(argv)
    results = measure(SMOKE if args.smoke else FULL)
    for line in report_lines(results):
        print(line)
    path = write_bench_json("zstep", results, directory=args.out, merge=True)
    print(f"wrote {path}")
    if results["alternate"]["speedup"] < 3.0:
        print("FAIL: stacked alternating Z step below the 3x acceptance floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
