"""Wire cost of the TCP ring: framed bytes, hops and frames.

The paper's speedup model charges each W step M x (e+1) ring traversals
of communication; what that costs in practice depends on how the
messages hit the wire. This bench trains a BA over real sockets and
reports, per MAC iteration, the measured hop and frame counts, wire bytes (headers included) and raw payload
bytes — the numbers `IterationStats` now surfaces so the perfmodel's
first-principles predictions (MLSYSIM-style) can be validated against
an actual socket transport.

The transport coalesces the messages a worker owes one successor into
one frame, so frames (syscalls, latency opportunities) must come out
well below hops — roughly by the number of submodels resident per
machine.

The dtype sweep measures the other wire lever: casting submodel
parameters to ``message_dtype`` before framing (paper section 9,
"reduced-precision values ... with little effect on the accuracy").
Per dtype it reports bytes per hop and the E_Q drift against the
full-precision wire, and merges the section into ``BENCH_zstep.json``
next to the stacked-kernel numbers.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import write_bench_json  # noqa: E402  (shared bench helper)

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.data.synthetic import make_gist_like
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices
from repro.utils.ascii_plot import ascii_table

N, D, L, P = 3_000, 48, 16, 4
MUS = [1e-3, 2e-3, 4e-3]


def run(X, Z, *, message_dtype=None):
    ba = BinaryAutoencoder.linear(D, L)
    adapter = BAAdapter(ba)
    parts = partition_indices(len(X), P, rng=0)
    shards = make_shards(X, adapter.features(X), Z, parts)
    with get_backend("tcp")(
        epochs=2, batch_size=100, seed=0, shuffle_within=False,
        message_dtype=message_dtype,
    ) as backend:
        backend.setup(adapter, shards)
        results = [backend.run_iteration(mu) for mu in MUS]
    finals = {s.sid: adapter.get_params(s).copy() for s in adapter.submodel_specs()}
    return results, finals


def test_tcp_wire_cost(benchmark, report):
    X = make_gist_like(N, D, n_clusters=6, rng=5)
    Z, _ = init_codes_pca(X, L, subset=1000, rng=0)

    results, _ = benchmark.pedantic(lambda: run(X, Z), rounds=1, iterations=1)

    report()
    report("=" * 72)
    report(f"TCP ring wire cost per MAC iteration "
           f"(N={N}, D={D}, L={L} -> M={2*L}, P={P}, e=2)")
    hops = np.mean([r.hops for r in results])
    frames = np.mean([r.extra["frames"] for r in results])
    wire = np.mean([r.bytes_sent for r in results])
    payload = np.mean([r.extra["payload_bytes"] for r in results])
    report(ascii_table(
        ["hops", "frames", "msgs/frame", "wire B", "payload B", "overhead x"],
        [[int(hops), int(frames), round(hops / frames, 1), int(wire),
          int(payload), round(wire / payload, 3)]]))

    # Hops are fixed by the counter protocol; frames strictly coalesce.
    assert all(r.extra["frames"] < r.hops for r in results)
    # Framing overhead stays small next to the payload.
    assert all(r.bytes_sent < 1.25 * r.extra["payload_bytes"] for r in results)


def test_tcp_wire_dtype_sweep(benchmark, report):
    """Message-dtype sweep: bytes/hop shrink with the wire width while the
    E_Q drift stays small (section 9's reduced-precision claim)."""
    X = make_gist_like(N, D, n_clusters=6, rng=5)
    Z, _ = init_codes_pca(X, L, subset=1000, rng=0)
    dtypes = [None, "float32", "float16"]

    def run_sweep():
        return {dt: run(X, Z, message_dtype=dt) for dt in dtypes}

    runs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report()
    report("=" * 72)
    report(f"TCP wire dtype sweep (N={N}, D={D}, L={L} -> M={2*L}, P={P}, e=2)")
    base_eq = runs[None][0][-1].e_q
    sweep = {}
    rows = []
    for dt, (results, _) in runs.items():
        last = results[-1]
        bph = np.mean([r.bytes_sent / r.hops for r in results])
        drift = abs(last.e_q - base_eq) / abs(base_eq)
        sweep[dt or "float64"] = {
            "bytes_per_hop": float(bph),
            "e_q": float(last.e_q),
            "e_q_rel_drift": float(drift),
        }
        rows.append([dt or "float64", int(bph), round(last.e_q, 5),
                     f"{drift:.2e}"])
    report(ascii_table(["wire dtype", "bytes/hop", "E_Q", "E_Q drift"], rows))
    write_bench_json("zstep", {"wire_dtypes": sweep}, merge=True)

    # Halving the wire width must actually halve the dominant payload...
    assert sweep["float32"]["bytes_per_hop"] < 0.6 * sweep["float64"]["bytes_per_hop"]
    assert sweep["float16"]["bytes_per_hop"] < 0.6 * sweep["float32"]["bytes_per_hop"]
    # ...while the objective barely moves (float16 gets a looser rein).
    assert sweep["float32"]["e_q_rel_drift"] < 1e-3
    assert sweep["float16"]["e_q_rel_drift"] < 1e-1
