"""Distributed ParMAC: simulated rings vs real wall-clock rings.

Trains the same binary autoencoder five ways —

* serially (P = 1 reference),
* on the in-process simulated cluster (virtual clock; what the speedup
  analysis measures), with both the sync and async engines,
* on real OS processes connected by unix sockets (the same framed ring),
* on real OS processes connected by TCP sockets, submodels travelling
  as length-prefixed framed batches (the closest single-host stand-in
  for the paper's MPI deployment) —

and reports learning quality and timing for each, the measured wire
cost of the socket ring, plus the theoretical speedup the section-5
model predicts for the configuration.

Run:  python examples/distributed_training.py
"""


from repro import (
    BAAdapter,
    BinaryAutoencoder,
    CostModel,
    GeometricSchedule,
    ParMACTrainer,
    available_backends,
    build_ba_shards,
)
from repro.data.synthetic import make_gist_like
from repro.perfmodel.speedup import SpeedupParams, speedup


def main():
    n, dim, n_bits, P, epochs = 6000, 64, 16, 8, 2
    X = make_gist_like(n, dim, n_clusters=8, rng=0)
    schedule = GeometricSchedule(mu0=5e-3, factor=1.5, n_iters=10)
    cost = CostModel(t_wr=1.0, t_wc=200.0, t_zr=5.0)

    print(f"workload: N={n}, D={dim}, L={n_bits} -> M=2L={2*n_bits} submodels")
    print(f"cluster: P={P} machines, e={epochs} epochs/W-step")
    print(f"registered execution backends: {available_backends()}\n")

    runs = {}
    for label, kwargs in [
        ("serial (P=1)", dict(n_machines=1, backend="sync")),
        ("simulated ring", dict(n_machines=P, backend="sync", cost=cost)),
        ("async ring", dict(n_machines=P, backend="async", cost=cost)),
        ("multiprocessing", dict(n_machines=P, backend="multiprocess")),
        ("tcp sockets", dict(n_machines=P, backend="tcp")),
    ]:
        ba = BinaryAutoencoder.linear(dim, n_bits)
        # This demo is about the execution backends; pin the alternating
        # Z solver so the L=16 runs don't spend their time enumerating
        # 2^16 codes per iteration (auto dispatch would, exactly).
        adapter = BAAdapter(ba, zstep_method="alternate")
        shards = build_ba_shards(adapter, X, n_machines=kwargs.pop("n_machines"), seed=0)
        with ParMACTrainer(adapter, schedule, epochs=epochs, seed=0,
                           stop_on_fixed_point=True, **kwargs) as trainer:
            history = trainer.fit(shards)
        runs[label] = (ba, history)
        wallclock = label in ("multiprocessing", "tcp sockets")
        unit = "s wall" if wallclock else "virt units"
        print(f"{label:>16}: final E_BA = {history.e_ba[-1]:10.0f}   "
              f"total time = {history.total_time:12.1f} {unit}")

    tcp_rec = runs["tcp sockets"][1].records[-1]
    print(f"\ntcp wire cost per MAC iteration: "
          f"{tcp_rec.extra['hops']} hops in {tcp_rec.extra['frames']} framed "
          f"batches, {tcp_rec.extra['bytes_sent']:,} B on the wire "
          f"({tcp_rec.extra['payload_bytes']:,} B of parameters)")

    params = SpeedupParams(N=n, M=2 * n_bits, e=epochs,
                           t_wr=cost.t_wr, t_wc=cost.t_wc, t_zr=cost.t_zr)
    predicted = float(speedup(P, params))
    t1 = runs["serial (P=1)"][1].total_time
    tp = runs["simulated ring"][1].total_time
    # The serial run used a no-comm cost model; recompute its virtual time
    # under the same constants for a fair ratio.
    serial_virtual = (params.M * n * epochs * params.t_wr
                      + params.M * n * params.t_zr) * len(schedule)
    print(f"\nvirtual-clock speedup at P={P}: "
          f"{serial_virtual / tp:.1f} measured vs {predicted:.1f} predicted "
          f"by the section-5 model")

    print("\nall five runs should reach similar E_BA: the distributed W step")
    print("is just SGD with a different minibatch visiting order.")


if __name__ == "__main__":
    main()
