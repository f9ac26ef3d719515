"""Ablation (section 4.2) — e communication rounds vs the 2-round W step.

Running the e epochs consecutively inside each machine cuts communication
from e+1 to 2 full-model rounds at the cost of less cross-machine
shuffling, which "should not be a problem if the data are randomly
distributed over machines". The bench compares communication volume,
virtual-clock W time and final E_Q of the two schemes at e = 4.
"""


from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.data.synthetic import make_gist_like
from repro.distributed.costmodel import CostModel
from repro.utils.ascii_plot import ascii_table

from conftest import standardised

N, D, L, P, E = 2000, 64, 16, 8, 4
SCHEDULE = GeometricSchedule(5e-3, 1.5, 12)


def run_scheme(X, scheme):
    adapter = BAAdapter(BinaryAutoencoder.linear(D, L))
    trainer = ParMACTrainer(
        adapter, SCHEDULE, epochs=E, scheme=scheme, backend="sync",
        cost=CostModel(t_wr=1.0, t_wc=300.0, t_zr=2.0),
        stop_on_fixed_point=True, seed=0,
    )
    history = trainer.fit(build_ba_shards(adapter, X, n_machines=P, seed=0))
    last = history.records[-1]
    return {
        "e_q": last.e_q,
        "comm_time": sum(r.extra["comm_time"] for r in history.records),
        "bytes": sum(r.extra["bytes_sent"] for r in history.records),
        "w_time": sum(r.extra["w_sim_time"] for r in history.records),
    }


def test_ablation_tworound(benchmark, report):
    X = standardised(make_gist_like(N, D, n_clusters=8, rng=3))
    results = benchmark.pedantic(
        lambda: {s: run_scheme(X, s) for s in ("rounds", "tworound")},
        rounds=1, iterations=1,
    )

    report()
    report("=" * 72)
    report(f"Ablation: W-step scheme, e={E}, P={P} "
           f"(rounds: e+1={E+1} comm rounds; tworound: 2)")
    rows = [
        [s, round(r["e_q"], 1), round(r["comm_time"], 0),
         r["bytes"], round(r["w_time"], 0)]
        for s, r in results.items()
    ]
    report(ascii_table(
        ["scheme", "final E_Q", "total comm time", "bytes sent",
         "total W sim time"], rows))

    rounds, two = results["rounds"], results["tworound"]
    # Communication volume drops by ~(e+1)/2.
    assert two["bytes"] < rounds["bytes"] * 0.5
    assert two["comm_time"] < rounds["comm_time"] * 0.5
    assert two["w_time"] < rounds["w_time"]
    # Learning quality is preserved (within a modest factor).
    assert two["e_q"] <= rounds["e_q"] * 1.3
