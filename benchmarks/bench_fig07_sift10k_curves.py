"""Fig. 7 — SIFT-10K learning curves: epochs and machines.

Left columns of the figure: single machine, e in {1, 2, 4, 8} — more
epochs solve the W step more exactly, so E_Q(e=8) <= E_Q(e=1), but "fewer
epochs, even just one, cause only a small degradation". Right columns:
fixed e, P in {1, 8, 16, 32} — varying P only changes the minibatch
visiting order, so the curves jitter around the P = 1 curve without
systematic degradation.

Workload substitution: synthetic SIFT-like cloud (scaled down to N = 3000,
D = 64 for CI), standardised features, the paper's mu schedule family
(mu0 = 1e-6, a = 2, 20 iterations) and its precision protocol
(K, k) = (100, 100) scaled to the base size.
"""

import pytest

from repro.core.evaluation import PrecisionEvaluator
from repro.core.penalty import GeometricSchedule
from repro.data.synthetic import make_sift_like
from repro.utils.ascii_plot import ascii_table

from conftest import run_learning_curve, standardised

N, D, L = 3000, 64, 16
SCHEDULE = GeometricSchedule(mu0=1e-4, factor=2.0, n_iters=20)


@pytest.fixture(scope="module")
def workload():
    cloud = standardised(make_sift_like(N + 100, D, n_clusters=12, rng=0))
    X, Q = cloud[:N], cloud[N:]
    ev = PrecisionEvaluator(Q, X, K=100, k=100)
    return X, ev


def test_fig07_epochs_effect(benchmark, report, workload):
    X, ev = workload
    epochs_list = [1, 2, 8]

    def run_all():
        return {
            e: run_learning_curve(X, L, SCHEDULE, epochs=e, evaluator=ev)[1]
            for e in epochs_list
        }

    hists = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report()
    report("=" * 72)
    report("Figure 7 (left): SIFT-10K stand-in, P=1, epochs e in {1,2,8}")
    rows = []
    for i in range(0, 20, 4):
        rows.append([i] + [round(hists[e].e_q[i], 1) for e in epochs_list]
                    + [round(hists[e].precision[i], 4) for e in epochs_list])
    rows.append(["last"] + [round(hists[e].e_q[-1], 1) for e in epochs_list]
                + [round(hists[e].precision[-1], 4) for e in epochs_list])
    report(ascii_table(
        ["iter"] + [f"E_Q e={e}" for e in epochs_list]
        + [f"prec e={e}" for e in epochs_list], rows))

    report("  NOTE: on this synthetic cloud the tPCA initialisation is already")
    report("  near neighbour-optimal, so precision settles slightly below its")
    report("  starting value while E_Q/E_BA improve (deviation from the paper's")
    report("  real-image curves). Early stopping recovers")
    report("  the best iterate, as in the paper.")

    # More epochs -> W step solved more exactly -> final E_Q no worse.
    assert hists[8].e_q[-1] <= hists[1].e_q[-1] * 1.10
    # "Fewer epochs, even just one, cause only a small degradation."
    assert hists[1].e_q[-1] <= hists[8].e_q[-1] * 1.6
    # E_Q decreases substantially over the run for every e.
    for e in epochs_list:
        assert hists[e].e_q[-1] < hists[e].e_q[0]
    # Precision stays in a stable band (no collapse) for every e.
    for e in epochs_list:
        assert hists[e].precision[-1] >= hists[e].precision[0] * 0.6


def test_fig07_machines_effect(benchmark, report, workload):
    X, ev = workload
    Ps = [1, 8, 32]

    def run_all():
        return {
            P: run_learning_curve(X, L, SCHEDULE, n_machines=P, epochs=1,
                                  evaluator=ev)[1]
            for P in Ps
        }

    hists = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report()
    report("Figure 7 (right): fixed e=1, machines P in {1,8,32}")
    rows = []
    for i in range(0, 20, 4):
        rows.append([i] + [round(hists[P].e_q[i], 1) for P in Ps])
    rows.append(["last"] + [round(hists[P].e_q[-1], 1) for P in Ps])
    report(ascii_table(["iter"] + [f"E_Q P={P}" for P in Ps], rows))
    report("  final precision: " + "  ".join(
        f"P={P}: {hists[P].precision[-1]:.4f}" for P in Ps))

    # P > 1 jitters but does not systematically degrade the learning curve.
    finals = [hists[P].e_q[-1] for P in Ps]
    assert max(finals) <= min(finals) * 1.5
    precs = [hists[P].precision[-1] for P in Ps]
    assert max(precs) - min(precs) < 0.15
