"""Shared benchmark fixtures and helpers.

Every bench prints the rows/series of the table or figure it regenerates
(visible in bench_output.txt via capsys.disabled) and times a
representative kernel with pytest-benchmark. Benches with a headline
number additionally write a machine-readable ``BENCH_<name>.json``
summary via :func:`write_bench_json`, so the nightly lane (and future
perf-trajectory tooling) can diff runs without scraping tables.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest


def write_bench_json(name: str, payload: dict, directory=None, *,
                     merge: bool = False) -> Path:
    """Write one bench's machine-readable summary to ``BENCH_<name>.json``.

    The default destination is this benchmarks/ directory; set the
    ``BENCH_JSON_DIR`` environment variable (or pass ``directory``) to
    redirect, e.g. to a CI artefact folder. Values are coerced through
    ``float`` when not JSON-native, so numpy scalars are fine.

    ``merge=True`` folds ``payload``'s top-level keys into an existing
    ``BENCH_<name>.json`` instead of replacing the file — used when
    several benches contribute sections to one summary (e.g. the wire
    dtype sweep adding to ``BENCH_zstep.json``). Corrupt or unreadable
    existing files are overwritten rather than fatal.
    """
    directory = Path(
        directory or os.environ.get("BENCH_JSON_DIR") or Path(__file__).parent
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    if merge and path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
        if isinstance(existing, dict):
            payload = {**existing, **payload}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    )
    return path

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend
from repro.distributed.costmodel import CostModel
from repro.distributed.partition import TimingShard


@pytest.fixture()
def report(capsys):
    """Print through pytest's capture so the output lands in the log."""

    def _report(text=""):
        with capsys.disabled():
            print(text)

    return _report


def timing_cluster(N, n_bits, D, P, e, cost, *, engine="async", scheme="rounds",
                   n_decoder_groups=None):
    """Timing-only simulated cluster: real protocol, virtual clock, no math.

    The simulated backend itself, built through the registry — the same
    construction path as the generic trainer.
    """
    ba = BinaryAutoencoder.linear(D, n_bits)
    adapter = BAAdapter(ba, n_decoder_groups=n_decoder_groups)
    base, extra = divmod(N, P)
    shards = [TimingShard(base + (1 if p < extra else 0)) for p in range(P)]
    backend = get_backend(engine)(
        epochs=e, scheme=scheme, cost=cost, seed=0, execute_updates=False
    )
    backend.setup(adapter, shards)
    return backend


def measured_speedup(N, n_bits, D, Ps, e, cost, **kwargs):
    """Virtual-clock iteration-time speedups S(P) = T(1)/T(P)."""

    def one(P):
        cluster = timing_cluster(N, n_bits, D, P, e, cost, **kwargs)
        w = cluster.w_step(0.0)
        z = cluster.z_step(0.0)
        return w.sim_time + z.sim_time

    T1 = one(1)
    return np.array([T1 / one(P) for P in Ps])


def standardised(X):
    """Zero-mean unit-variance features (keeps the paper's mu scales usable
    on synthetic data of arbitrary magnitude)."""
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - mu) / sd


@pytest.fixture(scope="session")
def sift1b_models():
    """Scaled SIFT-1B stand-in with trained linear and RBF BAs.

    Shared by the fig. 11 / fig. 12 / section-8.4-table benches so the
    (expensive) training happens once per session. N is scaled from 10^8
    to 4000; L = 32 (the paper uses 64); RBF uses 300 centres (paper: 2000).
    """
    from repro.core.evaluation import RecallEvaluator
    from repro.core.penalty import GeometricSchedule
    from repro.data.synthetic import make_sift_like
    from repro.retrieval.baselines import TruncatedPCAHash

    N, D, L = 4000, 64, 32
    cloud = standardised(make_sift_like(N + 100, D, n_clusters=15, rng=2))
    X, Q = cloud[:N], cloud[N:]
    ev = RecallEvaluator(Q, X, R=10)
    schedule = GeometricSchedule(mu0=1e-3, factor=2.0, n_iters=10)

    tpca = TruncatedPCAHash(L).fit(X, subset=1000, rng=0)

    def serial_mac(ba):
        # Serial MAC (fig. 1): the fit loop on one shard, exact decoder.
        adapter = BAAdapter(ba, decoder_exact=True)
        trainer = ParMACTrainer(adapter, schedule, epochs=2, evaluator=ev,
                                stop_on_fixed_point=True, seed=0)
        return trainer.fit(build_ba_shards(adapter, X, n_machines=1, seed=0))

    ba_lin = BinaryAutoencoder.linear(D, L)
    hist_lin = serial_mac(ba_lin)

    ba_rbf = BinaryAutoencoder.rbf(X, n_centres=300, n_bits=L, rng=0)
    hist_rbf = serial_mac(ba_rbf)

    return {
        "X": X, "Q": Q, "ev": ev, "L": L, "D": D,
        "tpca": tpca,
        "linear": (ba_lin, hist_lin),
        "rbf": (ba_rbf, hist_rbf),
    }


def run_learning_curve(X, n_bits, schedule, *, n_machines=1, epochs=1,
                       evaluator=None, shuffle_within=True, shuffle_ring=False,
                       seed=0):
    """Train a linear BA with ParMAC and return its TrainingHistory.

    Uses the sync engine (deterministic) with a pure-compute cost model so
    the time axis is SGD work; this is the workhorse for the fig. 7-9
    learning-curve benches.
    """
    ba = BinaryAutoencoder.linear(X.shape[1], n_bits)
    adapter = BAAdapter(ba)
    trainer = ParMACTrainer(
        adapter,
        schedule,
        epochs=epochs,
        backend="sync",
        batch_size=100,
        shuffle_within=shuffle_within,
        shuffle_ring=shuffle_ring,
        cost=CostModel(t_wr=1.0, t_wc=0.0, t_zr=1.0),
        evaluator=evaluator,
        stop_on_fixed_point=True,
        seed=seed,
    )
    history = trainer.fit(build_ba_shards(adapter, X, n_machines=n_machines, seed=seed))
    return ba, history
