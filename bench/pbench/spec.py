"""Workload specifications and the metric tables of the repo benchmark.

Everything a run's numbers depend on is a constant in this file: sizes,
engines, knobs, rates, schedules and the frozen E_Q targets. Changing any
of them changes what the benchmark measures, so such a change is its own
PR and the baseline is measured again after it.

A *workload* is a pipeline of two phases, because the driver contract
wants every end-to-end metric from every workload: a training phase (one
of ``train_z16_mp`` / ``train_w32_tcp``) followed by a serving phase (one
of ``serve_read_1m`` / ``serve_rw_sharded``). The four phases are the
four workloads ISSUE 13 names; the pairing keeps each of them intact and
keeps the "one exercises the mechanism, one bypasses it" property between
the two pipelines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

__all__ = [
    "NAME_RE",
    "TrainSpec",
    "ServeSpec",
    "Workload",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "check_name",
    "resolve",
]

#: Metric and workload names: what the driver contract accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Seconds one run spends inside measured windows (``--seconds`` default).
RUN_SECONDS = 30


def check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise ValueError(f"illegal metric/workload name {name!r}")
    return name


@dataclass(frozen=True)
class TrainSpec:
    """One ParMAC fit: data shape, engine, knobs, schedule, target."""

    name: str
    n: int                # training rows (the only size that may shrink)
    dim: int
    n_bits: int
    n_clusters: int
    engine: str
    n_machines: int
    epochs: int
    shuffle_within: bool
    mu0: float
    factor: float
    n_iters: int
    #: Relative tolerance of the per-iteration E_Q comparison against the
    #: in-process ``sync`` engine: 1e-9 where the determinism contract
    #: holds (``shuffle_within=False``). With per-unit shuffling every
    #: engine draws its own minibatch orders, and at N=2000 the final E_Q
    #: of ``multiprocess`` and ``sync`` differed by -4 % .. +14 % over
    #: seeds 100-109; there the sync comparison only catches a broken
    #: fit, and the bit-level check is repeat against repeat.
    oracle_rtol: float
    #: ``target_e_q`` for a seed without a frozen value:
    #: ``target_slack`` x the sync engine's E_Q at the last scheduled
    #: iteration, taken from the oracle fit of the same run.
    target_slack: float
    #: ``target_e_q`` frozen in this PR for seeds 0-2 at the committed
    #: size: 1.02 x the E_Q at the last scheduled iteration, of the sync
    #: engine where engines agree bit for bit, of the engine itself where
    #: they do not (it is deterministic per seed).
    target_e_q: tuple[tuple[int, float], ...] = ()
    #: Fraction of a run's measured seconds given to measured fits.
    share: float = 0.25
    min_repeats: int = 3

    def frozen_target(self, seed: int) -> float | None:
        return dict(self.target_e_q).get(seed)


@dataclass(frozen=True)
class ServeSpec:
    """One serving phase: index shape, service knobs, load."""

    name: str
    n_base: int           # base rows (the only size that may shrink)
    dim: int
    n_bits: int
    n_clusters: int
    n_shards: int         # 1 = flat HammingIndex
    k: int
    max_wait_ms: float
    max_batch: int
    rate_qps: float       # open-loop Poisson rate
    sat_outstanding: int  # closed-loop tickets in flight
    add_rows: int         # rows per ``service.add`` block
    add_every_s: float    # writer period during the open loop; 0 = the
                          # adds run alone after the read phases
    add_blocks_idle: int  # blocks added when add_every_s == 0
    sat_share: float = 0.20
    open_share: float = 0.55
    oracle_samples: int = 200
    slo_rates: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0)
    slo_p99_ms: float = 50.0
    slo_seconds: float = 2.5
    #: Generator lateness (p99) above which a run's JSON flags the open
    #: loop as not having offered its schedule. Reported, not counted as
    #: a failure: on the sandbox it is the host's doing (see README).
    max_lag_ms_p99: float = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: TrainSpec
    serve: ServeSpec


TRAIN_Z16_MP = TrainSpec(
    name="train_z16_mp",
    n=2000, dim=128, n_bits=16, n_clusters=8,
    engine="multiprocess", n_machines=2, epochs=1, shuffle_within=True,
    mu0=1e-3, factor=2.0, n_iters=5,
    oracle_rtol=0.25, target_slack=1.25,
    target_e_q=((0, 23369.4), (1, 28977.1), (2, 25111.9)),
)

TRAIN_W32_TCP = TrainSpec(
    name="train_w32_tcp",
    n=4000, dim=960, n_bits=32, n_clusters=10,
    engine="tcp", n_machines=2, epochs=2, shuffle_within=False,
    mu0=1e-3, factor=2.0, n_iters=12,
    oracle_rtol=1e-9, target_slack=1.02,
    target_e_q=((0, 57314.4), (1, 54927.0), (2, 59834.0)),
)

SERVE_READ_1M = ServeSpec(
    name="serve_read_1m",
    n_base=1_000_000, dim=64, n_bits=64, n_clusters=64,
    n_shards=1, k=10, max_wait_ms=2.0, max_batch=64,
    rate_qps=100.0, sat_outstanding=128,
    add_rows=2000, add_every_s=0.0, add_blocks_idle=40,
)

SERVE_RW_SHARDED = ServeSpec(
    name="serve_rw_sharded",
    n_base=1_000_000, dim=64, n_bits=64, n_clusters=64,
    n_shards=2, k=10, max_wait_ms=2.0, max_batch=64,
    rate_qps=25.0, sat_outstanding=128,
    add_rows=2000, add_every_s=0.25, add_blocks_idle=0,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "z16mp_read1m",
            "Z-step-bound fit (L=16 enumeration, multiprocess ring, per-unit W), then "
            "read-only serving from a flat 1M-code index: Z-step, shm, pool, scan and "
            "batcher changes show here",
            TRAIN_Z16_MP,
            SERVE_READ_1M,
        ),
        Workload(
            "w32tcp_rwsharded",
            "W-step-bound fit (L=32 alternating Z, tcp ring, batched W), then reads under "
            "ingest on a 2-shard index: framing, ring, merge and add/search lock changes "
            "show here, a Z-step change must not",
            TRAIN_W32_TCP,
            SERVE_RW_SHARDED,
        ),
    )
}

# --------------------------------------------------------------- metrics
# (name, unit, better, bound). A bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("time_to_eq_s", "s", "lower", 0.20),
    ("p50_ms", "ms", "lower", 0.25),
    ("sat_qps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# (name, unit, better). No bounds: these explain, they do not gate.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # in situ, training
    ("backend.setup_s", "s", "lower"),
    ("backend.teardown_s", "s", "lower"),
    ("backend.iter_s", "s", "lower"),
    ("backend.w_s", "s", "lower"),
    ("backend.z_s", "s", "lower"),
    ("backend.coord_s", "s", "lower"),
    ("backend.w_share", "share", "lower"),
    ("backend.z_share", "share", "lower"),
    ("backend.coord_share", "share", "lower"),
    ("ring.bytes_per_iter", "B", "lower"),
    ("ring.hops_per_iter", "count", "lower"),
    ("ring.frames_per_iter", "count", "lower"),
    ("ring.payload_share", "share", "higher"),
    ("fit.iters_to_target", "count", "lower"),
    ("fit.final_e_q", "E_Q", "lower"),
    ("fit.final_e_ba", "E_BA", "lower"),
    ("fit.z_changes", "count", "lower"),
    ("fit.oracle_match", "share", "higher"),
    ("fit.cold_s", "s", "lower"),
    ("fit.serial_s", "s", "lower"),
    ("fit.speedup_vs_serial", "x", "higher"),
    ("proc.worker_rss_mb", "MB", "lower"),
    ("proc.coord_rss_mb", "MB", "lower"),
    # in situ, serving
    ("service.build_s", "s", "lower"),
    # demoted from end to end: spread across runs wider than any bound
    ("p95_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("add_p50_ms", "ms", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.ok", "count", "higher"),
    ("loadgen.refused", "count", "lower"),
    ("loadgen.partial", "count", "lower"),
    ("loadgen.wrong", "count", "lower"),
    ("service.batches", "count", "lower"),
    ("service.mean_batch", "count", "higher"),
    ("service.encode_s", "s", "lower"),
    ("service.scan_s", "s", "lower"),
    ("service.scan_share", "share", "higher"),
    ("service.busy_share", "share", "lower"),
    ("service.slo_qps", "1/s", "higher"),
    ("index.search_ms_p50", "ms", "lower"),
    ("index.search_ms_p99", "ms", "lower"),
    ("index.search_calls", "count", "lower"),
    ("index.ns_per_code", "ns", "lower"),
    ("encoder.encode_ms_p50", "ms", "lower"),
    ("index.add_ms_p50", "ms", "lower"),
    ("index.add_calls", "count", "higher"),
    # ladder: direct timed calls, each printed beside its floor
    ("floor.memcpy_gbps", "GB/s", "higher"),
    ("floor.stream_gbps", "GB/s", "higher"),
    ("floor.gemm_gflops", "GFLOP/s", "higher"),
    ("framing.encode_gbps", "GB/s", "higher"),
    ("framing.decode_gbps", "GB/s", "higher"),
    ("framing.roundtrip_us_per_msg", "us", "lower"),
    ("mp.hop_us", "us", "lower"),
    ("tcp.hop_us", "us", "lower"),
    ("mp.setup_s_per_gb", "s/GB", "lower"),
    ("tcp.setup_s_per_gb", "s/GB", "lower"),
    ("wstep.batch_rows_per_s", "1/s", "higher"),
    ("wstep.unit_rows_per_s", "1/s", "higher"),
    ("wstep.batch_gemm_share", "share", "higher"),
    ("zstep.enum_ns_per_code", "ns", "lower"),
    ("zstep.enum_peak_mb", "MB", "lower"),
    ("zstep.alt_us_per_row", "us", "lower"),
    ("hamming.pack_mrows_per_s", "M/s", "higher"),
    ("index.scan_ns_per_code.q1", "ns", "lower"),
    ("index.scan_ns_per_code.q64", "ns", "lower"),
    ("index.scan_floor_ns_per_code", "ns", "lower"),
    ("index.merge_us_per_query", "us", "lower"),
    ("index.flat_search_ms", "ms", "lower"),
    ("index.shard_search_ms.thread", "ms", "lower"),
    ("index.shard_search_ms.process", "ms", "lower"),
    ("service.batcher_overhead_us", "us", "lower"),
    ("sim.pred_ratio", "x", "higher"),
    ("trace.overhead_share.train", "share", "lower"),
    ("trace.overhead_share.serve", "share", "lower"),
)

for _name, *_ in END_TO_END + PER_LAYER:
    check_name(_name)
for _name in WORKLOADS:
    check_name(_name)


def resolve(name: str, *, smoke: bool = False) -> Workload:
    """The workload to run; ``smoke`` shrinks N and n_base only."""
    try:
        w = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    if not smoke:
        return w
    return replace(
        w,
        # 200 rows leave SGD noise of a few percent between engines.
        train=replace(w.train, n=200, min_repeats=1, target_slack=max(w.train.target_slack, 1.10)),
        serve=replace(
            w.serve, n_base=20_000, oracle_samples=50, slo_seconds=0.3,
            add_blocks_idle=min(w.serve.add_blocks_idle, 3),
        ),
    )
