"""The layer ladder: direct timed calls to each layer's public functions.

Every rung is printed beside a first-principles floor (bytes moved over
measured memory bandwidth, FLOPs over measured GEMM rate), the MLSYSIM
move: a rung far above its floor is where an optimisation has room, a
rung at its floor is done. Floors are best-of-n (they are limits);
rungs are medians.

The rungs that fork worker processes (``forking_rungs``) must run while
the coordinator has no threads, i.e. before the serving phase.
"""

from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.zstep import zstep_alternate, zstep_enumerate
from repro.distributed.backends import get_backend
from repro.distributed.costmodel import CostModel
from repro.distributed.framing import FrameDecoder, decode_batch, encode_batch
from repro.distributed.messages import SubmodelMessage
from repro.distributed.partition import Shard
from repro.optim.sgd import SGDState
from repro.retrieval.hamming import pack_bits
from repro.serve import (
    HammingIndex,
    RetrievalService,
    ShardedHammingIndex,
    hamming_topk,
    merge_topk,
)

from . import stats
from .spec import TrainSpec

__all__ = ["Ladder", "floors", "forking_rungs", "compute_rungs", "serving_rungs",
           "fit_cost_model"]

_BUDGET_S = 0.25   # per rung
_MIN_REPS = 3
_SCAN_CODES = 1_000_000
_ENUM_ROWS = 128      # rows of the enumeration rung (peak MB scales with it)


def _times(fn, *, budget: float = _BUDGET_S, min_reps: int = _MIN_REPS) -> list[float]:
    """Wall seconds of repeated ``fn()`` calls after one discarded call."""
    fn()
    out = []
    end = time.perf_counter() + budget
    while len(out) < min_reps or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


class Ladder:
    """Rung values plus, for the printed table, each rung's floor."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.floor_of: dict[str, tuple[float, str]] = {}

    def put(self, name: str, value: float, floor: float | None = None, note: str = ""):
        self.values[name] = float(value)
        if floor is not None:
            self.floor_of[name] = (float(floor), note)


def floors(lad: Ladder) -> None:
    rng = np.random.default_rng(0)
    src = rng.integers(0, 2**63, size=8 << 20, dtype=np.uint64)  # 64 MiB
    dst = np.empty_like(src)
    t = min(_times(lambda: np.copyto(dst, src)))
    lad.put("floor.memcpy_gbps", src.nbytes / t / 1e9)
    t = min(_times(lambda: np.bitwise_or.reduce(src)))
    lad.put("floor.stream_gbps", src.nbytes / t / 1e9)
    A = rng.normal(size=(512, 512))
    B = rng.normal(size=(512, 512))
    t = min(_times(lambda: A @ B))
    lad.put("floor.gemm_gflops", 2 * 512**3 / t / 1e9)


# ------------------------------------------------------------ ring / pool
def _tiny_shards(rng, n_rows: int, dim: int, n_bits: int, P: int, adapter):
    out = []
    for p in range(P):
        X = rng.normal(size=(n_rows, dim))
        Z = rng.integers(0, 2, size=(n_rows, n_bits), dtype=np.uint8)
        idx = np.arange(p * n_rows, (p + 1) * n_rows)
        out.append(Shard(X=X, F=adapter.features(X), Z=Z, indices=idx))
    return out


def forking_rungs(lad: Ladder) -> None:
    """Ring hop and shard-shipping cost of both wall-clock engines, and the
    process-mode shard scan. Forks; run before any thread exists."""
    rng = np.random.default_rng(1)
    dim, n_bits, P = 64, 32, 2
    for engine in ("multiprocess", "tcp"):
        key = "mp" if engine == "multiprocess" else "tcp"
        adapter = BAAdapter(BinaryAutoencoder.linear(dim, n_bits))
        backend = get_backend(engine)(epochs=2, shuffle_within=False, seed=0)
        try:
            # One iteration over 64-row shards: the W step is all hops.
            backend.setup(adapter, _tiny_shards(rng, 64, dim, n_bits, P, adapter))
            backend.run_iteration(1e-3)
            per_hop = []
            for _ in range(5):
                s = backend.run_iteration(1e-3)
                per_hop.append(s.extra["w_time"] / max(s.hops, 1))
            backend.teardown()
            lad.put(f"{key}.hop_us", stats.median(per_hop) * 1e6,
                    floor=s.bytes_sent / max(s.hops, 1) / (lad.values["floor.memcpy_gbps"] * 1e3),
                    note="bytes per hop / memcpy")
            # Shipping cost on the standing pool: a second setup with
            # 2 x 16 MiB of rows (X, F and Z all travel).
            big = _tiny_shards(rng, 16384, 64, n_bits, P, adapter)
            nbytes = sum(sh.X.nbytes + sh.F.nbytes + sh.Z.nbytes for sh in big)
            t0 = time.perf_counter()
            backend.setup(adapter, big)
            dt = time.perf_counter() - t0
            backend.teardown()
            lad.put(f"{key}.setup_s_per_gb", dt / (nbytes / 1e9),
                    floor=1.0 / lad.values["floor.memcpy_gbps"], note="one memcpy")
        finally:
            backend.close()

    codes = rng.integers(0, 2**63, size=(_SCAN_CODES, 1), dtype=np.uint64)
    q = rng.integers(0, 2**63, size=(64, 1), dtype=np.uint64)
    with ShardedHammingIndex(codes, 64, 2, mode="process") as index:
        t = stats.median(_times(lambda: index.search(q, 10)))
    lad.put("index.shard_search_ms.process", t * 1e3,
            floor=_scan_floor_ms(lad) / 2, note="half the flat floor")


# ------------------------------------------------------------ W and Z step
def compute_rungs(lad: Ladder, spec: TrainSpec) -> None:
    """W-step and Z-step kernels at this workload's feature width, and the
    framing codec on its convoy."""
    rng = np.random.default_rng(2)
    gflops = lad.values["floor.gemm_gflops"]
    dim, n_bits, n = spec.dim, spec.n_bits, 1000
    adapter = BAAdapter(BinaryAutoencoder.linear(dim, n_bits))
    X = rng.normal(size=(n, dim))
    shard = Shard(X=X, F=adapter.features(X),
                  Z=rng.integers(0, 2, size=(n, n_bits), dtype=np.uint8),
                  indices=np.arange(n))
    specs = adapter.submodel_specs()
    thetas = [adapter.get_params(s) for s in specs]
    by_kind = {
        kind: [i for i, s in enumerate(specs) if s.kind == kind] for kind in ("enc", "dec")
    }

    def unit_pass():
        for i, s in enumerate(specs):
            adapter.w_update(s, thetas[i], SGDState(), shard, 1e-3,
                             batch_size=100, shuffle=False, rng=None)

    def batch_pass():
        for idx in by_kind.values():
            adapter.w_update_batch([specs[i] for i in idx], [thetas[i] for i in idx],
                                   [SGDState() for _ in idx], shard, 1e-3,
                                   batch_size=100, shuffle=False, rng=None)

    submodel_rows = len(specs) * n
    # 4 n D FLOPs per encoder bit (scores + gradient), 4 n L per decoder
    # row: 8 n D L for one pass over every submodel.
    flops = 8.0 * n * dim * n_bits
    floor_rate = submodel_rows / (flops / (gflops * 1e9))
    t_unit = stats.median(_times(unit_pass))
    t_batch = stats.median(_times(batch_pass))
    lad.put("wstep.unit_rows_per_s", submodel_rows / t_unit, floor_rate, "FLOPs / GEMM rate")
    lad.put("wstep.batch_rows_per_s", submodel_rows / t_batch, floor_rate, "FLOPs / GEMM rate")
    lad.put("wstep.batch_gemm_share", (flops / (gflops * 1e9)) / t_batch, 1.0,
            "all time in GEMM")

    # Z step: exact enumeration at L=16 and the alternating solver at L=32,
    # both at this workload's D (the cost model uses the one the fit runs).
    dec16 = rng.normal(size=(dim, 16))
    c = rng.normal(size=dim)
    Xz = rng.normal(size=(_ENUM_ROWS, dim))
    H16 = rng.integers(0, 2, size=(_ENUM_ROWS, 16), dtype=np.uint8)
    t = stats.median(_times(lambda: zstep_enumerate(Xz, dec16, c, H16, 1e-3)))
    codes = _ENUM_ROWS * 2**16
    lad.put("zstep.enum_ns_per_code", t / codes * 1e9, 2 * 16 / gflops, "2L FLOPs per code")
    tracemalloc.start()
    zstep_enumerate(Xz, dec16, c, H16, 1e-3)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Two (rows, 2^L) float64 temporaries live at once.
    lad.put("zstep.enum_peak_mb", peak / 2**20, _ENUM_ROWS * 2**16 * 8 / 2**20,
            "one score matrix")
    dec32 = rng.normal(size=(dim, 32))
    H32 = rng.integers(0, 2, size=(n, 32), dtype=np.uint8)
    t = stats.median(_times(lambda: zstep_alternate(X, dec32, c, H32, 1e-3, H32)))
    lad.put("zstep.alt_us_per_row", t / n * 1e6, 2 * dim * 32 / gflops / 1e3,
            "one (x-c)B GEMM")

    # Framing on this workload's convoy: all encoder bits in one frame.
    msgs = [
        SubmodelMessage(specs[i], thetas[i], SGDState(t=3, n_updates=300), counter=2,
                        epochs_left=1)
        for i in by_kind["enc"]
    ]
    spec_by_sid = {s.sid: s for s in specs}
    frame = encode_batch(msgs)

    def decode():
        (_, payload), = FrameDecoder().feed(frame)
        return decode_batch(payload, spec_by_sid)

    t_enc = stats.median(_times(lambda: encode_batch(msgs)))
    t_dec = stats.median(_times(decode))
    memcpy = lad.values["floor.memcpy_gbps"]
    lad.put("framing.encode_gbps", len(frame) / t_enc / 1e9, memcpy, "one memcpy")
    lad.put("framing.decode_gbps", len(frame) / t_dec / 1e9, memcpy, "one memcpy")
    lad.put("framing.roundtrip_us_per_msg", (t_enc + t_dec) / len(msgs) * 1e6,
            2 * len(frame) / len(msgs) / (memcpy * 1e3), "two memcpys")


def fit_cost_model(lad: Ladder, spec: TrainSpec) -> CostModel:
    """CostModel constants in seconds, from the rungs this fit exercises."""
    v = lad.values
    batched = not spec.shuffle_within
    rows_per_s = v["wstep.batch_rows_per_s"] if batched else v["wstep.unit_rows_per_s"]
    m = 2 * spec.n_bits  # submodels: L encoder bits + L decoder groups
    if spec.n_bits <= 16:
        z_per_row = v["zstep.enum_ns_per_code"] * 1e-9 * 2**spec.n_bits
    else:
        z_per_row = v["zstep.alt_us_per_row"] * 1e-6
    hop = v["tcp.hop_us"] if spec.engine == "tcp" else v["mp.hop_us"]
    return CostModel(t_wr=1.0 / rows_per_s, t_wc=hop * 1e-6, t_zr=z_per_row / m)


# ------------------------------------------------------------------ serving
def _scan_floor_ms(lad: Ladder) -> float:
    """One pass over the codes at stream bandwidth (shared by the batch)."""
    return _SCAN_CODES * 8 / (lad.values["floor.stream_gbps"] * 1e9) * 1e3


def serving_rungs(lad: Ladder) -> None:
    rng = np.random.default_rng(3)
    stream = lad.values["floor.stream_gbps"]
    codes = rng.integers(0, 2**63, size=(_SCAN_CODES, 1), dtype=np.uint64)
    q64 = rng.integers(0, 2**63, size=(64, 1), dtype=np.uint64)
    floor_ns = 8.0 / stream
    lad.put("index.scan_floor_ns_per_code", floor_ns)
    for n_q in (1, 64):
        t = stats.median(_times(lambda: hamming_topk(q64[:n_q], codes, 10)))
        lad.put(f"index.scan_ns_per_code.q{n_q}", t / (n_q * _SCAN_CODES) * 1e9,
                floor_ns / n_q, "8 B per code / stream, shared by the batch")

    bits = rng.integers(0, 2, size=(200_000, 64), dtype=np.uint8)
    t = stats.median(_times(lambda: pack_bits(bits)))
    lad.put("hamming.pack_mrows_per_s", len(bits) / t / 1e6,
            lad.values["floor.memcpy_gbps"] * 1e3 / 64, "64 B per row / memcpy")

    parts = [hamming_topk(q64, codes[: _SCAN_CODES // 2], 10),
             hamming_topk(q64, codes[_SCAN_CODES // 2:], 10, offset=_SCAN_CODES // 2)]
    t = stats.median(_times(lambda: merge_topk(parts, 10)))
    lad.put("index.merge_us_per_query", t / 64 * 1e6,
            2 * 10 * 10 / (lad.values["floor.memcpy_gbps"] * 1e3), "copy 2k (id, d) pairs")

    flat = HammingIndex.from_codes(codes, 64)
    t = stats.median(_times(lambda: flat.search(q64, 10)))
    lad.put("index.flat_search_ms", t * 1e3, _scan_floor_ms(lad), "one pass / stream")
    with ShardedHammingIndex(codes, 64, 2, mode="thread") as sharded:
        t = stats.median(_times(lambda: sharded.search(q64, 10)))
    lad.put("index.shard_search_ms.thread", t * 1e3, _scan_floor_ms(lad) / 2,
            "half the flat floor")

    # Batcher overhead: a request through the service on a tiny index,
    # no batching window, against the same encode + search called directly.
    model = BinaryAutoencoder.linear(64, 64)
    model.encoder.A[:] = rng.normal(size=(64, 64))
    small = HammingIndex.from_codes(codes[:1024], 64)
    X = rng.normal(size=(256, 64))
    it = itertools.count()
    with RetrievalService(model, small, k=10, max_wait_ms=0.0, max_batch=64) as svc:
        t_svc = stats.median(_times(lambda: svc.query(X[next(it) % 256])))
    t_direct = stats.median(_times(
        lambda: small.search(pack_bits(model.encode(X[next(it) % 256][None])), 10)
    ))
    lad.put("service.batcher_overhead_us", (t_svc - t_direct) * 1e6, 0.0,
            "no overhead over direct calls")
