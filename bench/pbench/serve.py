"""The serving phase: saturation throughput, then latency at a fixed rate.

Order inside one run: build the service several times (``setup_s``), a
discarded warm-up burst, ``sat`` (closed loop), ``open`` (open loop at
the spec's Poisson rate; on the read/write workload a writer thread adds
a block every ``add_every_s`` meanwhile), the idle adds of the read-only
workload, the post-run oracle sweep and, in traced runs, the SLO sweep.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.retrieval.hamming import pack_bits
from repro.serve import HammingIndex, RetrievalService, ShardedHammingIndex
from repro.serve.service import Overloaded

from . import loadgen, oracles, stats
from .datagen import ServeData, make_serve_data
from .spec import ServeSpec
from .wrappers import RecordingFlatIndex, RecordingShardedIndex, ServeLog, TimedModel

__all__ = ["ServeResult", "run_serve_phase"]

_BUILDS = 3
_WARMUP_QUERIES = 400
_SWEEP_QUERIES = 64
_RESULT_TIMEOUT_S = 60.0


@dataclass
class ServeResult:
    setup_s: float
    sat_qps: float
    p50_ms: float
    p95_ms: float
    add_p50_ms: float
    attempted: int
    failed: int
    layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def encode_base(model, chunks) -> np.ndarray:
    """Packed codes of the base set, encoded chunk by chunk."""
    return np.concatenate([pack_bits(model.encode(chunk)) for chunk in chunks])


def build_service(spec: ServeSpec, model, chunks, *, log: ServeLog | None = None):
    """What ``RetrievalService.from_data`` does (encode + pack + index +
    service start), spelled out so a traced run can hand in the recording
    index classes. Returns ``(service, packed base codes)``."""
    packed = encode_base(model, chunks)
    flat_cls = HammingIndex if log is None else RecordingFlatIndex
    shard_cls = ShardedHammingIndex if log is None else RecordingShardedIndex
    if spec.n_shards == 1:
        index = flat_cls(spec.n_bits)
        index.add(packed)
    else:
        index = shard_cls(packed, spec.n_bits, spec.n_shards, mode="thread")
    if log is not None:
        index.log = log
        model = TimedModel(model, log)
    service = RetrievalService(
        model, index, k=spec.k, max_wait_ms=spec.max_wait_ms, max_batch=spec.max_batch
    )
    return service, packed


def _wait(ticket) -> float:
    ticket.result(timeout=_RESULT_TIMEOUT_S)
    return ticket.t_done


class _Phase:
    """Outcome accounting of one batch of requests against the oracles."""

    def __init__(self, name: str):
        self.name = name
        self.sent = self.ok = self.raised = self.refused = self.partial = self.wrong = 0

    def failed(self) -> int:
        return self.sent - self.ok

    def settle(self, requests, data: ServeData, q_codes, codes, add_codes, rng) -> None:
        """Collect every result, then check: cheaply all, exactly a sample."""
        k, n_q = data.spec.k, len(data.queries)
        good_rows, ids_rows, dist_rows = [], [], []
        for req in requests:
            self.sent += 1
            handle = req.handle
            if isinstance(handle, Exception):
                if isinstance(handle, Overloaded):
                    self.refused += 1
                else:
                    self.raised += 1
                continue
            try:
                ids, dists = handle.result(timeout=_RESULT_TIMEOUT_S)
            except Exception:
                self.raised += 1
                continue
            req.done = handle.t_done
            if handle.partial:
                self.partial += 1
                continue
            if ids.shape != (k,):
                self.wrong += 1
                continue
            good_rows.append(req.index % n_q)
            ids_rows.append(ids)
            dist_rows.append(dists)
        if not good_rows:
            return
        rows = np.asarray(good_rows)
        ids, dists = np.stack(ids_rows), np.stack(dist_rows)
        passed = oracles.cheap_check(ids, dists, q_codes[rows], codes, k)
        sample = rng.choice(
            len(rows), size=min(len(rows), data.spec.oracle_samples), replace=False
        )
        exact = oracles.prefix_oracles(
            q_codes[rows[sample]], codes[: data.spec.n_base], add_codes, k
        )
        for j, r in enumerate(sample):
            if not oracles.matches_some_prefix(ids[r], dists[r], j, exact):
                passed[r] = False
        self.ok += int(passed.sum())
        self.wrong += int((~passed).sum())


def _run_writer(service, pending, offsets, clock, stop, out: list) -> None:
    def add(_):
        service.add(pending.popleft())
        return clock.now()

    out.extend(loadgen.run_open_loop(add, offsets, clock, stop=stop))
    for req in out:
        if not isinstance(req.handle, Exception):
            req.done = req.handle


def _open_phase(service, data, spec, seconds, rate, clock, rng, *, pending=None):
    """One open loop at ``rate``; returns (reader requests, writer requests,
    elapsed seconds). With ``pending`` (a deque of blocks) a writer thread
    adds the next block every ``add_every_s`` while the readers run."""
    offsets = loadgen.poisson_offsets(rate, seconds, rng)
    writes: list = []
    stop = threading.Event()
    writer = None
    if pending:
        w_offsets = loadgen.periodic_offsets(spec.add_every_s, seconds)[: len(pending)]
        writer = threading.Thread(
            target=_run_writer, args=(service, pending, w_offsets, clock, stop, writes),
            name="bench-writer",
        )
    queries = data.queries
    t0 = clock.now()
    if writer is not None:
        writer.start()
    try:
        reads = loadgen.run_open_loop(
            lambda i: service.submit(queries[i % len(queries)]), offsets, clock
        )
    finally:
        stop.set()
        if writer is not None:
            writer.join()
    for req in reads:
        if not isinstance(req.handle, Exception):
            try:
                req.done = _wait(req.handle)
            except Exception as exc:
                req.handle = exc
    return reads, writes, clock.now() - t0


def steady_qps(requests) -> float:
    """Median, over consecutive completion instants, of the requests
    completed at that instant per second since the previous one.

    Requests of one batch share a completion time, so this is the median
    per-batch service rate of a saturated closed loop. The sandbox runs
    the same scan 15 % faster or slower for a second or two at a time;
    the median moves less with where those spells fall than completions
    over elapsed time does. Falls back to that mean below three batches.
    """
    done = sorted(r.done for r in requests if r.done is not None)
    if not done:
        return 0.0
    instants = sorted(set(done))
    if len(instants) < 3:
        elapsed = done[-1] - min(r.due for r in requests)
        return len(done) / elapsed if elapsed > 0 else 0.0
    counts = {t: 0 for t in instants}
    for t in done:
        counts[t] += 1
    return stats.median(
        counts[t] / (t - prev) for prev, t in zip(instants, instants[1:])
    )


def _backlog_grows(requests) -> bool:
    lat = loadgen.latencies_ms(requests)
    third = len(lat) // 3
    if third < 5:
        return False
    return float(np.mean(lat[-third:])) > 2.0 * float(np.mean(lat[:third]))


def run_serve_phase(spec: ServeSpec, seed: int, seconds: float, *, tracer=None) -> ServeResult:
    clock = loadgen.RealClock()
    rng = np.random.default_rng([seed, 0x10AD])
    sat_s, open_s = spec.sat_share * seconds, spec.open_share * seconds
    n_blocks = (
        int(open_s / spec.add_every_s) if spec.add_every_s > 0 else spec.add_blocks_idle
    )
    data = make_serve_data(spec, seed, n_add_blocks=n_blocks)
    log = ServeLog(tracer) if tracer is not None else None

    builds = []
    service = None
    for b in range(_BUILDS):
        if service is not None:
            service.close()
        t0 = time.perf_counter()
        service, base_codes = build_service(
            spec, data.model, data.base_chunks, log=log if b == _BUILDS - 1 else None
        )
        builds.append(time.perf_counter() - t0)
    try:
        result = _measure(spec, data, service, base_codes, builds, sat_s, open_s,
                          clock, rng, log)
    finally:
        service.close()
    return result


def _measure(spec, data, service, base_codes, builds, sat_s, open_s, clock, rng, log):
    queries = data.queries
    q_codes = pack_bits(data.model.encode(queries))
    add_codes = [pack_bits(data.model.encode(b)) for b in data.add_blocks]
    codes = np.concatenate([base_codes, *add_codes]) if add_codes else base_codes
    concurrent = spec.add_every_s > 0
    # Blocks leave this queue in order, so the index always holds the
    # base plus a prefix of ``add_codes``.
    pending = deque(data.add_blocks)
    writer_blocks = pending if concurrent else None

    def submit(i):
        return service.submit(queries[i % len(queries)])

    loadgen.run_closed_loop(submit, _wait, spec.sat_outstanding,
                            _WARMUP_QUERIES / 500.0, clock)

    # sat: closed loop, throughput
    sat_reqs, sat_elapsed = loadgen.run_closed_loop(
        submit, _wait, spec.sat_outstanding, sat_s, clock
    )
    sat = _Phase("sat")
    sat.settle(sat_reqs, data, q_codes, codes, [], rng)
    # Only correct completions count: a wrong answer is not throughput.
    sat_qps = steady_qps(sat_reqs) * (sat.ok / sat.sent if sat.sent else 0.0)

    # open: fixed-rate latency (with the writer on the read/write workload).
    # A traced run records its second half only: the two halves' p50
    # give the serving-side tracing overhead.
    stats_before = service.stats.snapshot()
    halves = []
    if log is not None:
        halves.append(_open_phase(service, data, spec, open_s / 2, spec.rate_qps, clock,
                                  rng, pending=writer_blocks))
        log.recording = True
        halves.append(_open_phase(service, data, spec, open_s / 2, spec.rate_qps, clock,
                                  rng, pending=writer_blocks))
    else:
        halves.append(_open_phase(service, data, spec, open_s, spec.rate_qps, clock, rng,
                                  pending=writer_blocks))
    stats_after = service.stats.snapshot()
    reads = [r for h in halves for r in h[0]]
    writes = [w for h in halves for w in h[1]]
    open_elapsed = sum(h[2] for h in halves)
    opn = _Phase("open")
    opn.settle(reads, data, q_codes, codes,
               add_codes[: len(add_codes) - len(pending)], rng)
    lat = loadgen.latencies_ms(reads)
    lag = loadgen.lags_ms(reads)

    # the read-only workload adds its blocks now, with nothing else running
    if not concurrent:
        while pending:
            t0 = clock.now()
            req = loadgen.Request(len(writes), t0, t0, None)
            try:
                service.add(pending.popleft())
                req.done = clock.now()
            except Exception as exc:
                req.handle = exc
            writes.append(req)
    add_lat = loadgen.latencies_ms(writes)
    adds_failed = len(writes) - len(add_lat)
    if log is not None:
        log.recording = False

    # post-run sweep: fresh queries against a flat scan of everything indexed
    sweep_q = queries[-_SWEEP_QUERIES:]
    sweep = [
        service.query(x, timeout=_RESULT_TIMEOUT_S) for x in sweep_q
    ]
    n_indexed = len(base_codes) + sum(len(c) for c in add_codes[: len(writes)])
    want_ids, want_d = oracles.prefix_oracles(
        q_codes[-_SWEEP_QUERIES:], codes[:n_indexed], [], spec.k
    )[0]
    sweep_bad = sum(
        not (np.array_equal(ids, want_ids[j]) and np.array_equal(d, want_d[j]))
        for j, (ids, d) in enumerate(sweep)
    )

    lag_p99 = stats.percentile(lag, 99.0) if lag else 0.0
    tail_q = stats.highest_supported_percentile(len(lat)) or 90.0
    result = ServeResult(
        setup_s=stats.median(builds),
        sat_qps=sat_qps,
        p50_ms=stats.percentile(lat, 50.0) if lat else float("nan"),
        p95_ms=stats.percentile(lat, 95.0) if lat else float("nan"),
        add_p50_ms=stats.percentile(add_lat, 50.0) if add_lat else float("nan"),
        attempted=sat.sent + opn.sent + len(writes) + _SWEEP_QUERIES,
        failed=sat.failed() + opn.failed() + adds_failed + sweep_bad,
        detail={
            "phase": spec.name, "n_base": spec.n_base, "build_s": builds,
            "sat": vars(sat), "open": vars(opn), "sat_elapsed_s": sat_elapsed,
            "sat_mean_qps": sat.ok / sat_elapsed if sat_elapsed > 0 else 0.0,
            "open_elapsed_s": open_elapsed, "open_requests": len(reads),
            "supported_tail": tail_q,
            "tail_ms": stats.percentile(lat, tail_q) if lat else None,
            "adds": len(add_lat), "adds_failed": adds_failed, "sweep_bad": sweep_bad,
            "lag_ms_p99": lag_p99, "lag_over_limit": lag_p99 > spec.max_lag_ms_p99,
            "p99_ms": stats.percentile(lat, 99.0) if lat else None,
        },
    )
    if log is not None:
        for req in halves[1][0]:
            if req.done is not None:
                log.tracer.add("request", req.due, req.done, trace=f"request-{req.index}")
        half_p50 = [stats.percentile(loadgen.latencies_ms(h[0]), 50.0) for h in halves]
        result.layer = _layer_metrics(
            spec, log, builds, sat, opn, lag_p99, stats_before, stats_after,
            open_elapsed, half_p50[1] / half_p50[0] - 1.0,
        )
        result.layer.update(p95_ms=result.p95_ms, p99_ms=result.detail["p99_ms"],
                            add_p50_ms=result.add_p50_ms)
        result.layer["service.slo_qps"] = _slo_sweep(service, data, spec, clock, rng)
    return result


def _slo_sweep(service, data, spec, clock, rng) -> float:
    """Highest of the fixed rates that keeps p99 under the limit without a
    growing backlog; 0 when none does."""
    best = 0.0
    for rate in spec.slo_rates:
        reads, _, _ = _open_phase(service, data, spec, spec.slo_seconds, rate, clock, rng)
        lat = loadgen.latencies_ms(reads)
        if len(lat) < len(reads) or not lat:
            break
        if stats.percentile(lat, 99.0) > spec.slo_p99_ms or _backlog_grows(reads):
            break
        best = rate
    return best


def _layer_metrics(spec, log, builds, sat, opn, lag_p99, before, after, open_elapsed,
                   overhead) -> dict:
    search_ms = [(t1 - t0) * 1e3 for t0, t1, _, _ in log.searches]
    encode_ms = [(t1 - t0) * 1e3 for t0, t1 in log.encodes]
    add_ms = [(t1 - t0) * 1e3 for t0, t1, _ in log.adds]
    scanned = sum(nq * rows for _, _, nq, rows in log.searches)
    scan_total = sum(t1 - t0 for t0, t1, _, _ in log.searches)
    encode_s = after["encode_s"] - before["encode_s"]
    scan_s = after["scan_s"] - before["scan_s"]
    batches = after["n_batches"] - before["n_batches"]
    served = after["n_queries"] - before["n_queries"]
    return {
        "service.build_s": stats.median(builds),
        "loadgen.lag_ms_p99": lag_p99,
        "loadgen.sent": float(sat.sent + opn.sent),
        "loadgen.ok": float(sat.ok + opn.ok),
        "loadgen.refused": float(sat.refused + opn.refused),
        "loadgen.partial": float(sat.partial + opn.partial),
        "loadgen.wrong": float(sat.wrong + opn.wrong + sat.raised + opn.raised),
        # service.* are the open loop's share of the program's own ServiceStats
        "service.batches": float(batches),
        "service.mean_batch": served / max(batches, 1),
        "service.encode_s": encode_s,
        "service.scan_s": scan_s,
        "service.scan_share": scan_s / max(encode_s + scan_s, 1e-12),
        "service.busy_share": (encode_s + scan_s) / max(open_elapsed, 1e-12),
        "index.search_ms_p50": stats.percentile(search_ms, 50.0) if search_ms else 0.0,
        "index.search_ms_p99": stats.percentile(search_ms, 99.0) if search_ms else 0.0,
        "index.search_calls": float(len(search_ms)),
        "index.ns_per_code": scan_total / max(scanned, 1) * 1e9,
        "encoder.encode_ms_p50": stats.percentile(encode_ms, 50.0) if encode_ms else 0.0,
        "index.add_ms_p50": stats.percentile(add_ms, 50.0) if add_ms else 0.0,
        "index.add_calls": float(len(add_ms)),
        "trace.overhead_share.serve": overhead,
    }
