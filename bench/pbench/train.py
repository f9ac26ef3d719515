"""The training phase: time-to-E_Q of a ParMAC fit on a wall-clock engine.

One run = several cold set-up cycles (for ``setup_s``), one discarded
warm-up fit, measured fits until the phase's seconds are spent, then the
oracle fit on the in-process ``sync`` engine (in a child process, so the
coordinator's memory stays the program's own).

Measured fits share one backend, i.e. one worker pool, as a second
``fit`` on a ``ParMACTrainer`` does. ISSUE 13 asked for a fresh backend
per repeat; on the sandbox a fresh worker's first Z step pays the
hypervisor's first-touch cost for ~1 GiB of temporaries (3-8 s for
identical fits), so the cold pool is reported on its own (``setup_s``,
``fit.cold_s``) and ``time_to_eq_s`` times warmed workers.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.penalty import GeometricSchedule
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend

from . import env, oracles, stats
from .datagen import TrainData, make_train_data
from .spec import TrainSpec
from .wrappers import FitLog, TimedBackend

__all__ = ["TrainResult", "run_train_phase", "sync_oracle"]

_COLD_CYCLES = 5
_E_BA_RTOL = 1e-9


@dataclass
class TrainResult:
    setup_s: float
    time_to_eq_s: float
    attempted: int
    failed: int
    layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def _make_backend(spec: TrainSpec, seed: int, engine: str | None = None, **extra):
    return get_backend(engine or spec.engine)(
        epochs=spec.epochs, shuffle_within=spec.shuffle_within, seed=seed, **extra
    )


def _schedule(spec: TrainSpec) -> GeometricSchedule:
    return GeometricSchedule(mu0=spec.mu0, factor=spec.factor, n_iters=spec.n_iters)


def _oracle_child(conn, spec, data, seed, cost) -> None:
    try:
        adapter, shards = data.fresh()
        backend = _make_backend(spec, seed, "sync", cost=cost)
        backend.setup(adapter, shards)
        rows = []
        for mu in _schedule(spec):
            t0 = time.perf_counter()
            s = backend.run_iteration(float(mu))
            rows.append((s.e_q, s.e_ba, time.perf_counter() - t0, s.time))
        backend.teardown()
        backend.close()
        conn.send(("ok", rows))
    except BaseException as exc:  # reported to the parent, then re-raised
        conn.send(("error", repr(exc)))
        raise
    finally:
        conn.close()


def sync_oracle(spec: TrainSpec, data: TrainData, seed: int, cost=None) -> dict:
    """The same fit on the in-process ``sync`` engine, run in a forked
    child; per-iteration E_Q / E_BA, wall seconds and virtual time."""
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_oracle_child, args=(writer, spec, data, seed, cost))
    proc.start()
    writer.close()
    try:
        status, payload = reader.recv()
    except EOFError:
        status, payload = "error", "oracle child died without a result"
    finally:
        reader.close()
        proc.join()
    if status != "ok":
        raise RuntimeError(f"sync oracle failed: {payload}")
    e_q, e_ba, wall, virtual = (list(col) for col in zip(*payload))
    return {"e_q": e_q, "e_ba": e_ba, "wall_s": wall, "virtual": virtual}


def _cold_cycles(spec: TrainSpec, data: TrainData, seed: int) -> dict:
    """Construct + setup + teardown + close, cold, several times."""
    total, setup, teardown = [], [], []
    for _ in range(_COLD_CYCLES):
        adapter, shards = data.fresh()
        t0 = time.perf_counter()
        backend = _make_backend(spec, seed)
        try:
            backend.setup(adapter, shards)
            t1 = time.perf_counter()
            backend.teardown()
        finally:
            backend.close()
        t2 = time.perf_counter()
        total.append(t2 - t0)
        setup.append(t1 - t0)
        teardown.append(t2 - t1)
    return {"total": total, "setup": setup, "teardown": teardown}


@dataclass
class _Fit:
    log: FitLog
    adapter: object
    error: Exception | None
    traced: bool


def _one_fit(spec, data, proxy: TimedBackend, trace: str, tracer) -> _Fit:
    """One ``ParMACTrainer.fit`` on a fresh model, spans under ``tracer``."""
    adapter, shards = data.fresh()
    trainer = ParMACTrainer(adapter, _schedule(spec), backend=proxy)
    error = None
    with (tracer.span("fit", trace=trace) if tracer is not None else nullcontext()) as fid:
        log = proxy.begin_fit(trace, tracer=tracer, parent=fid)
        try:
            trainer.fit(shards)
        except Exception as exc:  # a fit that raised is a failed fit
            error = exc
    return _Fit(log, adapter, error, tracer is not None)


def _fit_ok(spec, data, fit: _Fit, oracle, target, first_e_q) -> bool:
    log = fit.log
    if fit.error is not None or len(log.iters) != spec.n_iters:
        return False
    e_q = log.e_q
    model_e_ba = fit.adapter.model.e_ba(data.X)
    reported = log.iters[-1][2].e_ba
    return (
        oracles.e_q_matches(e_q, oracle["e_q"], spec.oracle_rtol)
        and e_q[-1] <= target
        # One seed, one pool: every repeat must reproduce the first bit for bit.
        and e_q == first_e_q
        and abs(model_e_ba - reported) <= _E_BA_RTOL * abs(reported)
    )


def run_train_phase(spec: TrainSpec, seed: int, seconds: float, *, tracer=None,
                    frozen: bool = True, cost_fn=None) -> TrainResult:
    """Run the phase; ``tracer`` switches the per-layer numbers on.

    ``cost_fn`` (traced runs) is called after the workers are gone and
    before the oracle; it returns the fitted ``CostModel`` the oracle's
    virtual clock should use.
    """
    data = make_train_data(spec, seed)
    shm_before = env.shm_entries()
    cold = _cold_cycles(spec, data, seed)

    backend = _make_backend(spec, seed)
    proxy = TimedBackend(backend)
    fits: list[_Fit] = []
    try:
        warm = _one_fit(spec, data, proxy, "fit-warmup", None)
        budget_end = time.perf_counter() + seconds
        while len(fits) < spec.min_repeats or time.perf_counter() < budget_end:
            # Traced runs alternate plain and traced fits, so the two
            # medians give the tracing overhead.
            traced = tracer is not None and len(fits) % 2 == 1
            fits.append(_one_fit(spec, data, proxy, f"fit-{len(fits)}",
                                 tracer if traced else None))
            if fits[-1].error is not None:
                break  # the pool is gone; further repeats would only re-raise
    finally:
        backend.close()
    worker_rss = env.rss_children_mb()
    residue = sorted(env.shm_entries() - shm_before)

    oracle = sync_oracle(spec, data, seed, cost_fn() if cost_fn is not None else None)
    target = spec.frozen_target(seed) if frozen else None
    if target is None:
        target = spec.target_slack * oracle["e_q"][-1]

    ok = [_fit_ok(spec, data, fit, oracle, target, fits[0].log.e_q) for fit in fits]
    failed = len(ok) - sum(ok) + bool(residue) + (warm.error is not None)
    times = [fit.log.seconds for fit, good in zip(fits, ok) if good]
    time_to_eq = stats.median(times) if times else float("nan")

    result = TrainResult(
        setup_s=stats.median(cold["total"]),
        time_to_eq_s=time_to_eq,
        attempted=len(fits) + 1,  # + the residue check
        failed=failed,
        detail={
            "phase": spec.name, "n": spec.n, "target_e_q": target,
            "fit_s": times, "cold_setup_s": cold["total"],
            "e_q": fits[0].log.e_q, "oracle_e_q": oracle["e_q"],
            "shm_residue": residue, "worker_rss_mb": worker_rss,
            "errors": [repr(f.error) for f in fits if f.error is not None],
        },
    )
    if tracer is not None:
        result.layer = _layer_metrics(
            spec, cold, warm.log, fits, ok, oracle, target, worker_rss, time_to_eq
        )
    return result


def _layer_metrics(spec, cold, warm_log, fits, ok, oracle, target, worker_rss,
                   time_to_eq) -> dict:
    iters = [it for fit, good in zip(fits, ok) if good for it in fit.log.iters]
    if not iters:
        iters = [it for fit in fits for it in fit.log.iters]
    wall = np.array([t1 - t0 for t0, t1, _ in iters])
    w = np.array([float(s.extra.get("w_time", 0.0)) for _, _, s in iters])
    z = np.array([float(s.extra.get("z_time", 0.0)) for _, _, s in iters])
    coord = wall - w - z
    bytes_sent = np.array([s.bytes_sent for _, _, s in iters], dtype=np.float64)
    hops = np.array([s.hops for _, _, s in iters], dtype=np.float64)
    # The queue ring moves one message per hop and counts parameter
    # bytes only, so frames == hops and payload == bytes there.
    frames = np.array([s.extra.get("frames", s.hops) for _, _, s in iters], dtype=np.float64)
    payload = np.array(
        [s.extra.get("payload_bytes", s.bytes_sent) for _, _, s in iters], dtype=np.float64
    )
    last = fits[-1].log
    e_q = last.e_q
    to_target = next((i + 1 for i, e in enumerate(e_q) if e <= target), 0)
    plain = [f.log.seconds for f in fits if not f.traced and f.log.iters]
    traced = [f.log.seconds for f in fits if f.traced and f.log.iters]
    overhead = (
        stats.median(traced) / stats.median(plain) - 1.0 if plain and traced else 0.0
    )
    serial = float(sum(oracle["wall_s"]))
    virtual = float(sum(oracle["virtual"]))
    measured_fit = float(wall.sum()) / max(1, len(wall) // spec.n_iters)
    return {
        "backend.setup_s": stats.median(cold["setup"]),
        "backend.teardown_s": stats.median(cold["teardown"]),
        "backend.iter_s": float(np.median(wall)),
        "backend.w_s": float(np.median(w)),
        "backend.z_s": float(np.median(z)),
        "backend.coord_s": float(np.median(coord)),
        "backend.w_share": float(w.sum() / wall.sum()),
        "backend.z_share": float(z.sum() / wall.sum()),
        "backend.coord_share": float(coord.sum() / wall.sum()),
        "ring.bytes_per_iter": float(np.median(bytes_sent)),
        "ring.hops_per_iter": float(np.median(hops)),
        "ring.frames_per_iter": float(np.median(frames)),
        "ring.payload_share": float(payload.sum() / max(bytes_sent.sum(), 1.0)),
        "fit.iters_to_target": float(to_target),
        "fit.final_e_q": float(e_q[-1]) if e_q else float("nan"),
        "fit.final_e_ba": float(last.iters[-1][2].e_ba) if last.iters else float("nan"),
        "fit.z_changes": float(sum(s.z_changes for _, _, s in last.iters)),
        "fit.oracle_match": sum(ok) / len(ok),
        "fit.cold_s": warm_log.seconds,
        "fit.serial_s": serial,
        "fit.speedup_vs_serial": serial / time_to_eq if time_to_eq == time_to_eq else 0.0,
        "proc.worker_rss_mb": worker_rss,
        # Virtual time only means seconds once the cost model was fitted.
        "sim.pred_ratio": virtual / measured_fit if measured_fit > 0 else 0.0,
        "trace.overhead_share.train": overhead,
    }
