"""One benchmark run: a workload's two phases, its tables, its result line.

With tracing off the result carries the end-to-end metrics; a traced run
carries the per-layer metrics (in-situ numbers from the proxies and the
program's own stats, plus the ladder) and writes the spans to
``bench/out/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import time
from pathlib import Path

from . import env, ladder, spec, trace
from .serve import run_serve_phase
from .train import run_train_phase

__all__ = ["run_workload", "OUT_DIR"]

OUT_DIR = Path(__file__).resolve().parents[1] / "out"


def _say(line: str = "") -> None:
    print(line, flush=True)


def _table(title: str, rows) -> None:
    """rows: (name, value, unit, extra text)."""
    _say(f"\n{title}")
    width = max((len(r[0]) for r in rows), default=0)
    for name, value, unit, extra in rows:
        _say(f"  {name:<{width}}  {value:>14.6g} {unit:<8} {extra}")


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 smoke: bool, pinned: dict, root: Path) -> dict:
    """Run one workload; returns the result object for the last stdout line."""
    t_start = time.perf_counter()
    workload = spec.resolve(name, smoke=smoke)
    stamp = env.environment_stamp(root, pinned)
    stamp.update(seed=seed, seconds=seconds, traced=traced, smoke=smoke,
                 sizes={"train_n": workload.train.n, "n_base": workload.serve.n_base})
    _say(f"# {workload.name} seed={seed} seconds={seconds:g} trace={int(traced)} "
         f"smoke={int(smoke)}")
    _say(f"# {json.dumps(stamp)}")

    tracer = trace.Tracer() if traced else None
    lad = ladder.Ladder() if traced else None

    def cost_fn():
        # The workers are reaped and no thread exists yet: the one place
        # the forking rungs can run. Their numbers calibrate the sync
        # engine's virtual clock for the oracle fit that follows.
        ladder.floors(lad)
        ladder.forking_rungs(lad)
        ladder.compute_rungs(lad, workload.train)
        return ladder.fit_cost_model(lad, workload.train)

    t_train = time.perf_counter()
    train = run_train_phase(
        workload.train, seed, workload.train.share * seconds, tracer=tracer,
        frozen=not smoke, cost_fn=cost_fn if traced else None,
    )
    t_serve = time.perf_counter()
    serve = run_serve_phase(workload.serve, seed, seconds, tracer=tracer)
    t_ladder = time.perf_counter()
    coord_rss = env.rss_self_mb()  # before the ladder's serving rungs inflate it
    if traced:
        ladder.serving_rungs(lad)

    attempted = train.attempted + serve.attempted
    failed = train.failed + serve.failed
    end_to_end = {
        "setup_s": train.setup_s + serve.setup_s,
        "time_to_eq_s": train.time_to_eq_s,
        "p50_ms": serve.p50_ms,
        "sat_qps": serve.sat_qps,
        "peak_rss_mb": max(coord_rss, train.detail["worker_rss_mb"]),
    }
    _table(
        f"end to end ({workload.train.name} + {workload.serve.name})",
        [(n, end_to_end[n], u, f"{b} is better, bound {bound:g}")
         for n, u, b, bound in spec.END_TO_END]
        + [("failed_share", failed / attempted, "share", f"{failed} of {attempted}")],
    )
    _table(
        "also measured, ungated (spread across runs wider than any bound)",
        [("p95_ms", serve.p95_ms, "ms", ""),
         ("p99_ms", serve.detail["p99_ms"], "ms", ""),
         ("add_p50_ms", serve.add_p50_ms, "ms", ""),
         ("loadgen.lag_ms_p99", serve.detail["lag_ms_p99"], "ms",
          "generator lateness; charged to the latencies above")],
    )

    if traced:
        layer = {**train.layer, **serve.layer, **lad.values, "proc.coord_rss_mb": coord_rss}
        _table(
            "per layer",
            [(n, layer[n], u, _floor_text(lad, n)) for n, u, _ in spec.PER_LAYER],
        )
        _span_table(tracer)
        path = OUT_DIR / f"trace-{workload.name}.jsonl"
        tracer.write_jsonl(path)
        _say(f"\n{len(tracer.spans)} spans written to {path}")
        metrics = {n: (layer[n], u) for n, u, _ in spec.PER_LAYER}
    else:
        metrics = {n: (end_to_end[n], u) for n, u, _, _ in spec.END_TO_END}

    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        _say(f"non-finite metrics: {bad}")
        failed = max(failed, 1)
        metrics = {n: ((v if math.isfinite(v) else 0.0), u) for n, (v, u) in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "stamp": stamp, "result": result,
        "train": train.detail, "serve": serve.detail,
        "wall_s": time.perf_counter() - t_start,
        "phase_wall_s": {"train": t_serve - t_train, "serve": t_ladder - t_serve},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    _say(f"\nrun took {record['wall_s']:.1f} s (train phase {t_serve - t_train:.1f} s, "
         f"serve phase {t_ladder - t_serve:.1f} s); details in {out}")
    if failed:
        _say(f"FAILED: {failed} of {attempted} operations failed an oracle "
             f"(train {train.failed}, serve {serve.failed})")
    _stop_helpers()
    return result


def _floor_text(lad, name: str) -> str:
    if name not in lad.floor_of:
        return ""
    floor, note = lad.floor_of[name]
    return f"floor {floor:.6g} ({note})"


def _span_table(tracer) -> None:
    rows = [
        (name, row["self_s"], "s", f"self; total {row['total_s']:.4g} s over {row['count']}")
        for name, row in sorted(trace.summarize(tracer.spans).items())
    ]
    _table("spans (self time = span minus its children)", rows)


def _stop_helpers() -> None:
    """End the multiprocessing resource tracker this process started and
    wait for it, so no process outlives the run."""
    leftover = multiprocessing.active_children()
    for proc in leftover:
        proc.join(timeout=5.0)
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception as exc:  # best effort: report, do not fail the run
        print(f"could not stop the resource tracker: {exc!r}", file=sys.stderr)
