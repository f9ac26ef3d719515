"""Open-loop Poisson load generation and latency/throughput accounting.

An open-loop generator submits request i at its *scheduled* arrival time
regardless of whether earlier requests completed — the queueing-theory
honest way to measure a service (a closed loop self-throttles when the
service slows down, hiding exactly the latencies one is trying to
measure). Arrivals are Poisson: i.i.d. exponential inter-arrival gaps at
the offered rate. Latency for a request is measured from its scheduled
arrival to completion, so queueing delay under overload is charged to the
service, not forgiven.

``LatencyStats`` / ``ThroughputStats`` follow the percentile-accounting
shape ROADMAP points at (p50/p95/p99 + rows/s); both render to plain
dicts for JSON summaries.
"""

from __future__ import annotations

import time

import numpy as np

from repro.utils.rng import check_random_state

__all__ = ["LatencyStats", "ThroughputStats", "poisson_arrivals", "run_open_loop"]


class LatencyStats:
    """Latency sample accumulator with percentile reporting."""

    def __init__(self):
        self._samples: list[float] = []

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    @property
    def n(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.percentile(np.asarray(self._samples), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return float(np.mean(self._samples))

    def summary(self, *, scale: float = 1e3) -> dict:
        """Percentile summary; ``scale=1e3`` reports milliseconds."""
        return {
            "n": self.n,
            "mean_ms": self.mean * scale,
            "p50_ms": self.p50 * scale,
            "p95_ms": self.p95 * scale,
            "p99_ms": self.p99 * scale,
            "max_ms": float(max(self._samples)) * scale,
        }


class ThroughputStats:
    """Completed-rows-over-wall-clock accounting."""

    def __init__(self):
        self.rows = 0
        self._t0: float | None = None
        self._t1: float | None = None

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def record(self, n_rows: int = 1) -> None:
        if self._t0 is None:
            self.start()
        self.rows += int(n_rows)
        self._t1 = time.perf_counter()

    @property
    def elapsed_s(self) -> float:
        if self._t0 is None or self._t1 is None:
            return 0.0
        return self._t1 - self._t0

    @property
    def rows_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self.rows / elapsed if elapsed > 0 else 0.0

    def summary(self) -> dict:
        return {
            "rows": self.rows,
            "elapsed_s": self.elapsed_s,
            "rows_per_s": self.rows_per_s,
        }


def poisson_arrivals(rate_qps: float, n: int, *, rng=None) -> np.ndarray:
    """``n`` Poisson arrival times (seconds from start) at ``rate_qps``."""
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = check_random_state(rng)
    return np.cumsum(rng.exponential(scale=1.0 / rate_qps, size=n))


def run_open_loop(
    service,
    queries: np.ndarray,
    rate_qps: float,
    *,
    k: int | None = None,
    n_requests: int | None = None,
    rng=None,
    timeout_s: float = 60.0,
) -> dict:
    """Drive ``service`` open-loop at ``rate_qps`` and account the run.

    Queries are drawn round-robin from ``queries`` (one submission per
    arrival; ``n_requests`` defaults to ``len(queries)``). Returns a dict
    with offered/achieved rates and the latency percentile summary. The
    submitting loop never blocks on results — each ticket's completion
    instant is stamped by the batcher thread (``Ticket.t_done``) — so a
    saturated service shows up as growing latency, not a lower offered
    rate.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-dimensional, got shape {queries.shape}")
    n_requests = len(queries) if n_requests is None else int(n_requests)
    arrivals = poisson_arrivals(rate_qps, n_requests, rng=rng)

    latency = LatencyStats()
    throughput = ThroughputStats()

    t_start = time.perf_counter()
    throughput.start()
    tickets = []
    for i in range(n_requests):
        t_sched = t_start + arrivals[i]
        delay = t_sched - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        tickets.append((t_sched, service.submit(queries[i % len(queries)], k)))
    for t_sched, ticket in tickets:
        ticket.result(timeout=timeout_s)
        latency.record(ticket.t_done - t_sched)
        throughput.record(1)
    elapsed = time.perf_counter() - t_start
    return {
        "offered_qps": rate_qps,
        "achieved_qps": n_requests / elapsed,
        "n_requests": n_requests,
        "elapsed_s": elapsed,
        "latency": latency.summary(),
        "throughput": throughput.summary(),
    }
