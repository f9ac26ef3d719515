"""Load generation: open loop on a schedule, closed loop on tickets.

Open loop models independent users: request ``i`` is sent when it is due
whether or not earlier ones completed, and its latency runs from the
instant it was *due*, so a stall is charged to every request that queued
behind it. How late the generator itself ran (``lag``) is recorded per
request. Closed loop models callers that wait: a fixed number of tickets
stay in flight and throughput is completions per second.

Both loops take a clock object, so the accounting is tested with a fake
clock and no sleeping.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RealClock",
    "Request",
    "poisson_offsets",
    "periodic_offsets",
    "run_open_loop",
    "run_closed_loop",
    "latencies_ms",
    "lags_ms",
]


class RealClock:
    """``perf_counter`` time; sleeps to just short of a deadline, then
    spins the last stretch (timer wake-ups on the sandbox are late by
    0.1-0.3 ms at best)."""

    spin_s = 2e-4

    def now(self) -> float:
        return time.perf_counter()

    def sleep_until(self, deadline: float) -> None:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            if remaining > self.spin_s:
                time.sleep(remaining - self.spin_s)


@dataclass
class Request:
    """One request as the generator saw it. ``handle`` is whatever
    ``submit`` returned, or the exception it raised."""

    index: int
    due: float
    sent: float
    handle: object
    done: float | None = None


def poisson_offsets(rate: float, seconds: float, rng) -> np.ndarray:
    """Poisson arrival offsets (s) at ``rate`` per second within ``seconds``."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be > 0")
    n = max(1, int(round(rate * seconds)))
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def periodic_offsets(period: float, seconds: float) -> np.ndarray:
    """Offsets ``period, 2*period, ...`` that fit inside ``seconds``."""
    if period <= 0:
        raise ValueError("period must be > 0")
    return period * np.arange(1, int(seconds / period) + 1, dtype=np.float64)


def run_open_loop(submit, offsets, clock, *, stop=None) -> list[Request]:
    """Call ``submit(i)`` at ``start + offsets[i]``, never waiting for results.

    ``stop`` (a ``threading.Event``-like with ``is_set``) ends the loop
    early; a writer that shares the phase with readers uses it.
    """
    start = clock.now()
    out: list[Request] = []
    for i, offset in enumerate(offsets):
        if stop is not None and stop.is_set():
            break
        due = start + float(offset)
        clock.sleep_until(due)
        sent = clock.now()
        try:
            handle = submit(i)
        except Exception as exc:  # accounted as a failed request
            handle = exc
        out.append(Request(i, due, sent, handle))
    return out


def run_closed_loop(submit, wait, outstanding: int, seconds: float, clock):
    """Keep ``outstanding`` requests in flight for ``seconds``, then drain.

    ``wait(handle)`` blocks until the request completed and returns its
    completion time. Returns ``(requests, elapsed)`` where ``elapsed``
    runs from the first submit to the last completion.
    """
    if outstanding < 1:
        raise ValueError("outstanding must be >= 1")
    start = clock.now()
    deadline = start + seconds
    inflight: deque[Request] = deque()
    out: list[Request] = []
    i = 0
    last_done = start
    while True:
        while len(inflight) < outstanding and clock.now() < deadline:
            now = clock.now()
            try:
                handle = submit(i)
            except Exception as exc:
                handle = exc
            inflight.append(Request(i, now, now, handle))
            i += 1
        if not inflight:
            break
        req = inflight.popleft()
        if not isinstance(req.handle, Exception):
            try:
                req.done = wait(req.handle)
                last_done = max(last_done, req.done)
            except Exception as exc:
                req.handle = exc
        out.append(req)
    return out, last_done - start


def latencies_ms(requests) -> list[float]:
    """Due-time latency of every completed request, in ms."""
    return [(r.done - r.due) * 1e3 for r in requests if r.done is not None]


def lags_ms(requests) -> list[float]:
    """How late the generator sent each request, in ms."""
    return [(r.sent - r.due) * 1e3 for r in requests]
