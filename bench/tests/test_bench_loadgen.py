import numpy as np
import pytest

from pbench import loadgen


class FakeClock:
    """Time moves only when told to; every wake-up is ``late`` seconds late."""

    def __init__(self, late=0.0):
        self.t = 100.0
        self.late = late

    def now(self):
        return self.t

    def sleep_until(self, deadline):
        if deadline > self.t:
            self.t = deadline + self.late


def test_latency_runs_from_due_time_not_send_time():
    clock = FakeClock(late=0.002)

    def submit(i):
        clock.t += 0.010  # a stalled service: each submit blocks 10 ms
        return i

    # Due every 5 ms but each submit takes 10 ms: the generator falls behind.
    reqs = loadgen.run_open_loop(submit, [0.005, 0.010, 0.015], clock)
    for r in reqs:
        r.done = r.sent + 0.010
    lag = loadgen.lags_ms(reqs)
    lat = loadgen.latencies_ms(reqs)
    assert lag == pytest.approx([2.0, 7.0, 12.0])
    # latency = lag + service time: the queueing delay is charged to the service
    assert lat == pytest.approx([12.0, 17.0, 22.0])


def test_open_loop_records_submit_errors_and_honours_stop():
    clock = FakeClock()

    class Stop:
        def __init__(self):
            self.calls = 0

        def is_set(self):
            self.calls += 1
            return self.calls > 2

    def submit(i):
        if i == 1:
            raise RuntimeError("refused")
        return i

    reqs = loadgen.run_open_loop(submit, [0.1, 0.2, 0.3, 0.4], clock, stop=Stop())
    assert len(reqs) == 2
    assert isinstance(reqs[1].handle, RuntimeError)
    assert loadgen.latencies_ms(reqs) == []  # nothing completed yet


def test_closed_loop_keeps_tickets_outstanding_and_drains():
    clock = FakeClock()
    inflight, peak = [], [0]

    def submit(i):
        inflight.append(i)
        peak[0] = max(peak[0], len(inflight))
        return i

    def wait(handle):
        clock.t += 0.01  # each completion takes 10 ms
        inflight.remove(handle)
        return clock.t

    reqs, elapsed = loadgen.run_closed_loop(submit, wait, 4, 0.1, clock)
    assert peak[0] == 4
    assert not inflight  # drained
    assert all(r.done is not None for r in reqs)
    # 10 completions inside the 0.1 s window plus the 3 still in flight at its end
    assert len(reqs) == 13
    assert elapsed == pytest.approx(0.13)


def test_offsets():
    rng = np.random.default_rng(0)
    off = loadgen.poisson_offsets(200.0, 10.0, rng)
    assert len(off) == 2000 and np.all(np.diff(off) > 0)
    assert loadgen.periodic_offsets(0.25, 1.1).tolist() == [0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        loadgen.poisson_offsets(0.0, 1.0, rng)


def test_steady_qps_is_the_median_per_batch_rate():
    from pbench.serve import steady_qps

    def reqs(batches):
        return [loadgen.Request(0, 10.0, 10.0, None, done=t) for t, n in batches for _ in range(n)]

    # Batches of 64 every 0.1 s, one of them stalled for a second.
    batches = [(10.1, 64), (10.2, 64), (10.3, 64), (11.3, 64), (11.4, 64), (11.5, 64)]
    assert steady_qps(reqs(batches)) == pytest.approx(640.0)
    # fewer than three batches: completions over elapsed time
    assert steady_qps(reqs([(10.5, 2), (11.0, 2)])) == pytest.approx(4.0)
    assert steady_qps([]) == 0.0
