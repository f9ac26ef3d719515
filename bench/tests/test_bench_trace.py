import json

import pytest

from pbench.trace import Tracer, self_times, summarize


def test_self_time_is_span_minus_union_of_children():
    tr = Tracer()
    root = tr.add("iteration", 0.0, 10.0, trace="fit-0")
    tr.add("w", 1.0, 4.0, trace="fit-0", parent=root)
    tr.add("z", 3.0, 6.0, trace="fit-0", parent=root)      # overlaps w by 1 s
    tr.add("z", 8.0, 12.0, trace="fit-0", parent=root)     # sticks out: clipped at 10
    selfs = self_times(tr.spans)
    assert selfs[root] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0)  # leaves keep their whole duration


def test_summarize_groups_by_name():
    tr = Tracer()
    a = tr.add("batch", 0.0, 2.0, trace="batch-1")
    tr.add("search", 0.5, 2.0, trace="batch-1", parent=a)
    b = tr.add("batch", 5.0, 6.0, trace="batch-2")
    tr.add("search", 5.0, 5.9, trace="batch-2", parent=b)
    rows = summarize(tr.spans)
    assert rows["batch"]["count"] == 2
    assert rows["batch"]["total_s"] == pytest.approx(3.0)
    assert rows["batch"]["self_s"] == pytest.approx(0.5 + 0.1)
    assert rows["search"]["self_s"] == pytest.approx(2.4)


def test_span_context_uses_the_injected_clock_and_nests(tmp_path):
    ticks = iter([1.0, 2.0, 5.0, 9.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("fit", trace="fit-0") as fid:
        with tr.span("setup", trace="fit-0", parent=fid):
            pass
    fit, setup = tr.spans
    assert (fit.start, fit.end, fit.parent) == (1.0, 9.0, None)
    assert (setup.start, setup.end, setup.parent) == (2.0, 5.0, fid)
    path = tmp_path / "out" / "trace.jsonl"
    tr.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["fit", "setup"]
    assert lines[1]["trace"] == "fit-0"
