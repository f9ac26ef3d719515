import pytest

import compare

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]


def _v(change, **kw):
    kw.setdefault("better", "lower")
    kw.setdefault("bound", 0.10)
    return compare.verdict(PARENT, change, **kw)


def test_clear_win_is_better():
    assert _v([p * 0.8 for p in PARENT]) == "better"


def test_win_inside_the_parents_own_spread_is_not_a_gain():
    # wins every pair, but by less than the parent's inter-quartile distance
    assert _v([p - 0.01 for p in PARENT]) == "unchanged"


def test_regression_beyond_the_bound_is_worse():
    assert _v([p * 1.2 for p in PARENT]) == "worse"
    assert _v([p * 1.05 for p in PARENT]) == "unchanged"


def test_higher_is_better_flips_the_direction():
    assert _v([p * 1.2 for p in PARENT], better="higher") == "better"
    assert _v([p * 0.8 for p in PARENT], better="higher") == "worse"


def test_noisy_parent_is_unresolved_unless_every_run_wins():
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 15.0, 7.0, 12.0, 10.0, 11.0]
    assert compare.verdict(noisy, noisy[::-1], better="lower", bound=0.10) == "unresolved"
    assert compare.verdict(noisy, [5.0] * 10, better="lower", bound=0.10) == "better"


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] *= 0.5  # one decided pair, a win; the rest are ties
    assert _v(change) == "unchanged"  # medians did not move


def test_needs_pairs():
    with pytest.raises(ValueError):
        compare.verdict([1.0], [1.0, 2.0], better="lower", bound=0.1)


def _doc(scale, failed=0):
    return {"runs": [
        {"workload": "w", "seed": s, "attempted": 100, "failed": failed, "correct": not failed,
         "metrics": {"p50_ms": {"value": v * scale, "unit": "ms"}}}
        for s, v in enumerate(PARENT)
    ]}


def test_compare_sets_flags_regressions_and_failures():
    rows, regressed = compare.compare_sets(_doc(1.0), _doc(1.3))
    assert regressed
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "failed_share": "unchanged", "p50_ms": "worse"}
    p50 = next(r for r in rows if r["metric"] == "p50_ms")
    assert p50["ratio"] == pytest.approx(1.3) and p50["pairs"] == 10
    _, regressed = compare.compare_sets(_doc(1.0), _doc(1.0, failed=1))
    assert regressed
    _, regressed = compare.compare_sets(_doc(1.0), _doc(0.7))
    assert not regressed


def test_steadiness_reports_spread_against_a_third_of_the_bound():
    (row,) = compare.steadiness(_doc(1.0))
    assert row["metric"] == "p50_ms" and row["n"] == 10
    assert row["spread"] == pytest.approx((10.125 - 9.9) / 10.0)
    assert row["steady"]  # 0.0225 <= 0.10 / 3
