#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py PARENT.json CHANGE.json``.

With one argument, ``compare.py SET.json``, print how steady that set is:
each metric's median, quartiles and inter-quartile spread as a share of
the median, beside the third of its bound the spread should stay under.

A set is what ``bench/run.py --runs N --out FILE`` writes: N runs of every
workload, run ``i`` of both sets using the same seed. For every workload
and end-to-end metric the table gives each side's median and quartiles,
the ratio of medians with its base, and a verdict by the pairing rule of
the choosing-metrics guide:

* ``better``     the change wins at least nine tenths of the pairs (ties
                 count for neither) and the medians differ by more than
                 the parent's own inter-quartile distance, or every run
                 of the change beats every run of the parent;
* ``worse``      the change's median is worse than the parent's by more
                 than the metric's bound;
* ``unresolved`` neither of the above, and the parent's inter-quartile
                 distance is wider than the bound, so "no regression"
                 cannot be told from noise;
* ``unchanged``  otherwise.

Exit status is 1 when any metric is ``worse`` or the change's failed
share is higher than the parent's, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench import spec, stats  # noqa: E402

__all__ = ["verdict", "compare_sets", "steadiness", "main"]


def _gain(parent: float, change: float, better: str) -> float:
    """Positive when ``change`` reads better than ``parent``."""
    return parent - change if better == "lower" else change - parent


def verdict(parent, change, *, better: str, bound: float) -> str:
    """The pairing-rule verdict for one metric on one workload.

    ``parent`` and ``change`` are equally long lists; entry ``i`` of each
    is one pair.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs, at least one")
    q1, med_p, q3 = stats.quartiles(parent)
    med_c = stats.median(change)
    iqr = q3 - q1
    gains = [_gain(p, c, better) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    decided = wins + losses
    all_beat = min(_gain(p, c, better) for p in parent for c in change) > 0
    median_gain = _gain(med_p, med_c, better)
    if all_beat or (decided and wins >= 0.9 * decided and median_gain > iqr):
        return "better"
    if -median_gain > bound * abs(med_p):
        return "worse"
    if iqr > bound * abs(med_p):
        return "unresolved"
    return "unchanged"


def _by_workload(doc: dict) -> dict:
    out: dict[str, list] = {}
    for run in doc["runs"]:
        out.setdefault(run["workload"], []).append(run)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def compare_sets(parent_doc: dict, change_doc: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison table and whether anything regressed."""
    parent, change = _by_workload(parent_doc), _by_workload(change_doc)
    rows, regressed = [], False
    for workload in parent:
        p_runs, c_runs = parent[workload], change.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "share",
            "parent": (p_fail,) * 3, "change": (c_fail,) * 3, "ratio": None, "pairs": n,
            "verdict": "worse" if c_fail > p_fail else "unchanged",
        })
        regressed = regressed or c_fail > p_fail
        for name, unit, better, bound in spec.END_TO_END:
            if name not in p_runs[0]["metrics"] or name not in c_runs[0]["metrics"]:
                continue
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(p, c, better=better, bound=bound)
            pq, cq = stats.quartiles(p), stats.quartiles(c)
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "parent": pq, "change": cq,
                "ratio": cq[1] / pq[1] if pq[1] else None, "pairs": n, "verdict": v,
            })
            regressed = regressed or v == "worse"
    return rows, regressed


def steadiness(doc: dict) -> list[dict]:
    """Per workload and end-to-end metric: quartiles, spread, and whether
    the spread is under a third of the bound."""
    rows = []
    for workload, runs in _by_workload(doc).items():
        for name, unit, _, bound in spec.END_TO_END:
            if name not in runs[0]["metrics"]:
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.spread(values)
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "n": len(values),
                "quartiles": stats.quartiles(values), "spread": spread, "bound": bound,
                "steady": spread <= bound / 3,
            })
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        for r in steadiness(json.loads(Path(argv[0]).read_text())):
            print(f"{r['workload']:<18} {r['metric']:<14} {_fmt(r['quartiles']):<34} "
                  f"{r['unit']:<5} spread {r['spread']:.3f}  bound/3 {r['bound'] / 3:.3f}  "
                  f"{'steady' if r['steady'] else 'NOISY'} ({r['n']} runs)")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_doc, change_doc = (json.loads(Path(a).read_text()) for a in argv)
    rows, regressed = compare_sets(parent_doc, change_doc)
    print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':<18} verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f} of {r['parent'][1]:.5g}"
        print(f"{r['workload']:<18} {r['metric']:<14} {_fmt(r['parent']):<34} "
              f"{_fmt(r['change']):<34} {ratio:<18} {r['verdict']} ({r['pairs']} pairs)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
