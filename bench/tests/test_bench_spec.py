import json
from dataclasses import asdict
from pathlib import Path

import pytest

from pbench import spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["p50_ms", "index.scan_ns_per_code.q64", "a", "A-b_c.9"])
def test_legal_names(name):
    assert spec.check_name(name) == name


@pytest.mark.parametrize("name", ["", ".hidden", "has space", "slash/y", "x" * 65, "µs"])
def test_illegal_names(name):
    with pytest.raises(ValueError):
        spec.check_name(name)


def test_metric_names_are_unique():
    names = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_is_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in spec.PER_LAYER
    ]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_targets_are_committed_for_seeds_0_to_2():
    for w in spec.WORKLOADS.values():
        assert [seed for seed, _ in w.train.target_e_q] == [0, 1, 2]
        assert w.train.frozen_target(0) > 0
        assert w.train.frozen_target(7) is None


def test_smoke_shrinks_sizes_never_the_shape():
    fixed_train = ("dim", "n_bits", "engine", "n_machines", "epochs", "shuffle_within",
                   "mu0", "factor", "n_iters")
    fixed_serve = ("dim", "n_bits", "n_shards", "k", "max_wait_ms", "max_batch",
                   "rate_qps", "sat_outstanding", "add_rows", "add_every_s")
    for name in spec.WORKLOADS:
        full, small = spec.resolve(name), spec.resolve(name, smoke=True)
        assert small.train.n < full.train.n and small.serve.n_base == 20_000
        for f in fixed_train:
            assert asdict(small.train)[f] == asdict(full.train)[f]
        for f in fixed_serve:
            assert asdict(small.serve)[f] == asdict(full.serve)[f]


def test_unknown_workload_exits():
    with pytest.raises(SystemExit):
        spec.resolve("nope")
