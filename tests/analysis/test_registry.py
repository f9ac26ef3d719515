"""The rule registry and the path scopes that decide where each rule
family applies."""

import pytest

from repro.analysis.registry import (
    all_rules,
    file_rules,
    project_rules,
    rule_descriptions,
)
from repro.analysis.scopes import (
    is_compute_path,
    is_concurrency_module,
    is_protocol_deterministic,
)


def test_every_rule_is_described_once_in_order():
    rules = all_rules()
    assert rules == sorted(set(rules))
    assert set(rule_descriptions()) == set(rules)
    assert all(rule_descriptions()[r] for r in rules)


def test_descriptions_are_a_copy():
    rule_descriptions()["DET001"] = "changed"
    assert rule_descriptions()["DET001"] != "changed"


def test_file_and_project_rules_are_disjoint_checks():
    per_file, per_project = file_rules(), project_rules()
    assert all(callable(r) for r in per_file + per_project)
    assert not set(per_file) & set(per_project)


@pytest.mark.parametrize(
    "path, protocol, compute, concurrency",
    [
        ("src/repro/distributed/chaos.py", True, False, False),
        ("src\\repro\\distributed\\framing.py", True, False, False),
        ("repro/distributed/protocol.py", True, False, False),
        ("src/repro/distributed/protocol_extra.py", False, False, False),
        ("src/repro/optim/svm.py", False, True, False),
        ("src/repro/serve/index.py", False, True, True),
        ("src/repro/distributed/backends/mp.py", False, False, True),
        ("src/repro/distributed/pool.py", False, False, True),
        ("tests/optim/test_svm.py", False, False, False),
        ("benchmarks/bench_fig07_sift10k_curves.py", False, False, False),
    ],
)
def test_scopes(path, protocol, compute, concurrency):
    assert is_protocol_deterministic(path) is protocol
    assert is_compute_path(path) is compute
    assert is_concurrency_module(path) is concurrency
