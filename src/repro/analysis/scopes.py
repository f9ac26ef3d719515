"""Which contracts apply to which modules.

The rule families are *scoped*: a wall-clock read in a benchmark script
is fine, the same read inside the chaos sampler breaks cross-engine
replay. Scoping is by path suffix against the repo layout, so the rules
work both on real tree paths (``src/repro/distributed/chaos.py``) and on
fixture paths used by the analyzer's own tests.
"""

from __future__ import annotations

from fnmatch import fnmatch

__all__ = [
    "is_protocol_deterministic",
    "is_compute_path",
    "is_concurrency_module",
]

# Modules carrying the cross-engine bit-parity contract: every branch
# they take must be a pure function of (seed, scenario), never of the
# host. framing/messages sit on the wire path — a nondeterministic codec
# would desynchronize replay between the mp and tcp transports.
_PROTOCOL_DETERMINISTIC = (
    "repro/distributed/protocol.py",
    "repro/distributed/batching.py",
    "repro/distributed/chaos.py",
    "repro/distributed/framing.py",
    "repro/distributed/messages.py",
)

# Modules on the numeric compute path, where compute_dtype is threaded
# explicitly and a dtype-less constructor defaults to float64 and leaks
# an upcast into the next matmul. The repro/ anchor keeps the contract
# on library code: tests pinning float64 semantics are out of scope.
_COMPUTE_PATH = (
    "repro/optim/*",
    "repro/autoencoder/*",
    "repro/nets/*",
    "repro/serve/index.py",
)

# Modules that hold locks while wall-clock peers can die. LOCK001/002
# run everywhere, but these are the ones the family was built for; the
# DEADLINE family (unbounded waits) is scoped to exactly this set.
_CONCURRENCY = (
    "repro/serve/service.py",
    "repro/serve/index.py",
    "repro/distributed/backends/mp.py",
    "repro/distributed/backends/tcp.py",
    "repro/distributed/backends/worker.py",
    "repro/distributed/backends/ring.py",
    "repro/distributed/pool.py",
    "repro/distributed/health.py",
)


def _matches(path: str, patterns: tuple[str, ...]) -> bool:
    norm = path.replace("\\", "/")
    for pat in patterns:
        if norm.endswith(pat.rstrip("*").rstrip("/")) and not pat.endswith("*"):
            if norm == pat or norm.endswith("/" + pat):
                return True
        if fnmatch(norm, "*/" + pat) or fnmatch(norm, pat):
            return True
    return False


def is_protocol_deterministic(path: str) -> bool:
    return _matches(path, _PROTOCOL_DETERMINISTIC)


def is_compute_path(path: str) -> bool:
    return _matches(path, _COMPUTE_PATH)


def is_concurrency_module(path: str) -> bool:
    return _matches(path, _CONCURRENCY)
