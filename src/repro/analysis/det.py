"""DET — determinism lint for protocol-deterministic modules.

The cross-engine parity contract (tests/distributed/test_engine_conformance)
requires that protocol.py, batching.py, chaos.py and the framing/codec
path compute identical decisions from (seed, scenario) on every engine.
Three ways that breaks statically:

* **DET001** — a global-state RNG call (``np.random.rand``, bare
  ``random.shuffle``): draws from interpreter-global streams that any
  other import can perturb. Use ``np.random.default_rng(seed)`` /
  ``repro.utils.rng.keyed_rng`` instead.
* **DET002** — a wall-clock read (``time.time``/``monotonic``/
  ``perf_counter``, ``datetime.now``): host-dependent. Wall-clock users
  must take an injected ``clock`` callable so replay/tests can pin it.
  Bare *references* fire too — ``clock=time.monotonic`` as a default
  argument is still a wall-clock dependency baked into protocol code.
* **DET003** — an entropy-seeded RNG root (``np.random.SeedSequence()``
  or ``np.random.RandomState()`` with no arguments): pulls OS entropy,
  so two runs of the "same" scenario diverge.
* **DET004** — iterating a ``set``/``frozenset``: iteration order is
  hash-salt-dependent across processes. Sort first (``sorted(...)`` is
  naturally exempt — the loop then iterates a list).
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, SourceFile, parent_of
from repro.analysis.scopes import is_protocol_deterministic

__all__ = ["check_det"]

_GLOBAL_NP_RANDOM = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "bytes",
        "standard_normal", "uniform", "normal", "beta", "binomial",
        "exponential", "gamma", "geometric", "poisson", "laplace",
        "get_state", "set_state",
    }
)

_GLOBAL_STDLIB_RANDOM = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "gauss", "getrandbits", "triangular",
        "betavariate", "normalvariate", "expovariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

# RNG roots that need an explicit seed argument to be reproducible.
_ENTROPY_ROOTS = frozenset({"numpy.random.SeedSequence", "numpy.random.RandomState"})


def _global_rng_call(resolved: str) -> str | None:
    """Return a human-readable culprit if ``resolved`` is a global-RNG fn.

    Only the *module-level* functions are global state: exactly
    ``numpy.random.<fn>`` / ``random.<fn>``. A longer path like
    ``numpy.random.default_rng.random`` is a method on a seeded
    Generator instance and is the sanctioned pattern.
    """
    module, _, leaf = resolved.rpartition(".")
    if module == "numpy.random" and leaf in _GLOBAL_NP_RANDOM:
        return f"np.random.{leaf}"
    if module == "random" and leaf in _GLOBAL_STDLIB_RANDOM:
        return resolved
    return None


def check_det(sf: SourceFile) -> list[Finding]:
    if not is_protocol_deterministic(sf.path):
        return []
    out: list[Finding] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            resolved = sf.symbols.resolve(node.func)
            if resolved is None:
                continue
            culprit = _global_rng_call(resolved)
            if culprit is not None:
                out.append(
                    sf.finding(
                        "DET001",
                        node,
                        f"global-state RNG call {culprit}() in a "
                        "protocol-deterministic module; use a seeded "
                        "np.random.Generator (repro.utils.rng.keyed_rng)",
                    )
                )
            elif resolved in _WALL_CLOCK:
                out.append(
                    sf.finding(
                        "DET002",
                        node,
                        f"wall-clock read {resolved}() in a protocol-"
                        "deterministic module; take an injected clock "
                        "callable instead",
                    )
                )
            elif resolved in _ENTROPY_ROOTS and not node.args and not node.keywords:
                out.append(
                    sf.finding(
                        "DET003",
                        node,
                        f"{resolved}() with no seed draws OS entropy; pass "
                        "an explicit seed so replays are reproducible",
                    )
                )
        elif isinstance(node, (ast.Attribute, ast.Name)):
            parent = parent_of(node)
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # the Call branch above owns this site
            if isinstance(parent, ast.Attribute):
                continue  # inner piece of a longer dotted path
            if isinstance(node, ast.Name):
                # Only direct from-imports of a clock function reach here;
                # alias bindings already fired at their assignment site.
                resolved = sf.symbols.names.get(node.id)
            else:
                resolved = sf.symbols.resolve(node)
            if resolved in _WALL_CLOCK:
                out.append(
                    sf.finding(
                        "DET002",
                        node,
                        f"wall-clock function {resolved} referenced in a "
                        "protocol-deterministic module (even as a default "
                        "argument); inject the clock at construction time",
                    )
                )
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            )
            if is_set:
                anchor = it if hasattr(it, "lineno") else node
                out.append(
                    sf.finding(
                        "DET004",
                        anchor,
                        "iteration over a set in a protocol-deterministic "
                        "module is hash-salt ordered; wrap in sorted(...)",
                    )
                )
    return out
