"""Adapter protocol connecting a MAC model to the ParMAC engines.

The engines know nothing about binary autoencoders or deep nets; they move
:class:`SubmodelSpec`-tagged parameter vectors around a ring and call back
into an adapter for the actual numerics. An adapter supplies:

* the list of submodels (hash functions + decoder groups for a BA; hidden
  units for a deep net);
* ``batch_key(spec)`` — a hashable, never-None compatibility key:
  submodels of one home block sharing a key train together (same layer
  for a net, same kind for a BA);
* ``w_update_batch(specs, thetas, states, shard, mu, *, batch_size,
  shuffle, rng)`` — one shared SGD pass of a compatible group over one
  shard (the travelling-submodel work unit, one GEMM per minibatch);
  returns the new theta per spec. Under ``shuffle`` every member takes
  the minibatch order ``rng.permutation(n)``, from a fresh generator the
  engines key on where the visit happens. Engines drive it through
  :mod:`repro.distributed.batching`, the only W-step path;
* ``z_update`` — the per-shard Z step given the assembled model,
  returning a :class:`ZStepResult`: the coordinates it changed and the
  shard's ``(E_Q, nested objective, violations)`` under the new ones.
  It is the one adapter call every engine makes per shard after the W
  step; engines total the results with :meth:`ZStepResult.total`;
* ``shard_stats`` — the same three statistics of a shard as it stands,
  without a Z step (diagnostics, timing-only simulations);
  ``e_q_shard`` / ``e_ba_shard`` / ``violations_shard`` name its parts;
* ``compute_dtype`` — the model's end-to-end float precision; engines,
  the data plane and checkpoints thread it through so reduced-precision
  training (paper section 9) is a model property, not a per-engine hack.

The data plane refuses an adapter that does not implement every member
(``isinstance(adapter, ParMACAdapter)``) before any worker starts. Both
adapters in this repo also keep a per-unit ``w_update``: the reference
kernel ``w_update_batch`` is tested against, which no engine calls.

This mirrors the paper's observation that ParMAC is a *meta*-algorithm: the
ring protocol is identical for any nested model (section 9).

An adapter whose update is only correct on a bounded machine set says
so with ``max_machines`` (an int, or None for no cap; absent means
None): the data plane refuses larger sets at setup, restore and join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Protocol, runtime_checkable

import numpy as np

from repro.optim.sgd import SGDState

__all__ = [
    "SubmodelSpec",
    "ZStepResult",
    "ParMACAdapter",
    "get_params_many",
    "set_params_many",
]


@dataclass(frozen=True)
class SubmodelSpec:
    """Identity of one independent W-step subproblem.

    Attributes
    ----------
    sid : int
        Dense id in ``range(M)``.
    kind : str
        Adapter-defined tag (e.g. ``"enc"`` / ``"dec"`` for a BA).
    index : Any
        Adapter payload locating the parameters (bit index, row tuple, ...).
        Must be hashable and picklable.
    """

    sid: int
    kind: str
    index: Any = None


class ZStepResult(NamedTuple):
    """What one shard's Z step reports: coordinates changed, and the
    shard's E_Q, nested objective and constraint residual under the new
    coordinates."""

    z_changes: int
    e_q: float
    e_ba: float
    violations: float

    @classmethod
    def total(cls, per_machine: dict) -> ZStepResult:
        """Field-wise sum of ``{machine id: result}`` in ascending machine
        id — the one reduction every engine makes, so the float totals are
        bit-identical across engines whatever order the ring visits its
        machines in."""
        z_changes, e_q, e_ba, violations = 0, 0.0, 0.0, 0
        for p in sorted(per_machine):
            r = per_machine[p]
            z_changes += r.z_changes
            e_q += r.e_q
            e_ba += r.e_ba
            violations += r.violations
        return cls(z_changes, float(e_q), float(e_ba), violations)


@runtime_checkable
class ParMACAdapter(Protocol):
    """What the engines require of a model. See module docstring."""

    def submodel_specs(self) -> list[SubmodelSpec]:
        """All W-step submodels, sid-ordered."""
        ...

    def get_params(self, spec: SubmodelSpec) -> np.ndarray:
        """Current flat parameter vector of one submodel (from the model)."""
        ...

    def set_params(self, spec: SubmodelSpec, theta: np.ndarray) -> None:
        """Write one submodel's parameters back into the model."""
        ...

    @property
    def compute_dtype(self) -> np.dtype:
        """The model's end-to-end float precision."""
        ...

    def batch_key(self, spec: SubmodelSpec):
        """Hashable key (never None): submodels of one home block sharing
        it train as one stacked pass."""
        ...

    def w_update_batch(
        self,
        specs: list[SubmodelSpec],
        thetas: list[np.ndarray],
        states: list[SGDState],
        shard,
        mu: float,
        *,
        batch_size: int,
        shuffle: bool,
        rng,
    ) -> list[np.ndarray]:
        """One shared SGD pass of compatible submodels ``specs`` over
        ``shard``; returns the new theta per spec.

        Under ``shuffle`` the members' minibatch order is
        ``rng.permutation(n)``, the first draw of the fresh keyed
        generator the engine passes. Must not touch the adapter's model
        object — during the W step the authoritative parameters are the
        ones travelling in the messages.
        """
        ...

    def z_update(self, shard, mu: float) -> ZStepResult:
        """Z step on one shard in place, under the adapter's assembled
        model; returns the changed bits (or coordinates) and the shard's
        statistics under the new codes, as :meth:`shard_stats` would."""
        ...

    def shard_stats(self, shard, mu: float) -> tuple[float, float, float]:
        """``(e_q, e_ba, violations)`` of this shard as it stands, under
        the assembled model — the three statistics below, computed
        together."""
        ...

    def e_q_shard(self, shard, mu: float) -> float:
        """This shard's contribution to E_Q."""
        ...

    def e_ba_shard(self, shard) -> float:
        """This shard's contribution to the nested objective."""
        ...

    def violations_shard(self, shard) -> float:
        """This shard's constraint residual (bits disagreeing with the
        nested model for a BA, ``sum_k ||Z_k - f_k(Z_{k-1})||^2`` for a
        deep net); 0 together with no Z changes is the stopping test."""
        ...


def get_params_many(adapter, specs) -> list[np.ndarray]:
    """Parameter vectors for many submodels, batched when the adapter can.

    Engines read every resident submodel at seeding time and all M at
    assembly; an adapter exposing ``get_params_batch`` (e.g. the deep-net
    adapter, which turns M per-unit concatenates into one matrix slice
    per layer) serves them in bulk. Wire granularity is unaffected —
    messages still carry one sid each.
    """
    batch = getattr(adapter, "get_params_batch", None)
    if batch is not None:
        return batch(list(specs))
    return [adapter.get_params(spec) for spec in specs]


def set_params_many(adapter, items) -> None:
    """Write many ``(spec, theta)`` pairs back, batched when the adapter can.

    The shard-local hot path: every machine writes all M final submodels
    into its model copy at the end of every W step.
    """
    items = list(items)
    batch = getattr(adapter, "set_params_batch", None)
    if batch is not None:
        batch(items)
        return
    for spec, theta in items:
        adapter.set_params(spec, theta)
