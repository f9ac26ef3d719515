"""Co-resident-unit batching for the W step — one GEMM per group visit.

ParMAC's W step is embarrassingly parallel across submodels, but the unit
of work the engines schedule — one travelling submodel's SGD pass over one
shard — is tiny for models with many small submodels (a deep net has one
submodel per *hidden unit*). Running M/P of those passes as M/P separate
Python loops per machine visit leaves almost all the machine's FLOPs on
the table. This module implements the ROADMAP "hot paths" fix: submodels
that are co-resident on a machine and compatible (same layer for a net,
same kind for a BA) run their visit as **one stacked pass** through the
adapter's ``w_update_batch`` — the per-unit ``delta`` vectors become an
``(n_batch, m_units)`` matrix and the whole group's gradients come from a
single GEMM per minibatch.

Batching must not change *what* is computed, only how fast — and the
conformance suite holds every engine to bit-identical results. Two rules
make that possible:

* **Every visit's minibatch order is a keyed draw.** Under
  ``shuffle_within`` a visit's order is ``keyed_rng(seed, iteration,
  machine, counter, home, pass).permutation(n)`` (:func:`_visit_rng`):
  a pure function of where the visit happens, shared by every member of
  its convoy. With shuffling off the order is the sequential one. Either
  way no engine carries RNG state.

* **Groups are protocol-deterministic, not timing-dependent.** A batch is
  a *convoy*: the submodels of one home machine's contiguous block (split
  by the adapter's ``batch_key``) at one visit counter. Convoy members
  follow identical routes — the successor of a message depends only on
  (machine, counter) — so they are co-resident on every engine, whether
  the engine is a lockstep tick simulation, a discrete-event simulation
  or real processes racing over sockets. Engines accumulate arriving
  messages per (group, counter) in a :class:`BatchAccumulator` and train
  a group exactly when its last member arrives; group composition (and
  therefore every GEMM's operand shapes, hence its bits) is identical
  everywhere, so every engine's fit is bit-identical — see
  docs/architecture.md.

The convoy pass is the only way any engine trains a visit. An adapter's
per-unit ``w_update`` is the reference kernel the stacked one is tested
against (to machine precision: a stacked GEMM and per-unit GEMVs
associate their reductions differently); no engine calls it.
"""

from __future__ import annotations

from repro.utils.rng import keyed_rng

__all__ = ["GroupTable", "BatchAccumulator", "train_message_batch"]


class GroupTable:
    """sid -> batch group, derived once per iteration from the home map.

    A group is ``(home machine, adapter batch_key)``: the members of one
    home's contiguous submodel block that the adapter allows to train
    together. ``homes`` maps sid -> home machine — the same assignment
    every engine plans with, which is what makes the grouping identical
    across backends.
    """

    def __init__(self, adapter, homes):
        self.group_of: dict[int, tuple] = {}
        self.group_size: dict[tuple, int] = {}
        for spec in adapter.submodel_specs():
            gid = (homes[spec.sid], adapter.batch_key(spec))
            self.group_of[spec.sid] = gid
            self.group_size[gid] = self.group_size.get(gid, 0) + 1


class BatchAccumulator:
    """Per-machine buffer completing convoys as their members arrive.

    ``add`` stashes a message under its (group, counter) bucket and
    returns the full sid-sorted group exactly when the last member lands,
    else None. Because convoy members share their entire visit sequence,
    every bucket that opens during an iteration is guaranteed to fill —
    :attr:`n_pending` must be zero when the iteration's receives are
    exhausted, which the engines assert.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        self._pending: dict[tuple, list] = {}

    def add(self, msg):
        gid = self.table.group_of[msg.spec.sid]
        bucket = self._pending.setdefault((gid, msg.counter), [])
        bucket.append(msg)
        if len(bucket) < self.table.group_size[gid]:
            return None
        del self._pending[(gid, msg.counter)]
        bucket.sort(key=lambda m: m.spec.sid)
        return bucket

    @property
    def n_pending(self) -> int:
        return sum(len(bucket) for bucket in self._pending.values())


def _visit_rng(key, k: int):
    """The generator pass ``k`` of a visit draws its minibatch order from:
    keyed on ``key + (k,)``, ``key`` being ``(seed, iteration, machine,
    counter, home)`` (counter 0 at the home machine); None, drawing
    nothing, when ``key`` is None (``shuffle_within`` off)."""
    return None if key is None else keyed_rng(*key, k)


def train_message_batch(adapter, msgs, shard, mu, *, passes, batch_size, key):
    """Run ``passes`` stacked SGD passes for one completed group in place.

    Members are already sid-sorted (stacking order fixes GEMM operand
    layout, so it must be deterministic); each message's theta is replaced
    by its updated parameters and its carried ``SGDState`` advances once
    per minibatch, as the per-unit kernel would advance it. Pass ``k``
    draws its minibatch order from :func:`_visit_rng`.
    """
    specs = [msg.spec for msg in msgs]
    thetas = [msg.theta for msg in msgs]
    states = [msg.sgd_state for msg in msgs]
    for k in range(passes):
        thetas = adapter.w_update_batch(
            specs, thetas, states, shard, mu,
            batch_size=batch_size, shuffle=key is not None, rng=_visit_rng(key, k),
        )
    for msg, theta in zip(msgs, thetas):
        msg.theta = theta
