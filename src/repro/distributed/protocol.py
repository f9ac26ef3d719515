"""The W-step wire protocol: visit counters, routes, termination counts.

Counter semantics (paper section 4.1): a submodel's counter increments on
every machine visit. With P machines and e epochs it trains while
``counter <= P*e`` (each epoch = one lap of the ring) and keeps being
forwarded until ``counter == P*(e+1) - 1``, at which point every machine
holds a copy of the final parameters. Section 4.2's *two-round* variant
instead performs all e passes consecutively at each machine, so a submodel
makes a single training lap (``counter <= P``) plus the broadcast lap,
cutting communication to 2 rounds total.

Routing (section 4.3, shuffling): the ring may be re-randomised at every
epoch; a :class:`RoutePlan` holds one ring per epoch (plus one for the
broadcast lap) and answers "where does this message go next" from the
message counter — the in-code analogue of the paper's random lookup table.
A shuffled plan is keyed on (seed, iteration, epoch), never drawn from a
stream.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.distributed.topology import RingTopology
from repro.utils.rng import keyed_rng

__all__ = [
    "WStepProtocol",
    "RoutePlan",
    "home_assignment",
    "expected_receives",
    "expected_senders",
    "replan",
]


def home_assignment(n_submodels: int, machines) -> dict[int, int]:
    """Contiguous-block home machines, as in paper fig. 2.

    ``machines`` is either a machine count (homes are ranks 0..P-1) or an
    explicit id list — the survivor set after shard retirements, whose
    ids need not be contiguous. Each submodel sid maps to the machine
    whose contiguous block of the sid-ordered submodel list contains it.
    """
    if isinstance(machines, int):
        machines = range(machines)
    machines = list(machines)
    P = len(machines)
    if P < 1:
        raise ValueError("need at least one machine")
    return {sid: machines[sid * P // n_submodels] for sid in range(n_submodels)}


def replan(machines, n_submodels: int, epochs: int, scheme: str):
    """(protocol, homes) for the given ring order.

    The one re-planning call shared by fit setup, survivor excision after
    a ``drop_shard`` recovery, and mid-fit machine joins: the counter
    protocol is sized to the machine count and homes are dealt over the
    machines *in cycle order* — the same order the simulated engines use,
    which is what keeps home assignment (and therefore every travelling
    submodel's visit sequence) bit-identical across backends after any
    membership change.
    """
    machines = list(machines)
    return (
        WStepProtocol(len(machines), epochs, scheme),
        home_assignment(n_submodels, machines),
    )


@dataclass(frozen=True)
class WStepProtocol:
    """Counter bookkeeping for one W step.

    Parameters
    ----------
    n_machines : int
    epochs : int
        Number of passes over the full dataset (e in the paper).
    scheme : {"rounds", "tworound"}
        "rounds": e communication rounds + broadcast (section 4.1).
        "tworound": 1 training lap with e local passes + broadcast
        (section 4.2).
    """

    n_machines: int
    epochs: int
    scheme: str = "rounds"

    def __post_init__(self):
        if self.n_machines < 1:
            raise ValueError(f"n_machines must be >= 1, got {self.n_machines}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.scheme not in ("rounds", "tworound"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    # ------------------------------------------------------------ lifecycle
    @property
    def training_visits(self) -> int:
        """Visits during which training happens."""
        if self.scheme == "rounds":
            return self.n_machines * self.epochs
        return self.n_machines

    @property
    def total_visits(self) -> int:
        """Total visits including the broadcast lap.

        ``P(e+1) - 1`` for "rounds" (section 4.1), ``2P - 1`` for
        "tworound"; each machine ends up holding the final parameters.
        """
        return self.training_visits + self.n_machines - 1

    def train_passes(self, counter: int) -> int:
        """SGD passes to run at the visit with this (incremented) counter."""
        if not 1 <= counter <= self.total_visits:
            raise ValueError(
                f"counter {counter} outside [1, {self.total_visits}]"
            )
        if counter > self.training_visits:
            return 0
        return 1 if self.scheme == "rounds" else self.epochs

    def is_final(self, counter: int) -> bool:
        """True once the parameters seen at this visit are final."""
        return counter >= self.training_visits

    def should_forward(self, counter: int) -> bool:
        """True while the message must keep travelling after this visit."""
        return counter < self.total_visits

    def hop_epoch(self, counter: int) -> int:
        """Index of the ring used for the hop *after* this visit.

        Training hops use their epoch's ring; broadcast hops use the last
        ring. For "tworound" there is a single training lap (epoch 0) and
        the broadcast lap (epoch 1).
        """
        if self.scheme == "rounds":
            return min(counter // self.n_machines, self.epochs)
        return min(counter // self.n_machines, 1)

    @property
    def n_rings(self) -> int:
        """Rings a RoutePlan must provide for this protocol."""
        return (self.epochs + 1) if self.scheme == "rounds" else 2

    def communication_rounds(self) -> int:
        """Times the full model crosses the network per W step.

        e+1 for "rounds", 2 for "tworound" — the headline numbers of
        sections 4.1/4.2.
        """
        return self.epochs + 1 if self.scheme == "rounds" else 2


class RoutePlan:
    """Per-epoch successor lookup for travelling submodels."""

    def __init__(self, rings: list[RingTopology], protocol: WStepProtocol):
        if len(rings) != protocol.n_rings:
            raise ValueError(
                f"protocol needs {protocol.n_rings} rings, got {len(rings)}"
            )
        machines = set(rings[0].machines)
        for ring in rings[1:]:
            if set(ring.machines) != machines:
                raise ValueError("all rings must cover the same machines")
        self.rings = rings
        self.protocol = protocol

    @classmethod
    def fixed(cls, topology: RingTopology, protocol: WStepProtocol) -> "RoutePlan":
        """Same ring for every epoch (no cross-machine shuffling)."""
        return cls([topology] * protocol.n_rings, protocol)

    @classmethod
    def shuffled(
        cls, machines, protocol: WStepProtocol, seed: int, iteration: int
    ) -> "RoutePlan":
        """A random ring per epoch (cross-machine shuffling), epoch e's
        keyed on ``(seed, iteration, e)`` — the same plan on every engine,
        and again on a retry or after a restore."""
        rings = [
            RingTopology.random(machines, keyed_rng(seed, iteration, e))
            for e in range(protocol.n_rings)
        ]
        return cls(rings, protocol)

    # --------------------------------------------------- wire serialisation
    # A RoutePlan reduces to its ring orders: cheap to ship to workers per
    # iteration (plain lists of ints, no object graph) and rebuilt against
    # the protocol each endpoint already holds.
    def to_orders(self) -> list[list[int]]:
        """The plan as plain per-epoch machine orders."""
        return [ring.machines for ring in self.rings]

    @classmethod
    def from_orders(cls, orders, protocol: WStepProtocol) -> "RoutePlan":
        """Rebuild a plan shipped as :meth:`to_orders` output."""
        return cls([RingTopology(order) for order in orders], protocol)

    @property
    def machines(self) -> list[int]:
        return self.rings[0].machines

    def successor(self, machine: int, counter: int) -> int:
        """Where the message goes after the visit with this counter."""
        return self.rings[self.protocol.hop_epoch(counter)].successor(machine)

    def path(self, home: int) -> list[int]:
        """Full visit sequence of a submodel homed at ``home`` (length
        ``total_visits``), for termination counting and tests."""
        seq = [home]
        p = home
        for c in range(1, self.protocol.total_visits):
            p = self.successor(p, c)
            seq.append(p)
        return seq


def expected_receives(plan: RoutePlan, homes: dict[int, int]) -> dict[int, int]:
    """Ring messages each machine will *receive* during one W step.

    ``homes`` maps submodel sid -> home machine. The first visit of each
    submodel happens locally at its home (no receive); every later visit is
    a receive. Engines and the multiprocessing workers use these counts as
    their deterministic termination condition (no sentinel messages needed).
    """
    counts = {p: 0 for p in plan.machines}
    for home in homes.values():
        for p in plan.path(home)[1:]:
            counts[p] += 1
    return counts


def expected_senders(plan: RoutePlan, homes: dict[int, int], machine: int) -> dict[int, int]:
    """Ring messages ``machine`` receives from each peer during one W step.

    The per-sender split of :func:`expected_receives`. A peer that has
    delivered all of them owes ``machine`` nothing more this W step, so
    its connection closing (it died at its Z step) is not a fault here.
    """
    counts: dict[int, int] = {}
    for home in homes.values():
        path = plan.path(home)
        for p, q in zip(path, path[1:]):
            if q == machine:
                counts[p] = counts.get(p, 0) + 1
    return counts
