"""Circular (ring) topologies over machines.

"The circular topology is the minimal topology ... necessary to be able to
optimise a global model on the entire dataset with P machines" (paper
section 9). A :class:`RingTopology` is a single directed cycle over a set
of machine ids; it supports random rewiring (cross-machine shuffling,
section 4.3) and on-the-fly insertion/removal of machines (streaming and
fault tolerance).
"""

from __future__ import annotations


from repro.utils.rng import check_random_state

__all__ = ["RingTopology"]


class RingTopology:
    """A single directed cycle over machine ids.

    Parameters
    ----------
    order : sequence of int
        The cycle as a visiting order: machine ``order[i]`` sends to
        ``order[(i+1) % P]``. Ids need not be contiguous (machines may have
        been removed).
    """

    def __init__(self, order):
        order = [int(p) for p in order]
        if len(order) == 0:
            raise ValueError("a ring needs at least one machine")
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate machine ids in ring order {order}")
        self._order = order
        self._succ = {p: order[(i + 1) % len(order)] for i, p in enumerate(order)}

    # ------------------------------------------------------------ factories
    @classmethod
    def identity(cls, n_machines: int) -> "RingTopology":
        """The natural ring 0 -> 1 -> ... -> P-1 -> 0."""
        if n_machines < 1:
            raise ValueError(f"n_machines must be >= 1, got {n_machines}")
        return cls(range(n_machines))

    @classmethod
    def random(cls, machines, rng=None) -> "RingTopology":
        """A uniformly random cycle over the given machine ids."""
        rng = check_random_state(rng)
        machines = list(machines)
        perm = rng.permutation(len(machines))
        return cls([machines[i] for i in perm])

    # ------------------------------------------------------------------ API
    @property
    def machines(self) -> list[int]:
        """Machine ids in cycle order."""
        return list(self._order)

    @property
    def n_machines(self) -> int:
        return len(self._order)

    def successor(self, p: int) -> int:
        """The machine ``p`` sends to."""
        try:
            return self._succ[p]
        except KeyError:
            raise KeyError(f"machine {p} is not in the ring {self._order}") from None

    def predecessor(self, p: int) -> int:
        """The machine that sends to ``p`` (used for fault recovery)."""
        if p not in self._succ:
            raise KeyError(f"machine {p} is not in the ring {self._order}")
        i = self._order.index(p)
        return self._order[i - 1]

    def __contains__(self, p: int) -> bool:
        return p in self._succ

    # ------------------------------------------------------- modifications
    def with_machine(self, p: int, *, after: int | None = None) -> "RingTopology":
        """Insert machine ``p`` after machine ``after`` (default: cycle end).

        Streaming form 2 (section 4.3): "connecting it between any two
        machines (done by setting the address of their successor)".
        """
        if p in self._succ:
            raise ValueError(f"machine {p} is already in the ring")
        order = list(self._order)
        if after is None:
            order.append(p)
        else:
            if after not in self._succ:
                raise KeyError(f"machine {after} is not in the ring")
            order.insert(order.index(after) + 1, p)
        return RingTopology(order)

    def without_machine(self, p: int) -> "RingTopology":
        """Remove machine ``p``, reconnecting predecessor -> successor."""
        if p not in self._succ:
            raise KeyError(f"machine {p} is not in the ring {self._order}")
        if len(self._order) == 1:
            raise ValueError("cannot remove the last machine from the ring")
        return RingTopology([q for q in self._order if q != p])

    # ------------------------------------------------------------ checking
    def validate(self) -> None:
        """Assert the successor map is one single cycle covering all machines."""
        start = self._order[0]
        seen = [start]
        p = self._succ[start]
        while p != start:
            if p in seen:
                raise AssertionError(f"successor map has a sub-cycle at {p}")
            seen.append(p)
            p = self._succ[p]
        if len(seen) != len(self._order):
            raise AssertionError(
                f"cycle covers {len(seen)} machines, expected {len(self._order)}"
            )

    def __repr__(self) -> str:
        return f"RingTopology({' -> '.join(map(str, self._order))} -> {self._order[0]})"
