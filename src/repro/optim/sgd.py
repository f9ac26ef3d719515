"""Generic minibatch SGD machinery.

ParMAC's W step is "really carrying out stochastic steps for each submodel"
(paper section 4.1): a submodel visits machines in ring order and performs
SGD updates on each machine's shard, with minibatches of at most ``N/P``
points. The step counter must therefore persist *across* machine visits —
:class:`SGDState` carries it (and nothing else mutable) inside the submodel
message as it circulates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import check_random_state

__all__ = ["SGDState", "minibatch_indices", "sgd_epoch"]


@dataclass
class SGDState:
    """Mutable SGD bookkeeping carried along with a travelling submodel.

    Attributes
    ----------
    t : int
        Number of SGD steps (minibatches) taken so far, across all machines
        and epochs. Drives the step-size schedule.
    n_updates : int
        Number of individual example contributions (sum of minibatch sizes).
    """

    t: int = 0
    n_updates: int = 0

    def advance(self, batch_size: int, steps: int = 1) -> None:
        """Record ``steps`` minibatches of ``batch_size`` points in total."""
        self.t += int(steps)
        self.n_updates += int(batch_size)

    def copy(self) -> "SGDState":
        return SGDState(t=self.t, n_updates=self.n_updates)


def minibatch_indices(n: int, batch_size: int, *, shuffle: bool = True, rng=None):
    """Yield minibatches of at most ``batch_size`` indices covering ``range(n)``.

    With ``shuffle`` the order of points is randomised (within-machine
    shuffling, paper section 4.3); the final batch may be smaller.

    Batches are yielded lazily: one epoch over a large shard allocates a
    single permutation when shuffling and only per-batch index arrays when
    not — never a full list of every batch (the W step runs this once per
    submodel per machine visit, so the old eager list was a hot-path
    allocation). Argument validation still happens eagerly at the call
    site, and the shuffle order is drawn exactly once, before the first
    batch is yielded.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle:
        rng = check_random_state(rng)

        def batches():
            order = np.arange(n, dtype=np.intp)
            rng.shuffle(order)
            for i in range(0, n, batch_size):
                yield order[i : i + batch_size]

    else:

        def batches():
            for i in range(0, n, batch_size):
                yield np.arange(i, min(i + batch_size, n), dtype=np.intp)

    return batches()


def _visit_plan(schedule, states, n: int, batch_size: int, order=None):
    """A convoy visit's minibatches, their sizes and its float64
    ``(n_batches, len(states))`` step-size table, built once per visit.

    Minibatch k is rows ``k * batch_size`` onwards of ``order`` (an index
    array, gathered) or of the shard itself (``None``, a slice). Row k of
    the table holds each state's rate at its counter plus k, one
    ``schedule.rate`` call per distinct counter. The states advance here,
    once for the whole visit.
    """
    starts = np.arange(0, n, batch_size, dtype=np.int64)
    sizes = np.minimum(starts + batch_size, n) - starts
    t = np.add.outer(np.arange(len(starts), dtype=np.int64), [st.t for st in states])
    ts, inverse = np.unique(t.ravel(), return_inverse=True)
    rates = np.array([schedule.rate(int(u)) for u in ts], dtype=np.float64)[inverse]
    for st in states:
        st.advance(n, steps=len(starts))
    batches = [
        slice(a, a + m) if order is None else order[a : a + m]
        for a, m in zip(starts.tolist(), sizes.tolist())
    ]
    return batches, sizes, rates.reshape(t.shape)


def sgd_epoch(
    update,
    n: int,
    state: SGDState,
    *,
    batch_size: int = 32,
    shuffle: bool = True,
    rng=None,
) -> SGDState:
    """Run one pass of minibatch SGD over a shard of ``n`` points.

    Parameters
    ----------
    update : callable
        ``update(idx, t)`` applies one SGD step on the points with local
        indices ``idx`` using global step counter ``t``. The callable owns
        the parameters; this function owns ordering and bookkeeping.
    n : int
        Shard size.
    state : SGDState
        Carried step counter; mutated in place and returned.
    """
    for idx in minibatch_indices(n, batch_size, shuffle=shuffle, rng=rng):
        update(idx, state.t)
        state.advance(len(idx))
    return state
