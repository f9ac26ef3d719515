"""Seeded random-number-generator management.

Every stochastic component in the library takes a ``seed`` (or ``rng``)
argument and routes it through :func:`check_random_state`; the engines'
draws come from :func:`keyed_rng`, so that whole training runs —
including distributed ones — are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_random_state", "keyed_rng"]


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed : None, int, numpy.random.Generator or numpy.random.SeedSequence
        ``None`` gives a nondeterministic generator; an ``int`` or
        ``SeedSequence`` seeds a fresh PCG64 generator; a ``Generator`` is
        passed through unchanged (shared mutable state).

    Returns
    -------
    numpy.random.Generator
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator, got {type(seed)!r}"
    )


def keyed_rng(*key) -> np.random.Generator:
    """A generator that is a pure function of ``key``, non-negative ints.

    Protocol-level draws key their stream on where they happen — a W-step
    visit's minibatch order on ``(seed, iteration, machine, counter,
    home, pass)``, a ring plan on ``(seed, iteration, epoch)`` — so no
    engine carries RNG state, and a retry, a respawn or a restore on any
    engine redraws the same values.
    """
    return np.random.default_rng([int(k) for k in key])
