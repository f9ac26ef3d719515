"""Early stopping for MAC / ParMAC on validation retrieval precision.

The paper's rule: "we stop iterating for a mu value ... when the
precision of the hash function in a validation set decreases", which
guarantees the initial codes are only improved. The other stopping test of fig. 1 (no
change in Z and Z = h(X)) is the trainer's ``stop_on_fixed_point``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EarlyStopping"]


class EarlyStopping:
    """Validation-precision early stopping with best-snapshot restore.

    Tracks the best validation score seen; :meth:`update` returns True
    (stop) when the score has dropped below the best by more than ``tol``
    for ``patience`` consecutive iterations. The caller restores the
    snapshot stored in :attr:`best_state`.
    """

    def __init__(self, *, patience: int = 1, tol: float = 0.0):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if tol < 0:
            raise ValueError(f"tol must be >= 0, got {tol}")
        self.patience = patience
        self.tol = tol
        self.best_score = -np.inf
        self.best_state = None
        self._bad_iters = 0

    def update(self, score: float, state) -> bool:
        """Record a new validation score; return True when training should stop.

        ``state`` is an opaque snapshot (e.g. a model copy) retained when
        the score improves.
        """
        if score >= self.best_score:
            self.best_score = score
            self.best_state = state
            self._bad_iters = 0
            return False
        if score < self.best_score - self.tol:
            self._bad_iters += 1
        return self._bad_iters >= self.patience
