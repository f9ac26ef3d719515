"""Step-size schedules for stochastic gradient descent.

The paper trains the BA encoder/decoder with the SGD code of Bottou &
Bousquet (2008), whose schedule is ``eta_t = eta0 / (1 + lambda * eta0 * t)``
with ``eta0`` tuned automatically by probing the first 1000 data points
(paper section 8.1). ParMAC's convergence argument (section 6) requires
Robbins–Monro conditions: ``eta_t -> 0``, ``sum eta_t = inf``,
``sum eta_t^2 < inf``; both schedules here meet them (the power-law one
for ``0.5 < power <= 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

__all__ = [
    "BottouSchedule",
    "InverseSchedule",
    "RobbinsMonroSchedule",
]


@dataclass(frozen=True)
class BottouSchedule:
    """Bottou's SVMSGD schedule ``eta_t = eta0 / (1 + lambda * eta0 * t)``.

    ``t`` counts individual SGD steps (minibatches). With ``lam > 0`` this is
    asymptotically ``1/(lambda t)``, the optimal rate for strongly convex
    problems, and satisfies the Robbins–Monro conditions.
    """

    eta0: float = 0.1
    lam: float = 1e-4

    def __post_init__(self):
        check_positive(self.eta0, name="eta0")
        check_positive(self.lam, name="lam")

    def rate(self, t: int) -> float:
        return self.eta0 / (1.0 + self.lam * self.eta0 * t)


@dataclass(frozen=True)
class InverseSchedule:
    """Power-law schedule ``eta_t = eta0 / (1 + t/t0) ** power``."""

    eta0: float = 0.1
    power: float = 1.0
    t0: float = 1.0

    def __post_init__(self):
        check_positive(self.eta0, name="eta0")
        check_positive(self.power, name="power")
        check_positive(self.t0, name="t0")

    def rate(self, t: int) -> float:
        return self.eta0 / (1.0 + t / self.t0) ** self.power


# Robbins–Monro requires sum eta_t = inf (power <= 1) and
# sum eta_t^2 < inf (2 * power > 1).
RobbinsMonroSchedule = InverseSchedule
