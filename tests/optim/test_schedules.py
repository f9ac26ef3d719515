import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optim.schedules import BottouSchedule, InverseSchedule


class TestBottou:
    def test_initial_rate(self):
        assert BottouSchedule(eta0=0.5, lam=1e-3).rate(0) == 0.5

    def test_formula(self):
        s = BottouSchedule(eta0=0.5, lam=0.01)
        t = 37
        assert s.rate(t) == pytest.approx(0.5 / (1 + 0.01 * 0.5 * t))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone_decreasing(self, t1, t2):
        s = BottouSchedule(eta0=0.2, lam=1e-3)
        lo, hi = min(t1, t2), max(t1, t2)
        assert s.rate(hi) <= s.rate(lo)

    def test_asymptotics_one_over_lambda_t(self):
        # For large t, eta_t ~ 1/(lam t): the optimal strongly convex rate.
        s = BottouSchedule(eta0=1.0, lam=0.1)
        t = 10**7
        assert s.rate(t) == pytest.approx(1.0 / (0.1 * t), rel=1e-4)


class TestInverse:
    @given(st.floats(0.65, 1.0))
    def test_rm_conditions_numerically(self, power):
        # Partial sums: sum eta grows without bound, sum eta^2 converges.
        s = InverseSchedule(eta0=1.0, power=power)
        ts = np.arange(100_000)
        etas = s.eta0 / (1.0 + ts / s.t0) ** s.power
        assert etas.sum() > 10.0  # diverging in practice
        tail = (etas[50_000:] ** 2).sum()
        head = (etas[:50_000] ** 2).sum()
        assert tail < 0.30 * head + 1e-6  # square-summable tail
