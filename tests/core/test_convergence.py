import pytest

from repro.core.convergence import EarlyStopping


class TestEarlyStopping:
    def test_improvement_never_stops(self):
        es = EarlyStopping()
        assert not es.update(0.1, "a")
        assert not es.update(0.2, "b")
        assert es.best_state == "b"

    def test_drop_stops_with_patience_one(self):
        es = EarlyStopping(patience=1)
        es.update(0.5, "best")
        assert es.update(0.4, "worse")
        assert es.best_state == "best"

    def test_patience_two_needs_two_drops(self):
        es = EarlyStopping(patience=2)
        es.update(0.5, "best")
        assert not es.update(0.4, "w1")
        assert es.update(0.3, "w2")

    def test_equal_score_counts_as_improvement(self):
        # The paper guarantees "improve (or leave unchanged)".
        es = EarlyStopping()
        es.update(0.5, "a")
        assert not es.update(0.5, "b")
        assert es.best_state == "b"

    def test_tol_ignores_tiny_drops(self):
        es = EarlyStopping(patience=1, tol=0.05)
        es.update(0.5, "best")
        assert not es.update(0.48, "meh")

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(tol=-0.1)
