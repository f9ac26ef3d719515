"""Virtual-clock cost model for the simulated cluster.

The paper's speedup theory (section 5) reduces a cluster to three
constants: ``t_Wr`` (W-step computation per submodel per point), ``t_Wc``
(time to ship one submodel between machines) and ``t_Zr`` (Z-step
computation per point per submodel). The simulated engines charge exactly
these costs while executing the real protocol, so their virtual-clock
runtimes are directly comparable to the theory — and to each other across
configurations (fig. 13's shared-memory vs distributed contrast comes from
``t_Wc`` varying with node placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.chaos import ChaosConfig, _ChaosState
from repro.utils.validation import check_positive

__all__ = ["CostModel", "ChaosTimeline"]


@dataclass
class CostModel:
    """Computation/communication time constants (arbitrary units).

    Parameters
    ----------
    t_wr : float
        W-step time per submodel per data point (one SGD "touch").
    t_wc : float
        Communication time per submodel hop (receive + send, section 5.1).
    t_zr : float
        Z-step time per data point per submodel (the theory's
        ``T_Z = M (N/P) t_zr``).
    speeds : dict[int, float]
        Per-machine relative speed ``alpha_p``; work time divides by it
        (heterogeneous machines, section 4.3). Default 1.
    node_of : dict[int, int]
        Machine -> node placement. When set, hops between machines on the
        same node cost ``t_wc_intra`` instead of ``t_wc`` (fig. 13).
    t_wc_intra : float
        Intra-node hop cost (defaults to ``t_wc``).
    """

    t_wr: float = 1.0
    t_wc: float = 0.0
    t_zr: float = 1.0
    speeds: dict = field(default_factory=dict)
    node_of: dict = field(default_factory=dict)
    t_wc_intra: float | None = None

    def __post_init__(self):
        check_positive(self.t_wr, name="t_wr")
        check_positive(self.t_zr, name="t_zr")
        if self.t_wc < 0:
            raise ValueError(f"t_wc must be >= 0, got {self.t_wc}")
        if self.t_wc_intra is not None and self.t_wc_intra < 0:
            raise ValueError(f"t_wc_intra must be >= 0, got {self.t_wc_intra}")

    def speed(self, p: int) -> float:
        return float(self.speeds.get(p, 1.0))

    # ----------------------------------------------------------- W step
    def w_work(self, p: int, n_points: int, passes: int = 1) -> float:
        """Time for ``passes`` SGD passes of one submodel over ``n_points``."""
        return passes * n_points * self.t_wr / self.speed(p)

    def comm(self, p: int, q: int) -> float:
        """Time to ship one submodel from machine p to machine q.

        Zero for a self-hop (P=1: "for P = 1 machine we have no
        communication"); ``t_wc_intra`` when both machines share a node.
        """
        if p == q:
            return 0.0
        if self.node_of and self.t_wc_intra is not None:
            if self.node_of.get(p) == self.node_of.get(q) and self.node_of.get(p) is not None:
                return float(self.t_wc_intra)
        return float(self.t_wc)

    # ----------------------------------------------------------- Z step
    def z_work(self, p: int, n_points: int, n_submodels: int) -> float:
        """Z-step time on machine p: ``M * n_p * t_zr`` (eq. 7)."""
        return n_submodels * n_points * self.t_zr / self.speed(p)


class ChaosTimeline(_ChaosState):
    """Virtual-clock front end for :class:`~repro.distributed.chaos.ChaosConfig`.

    Mirrors every knob the wall-clock shim injects, charging the same
    seeded degradations to the simulated engines' clocks instead of
    sleeping them off: :meth:`hop_penalty` (inherited — the shared
    per-link sampler) returns the extra virtual seconds one hop costs at
    virtual time ``now``, and :meth:`charge_work` inflates a straggling
    machine's compute time by its slowdown factor. One timeline is
    created per W step, so the per-link RNG streams (and the
    injected-event counters surfaced in ``IterationStats.extra``) align
    with the wall-clock transports, which are likewise recreated per
    iteration. Virtual time is treated as seconds — the cost model's
    units are arbitrary, and sharing the wall clock's unit is what makes
    sim and tcp degradation curves directly comparable.
    """

    def __init__(self, cfg: ChaosConfig):
        super().__init__(cfg)

    def charge_work(self, p: int, work: float) -> float:
        """Compute time ``work`` on machine ``p`` after straggler scaling."""
        factor = self.cfg.straggler_factor(p)
        if factor != 1.0:
            self.counters["chaos_straggler_s"] += work * (factor - 1.0)
        return work * factor
