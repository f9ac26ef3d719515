"""MAC with K hidden layers (paper section 3.2).

The paper's contribution is general: MAC/ParMAC applies to any nested
function ``f_{K+1}(...f_1(x))``. This package instantiates it for the
running example — sigmoid deep nets trained on least squares (eq. 4) —
as model code only: per-unit W-step submodels and the shard builder
(:mod:`repro.nets.adapter`), the generalised-proximal Z step and E_Q
(:mod:`repro.nets.mac`), and a chain-rule SGD baseline for comparison.
:class:`~repro.core.trainer.ParMACTrainer` is the fit loop; serial MAC is
one shard on the ``"sync"`` engine.
"""

from repro.nets.layers import ACTIVATIONS, DenseLayer
from repro.nets.deepnet import DeepNet
from repro.nets.backprop import BackpropTrainer
from repro.nets.mac import e_q, init_coords, z_step
from repro.nets.adapter import NetAdapter, NetShard, build_net_shards, make_net_shards

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
    "DeepNet",
    "BackpropTrainer",
    "e_q",
    "init_coords",
    "z_step",
    "NetAdapter",
    "NetShard",
    "build_net_shards",
    "make_net_shards",
]
