"""One executor, two clocks: the simulated engines' numerics and virtual
time, pinned.

``sync`` and ``async`` run every W step through the same tick executor
and differ only in the clock that replays its record. On a grid of
``scheme`` x ``shuffle_within`` x ``shuffle_ring`` x
{no chaos, delay + jitter + partition + straggler} at P in {1, 4}, this
module holds both engines to digests recorded from the two-executor
simulator they replaced:

* ``sync`` parameters, codes, ``z_changes`` and violations, bit for bit
  (E_Q and E_BA, which the Z step now derives from its own terms, are
  held to the expression form at 1e-12 instead);
* ``sync`` and ``async`` virtual time (``IterationStats.time``, the
  ``w_sim_time``/``z_sim_time``/``comp_time``/``comm_time``/``chaos_*``
  extras, and every ``WStepStats``/``ZStepStats`` field including idle
  and per-machine times), bit for bit;
* ``async`` parameters and codes equal to ``sync``'s everywhere. The
  replaced simulator failed this where both shuffles were on at P = 4
  (its event engine drew SGD minibatches in event order).

The ``shuffle_within=False`` numerics digests were re-recorded when the
batched BA kernels took their current operation order (Gram-form
decoder, two-pass encoder update); they read the same under one and
two BLAS threads. Every digest of a key with a shuffle on was
re-recorded when minibatch orders and ring plans became keyed draws
(``shuffle_within`` fits now batch; ``shuffle_ring`` at P = 4 takes
other rings, hence other virtual times), under one and two BLAS
threads alike. Every key with both shuffles off keeps its digests.
"""

import hashlib
import itertools
import struct

import numpy as np
import pytest

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.data.synthetic import make_clustered
from repro.distributed.chaos import ChaosConfig, PartitionWindow
from repro.distributed.costmodel import CostModel
from tests.autoencoder.test_adapter import oracle_stats
from tests.fits import sim

CHAOS = ChaosConfig(
    delay_ms=2.0, jitter_ms=1.0, stragglers={0: 1.5},
    partitions=[PartitionWindow(100.0, 400.0)], seed=7,
)

#: (scheme, shuffle_within, shuffle_ring, chaos, P) ->
#: (sync numerics, sync timing, async timing) digests.
PINNED = {
    ('rounds', False, False, False, 1): ('ecab1adc1726c778', '23cdea19de9b9de6', 'ac54e7870e169cc9'),
    ('rounds', False, False, False, 4): ('1492b580524045ae', '2bb389d0f9ff1a27', '0badb2892de30d5a'),
    ('rounds', False, False, True, 1): ('ecab1adc1726c778', '0b1b375180db004e', '6c2dd5cb666cca82'),
    ('rounds', False, False, True, 4): ('1492b580524045ae', '172d6ea39bb2be2c', '7ea03247b8874f5d'),
    ('rounds', False, True, False, 1): ('ecab1adc1726c778', '23cdea19de9b9de6', 'ac54e7870e169cc9'),
    ('rounds', False, True, False, 4): ('ada0bf472f8739bb', '2bb389d0f9ff1a27', '506cc480b7526b33'),
    ('rounds', False, True, True, 1): ('ecab1adc1726c778', '0b1b375180db004e', '6c2dd5cb666cca82'),
    ('rounds', False, True, True, 4): ('ada0bf472f8739bb', '8e9cbc59615ba2b2', '954a41c9bafffb5d'),
    ('rounds', True, False, False, 1): ('06c73d80339abeff', '23cdea19de9b9de6', 'ac54e7870e169cc9'),
    ('rounds', True, False, False, 4): ('9abcbe3b0fe4f35b', '2bb389d0f9ff1a27', '0badb2892de30d5a'),
    ('rounds', True, False, True, 1): ('06c73d80339abeff', '0b1b375180db004e', '6c2dd5cb666cca82'),
    ('rounds', True, False, True, 4): ('9abcbe3b0fe4f35b', '172d6ea39bb2be2c', '7ea03247b8874f5d'),
    ('rounds', True, True, False, 1): ('06c73d80339abeff', '23cdea19de9b9de6', 'ac54e7870e169cc9'),
    ('rounds', True, True, False, 4): ('d162be5fd9581d1b', '2bb389d0f9ff1a27', '506cc480b7526b33'),
    ('rounds', True, True, True, 1): ('06c73d80339abeff', '0b1b375180db004e', '6c2dd5cb666cca82'),
    ('rounds', True, True, True, 4): ('d162be5fd9581d1b', '8e9cbc59615ba2b2', '954a41c9bafffb5d'),
    ('tworound', False, False, False, 1): ('ecab1adc1726c778', '5f9778f0149a1680', '345cb27249ab8ace'),
    ('tworound', False, False, False, 4): ('e5dd6c7b239140b0', 'bc08ac0ce9b8deb0', '65248d8fbc3a76f3'),
    ('tworound', False, False, True, 1): ('ecab1adc1726c778', '818a342d328e8322', '7b612c27ee340ae7'),
    ('tworound', False, False, True, 4): ('e5dd6c7b239140b0', '4beaa282fa81b530', 'e24b8ea31ca28d9f'),
    ('tworound', False, True, False, 1): ('ecab1adc1726c778', '5f9778f0149a1680', '345cb27249ab8ace'),
    ('tworound', False, True, False, 4): ('c223e1afe7cb0910', 'bc08ac0ce9b8deb0', 'a40ad6762f6d2789'),
    ('tworound', False, True, True, 1): ('ecab1adc1726c778', '818a342d328e8322', '7b612c27ee340ae7'),
    ('tworound', False, True, True, 4): ('c223e1afe7cb0910', '447458722e7e94dc', '716cf21cd89aa7a6'),
    ('tworound', True, False, False, 1): ('a7fe6a0d26fbceb8', '5f9778f0149a1680', '345cb27249ab8ace'),
    ('tworound', True, False, False, 4): ('73de9dbdbf88f1d5', 'bc08ac0ce9b8deb0', '65248d8fbc3a76f3'),
    ('tworound', True, False, True, 1): ('a7fe6a0d26fbceb8', '818a342d328e8322', '7b612c27ee340ae7'),
    ('tworound', True, False, True, 4): ('73de9dbdbf88f1d5', '4beaa282fa81b530', 'e24b8ea31ca28d9f'),
    ('tworound', True, True, False, 1): ('a7fe6a0d26fbceb8', '5f9778f0149a1680', '345cb27249ab8ace'),
    ('tworound', True, True, False, 4): ('8b14bff2e9876022', 'bc08ac0ce9b8deb0', 'a40ad6762f6d2789'),
    ('tworound', True, True, True, 1): ('a7fe6a0d26fbceb8', '818a342d328e8322', '7b612c27ee340ae7'),
    ('tworound', True, True, True, 4): ('8b14bff2e9876022', '447458722e7e94dc', '716cf21cd89aa7a6'),
}


@pytest.fixture(scope="module")
def X():
    return make_clustered(120, 8, n_clusters=3, rng=4)


def digest(values) -> str:
    """Order-sensitive digest of arrays, ints and the exact bits of floats."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (bool, int, np.integer)):
            h.update(b"i" + struct.pack("<q", int(v)))
        elif isinstance(v, (float, np.floating)):
            h.update(b"f" + struct.pack("<d", float(v)))
        else:
            h.update(repr(v).encode())
    return h.hexdigest()[:16]


def flat(d: dict) -> list:
    return [x for k in sorted(d) for x in (k, d[k])]


def run(X, engine, scheme, within, ring, chaos, P):
    """Two iterations at e = 2 under ``CostModel(t_wc=50, speeds={1: 0.5})``;
    returns the (numerics, timing) digests."""
    adapter = BAAdapter(BinaryAutoencoder.linear(X.shape[1], 4))
    backend = sim(
        adapter, build_ba_shards(adapter, X, n_machines=P, seed=0), engine,
        epochs=2, scheme=scheme, batch_size=16, shuffle_within=within,
        shuffle_ring=ring, chaos=CHAOS if chaos else None,
        cost=CostModel(t_wc=50.0, speeds={1: 0.5}), seed=0,
    )
    steps = []  # every WStepStats / ZStepStats, in order

    def recording(method):
        def call(*args, **kwargs):
            steps.append(method(*args, **kwargs))
            return steps[-1]

        return call

    backend.w_step = recording(backend.w_step)
    backend.z_step = recording(backend.z_step)
    numerics, timing = [], []
    for mu in (1e-3, 2e-3):
        s = backend.run_iteration(mu)
        numerics += [s.z_changes, s.violations]
        want = [oracle_stats(adapter, backend.shards[p], mu) for p in backend.machines]
        assert s.e_q == pytest.approx(sum(w[0] for w in want), rel=1e-12)
        assert s.e_ba == pytest.approx(sum(w[1] for w in want), rel=1e-12)
        timing += [s.time, s.bytes_sent]
        timing += flat({
            k: v for k, v in s.extra.items()
            if k in ("w_sim_time", "z_sim_time", "comp_time", "comm_time", "bytes_sent")
            or k.startswith("chaos_")
        })
    for st in steps:
        if hasattr(st, "idle_time"):
            timing += [st.sim_time, st.comp_time, st.comm_time, st.idle_time,
                       st.n_messages, st.bytes_sent, st.ticks]
            timing += flat(st.per_machine_comp) + flat(st.per_machine_comm) + flat(st.chaos)
        else:
            timing += [st.sim_time] + flat(st.per_machine_time)
    numerics += [adapter.get_params(s) for s in adapter.submodel_specs()]
    numerics += list(backend.gather_codes())
    return digest(numerics), digest(timing)


@pytest.mark.parametrize("config", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_one_executor_two_clocks(X, config):
    sync_numerics, sync_timing, async_timing = PINNED[config]
    s_num, s_time = run(X, "sync", *config)
    a_num, a_time = run(X, "async", *config)
    assert (s_num, s_time) == (sync_numerics, sync_timing)
    assert a_time == async_timing
    assert a_num == s_num


def test_grid_is_complete():
    grid = itertools.product(
        ("rounds", "tworound"), (False, True), (False, True), (False, True),
        (1, 4),
    )
    assert set(grid) == set(PINNED)
