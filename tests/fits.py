"""MAC fits through the one fit loop, for tests that train a model.

Serial MAC (paper fig. 1) is :class:`ParMACTrainer` on one shard on the
``"sync"`` engine with the exact least-squares decoder; ParMAC is the
same call with more shards and the SGD decoder. Tests that drive the
simulated cluster step by step build it with :func:`sim`.
"""

from repro.autoencoder.adapter import BAAdapter, build_ba_shards
from repro.core.trainer import ParMACTrainer
from repro.distributed.backends import get_backend
from repro.nets.adapter import NetAdapter, build_net_shards


def sim(adapter, shards, engine="sync", **options):
    """A simulated engine (``"sync"`` or ``"async"``) set up on
    ``shards``: the simulated cluster, ready for ``w_step``/``z_step``/
    ``run_iteration``."""
    backend = get_backend(engine)(**options)
    backend.setup(adapter, shards)
    return backend


def fit_ba(
    model,
    X,
    schedule,
    *,
    n_machines=1,
    Z0=None,
    alphas=None,
    seed=None,
    decoder_exact=None,
    adapter_options=None,
    **trainer_options,
) -> ParMACTrainer:
    """Fit a binary autoencoder in place; returns the closed trainer
    (``history_``; on ``sync`` its ``backend`` is the simulated cluster).
    The decoder is exact on one shard and SGD otherwise unless
    ``decoder_exact`` says."""
    if decoder_exact is None:
        decoder_exact = n_machines == 1
    adapter = BAAdapter(model, decoder_exact=decoder_exact, **(adapter_options or {}))
    trainer_options.setdefault("stop_on_fixed_point", True)
    with ParMACTrainer(adapter, schedule, seed=seed, **trainer_options) as trainer:
        shards = build_ba_shards(
            adapter, X, Z0, n_machines=n_machines, alphas=alphas, seed=seed
        )
        trainer.fit(shards)
    return trainer


def fit_net(
    net, X, Y, schedule=None, *, n_machines=1, seed=None, z_steps=10, z_lr=0.5,
    **trainer_options,
) -> ParMACTrainer:
    """Fit a deep net in place by MAC; returns the closed trainer."""
    adapter = NetAdapter(net, z_steps=z_steps, z_lr=z_lr)
    trainer_options.setdefault("batch_size", 32)
    with ParMACTrainer(adapter, schedule, seed=seed, **trainer_options) as trainer:
        trainer.fit(build_net_shards(adapter, X, Y, n_machines=n_machines, seed=seed))
    return trainer
