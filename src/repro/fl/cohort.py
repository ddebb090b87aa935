"""Cohort client training: one stacked SGD loop for a round's honest clients.

Every selected honest client runs the same algorithm —
``local_train(clone(G), shard)`` — differing only in data and RNG stream.
The per-model loop trains those clients one Python-driven model at a
time; this module gathers a round's *cohortable* clients into one
:class:`~repro.nn.stacked.StackedNetwork` and trains all of them in single
batched calls, then returns the resulting update vectors per client.
Every engine stacks its round this way by default.

Bit-identity
------------
Cohort results are **bit-identical** to the per-model path (the engine
equivalence matrix includes cohort-enabled runs):

- Each client keeps its own ``(round, client)`` RNG stream for epoch
  permutations, drawn in the per-model call order.
- Batches are never padded.  A GEMM over ``b`` rows zero-padded to ``b' >
  b`` rows may round differently (different kernel path), so each training
  step runs one stacked forward/backward per *exact* batch size.
- The stack is ordered by shard length, longest first (a stable sort).
  At every step the models that still have a batch are then a prefix of
  the stack, and the models sharing a batch size a contiguous row range:
  each group runs on row views of the stacked weights and gradients, and
  clipping and the SGD step update the prefix in place with the per-model
  op sequence.  The rows behind the prefix, whose epoch ran out of
  batches, keep weights and momentum bit-untouched.
- Updates are returned in the caller's order.

Eligibility
-----------
Only clients whose update is *provably* plain honest local SGD are
cohorted: ``produce_update`` must be exactly
:meth:`~repro.fl.client.HonestClient.produce_update` (subclasses that
override it — every attacker — fall back to the per-model path), the
client must not opt out via ``cohort_safe = False``, and the model
architecture must be stackable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import Client, HonestClient, LocalTrainingConfig
from repro.nn.network import Network
from repro.nn.precision import active_dtype
from repro.nn.stacked import (
    StackedNetwork,
    StackedSGD,
    clip_gradients_stacked,
    stacked_softmax_ce_grad,
    supports_stacking,
)


def is_cohortable(client: Client) -> bool:
    """Whether ``client``'s update may be computed by the stacked trainer."""
    return (
        getattr(client, "cohort_safe", False)
        and type(client).produce_update is HonestClient.produce_update
        and len(client.dataset) > 0
    )


def plan_cohorts(
    clients: Sequence[Client] | Mapping[int, Client],
    contributor_ids: Sequence[int],
    global_model: Network,
    cohort_size: int,
) -> list[list[int]]:
    """Partition a round's cohortable contributors into stacked chunks.

    Returns chunks of at least two clients (a single leftover trains
    per-model — identical result, no stacking overhead), preserving
    contributor order.  ``cohort_size < 2`` or an unstackable architecture
    plans nothing.
    """
    if cohort_size < 2 or not supports_stacking(global_model):
        return []
    # A ClientRegistry answers cohortability from metadata (factory
    # contract + shard length) without materializing anyone; eager
    # lists/dicts probe the client object itself.
    probe = getattr(clients, "is_cohortable", None)
    if callable(probe):
        eligible = [cid for cid in contributor_ids if probe(cid)]
    else:
        eligible = [cid for cid in contributor_ids if is_cohortable(clients[cid])]
    if len(eligible) < 2:
        return []
    chunks = [
        eligible[i : i + cohort_size] for i in range(0, len(eligible), cohort_size)
    ]
    return [chunk for chunk in chunks if len(chunk) >= 2]


def cohort_updates(
    global_model: Network,
    shards: Sequence[Dataset],
    config: LocalTrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray]:
    """Train one clone of ``global_model`` per shard, stacked; return updates.

    The returned flat vectors are ``U_m = L_m - G``, in ``shards`` order and
    bit-identical to what ``HonestClient.produce_update`` computes one model
    at a time with the same ``rngs`` (see module docstring for why).
    """
    if len(shards) != len(rngs):
        raise ValueError(f"{len(shards)} shards but {len(rngs)} rng streams")
    if not shards:
        return []
    for shard in shards:
        if len(shard) == 0:
            raise ValueError("cannot train on an empty dataset")
    # Longest shard first, ties in caller order: at every step the models
    # that still have a batch are a prefix of the stack, and the models
    # sharing a batch size are a contiguous row range.
    order = sorted(range(len(shards)), key=lambda m: -len(shards[m]))
    shards = [shards[m] for m in order]
    rngs = [rngs[m] for m in order]
    sizes = [len(shard) for shard in shards]
    global_flat = global_model.get_flat()
    stacked = StackedNetwork.from_models([global_model] * len(shards))
    params = stacked.parameters()
    optimizer = StackedSGD(
        params,
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    batch = config.batch_size
    # Row m holds client m's shard in this epoch's order, so every group's
    # batch is a view; rows past a shard's own length are never read.
    xs = np.empty((len(shards), sizes[0], *shards[0].x.shape[1:]), dtype=active_dtype())
    ys = np.empty((len(shards), sizes[0]), dtype=np.int64)
    for _ in range(config.epochs):
        # Per-client permutation, drawn at epoch start from the client's
        # own stream — the same draw, at the same point in the stream, as
        # the per-model loop makes.
        for m, (rng, shard, n) in enumerate(zip(rngs, shards, sizes)):
            perm = rng.permutation(n)
            xs[m, :n] = shard.x[perm]
            ys[m, :n] = shard.y[perm]
        for start in range(0, sizes[0], batch):
            active = sum(n > start for n in sizes)
            stacked.zero_grad()
            a = 0
            while a < active:
                width = min(batch, sizes[a] - start)
                b = a + 1
                while b < active and min(batch, sizes[b] - start) == width:
                    b += 1
                window = slice(start, start + width)
                logits = stacked.forward(xs[a:b, window], train=True, rows=slice(a, b))
                stacked.backward(stacked_softmax_ce_grad(logits, ys[a:b, window]))
                a = b
            if config.max_grad_norm is not None:
                clip_gradients_stacked(params, config.max_grad_norm, active)
            optimizer.step(count=active)
    flats = stacked.get_flat()
    # Row r trained the caller's shard order[r].
    return [flats[row] - global_flat for row in np.argsort(order)]


__all__ = ["cohort_updates", "is_cohortable", "plan_cohorts"]
