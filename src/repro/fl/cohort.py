"""Cohort client training: one stacked SGD loop for a round's honest clients.

Every selected honest client runs the same algorithm —
``local_train(clone(G), shard)`` — differing only in data and RNG stream.
The per-model engine dispatches those trainings one Python-driven model at
a time; this module gathers a round's *cohortable* clients into one
:class:`~repro.nn.stacked.StackedNetwork` and trains all of them in single
batched calls, then scatters the resulting update vectors back per client.

Bit-identity
------------
Cohort results are **bit-identical** to the per-model path (the engine
equivalence matrix includes cohort-enabled runs):

- Each client keeps its own ``(round, client)`` RNG stream for epoch
  permutations, drawn in the per-model call order.
- Batches are never padded.  A GEMM over ``b`` rows zero-padded to ``b' >
  b`` rows may round differently (different kernel path), so each training
  step partitions the active clients by their *exact* batch size and runs
  one stacked forward/backward per size group — unequal shard sizes cost
  extra group dispatches only on the ragged tail steps, while all
  full-size batches stay in one stack.
- Clients whose epoch ran out of batches skip the optimizer step entirely
  (masked), keeping weights and momentum bit-untouched.

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
    spread_over: int | None = None,
) -> list[list[int]]:
    """Partition a round's cohortable contributors into stacked chunks.

    Returns chunks of at least two clients (a single leftover trains
    per-model — identical result, no stacking overhead), preserving
    contributor order.  ``spread_over`` caps the chunk size so ``n`` chunks
    spread evenly over that many workers (each worker stacks its slice of
    the fan-out); ``cohort_size < 2`` or an unstackable architecture plans
    nothing.
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
    size = cohort_size
    if spread_over is not None and spread_over > 0:
        size = min(size, -(-len(eligible) // spread_over))
    size = max(size, 2)
    chunks = [eligible[i : i + size] for i in range(0, len(eligible), size)]
    return [chunk for chunk in chunks if len(chunk) >= 2]


def cohort_updates(
    global_model: Network,
    shards: Sequence[Dataset],
    config: LocalTrainingConfig,
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray]:
    """Train one clone of ``global_model`` per shard, stacked; return updates.

    The returned flat vectors are ``U_m = L_m - G``, bit-identical to what
    ``HonestClient.produce_update`` computes one model at a time with the
    same ``rngs`` (see module docstring for why).
    """
    if len(shards) != len(rngs):
        raise ValueError(f"{len(shards)} shards but {len(rngs)} rng streams")
    if not shards:
        return []
    for shard in shards:
        if len(shard) == 0:
            raise ValueError("cannot train on an empty dataset")
    num_models = len(shards)
    global_flat = global_model.get_flat()
    stacked = StackedNetwork.from_models([global_model] * num_models)
    optimizer = StackedSGD(
        stacked.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    sizes = [len(shard) for shard in shards]
    batch = config.batch_size
    steps = max(-(-n // batch) for n in sizes)
    for _ in range(config.epochs):
        # Per-client permutation, drawn at epoch start from the client's
        # own stream — the same draw, at the same point in the stream, as
        # the per-model loop makes.
        orders = [rng.permutation(n) for rng, n in zip(rngs, sizes)]
        for step in range(steps):
            start = step * batch
            groups: dict[int, list[int]] = {}
            for m, n in enumerate(sizes):
                if start < n:
                    groups.setdefault(min(batch, n - start), []).append(m)
            if not groups:
                break
            active = np.zeros(num_models, dtype=bool)
            stacked.zero_grad()
            for batch_size in sorted(groups):
                idx = groups[batch_size]
                rows = [orders[m][start : start + batch_size] for m in idx]
                xb = np.stack([shards[m].x[r] for m, r in zip(idx, rows)])
                yb = np.stack([shards[m].y[r] for m, r in zip(idx, rows)])
                # A group spanning the whole stack (the common case: all
                # shards still have full batches) skips the per-group
                # weight gather/scatter entirely.
                logits = stacked.forward(
                    xb, train=True, idx=None if len(idx) == num_models else idx
                )
                stacked.backward(stacked_softmax_ce_grad(logits, yb))
                active[idx] = True
            if config.max_grad_norm is not None:
                clip_gradients_stacked(
                    stacked.parameters(), config.max_grad_norm, active
                )
            optimizer.step(active=None if active.all() else active)
    flats = stacked.get_flat()
    return [flats[m] - global_flat for m in range(num_models)]


__all__ = ["cohort_updates", "is_cohortable", "plan_cohorts"]
