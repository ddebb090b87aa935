"""Order-independent randomness for the federated round loop.

Historically the simulation threaded one ``np.random.Generator`` through
every stochastic step of a round — selection, each client's local training,
each validator's vote — which made every draw depend on *when* it happened.
That coupling forbids any parallel execution: training client 7 before
client 3 would consume the stream in a different order and change the run.

:class:`RngStreams` removes the coupling.  From one root
:class:`numpy.random.SeedSequence` it derives an independent child stream
per ``(domain, round_idx, entity_id)`` key, following NumPy's documented
``spawn_key`` construction.  A client's local-training randomness (or a
validator's vote randomness) is then a pure function of the round index and
its id — identical no matter which thread executes it, in which order, or
on which host.  This is the property the parallel engine in
:mod:`repro.fl.parallel` relies on for bit-identical sequential/parallel
runs.  Executors hand each slice its seed sequences and instantiate the
generator where the slice runs, so a replayed slice draws the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Domain tags keep the per-client and per-validator key spaces disjoint:
#: client 3 of round 5 and validator 3 of round 5 get unrelated streams.
DOMAIN_CLIENT = 0
DOMAIN_VALIDATOR = 1
DOMAIN_SERVER = 2


@dataclass(frozen=True)
class RngStreams:
    """A family of deterministic, independently-seeded random streams."""

    root: np.random.SeedSequence

    @classmethod
    def from_rng(cls, rng: np.random.Generator) -> "RngStreams":
        """Derive a stream family from a simulation's generator.

        Spawning a child off the generator's seed sequence does not consume
        any random draws, so attaching streams to an existing generator
        leaves its output (e.g. the client-selection sequence) untouched.

        Reproducibility caveat: the streams key off the *construction-time*
        seed sequence.  For seed-constructed generators
        (``default_rng(seed)``) that makes them fully deterministic; a
        generator whose bit-generator state was overwritten after
        construction (checkpoint restore) keeps its original — possibly
        OS-random — seed sequence, so restored runs should pass the
        original seed, not raw state.  Exotic bit generators without a seed
        sequence at all fall back to drawing one seeding integer.
        """
        seed_seq = getattr(rng.bit_generator, "seed_seq", None)
        if isinstance(seed_seq, np.random.SeedSequence):
            return cls(seed_seq.spawn(1)[0])
        return cls(np.random.SeedSequence(int(rng.integers(0, 2**63))))

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        return cls(np.random.SeedSequence(seed))

    # ------------------------------------------------------------------
    # Keyed child sequences (picklable, cheap to construct)
    # ------------------------------------------------------------------
    def _child(self, domain: int, round_idx: int, entity_id: int) -> np.random.SeedSequence:
        if round_idx < 0 or entity_id < 0:
            raise ValueError(
                f"stream keys must be non-negative, got ({round_idx}, {entity_id})"
            )
        return np.random.SeedSequence(
            entropy=self.root.entropy,
            spawn_key=(*self.root.spawn_key, domain, round_idx, entity_id),
        )

    def client_seq(self, round_idx: int, client_id: int) -> np.random.SeedSequence:
        """Seed sequence for one client's local training in one round."""
        return self._child(DOMAIN_CLIENT, round_idx, client_id)

    def validator_seq(self, round_idx: int, validator_id: int) -> np.random.SeedSequence:
        """Seed sequence for one validator's vote in one round."""
        return self._child(DOMAIN_VALIDATOR, round_idx, validator_id)

    def server_seq(self, round_idx: int) -> np.random.SeedSequence:
        """Seed sequence for the server's own validation vote in one round."""
        return self._child(DOMAIN_SERVER, round_idx, 0)

    # ------------------------------------------------------------------
    # Ready-made generators
    # ------------------------------------------------------------------
    def client_rng(self, round_idx: int, client_id: int) -> np.random.Generator:
        return np.random.default_rng(self.client_seq(round_idx, client_id))

    def validator_rng(self, round_idx: int, validator_id: int) -> np.random.Generator:
        return np.random.default_rng(self.validator_seq(round_idx, validator_id))

    def server_rng(self, round_idx: int) -> np.random.Generator:
        return np.random.default_rng(self.server_seq(round_idx))
