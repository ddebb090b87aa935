"""Federated-learning substrate.

Implements the FL process of the paper's Sec. II-B: a server-orchestrated
iterative protocol where each round ``n`` of ``N`` clients locally train the
current global model ``G`` and the server integrates their updates as

    G' = G + (lambda / N) * sum_i (L_i - G)

with global learning rate ``lambda`` (``lambda = N/n`` fully replaces ``G``
by the average of the local models — plain FedAvg).

The module also provides:

- a secure-aggregation simulation (:mod:`repro.fl.secure_agg`) reproducing
  the pairwise-masking algebra of Bonawitz et al.: the server only ever sees
  the *sum* of updates, which is the compatibility constraint BaFFLe is
  designed around;
- client-selection policies, including the scheduled selector used to force
  attacker participation in designated injection rounds;
- :class:`~repro.fl.simulation.FederatedSimulation`, the round loop with
  attack and defense hooks that all experiments drive.
"""

from repro.fl.aggregation import Aggregator, FedAvgAggregator, apply_global_update
from repro.fl.client import (
    Client,
    HonestClient,
    LocalTrainingConfig,
    clip_gradients,
    local_train,
)
from repro.fl.cohort import cohort_updates, is_cohortable, plan_cohorts
from repro.fl.config import FLConfig
from repro.fl.faults import (
    QUORUM_POLICIES,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    QuorumStallError,
    ResilienceStats,
)
from repro.fl.model_store import ModelStore
from repro.fl.parallel import (
    PendingVotes,
    RoundExecutor,
    SequentialExecutor,
    ThreadPoolRoundExecutor,
    make_executor,
)
from repro.fl.rng import RngStreams
from repro.fl.secure_agg import MaskedUpdate, SecureAggregator, make_pairwise_masks
from repro.fl.selection import ScheduledSelector, Selector, UniformSelector
from repro.fl.simulation import (
    Defense,
    DefenseDecision,
    FederatedSimulation,
    RoundRecord,
)

__all__ = [
    "Aggregator",
    "Client",
    "cohort_updates",
    "is_cohortable",
    "plan_cohorts",
    "Defense",
    "DefenseDecision",
    "FLConfig",
    "FaultPlan",
    "FaultSpec",
    "FedAvgAggregator",
    "FederatedSimulation",
    "HonestClient",
    "InjectedWorkerCrash",
    "LocalTrainingConfig",
    "MaskedUpdate",
    "ModelStore",
    "PendingVotes",
    "QUORUM_POLICIES",
    "QuorumStallError",
    "ResilienceStats",
    "RngStreams",
    "RoundExecutor",
    "RoundRecord",
    "ScheduledSelector",
    "SequentialExecutor",
    "ThreadPoolRoundExecutor",
    "SecureAggregator",
    "Selector",
    "UniformSelector",
    "apply_global_update",
    "clip_gradients",
    "local_train",
    "make_executor",
    "make_pairwise_masks",
]
