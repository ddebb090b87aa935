"""Experiment configuration.

Scaled-down counterparts of the paper's setups (Sec. VI-A/VI-B).  The
paper's shape-defining structure is preserved exactly — 10 contributors and
10 validators per round, 2 local epochs, Dirichlet(0.9) non-IID splits,
20 defended warm-up rounds, injections at rounds 30/35/40 of a 50-round
defended window — while population and dataset sizes are scaled to CPU
budgets (see the README's "Scale and deviations from the paper").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fl.faults import QUORUM_POLICIES, FaultPlan
from repro.fl.parallel import ENGINE_KINDS
from repro.nn.precision import DTYPE_POLICIES

#: Client-server validation-data splits evaluated in Table I / Fig. 3.
CIFAR_SPLITS = (0.90, 0.95, 0.99)
FEMNIST_SPLITS = (0.99, 0.995, 0.999)

#: Injection rounds of the stable-model scenario (0-indexed; the paper's
#: "rounds 30, 35 and 40" with round 1 = the stable model).
PAPER_ATTACK_ROUNDS = (29, 34, 39)

_DATASETS = ("cifar", "femnist")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a detection experiment needs.

    Attributes mirror the paper's knobs:

    - ``dataset``: ``"cifar"`` (semantic backdoor: striped cars -> bird) or
      ``"femnist"`` (label-flip backdoor, writer-partitioned clients);
    - ``client_share``: the C of the C-S% validation-data split;
    - ``lookback`` (l), ``quorum`` (q), ``mode``: BaFFLe parameters;
    - ``attack_rounds``: injection rounds within the defended window;
    - ``adaptive``: use the defense-aware attacker of Sec. VI-C.
    """

    dataset: str = "cifar"
    client_share: float = 0.90
    # Population / data scale (paper: 100 clients & 50k samples for CIFAR).
    num_clients: int = 30
    pool_size: int = 3000
    test_size: int = 600
    dirichlet_alpha: float = 0.9
    # Federated process (paper Sec. VI-A).
    clients_per_round: int = 10
    local_epochs: int = 2
    batch_size: int = 32
    pretrain_rounds: int = 40
    pretrain_lr: float = 0.05
    stable_lr: float = 0.05
    stable_global_lr: float | None = 1.0
    # Defense (paper Sec. VI-B).
    lookback: int = 20
    quorum: int = 5
    num_validators: int = 10
    mode: str = "both"
    defense_start: int = 20
    total_rounds: int = 50
    attack_rounds: tuple[int, ...] = PAPER_ATTACK_ROUNDS
    # Attack strength.
    poison_ratio: float = 0.25
    poison_samples: int = 80
    attack_epochs: int = 6
    attack_lr: float = 0.05
    adaptive: bool = False
    adaptive_max_trials: int = 6
    # Validator variants (ablations; paper defaults otherwise).
    validator_normalize: str = "dataset"
    validator_slack: float = 1.15
    validator_features: str = "both"
    validator_dropout: float = 0.0
    # Malicious voters (Sec. IV-B robustness): replace this many honest
    # client validators with liars.  "dos" liars always vote reject
    # (denial of service); "shield" liars always vote accept (covering the
    # attacker).
    malicious_validators: int = 0
    malicious_vote_strategy: str = "dos"
    # Model.
    hidden: tuple[int, ...] = (64,)
    # Execution engine: worker processes for client training and validator
    # votes (0/1 = in-process sequential).  Every worker count commits
    # bit-identical models, so it is a pure throughput knob and
    # deliberately excluded from ``environment_key``.
    workers: int = 0
    # Multi-worker backend: "process" fans out over worker processes
    # (weights travel through a shared-memory arena), "thread" over
    # in-process threads (zero IPC; the numeric kernels release the GIL),
    # "auto" resolves to "process".  Another pure throughput knob: every
    # engine commits bit-identical models.
    engine: str = "auto"
    # Stacked cohort execution (repro.fl.cohort): gather up to this many of
    # a round's honest clients into one batched training stack (0/1 = one
    # model at a time, the per-model reference loop; None = every engine
    # stacks everything eligible, the process pool spreading the stack
    # over its workers).  Stacked and per-model paths commit bit-identical
    # models, so this is a pure throughput knob like ``workers`` and stays
    # out of ``environment_key``.
    cohort_size: int | None = None
    # Runtime sanitizer (repro.analysis.sanitize): dtype assertions on
    # the hot numeric paths plus per-round/per-layer candidate hashing.
    # Pure instrumentation — it never changes the committed trajectory —
    # so it stays out of ``environment_key`` like the engine knobs.
    # Equivalent to running under ``REPRO_SANITIZE=1``.
    sanitize: bool = False
    # Round-lifecycle tracing (repro.obs): when set to an output directory,
    # each scenario run records phase spans + run metrics and writes a
    # JSONL event log and a Perfetto-loadable Chrome trace there.  Pure
    # instrumentation — traced runs commit bit-identical models — so it
    # stays out of ``environment_key`` like ``sanitize``.  Equivalent to
    # running with ``REPRO_TRACE=<dir>`` (CLI: ``--trace``).
    trace: str | None = None
    # Execution precision policy (repro.nn.precision): "float64" (default;
    # committed models bit-identical to the seed baseline) or "float32"
    # (~half the memory and transport volume, with its own cross-engine
    # bit-identity contract).  The policy changes every committed weight,
    # so it participates in ``environment_key``.
    dtype_policy: str = "float64"
    # Virtual client population (repro.fl.registry): clients are pure IDs,
    # materialized on selection from the environment's recorded partition
    # spec and discarded after the round.  Commits bit-identical models to
    # the eager path, so it stays out of ``environment_key`` like the
    # engine knobs.
    virtual_clients: bool = False
    # Fault injection (repro.fl.faults): a deterministic fault-spec string
    # ("crash@3.train;delay@4.validate.1=0.3;drop@5.vote.7") consumed by
    # the executors' resilience layer.  Recovery is retry-by-replay over
    # per-(round, entity) RNG streams, so an injected crash or straggler
    # commits bit-identical models to the fault-free run — a pure
    # robustness-testing knob, deliberately excluded from
    # ``environment_key``.  Equivalent to ``REPRO_FAULTS`` (CLI:
    # ``--faults``).
    faults: str | None = None
    # Per-task deadline (seconds) for the resilience layer's straggler
    # detection: a dispatched task exceeding it is reassigned (recomputed
    # from its keyed RNG streams).  None disables deadlines.
    task_deadline_s: float | None = None
    # Quorum policy for rounds whose validator votes go missing (dropped
    # by a fault, or lost to an exhausted recovery path): "strict" stalls
    # the round (QuorumStallError), "degrade" proceeds over the shrunken
    # quorum once ``quorum_min`` votes arrived.  This changes which models
    # get committed when votes are lost, but only in the defended phase:
    # pretraining runs undefended, so both stay out of ``environment_key``.
    quorum_policy: str = "strict"
    quorum_min: int = 1

    def __post_init__(self) -> None:
        if self.dataset not in _DATASETS:
            raise ValueError(f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if not 0.0 < self.client_share < 1.0:
            raise ValueError(f"client_share must be in (0, 1), got {self.client_share}")
        if self.defense_start >= self.total_rounds:
            raise ValueError("defense_start must precede total_rounds")
        for r in self.attack_rounds:
            if not 0 <= r < self.total_rounds:
                raise ValueError(f"attack round {r} outside [0, {self.total_rounds})")
        if self.malicious_validators < 0:
            raise ValueError("malicious_validators must be >= 0")
        if self.malicious_vote_strategy not in ("dos", "shield"):
            raise ValueError(
                "malicious_vote_strategy must be 'dos' or 'shield', got "
                f"{self.malicious_vote_strategy!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        if self.cohort_size is not None and self.cohort_size < 0:
            raise ValueError(
                f"cohort_size must be >= 0, got {self.cohort_size}"
            )
        if self.dtype_policy not in DTYPE_POLICIES:
            raise ValueError(
                f"dtype_policy must be one of {DTYPE_POLICIES}, got "
                f"{self.dtype_policy!r}"
            )
        # Fault-spec grammar errors abort before any environment work.
        FaultPlan.parse(self.faults)
        if self.task_deadline_s is not None and self.task_deadline_s <= 0:
            raise ValueError(
                f"task_deadline_s must be > 0, got {self.task_deadline_s}"
            )
        if self.quorum_policy not in QUORUM_POLICIES:
            raise ValueError(
                f"quorum_policy must be one of {QUORUM_POLICIES}, got "
                f"{self.quorum_policy!r}"
            )
        if self.quorum_min < 1:
            raise ValueError(
                f"quorum_min must be >= 1, got {self.quorum_min}"
            )

    def environment_key(self, seed: int) -> tuple:
        """Cache key for the (expensive) pretrained environment.

        Everything that influences the stable model and data layout — but
        *not* the defense parameters, which only affect the cheap defended
        phase.  Experiments sweeping l / q / mode over one environment reuse
        the pretraining.  The precision policy *is* part of the key: it
        changes every pretrained weight.  The quorum policy and
        ``quorum_min`` are not: they decide rounds whose votes went
        missing, and pretraining runs undefended, so no vote is ever taken
        there.  The fault plan stays out too — recovery replays to
        bit-identical models by contract.
        """
        return (
            self.dtype_policy,
            self.dataset,
            self.client_share,
            self.num_clients,
            self.pool_size,
            self.test_size,
            self.dirichlet_alpha,
            self.clients_per_round,
            self.local_epochs,
            self.batch_size,
            self.pretrain_rounds,
            self.pretrain_lr,
            self.hidden,
            seed,
        )

    def with_updates(self, **changes) -> "ExperimentConfig":
        """A copy with some fields replaced (dataclasses.replace wrapper)."""
        from dataclasses import replace

        return replace(self, **changes)
