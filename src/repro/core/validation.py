"""Model validation via per-class misclassification analysis (Algorithm 2).

Given the candidate global model ``G``, the history of the latest ``l + 1``
accepted models ``(G_0, ..., G_l)``, and a local dataset ``D``, the
validator:

1. computes the error-variation vectors ``v_i = v(G_{i-1}, G_i, D)`` for the
   accepted pairs (the *trusted* metric values) and
   ``v_new = v(G_l, G, D)`` for the candidate;
2. sets ``k = ceil(l / 2)`` and ``h = ceil(3 * l / 4)``;
3. scores each trusted index ``i in [h .. l]`` with
   ``phi_i = LOF_k(v_i; v_{i-h+1}, ..., v_{i-1})`` — the LOF of that round's
   variation against the ``h - 1`` variations preceding it;
4. sets the rejection threshold ``tau`` to the mean of those trusted LOFs
   (the last ~``l/4`` trusted updates, as the paper prescribes);
5. votes "suspicious" (1) iff the candidate's LOF, computed the same way
   against the ``h - 1`` most recent trusted variations, exceeds ``tau``.

Note on the paper's pseudocode: Algorithm 2 computes the candidate's vector
``v_{l+1}`` but then indexes the decision at ``phi_l`` with threshold
``mean(phi_h .. phi_{l-1})``.  Read literally, the candidate's vector would
never be used.  We follow the self-consistent reading (also matching the
paper's prose): the newest vector is scored like every trusted vector and
compared against the mean LOF of the trusted tail.

A validator instance is bound to one dataset and caches per-model
prediction profiles by model version, so re-validating against overlapping
histories costs one forward pass per *new* model only.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.errors import (
    ErrorProfile,
    error_variations,
    model_error_profile,
    stacked_error_profiles,
)
from repro.core.lof import local_outlier_factor
from repro.data.dataset import Dataset
from repro.nn.network import Network
from repro.nn.stacked import supports_stacking

#: Fewer accepted models than this and Algorithm 2 lacks the trusted-LOF
#: window it needs; the validator then abstains (votes "accept").
MIN_HISTORY_FOR_VOTE = 6


@dataclass(frozen=True)
class ValidationContext:
    """What the server ships to a validating client each round.

    ``history`` holds ``(version, model)`` for the latest accepted models,
    oldest first; ``candidate`` is the round's aggregated global model.
    ``candidate_version`` is the candidate's key in the round's
    :class:`~repro.fl.model_store.ModelStore` when the server staged it
    there (see :meth:`~repro.core.history.ModelHistory.stage_candidate`);
    shared-memory executors ship that key to workers instead of the
    weights.  Validation itself never reads it.
    """

    candidate: Network
    history: Sequence[tuple[int, Network]]
    candidate_version: int | None = None


@runtime_checkable
class Validator(Protocol):
    """Anything that can turn a :class:`ValidationContext` into a vote."""

    def vote(self, context: ValidationContext, rng: np.random.Generator) -> int: ...


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic detail of one Algorithm 2 evaluation."""

    vote: int
    candidate_lof: float | None
    threshold: float | None
    trusted_lofs: tuple[float, ...]
    abstained: bool


class MisclassificationValidator:
    """Algorithm 2 bound to one validation dataset.

    Parameters
    ----------
    dataset:
        The validator's private labelled data ``D``.
    normalize:
        ``"dataset"`` (paper definition) or ``"class"`` error normalisation;
        see :mod:`repro.nn.metrics`.
    min_history:
        Minimum number of accepted models required before casting real
        votes; smaller histories abstain (vote 0).
    threshold_slack:
        Multiplicative tolerance on the rejection threshold: the vote is
        "suspicious" iff ``LOF > threshold_slack * tau``.  The paper's
        literal rule is ``threshold_slack = 1.0``; the default adds 15%
        because the scaled-down substrate produces a narrower natural LOF
        spread than GPU-scale training, which makes the literal rule
        knife-edged for validators with large (non-quantised) validation
        sets.  Backdoor injections overshoot the threshold by 10-100x, so
        the slack costs no detection power (see the ``slack=1.0`` and
        ``slack=1.3`` rows of ``benchmarks/bench_ablation_validation.py``).
    features:
        Which error views feed the LOF feature vector: ``"both"`` (the
        paper's ``v = [v_s | v_t]``), ``"source"`` (eq. 2 only) or
        ``"target"`` (eq. 3 only).  Used by the ablation benchmarks.

    The profiles a validation is missing (cold cache: the candidate plus up
    to ``l + 1`` history models) are computed in one stacked forward
    (:func:`repro.core.errors.stacked_error_profiles`) instead of one
    per-model pass each.  Profiles — and therefore votes — are
    bit-identical either way; unstackable architectures and warm caches
    take the per-model path.
    """

    #: Algorithm 2 is a pure function of (context, dataset); the profile
    #: caches are per-process performance details, so worker processes may
    #: evaluate this validator (see :mod:`repro.fl.parallel`).
    parallel_safe = True

    def __init__(
        self,
        dataset: Dataset,
        normalize: str = "dataset",
        min_history: int = MIN_HISTORY_FOR_VOTE,
        threshold_slack: float = 1.15,
        features: str = "both",
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("validator needs a non-empty dataset")
        if min_history < 4:
            raise ValueError("min_history must be >= 4 for the LOF windows to exist")
        if threshold_slack < 1.0:
            raise ValueError(f"threshold_slack must be >= 1, got {threshold_slack}")
        if features not in ("both", "source", "target"):
            raise ValueError(
                f"features must be 'both', 'source' or 'target', got {features!r}"
            )
        self.dataset = dataset
        self.normalize = normalize
        self.min_history = min_history
        self.threshold_slack = threshold_slack
        self.features = features
        self._profile_cache: dict[int, ErrorProfile] = {}
        #: The last candidate this validator profiled, kept one round so an
        #: accepted candidate's profile can be re-filed under its committed
        #: history version instead of being recomputed from scratch.
        self._pending_candidate: tuple[Network, ErrorProfile] | None = None

    # ------------------------------------------------------------------
    # Voting (Algorithm 2)
    # ------------------------------------------------------------------
    def vote(self, context: ValidationContext, rng: np.random.Generator) -> int:
        """Binary verdict for the candidate: 1 = suspicious, 0 = looks fine."""
        del rng  # the misclassification analysis is deterministic
        return self.explain(context).vote

    def explain(self, context: ValidationContext) -> ValidationReport:
        """Run Algorithm 2 and return the full diagnostic report."""
        history = list(context.history)
        lookback = len(history) - 1  # l: number of consecutive accepted pairs
        self._pending_candidate = None
        if len(history) < self.min_history:
            return ValidationReport(0, None, None, (), abstained=True)

        candidate_profile = self._fill_profiles_stacked(context, history)
        profiles = [self._profile_for(version, model) for version, model in history]
        if candidate_profile is None:
            candidate_profile = model_error_profile(
                context.candidate, self.dataset, normalize=self.normalize
            )
        self._pending_candidate = (context.candidate, candidate_profile)
        # v_1 .. v_l, then the candidate's v_{l+1} (1-indexed as points[i-1])
        points = self._select_features(error_variations([*profiles, candidate_profile]))

        k = max(1, int(np.ceil(lookback / 2)))
        h = int(np.ceil(lookback * 3 / 4))
        window = h - 1  # reference-set size for every LOF evaluation
        if window < 2 or h > lookback:
            return ValidationReport(0, None, None, (), abstained=True)
        k = min(k, window - 1)

        # One batched call scores v_h .. v_{l+1}, each against the window
        # of variations just before it: the trusted LOFs, then the candidate's.
        lofs = local_outlier_factor(points[window:], points[:window], k)
        threshold = float(np.mean(lofs[:-1]))
        candidate_lof = float(lofs[-1])
        vote = 1 if candidate_lof > self.threshold_slack * threshold else 0
        self._prune_cache(min(version for version, _ in history))
        return ValidationReport(
            vote=vote,
            candidate_lof=candidate_lof,
            threshold=threshold,
            trusted_lofs=tuple(lofs[:-1].tolist()),
            abstained=False,
        )

    def _select_features(self, variations: np.ndarray) -> np.ndarray:
        """Slice the ``[v_s | v_t]`` columns per the feature-ablation setting."""
        if self.features == "both":
            return variations
        half = variations.shape[1] // 2
        if self.features == "source":
            return variations[:, :half]
        return variations[:, half:]

    def _fill_profiles_stacked(
        self, context: ValidationContext, history: Sequence[tuple[int, Network]]
    ) -> ErrorProfile | None:
        """Profile every model this validation is missing in one stacked pass.

        Fills the per-version cache for uncached history entries and
        returns the candidate's profile — or ``None`` when stacking is
        unsupported for this architecture, or there is nothing to batch
        (warm cache: only the candidate is missing, where a stack of one
        would be pure overhead).
        """
        missing = [
            (version, model)
            for version, model in history
            if version not in self._profile_cache
        ]
        if not missing or not supports_stacking(context.candidate):
            return None
        stacked = stacked_error_profiles(
            [model for _, model in missing] + [context.candidate],
            self.dataset,
            normalize=self.normalize,
        )
        for (version, _), profile in zip(missing, stacked):
            self._profile_cache[version] = profile
        return stacked[-1]

    # ------------------------------------------------------------------
    # Profile caching
    # ------------------------------------------------------------------
    def note_committed(self, candidate: Network, version: int) -> None:
        """Record that ``candidate`` entered the history as ``version``.

        When this validator just profiled that exact candidate in
        :meth:`explain`, the profile is re-filed under the committed
        version, saving the full forward pass the next round would
        otherwise spend recomputing it (the history entry is a clone of
        the candidate, so the profile carries over unchanged).
        """
        pending = self._pending_candidate
        self._pending_candidate = None
        if pending is not None and pending[0] is candidate:
            self._profile_cache[version] = pending[1]

    def seed_profile_cache(self, profiles: Mapping[int, ErrorProfile]) -> None:
        """Inject externally known ``{version: profile}`` entries.

        The parallel engine ships profiles from the server's shared
        :class:`~repro.fl.model_store.ValidatorProfileTable` to whichever
        worker evaluates this validator, so a profile computed in one
        process is never recomputed in another.  Locally computed entries
        win on conflict (they are identical anyway — profiles are a
        deterministic function of model and dataset).
        """
        for version, profile in profiles.items():
            self._profile_cache.setdefault(version, profile)

    def cached_profiles(self, versions: Sequence[int]) -> dict[int, ErrorProfile]:
        """The subset of ``versions`` this validator has profiles for."""
        return {
            version: self._profile_cache[version]
            for version in versions
            if version in self._profile_cache
        }

    def take_pending_profile(self) -> ErrorProfile | None:
        """The profile of the most recently explained candidate, if any."""
        pending = self._pending_candidate
        return pending[1] if pending is not None else None

    def _profile_for(self, version: int, model: Network) -> ErrorProfile:
        profile = self._profile_cache.get(version)
        if profile is None:
            profile = model_error_profile(model, self.dataset, normalize=self.normalize)
            self._profile_cache[version] = profile
        return profile

    def _prune_cache(self, oldest_needed: int) -> None:
        stale = [v for v in self._profile_cache if v < oldest_needed]
        for version in stale:
            del self._profile_cache[version]


class ConstantVoteValidator:
    """A validator that ignores the model: malicious vote strategies.

    ``vote_value = 1`` models a denial-of-service voter (always "poisoned");
    ``vote_value = 0`` models a colluding voter shielding the attacker.
    """

    parallel_safe = True

    def __init__(self, vote_value: int) -> None:
        if vote_value not in (0, 1):
            raise ValueError(f"vote_value must be 0 or 1, got {vote_value}")
        self.vote_value = vote_value

    def vote(self, context: ValidationContext, rng: np.random.Generator) -> int:
        del context, rng
        return self.vote_value
