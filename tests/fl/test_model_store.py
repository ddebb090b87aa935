"""Tests for the versioned model store the defense history owns.

Two properties matter:

1. the publish/release bookkeeping (refcounts, content dedup, version
   allocation) is exact;
2. under either precision policy the store holds the policy-dtype vector
   itself: reads are bit-exact and read-only, and ``bytes_published``
   counts the policy-dtype bytes copied in.

The history's staging round-trip (stage, commit as a refcount transfer,
discard) runs on its own store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import ModelHistory
from repro.fl.model_store import ModelStore
from repro.nn.models import make_mlp
from repro.nn.precision import DTYPE_POLICIES, dtype_policy


@pytest.fixture(params=DTYPE_POLICIES)
def policy(request):
    """Run the test under each precision policy; yields its dtype."""
    with dtype_policy(request.param):
        yield np.dtype(request.param)


@pytest.mark.usefixtures("policy")
class TestStoreBookkeeping:
    def test_versions_allocate_monotonically(self, rng):
        store = ModelStore()
        versions = [store.publish_new(rng.normal(size=8)) for _ in range(4)]
        assert versions == [0, 1, 2, 3]
        assert store.versions() == versions

    def test_publish_deduplicates_live_content(self, rng):
        store = ModelStore()
        flat = rng.normal(size=16)
        first = store.publish(flat)
        published = store.bytes_published
        again = store.publish(flat.copy())
        assert again == first
        assert store.bytes_published == published  # dedup hit: 0 bytes
        assert store.refcount(first) == 2

    def test_publish_new_never_deduplicates(self, rng):
        store = ModelStore()
        flat = rng.normal(size=16)
        assert store.publish_new(flat) != store.publish_new(flat)

    def test_release_evicts_at_zero(self, rng):
        store = ModelStore()
        flat = rng.normal(size=8)
        version = store.publish(flat)
        assert store.publish(flat) == version  # a second reference
        store.release(version)
        assert version in store
        store.release(version)
        assert version not in store
        with pytest.raises(KeyError):
            store.get(version)
        with pytest.raises(KeyError):
            store.release(version)

    def test_release_of_duplicate_keeps_dedup_for_live_twin(self, rng):
        """Regression: releasing one of two live versions with identical
        content (a rejected candidate bit-identical to the global model)
        must not orphan dedup for the surviving twin."""
        store = ModelStore()
        flat = rng.normal(size=16)
        first = store.publish(flat)
        twin = store.publish_new(flat)
        store.release(twin)
        assert store.publish(flat) == first

    def test_get_preserves_exact_vector_length(self, rng):
        store = ModelStore()
        version = store.publish(rng.normal(size=3))
        assert store.get(version).shape == (3,)

    def test_dedup_does_not_resurrect_released_content(self, rng):
        store = ModelStore()
        flat = rng.normal(size=8)
        first = store.publish(flat)
        store.release(first)
        assert store.publish(flat) != first  # fresh version, not a ghost

    def test_adopt_preserves_explicit_versions(self, rng):
        store = ModelStore()
        store.adopt(7, rng.normal(size=8))
        assert store.versions() == [7]
        assert store.publish_new(rng.normal(size=8)) == 8  # counter jumped
        with pytest.raises(ValueError):
            store.adopt(7, rng.normal(size=8))

    def test_non_flat_vector_rejected(self, rng):
        with pytest.raises(ValueError):
            ModelStore().publish(rng.normal(size=(4, 4)))


class TestPolicyDtypeVectors:
    @pytest.mark.parametrize("n", [0, 1, 3, 17, 4097])
    def test_publish_get_roundtrip_is_bit_exact_and_read_only(self, policy, rng, n):
        flat = rng.normal(size=n).astype(policy)
        store = ModelStore()
        version = store.publish(flat)
        stored = store.get(version)
        assert (stored.dtype, stored.shape) == (policy, (n,))
        np.testing.assert_array_equal(stored, flat)
        assert not stored.flags.writeable
        expected = flat.copy()
        flat += 1.0  # the store holds its own copy, not the caller's array
        np.testing.assert_array_equal(store.get(version), expected)

    def test_bytes_published_counts_policy_dtype_bytes(self, policy, rng):
        """float64 input is cast to the policy dtype, and the counter reads
        the bytes of that cast; a dedup hit copies nothing."""
        flats = [rng.normal(size=300) for _ in range(3)]
        store = ModelStore()
        versions = [store.publish(flat) for flat in flats]
        assert store.bytes_published == 3 * 300 * policy.itemsize
        assert store.get(versions[0]).dtype == policy
        assert store.publish(flats[1].copy()) == versions[1]
        assert store.bytes_published == 3 * 300 * policy.itemsize

    def test_release_leaves_other_versions_readable(self, policy, rng):
        """No version depends on another: releasing versions (a rejected
        candidate, an evicted window) never changes what the rest read."""
        store = ModelStore()
        base = rng.normal(size=128)
        versions = [store.publish_new(base + 0.01 * i) for i in range(4)]
        expected = {v: store.get(v).copy() for v in versions}
        store.release(versions[0])
        store.release(versions[2])
        assert store.versions() == [versions[1], versions[3]]
        for version in store.versions():
            assert store.refcount(version) == 1
            np.testing.assert_array_equal(store.get(version), expected[version])


@pytest.mark.usefixtures("policy")
class TestStoreBackedHistory:
    def test_append_publishes_and_eviction_releases(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=2)
        for _ in range(4):
            model.set_flat(model.get_flat() + 1.0)
            history.append(model)
        assert history.versions() == [2, 3]
        assert history.store.versions() == [2, 3]  # evicted versions released

    def test_staging_commit_is_refcount_transfer(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=3)
        store = history.store
        version = history.stage_candidate(model)
        published = store.bytes_published
        assert history.staged_version == version
        assert history.commit_staged() == version
        assert store.bytes_published == published  # no second copy
        assert store.refcount(version) == 1
        assert history.versions() == [version]
        np.testing.assert_array_equal(
            history.latest()[1].get_flat(), model.get_flat()
        )

    def test_discard_staged_releases_the_candidate(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=3)
        version = history.stage_candidate(model)
        assert version in history.store
        history.discard_staged()
        assert version not in history.store
        assert history.store.versions() == []

    def test_restaging_releases_unresolved_candidate(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=3)
        first = history.stage_candidate(model)
        second = history.stage_candidate(model)
        assert first not in history.store
        assert history.staged_version == second

    def test_commit_without_stage_rejected(self):
        with pytest.raises(RuntimeError):
            ModelHistory(max_models=2).commit_staged()


@pytest.mark.usefixtures("policy")
class TestContentAddressing:
    """``publish`` deduplicates on the policy-dtype *bytes*: equal values
    with different bytes are distinct content, equal bytes are one."""

    def test_dedup_resolves_to_the_newest_live_twin(self, rng):
        store = ModelStore()
        flat = rng.normal(size=16)
        first = store.publish(flat)
        twin = store.publish_new(flat)
        assert store.publish(flat) == twin
        assert (store.refcount(first), store.refcount(twin)) == (1, 2)

    def test_newest_means_last_published_not_highest_version(self, rng):
        store = ModelStore()
        flat = rng.normal(size=16)
        store.publish_new(flat)
        store.publish_new(flat)
        store.release(0)
        store.adopt(0, flat)
        assert store.publish(flat) == 0
        assert (store.refcount(0), store.refcount(1)) == (2, 1)

    def test_signed_zeros_are_distinct_content(self):
        store = ModelStore()
        positive = store.publish(np.zeros(4))
        negative = store.publish(-np.zeros(4))
        assert positive != negative
        assert np.signbit(store.get(negative)).all()
        assert not np.signbit(store.get(positive)).any()

    def test_nan_vectors_with_equal_bytes_deduplicate(self):
        store = ModelStore()
        flat = np.array([np.nan, 1.0, np.nan])
        version = store.publish(flat)
        assert store.publish(flat.copy()) == version
        assert store.refcount(version) == 2

    def test_one_ulp_apart_is_distinct_content(self, policy, rng):
        store = ModelStore()
        flat = rng.normal(size=16).astype(policy)
        other = flat.copy()
        other[7] = np.nextafter(other[7], np.inf)
        assert store.publish(flat) != store.publish(other)
        assert store.versions() == [0, 1]

    def test_adopted_content_deduplicates(self, rng):
        store = ModelStore()
        flat = rng.normal(size=8)
        store.adopt(5, flat)
        assert store.publish(flat) == 5
        assert store.refcount(5) == 2

    def test_contains_tracks_only_live_versions(self, rng):
        store = ModelStore()
        version = store.publish(rng.normal(size=4))
        assert version in store and version + 1 not in store
        store.release(version)
        assert version not in store


@pytest.mark.parametrize(
    "policy_name, shared", [("float32", True), ("float64", False)]
)
def test_dedup_compares_the_vectors_after_the_policy_cast(policy_name, shared, rng):
    """Two float64 vectors that differ below float32 resolution are one
    entry under the float32 policy and two under float64."""
    flat = rng.normal(size=32)
    nudged = flat.copy()
    nudged[3] += 1e-12
    with dtype_policy(policy_name):
        store = ModelStore()
        same = store.publish(flat) == store.publish(nudged)
    assert same is shared


@pytest.mark.usefixtures("policy")
class TestVersionAllocation:
    def test_versions_are_never_reused_after_release(self, rng):
        store = ModelStore()
        released = store.publish_new(rng.normal(size=4))
        store.release(released)
        assert store.publish_new(rng.normal(size=4)) > released
        assert store.publish(rng.normal(size=4)) > released

    def test_adopt_below_the_counter_keeps_the_counter(self, rng):
        store = ModelStore()
        versions = [store.publish_new(rng.normal(size=4)) for _ in range(4)]
        store.release(versions[1])
        assert store.adopt(versions[1], rng.normal(size=4)) == versions[1]
        assert store.publish_new(rng.normal(size=4)) == versions[-1] + 1

    def test_versions_list_ascending_after_adopts(self, rng):
        store = ModelStore()
        store.adopt(9, rng.normal(size=4))
        fresh = store.publish_new(rng.normal(size=4))
        store.adopt(3, rng.normal(size=4))
        assert fresh == 10
        assert store.versions() == [3, 9, 10]

    def test_adopt_rejects_a_non_flat_vector(self, rng):
        store = ModelStore()
        with pytest.raises(ValueError, match="flat"):
            store.adopt(0, rng.normal(size=(2, 3)))
        assert store.versions() == []


@pytest.mark.usefixtures("policy")
class TestRefcounts:
    def test_unknown_version_has_no_references(self):
        store = ModelStore()
        assert store.refcount(0) == 0
        assert store.refcount(123) == 0

    @pytest.mark.parametrize("hits", [1, 2, 5])
    def test_each_dedup_hit_is_one_more_release_to_evict(self, rng, hits):
        store = ModelStore()
        flat = rng.normal(size=8)
        version = store.publish(flat)
        for _ in range(hits):
            assert store.publish(flat) == version
        assert store.refcount(version) == hits + 1
        for left in range(hits, 0, -1):
            store.release(version)
            assert store.refcount(version) == left
        store.release(version)
        assert version not in store

    def test_publish_new_and_adopt_start_at_one_reference(self, rng):
        store = ModelStore()
        fresh = store.publish_new(rng.normal(size=4))
        adopted = store.adopt(7, rng.normal(size=4))
        assert store.refcount(fresh) == store.refcount(adopted) == 1

    def test_bytes_published_counts_every_copy_in(self, policy, rng):
        """``publish_new`` and ``adopt`` always copy; only a ``publish``
        dedup hit is free."""
        store = ModelStore()
        flat = rng.normal(size=10)
        store.publish(flat)
        store.publish_new(flat)
        store.adopt(9, flat)
        store.publish(flat)  # dedup hit
        assert store.bytes_published == 3 * 10 * policy.itemsize


class TestInputCasting:
    @pytest.mark.parametrize("source", ["float16", "float32", "float64", "int64"])
    def test_any_numeric_input_is_stored_in_the_policy_dtype(self, policy, source):
        flat = np.arange(-3, 5).astype(source)
        store = ModelStore()
        stored = store.get(store.publish(flat))
        assert stored.dtype == policy
        np.testing.assert_array_equal(stored, flat.astype(policy))

    def test_a_strided_view_is_stored_contiguous(self, policy, rng):
        base = rng.normal(size=20)
        view = base[::2]
        store = ModelStore()
        stored = store.get(store.publish(view))
        assert stored.flags.c_contiguous
        np.testing.assert_array_equal(stored, view.astype(policy))

    def test_get_returns_the_stored_array_without_a_copy(self, policy, rng):
        store = ModelStore()
        version = store.publish(rng.normal(size=6))
        assert store.get(version) is store.get(version)
        with pytest.raises(ValueError):
            store.get(version)[0] = 1.0
