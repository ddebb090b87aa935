"""Tests for the versioned model store and the shared profile table.

Four properties matter:

1. both store implementations run the exact same publish/release
   bookkeeping (refcounts, content dedup, version allocation);
2. under either precision policy every store holds the policy-dtype vector
   itself: reads are bit-exact and read-only, ``bytes_published`` counts
   the policy-dtype bytes copied in, and a worker reads a segment's bytes
   with its own dtype and parameter count;
3. shared-memory segments never outlive the store — eviction, ``close()``,
   ``__exit__`` and even a crashed worker leave ``/dev/shm`` clean;
4. the profile table's staging mirrors the round commit protocol.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.history import ModelHistory
from repro.fl.model_store import (
    InProcessModelStore,
    SharedMemoryModelStore,
    ValidatorProfileTable,
    make_model_store,
)
from repro.nn.models import make_mlp
from repro.nn.precision import DTYPE_POLICIES, dtype_policy
from tests.conftest import shm_entries

STORES = [InProcessModelStore, SharedMemoryModelStore]


@pytest.fixture(params=DTYPE_POLICIES)
def policy(request):
    """Run the test under each precision policy; yields its dtype."""
    with dtype_policy(request.param):
        yield np.dtype(request.param)


@pytest.mark.usefixtures("policy")
@pytest.mark.parametrize("store_cls", STORES)
class TestStoreBookkeeping:
    def test_versions_allocate_monotonically(self, store_cls, rng):
        with store_cls() as store:
            versions = [store.publish_new(rng.normal(size=8)) for _ in range(4)]
            assert versions == [0, 1, 2, 3]
            assert store.versions() == versions

    def test_publish_deduplicates_live_content(self, store_cls, rng):
        with store_cls() as store:
            flat = rng.normal(size=16)
            first = store.publish(flat)
            published = store.bytes_published
            again = store.publish(flat.copy())
            assert again == first
            assert store.bytes_published == published  # dedup hit: 0 bytes
            assert store.refcount(first) == 2

    def test_publish_new_never_deduplicates(self, store_cls, rng):
        with store_cls() as store:
            flat = rng.normal(size=16)
            assert store.publish_new(flat) != store.publish_new(flat)

    def test_release_evicts_at_zero(self, store_cls, rng):
        with store_cls() as store:
            version = store.publish(rng.normal(size=8))
            store.acquire(version)
            store.release(version)
            assert version in store
            store.release(version)
            assert version not in store
            with pytest.raises(KeyError):
                store.get(version)
            with pytest.raises(KeyError):
                store.release(version)

    def test_release_of_duplicate_keeps_dedup_for_live_twin(self, store_cls, rng):
        """Regression: releasing one of two live versions with identical
        content (a rejected candidate bit-identical to the global model)
        must not orphan dedup for the surviving twin."""
        with store_cls() as store:
            flat = rng.normal(size=16)
            first = store.publish(flat)
            twin = store.publish_new(flat)
            store.release(twin)
            assert store.publish(flat) == first

    def test_get_preserves_exact_vector_length(self, store_cls, rng):
        """Stored lengths are exact even where the platform page-rounds
        shared-memory segment sizes (macOS)."""
        with store_cls() as store:
            version = store.publish(rng.normal(size=3))
            assert store.get(version).shape == (3,)

    def test_dedup_does_not_resurrect_released_content(self, store_cls, rng):
        with store_cls() as store:
            flat = rng.normal(size=8)
            first = store.publish(flat)
            store.release(first)
            assert store.publish(flat) != first  # fresh version, not a ghost

    def test_adopt_preserves_explicit_versions(self, store_cls, rng):
        with store_cls() as store:
            store.adopt(7, rng.normal(size=8))
            assert store.versions() == [7]
            assert store.publish_new(rng.normal(size=8)) == 8  # counter jumped
            with pytest.raises(ValueError):
                store.adopt(7, rng.normal(size=8))

    def test_min_live_version(self, store_cls, rng):
        with store_cls() as store:
            assert store.min_live_version() is None
            a = store.publish_new(rng.normal(size=8))
            b = store.publish_new(rng.normal(size=8))
            assert store.min_live_version() == a
            store.release(a)
            assert store.min_live_version() == b

    def test_non_flat_vector_rejected(self, store_cls, rng):
        with store_cls() as store:
            with pytest.raises(ValueError):
                store.publish(rng.normal(size=(4, 4)))

    def test_publish_after_close_rejected(self, store_cls, rng):
        store = store_cls()
        store.close()
        with pytest.raises(RuntimeError):
            store.publish(rng.normal(size=8))


@pytest.mark.parametrize("store_cls", STORES)
class TestPolicyDtypeVectors:
    @pytest.mark.parametrize("n", [0, 1, 3, 17, 4097])
    def test_publish_get_roundtrip_is_bit_exact_and_read_only(
        self, store_cls, policy, rng, n
    ):
        flat = rng.normal(size=n).astype(policy)
        with store_cls() as store:
            version = store.publish(flat)
            stored = store.get(version)
            assert (stored.dtype, stored.shape) == (policy, (n,))
            np.testing.assert_array_equal(stored, flat)
            assert not stored.flags.writeable
            expected = flat.copy()
            flat += 1.0  # the store holds its own copy, not the caller's array
            np.testing.assert_array_equal(store.get(version), expected)

    def test_bytes_published_counts_policy_dtype_bytes(
        self, store_cls, policy, rng
    ):
        """float64 input is cast to the policy dtype, and the counter reads
        the bytes of that cast; a dedup hit copies nothing."""
        flats = [rng.normal(size=300) for _ in range(3)]
        with store_cls() as store:
            versions = [store.publish(flat) for flat in flats]
            assert store.bytes_published == 3 * 300 * policy.itemsize
            assert store.get(versions[0]).dtype == policy
            assert store.publish(flats[1].copy()) == versions[1]
            assert store.bytes_published == 3 * 300 * policy.itemsize

    def test_release_leaves_other_versions_readable(
        self, store_cls, policy, rng
    ):
        """No version depends on another: releasing versions (a rejected
        candidate, an evicted window) never changes what the rest read."""
        with store_cls() as store:
            base = rng.normal(size=128)
            versions = [store.publish_new(base + 0.01 * i) for i in range(4)]
            expected = {v: store.get(v).copy() for v in versions}
            store.release(versions[0])
            store.release(versions[2])
            assert store.versions() == [versions[1], versions[3]]
            for version in store.versions():
                assert store.refcount(version) == 1
                np.testing.assert_array_equal(store.get(version), expected[version])


class TestSharedMemoryVectors:
    def test_empty_vector_gets_a_segment_and_reads_back_empty(
        self, policy, rng
    ):
        """A segment cannot be empty: a zero-length vector still gets one
        (of one byte), and owner and worker both read it back empty."""
        with SharedMemoryModelStore() as store:
            version = store.publish(np.zeros(0))
            assert shm_entries(store.name_prefix) == [store.segment_name(version)]
            assert store.get(version).shape == (0,)
            assert store.bytes_published == 0
            view = store.worker_handle().attach()
            assert np.frombuffer(view.get(version), policy, 0).shape == (0,)
            view.close()

    def test_worker_view_is_read_only(self, rng):
        """Workers only attach: writing through a worker's view of the
        arena raises, so no task can change a published version."""
        with SharedMemoryModelStore() as store:
            version = store.publish(rng.normal(size=32))
            view = store.worker_handle().attach()
            segment = view.get(version)
            with pytest.raises(TypeError):
                segment[0] = 1
            del segment  # a live view would keep the attachment open
            view.close()

    def test_segment_holds_only_the_vector_bytes(self, policy, rng):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("needs a /dev/shm tmpfs")
        with SharedMemoryModelStore() as store:
            version = store.publish(rng.normal(size=33))
            size = os.stat(f"/dev/shm/{store.segment_name(version)}").st_size
            assert size == 33 * policy.itemsize

    def test_publish_evict_cycles_unlink_every_segment(self, policy, rng):
        store = SharedMemoryModelStore()
        with store:
            live = []
            for _ in range(20):
                live.append(store.publish_new(rng.normal(size=64)))
                if len(live) > 3:
                    store.release(live.pop(0))
            assert len(shm_entries(store.name_prefix)) == len(store.versions())
            for version in live:
                store.release(version)
            assert store.versions() == []
            assert shm_entries(store.name_prefix) == []
        assert shm_entries(store.name_prefix) == []

    def test_worker_view_reads_each_segment_alone(self, policy, rng):
        """A worker reads any version from its own segment, with the
        dtype and parameter count it supplies, even after the versions
        published before it are gone."""
        with SharedMemoryModelStore() as store:
            base = rng.normal(size=48)
            v0 = store.publish_new(base)
            v1 = store.publish_new(base + 0.005)
            expected = store.get(v1).copy()
            store.release(v0)
            view = store.worker_handle().attach()
            read = np.frombuffer(view.get(v1), policy, 48)
            assert read.dtype == policy
            np.testing.assert_array_equal(read, expected)
            assert not read.flags.writeable
            assert view.attach_count == 1
            del read  # a live view would keep the attachment open
            view.close()


@pytest.mark.usefixtures("policy")
class TestSharedMemoryLifecycle:
    def test_segment_exists_while_live_and_unlinks_on_release(self, rng):
        with SharedMemoryModelStore() as store:
            version = store.publish(rng.normal(size=32))
            assert shm_entries(store.name_prefix) == [store.segment_name(version)]
            store.release(version)
            assert shm_entries(store.name_prefix) == []

    def test_close_unlinks_everything(self, rng):
        store = SharedMemoryModelStore()
        for _ in range(3):
            store.publish_new(rng.normal(size=32))
        assert len(shm_entries(store.name_prefix)) == 3
        store.close()
        assert shm_entries(store.name_prefix) == []
        store.close()  # idempotent

    def test_context_manager_unlinks_on_exception(self, rng):
        store = SharedMemoryModelStore()
        with pytest.raises(RuntimeError):
            with store:
                store.publish(rng.normal(size=32))
                raise RuntimeError("boom")
        assert shm_entries(store.name_prefix) == []

    def test_worker_view_reads_parent_segments(self, rng):
        with SharedMemoryModelStore() as store:
            version = store.publish(rng.normal(size=32))
            flat = store.get(version)
            view = store.worker_handle().attach()
            read = np.frombuffer(view.get(version), flat.dtype, 32)
            np.testing.assert_array_equal(read, flat)
            assert not read.flags.writeable
            del read  # a live view would keep the attachment open
            view.evict_below(version + 1)
            view.close()

    def test_worker_crash_leaks_nothing(self, rng, tmp_path):
        """A worker that dies mid-pool leaves /dev/shm cleanup to the owner."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        store = SharedMemoryModelStore()
        store.publish(rng.normal(size=32))
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_attach_and_die, store.name_prefix).result()
        assert len(shm_entries(store.name_prefix)) == 1  # owner still live
        store.close()
        assert shm_entries(store.name_prefix) == []


def _attach_and_die(prefix: str) -> None:
    """Worker-side helper: attach to the arena, then crash hard."""
    from repro.fl.model_store import ShmStoreHandle

    view = ShmStoreHandle(prefix).attach()
    view.get(0)
    os._exit(1)  # simulate a hard crash (no interpreter cleanup)


class TestMakeModelStore:
    def test_shared_flag_picks_the_arena(self):
        with make_model_store() as store:
            assert isinstance(store, InProcessModelStore)
        with make_model_store(shared=True) as store:
            assert isinstance(store, SharedMemoryModelStore)


@pytest.mark.usefixtures("policy")
class TestStoreBackedHistory:
    def test_append_publishes_and_eviction_releases(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        with InProcessModelStore() as store:
            history = ModelHistory(max_models=2, store=store)
            for _ in range(4):
                model.set_flat(model.get_flat() + 1.0)
                history.append(model)
            assert history.versions() == [2, 3]
            assert store.versions() == [2, 3]  # evicted versions released

    def test_staging_commit_is_refcount_transfer(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        with SharedMemoryModelStore() as store:
            history = ModelHistory(max_models=3, store=store)
            version = history.stage_candidate(model)
            published = store.bytes_published
            assert history.staged_version == version
            assert history.commit_staged() == version
            assert store.bytes_published == published  # no second copy
            assert history.versions() == [version]
            np.testing.assert_array_equal(
                history.latest()[1].get_flat(), model.get_flat()
            )

    def test_discard_staged_releases_segment(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        with SharedMemoryModelStore() as store:
            history = ModelHistory(max_models=3, store=store)
            version = history.stage_candidate(model)
            assert version in store
            history.discard_staged()
            assert version not in store
            assert shm_entries(store.name_prefix) == []

    def test_restaging_releases_unresolved_candidate(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        with InProcessModelStore() as store:
            history = ModelHistory(max_models=3, store=store)
            first = history.stage_candidate(model)
            second = history.stage_candidate(model)
            assert first not in store
            assert history.staged_version == second

    def test_commit_without_stage_rejected(self):
        with pytest.raises(RuntimeError):
            ModelHistory(max_models=2).commit_staged()

    def test_bind_store_migrates_versions(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=3)
        flats = []
        for _ in range(3):
            model.set_flat(model.get_flat() + 1.0)
            flats.append(model.get_flat())
            history.append(model)
        with SharedMemoryModelStore() as target:
            history.bind_store(target)
            assert history.store is target
            assert target.versions() == [0, 1, 2]
            for version, expected in zip([0, 1, 2], flats):
                np.testing.assert_array_equal(target.get(version), expected)
            # Future appends allocate past the migrated numbering.
            model.set_flat(model.get_flat() + 1.0)
            assert history.append(model) == 3

    def test_bind_store_while_staged_rejected(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=2)
        history.stage_candidate(model)
        with pytest.raises(RuntimeError):
            history.bind_store(InProcessModelStore())

    def test_eviction_listener_fires_per_retired_version(self, rng):
        model = make_mlp(2, 2, rng, hidden=(4,))
        history = ModelHistory(max_models=2)
        evicted: list[int] = []
        history.add_eviction_listener(evicted.append)
        for _ in range(4):
            history.append(model)
        assert evicted == [0, 1]


class TestValidatorProfileTable:
    def test_put_get_and_hints(self):
        table = ValidatorProfileTable()
        table.put(3, 10, "p310")
        table.put(3, 11, "p311")
        table.put(4, 10, "p410")
        assert table.get(3, 10) == "p310"
        assert table.hints(3, [9, 10, 11]) == {10: "p310", 11: "p311"}
        assert table.hints(5, [10]) == {}

    def test_staged_profiles_commit_under_version(self):
        table = ValidatorProfileTable()
        table.stage(1, 7, "c1")
        table.stage(2, 7, "c2")
        assert table.staged_count == 2
        table.commit_staged(version=7)
        assert table.staged_count == 0
        assert table.get(1, 7) == "c1"
        assert table.get(2, 7) == "c2"

    def test_rejected_candidates_are_discarded(self):
        table = ValidatorProfileTable()
        table.stage(1, 7, "c1")
        table.discard_staged()
        table.commit_staged(version=7)
        assert len(table) == 0

    def test_staging_is_keyed_by_version(self):
        """Staging is keyed by candidate version: committing or discarding
        one version's profiles never touches another version's."""
        table = ValidatorProfileTable()
        table.stage(1, 7, "r-candidate")
        table.stage(1, 8, "r+1-candidate")
        table.commit_staged(version=7)
        assert table.get(1, 7) == "r-candidate"
        assert table.staged_count == 1
        table.discard_staged(version=8)
        assert table.staged_count == 0
        assert table.get(1, 8) is None

    def test_only_committed_profiles_serve_as_hints(self):
        """A round's staged profiles are committed or discarded before a
        later round asks for hints, so hints read committed entries only."""
        table = ValidatorProfileTable()
        table.stage(1, 7, "staged")
        assert table.hints(1, [7]) == {}
        table.commit_staged(version=7)
        assert table.hints(1, [7]) == {7: "staged"}

    def test_eviction_tracks_history(self):
        table = ValidatorProfileTable()
        for version in (5, 6, 7):
            table.put(1, version, f"p{version}")
            table.put(2, version, f"q{version}")
        table.evict_version(5)
        assert len(table) == 4
        assert table.get(1, 5) is None
        table.evict_version(6)
        assert len(table) == 2
        assert table.get(2, 7) == "q7"
