"""Tests for the weight-compression codec subsystem.

Four properties matter:

1. codec round-trips: lossless codecs reconstruct their canonical domain
   bit-exactly, lossy codecs respect their documented error bounds, and
   both hold across arbitrary shapes (empty and odd-length included);
2. store integration: every store encodes on publish / decodes on get,
   counts compressed vs raw bytes, decodes every segment on its own, and
   unlinks every codec segment once the last consumer is gone;
3. the engine gate: lossy codecs are rejected wherever
   ``require_lossless`` (or the config's ``allow_lossy=False``) demands
   losslessness, and admitted codecs surface in the round telemetry;
4. equivalence: with the identity codec the full engine matrix still
   commits bit-identically to the no-codec baseline, and with float16
   every engine commits bit-identically to every other float16 engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.compression import (
    CompressedSegment,
    Float16Codec,
    IdentityCodec,
    SEGMENT_HEADER,
    QuantizedCodec,
    WeightCodec,
    codec_names,
    decode_segment,
    make_codec,
    register_codec,
)
from repro.fl.model_store import (
    InProcessModelStore,
    SharedMemoryModelStore,
    make_model_store,
)
from repro.fl.parallel import SequentialExecutor, make_engine, make_executor
from tests.conftest import shm_entries

STORES = [InProcessModelStore, SharedMemoryModelStore]
ALL_CODECS = ("identity", "float16", "quantized")

#: Shapes the property tests sweep: empty, single element, odd lengths,
#: one crossing the quantizer's chunk boundary.
SHAPES = [0, 1, 3, 17, 256, 4097]


def vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(scale=0.5, size=n)


def payload_bytes(name: str, n: int) -> int:
    """Documented payload size of an ``n``-weight float64 vector: 8 bytes
    per weight (identity), 2 (float16), or 1 per weight plus an 8-byte
    chunk-size word and a float32 offset/scale pair per 4096-weight chunk
    (quantized)."""
    if name == "identity":
        return 8 * n
    if name == "float16":
        return 2 * n
    return 8 + 8 * -(-n // 4096) + n


class TestSegmentSerialization:
    def test_header_roundtrip(self, rng):
        flat = vectors(rng, 33)
        segment = IdentityCodec().encode(flat)
        parsed = CompressedSegment.from_buffer(segment.to_bytes())
        assert parsed.codec == "identity"
        assert parsed.num_params == 33
        np.testing.assert_array_equal(decode_segment(parsed), flat)

    @pytest.mark.parametrize("n", SHAPES)
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_segment_is_fixed_header_plus_own_payload(self, rng, name, n):
        """Segments are self-contained: the wire form is the fixed header
        and the codec's payload, sized as documented, and nothing else."""
        segment = make_codec(name).encode(vectors(rng, n))
        wire = segment.to_bytes()
        assert segment.nbytes == payload_bytes(name, n)
        assert len(wire) == segment.total_bytes
        assert len(wire) == SEGMENT_HEADER.size + payload_bytes(name, n)
        parsed = CompressedSegment.from_buffer(wire)
        assert (parsed.codec, parsed.num_params) == (name, n)
        assert bytes(parsed.payload) == bytes(segment.payload)

    def test_decode_segment_rejects_unregistered_codec(self):
        segment = CompressedSegment("no-such-codec", 0, b"")
        with pytest.raises(ValueError, match="unregistered"):
            decode_segment(segment)


class TestLosslessRoundTrips:
    @pytest.mark.parametrize("n", SHAPES)
    def test_identity_exact_on_everything(self, rng, n):
        codec = IdentityCodec()
        flat = vectors(rng, n)
        np.testing.assert_array_equal(codec.decode(codec.encode(flat)), flat)
        np.testing.assert_array_equal(codec.canonicalize(flat), flat)
        assert codec.lossless

    @pytest.mark.parametrize("n", SHAPES)
    def test_float16_exact_on_canonical_domain(self, rng, n):
        """The lossless contract: bit-exact on canonicalized vectors."""
        codec = Float16Codec()
        canonical = codec.canonicalize(vectors(rng, n))
        decoded = codec.decode(codec.encode(canonical))
        np.testing.assert_array_equal(decoded, canonical)
        # Canonicalization is a projection: applying it twice is a no-op.
        np.testing.assert_array_equal(codec.canonicalize(canonical), canonical)
        assert codec.lossless

    def test_float16_canonicalization_error_bound(self, rng):
        flat = vectors(rng, 512)
        err = np.abs(Float16Codec().canonicalize(flat) - flat)
        assert np.all(err <= np.abs(flat) * 2.0**-11 + 1e-12)

    def test_float16_overflow_becomes_inf(self):
        canon = Float16Codec().canonicalize(np.array([1e6, -1e6, 1.0]))
        assert np.isinf(canon[0]) and np.isinf(canon[1])
        assert np.isfinite(canon[2])


class TestLossyBounds:
    @pytest.mark.parametrize("n", SHAPES)
    def test_quantized_respects_documented_bound(self, rng, n):
        codec = QuantizedCodec(chunk=64)
        flat = vectors(rng, n)
        decoded = codec.decode(codec.encode(flat))
        assert decoded.shape == flat.shape
        bound = codec.max_error_bound(flat)
        assert np.all(np.abs(decoded - flat) <= bound * 1.001 + 1e-9)
        assert not codec.lossless

    def test_quantized_constant_chunk_is_exact(self):
        flat = np.full(100, 0.123)
        decoded = QuantizedCodec(chunk=32).decode(
            QuantizedCodec(chunk=32).encode(flat)
        )
        np.testing.assert_allclose(decoded, flat, atol=1e-7)

@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=600),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=st.sampled_from(ALL_CODECS),
)
def test_property_roundtrip_over_random_shapes(n, seed, name):
    """Any codec, any shape: decode(encode(x)) has the right shape/dtype,
    lossless codecs are exact on their canonical domain, and serialized
    segments decode identically to in-memory ones."""
    rng = np.random.default_rng(seed)
    codec = make_codec(name)
    flat = rng.normal(size=n)
    if codec.lossless:
        flat = codec.canonicalize(flat)
    segment = codec.encode(flat)
    decoded = codec.decode(segment)
    assert decoded.shape == (n,)
    assert decoded.dtype == np.float64
    if codec.lossless:
        np.testing.assert_array_equal(decoded, flat)
    wire = CompressedSegment.from_buffer(segment.to_bytes())
    np.testing.assert_array_equal(decode_segment(wire), decoded)


class TestRegistry:
    def test_known_names(self):
        assert set(ALL_CODECS) <= set(codec_names())

    def test_make_codec_resolves_names_instances_and_none(self):
        assert make_codec(None).name == "identity"
        assert make_codec("float16").name == "float16"
        custom = QuantizedCodec(chunk=128)
        assert make_codec(custom) is custom

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown weight codec"):
            make_codec("middle-out")

    def test_custom_codec_registration(self, rng):
        class NegatingCodec(WeightCodec):
            name = "test-negate"
            lossless = True

            def encode(self, flat):
                flat = np.ascontiguousarray(flat, dtype=np.float64)
                return CompressedSegment(self.name, len(flat), (-flat).tobytes())

            def decode(self, segment):
                return -np.frombuffer(bytes(segment.payload), dtype=np.float64)

        register_codec(NegatingCodec)
        try:
            flat = vectors(rng, 9)
            with InProcessModelStore(codec="test-negate") as store:
                version = store.publish(flat)
                np.testing.assert_array_equal(store.get(version), flat)
        finally:
            from repro.fl.compression import CODECS

            CODECS.pop("test-negate", None)


@pytest.mark.parametrize("store_cls", STORES)
class TestStoreCodecIntegration:
    @pytest.mark.parametrize("name", ["identity", "float16"])
    def test_lossless_publish_get_roundtrip(self, store_cls, name, rng):
        codec = make_codec(name)
        with store_cls(codec=codec) as store:
            flat = codec.canonicalize(vectors(rng, 64))
            version = store.publish(flat)
            np.testing.assert_array_equal(store.get(version), flat)
            assert not store.get(version).flags.writeable

    def test_compressed_accounting(self, store_cls, rng):
        with store_cls(codec="float16") as store:
            flat = vectors(rng, 1000)
            store.publish(flat)
            assert store.raw_bytes_published == flat.nbytes
            assert store.bytes_published == flat.nbytes // 4
            assert store.compression_ratio == pytest.approx(4.0)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_accounting_counts_codec_payload_and_raw_bytes(
        self, store_cls, name, rng
    ):
        codec = make_codec(name)
        flats = [vectors(rng, 300) for _ in range(3)]
        with store_cls(codec=codec) as store:
            for flat in flats:
                store.publish(flat)
            assert store.raw_bytes_published == sum(f.nbytes for f in flats)
            assert store.bytes_published == 3 * payload_bytes(name, 300)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_release_leaves_other_versions_decodable(
        self, store_cls, name, rng
    ):
        """No segment depends on another: releasing versions (a rejected
        candidate, an evicted window) never changes how the rest decode."""
        with store_cls(codec=name) as store:
            base = vectors(rng, 128)
            versions = [store.publish_new(base + 0.01 * i) for i in range(4)]
            decoded = {v: store.get(v).copy() for v in versions}
            store.release(versions[0])
            store.release(versions[2])
            assert store.versions() == [versions[1], versions[3]]
            for version in store.versions():
                assert store.refcount(version) == 1
                np.testing.assert_array_equal(
                    store.get(version), decoded[version]
                )

    def test_dedup_still_costs_zero_bytes(self, store_cls, rng):
        with store_cls(codec="quantized") as store:
            flat = vectors(rng, 64)
            first = store.publish(flat)
            published = store.bytes_published
            assert store.publish(flat.copy()) == first
            assert store.bytes_published == published

    def test_lossy_store_respects_codec_bound(self, store_cls, rng):
        codec = QuantizedCodec()
        with store_cls(codec=codec) as store:
            flat = vectors(rng, 300)
            version = store.publish(flat)
            err = np.max(np.abs(store.get(version) - flat))
            assert err <= codec.max_error_bound(flat) * 1.001 + 1e-9


class TestSharedMemoryCodecLifecycle:
    def test_encode_evict_cycles_unlink_everything(self, rng):
        """The codec leak gate: publish/evict churn with a lossy codec
        must leave /dev/shm clean."""
        store = SharedMemoryModelStore(codec="quantized")
        with store:
            live = []
            for i in range(20):
                live.append(store.publish_new(vectors(rng, 64)))
                if len(live) > 3:
                    store.release(live.pop(0))
            assert len(shm_entries(store.name_prefix)) == len(store.versions())
            for version in live:
                store.release(version)
            assert store.versions() == []
            assert shm_entries(store.name_prefix) == []
        assert shm_entries(store.name_prefix) == []

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_worker_view_decodes_each_segment_alone(self, rng, name):
        """A worker resolves any version from its own segment, even after
        the versions published before it are gone."""
        with SharedMemoryModelStore(codec=name) as store:
            base = vectors(rng, 48)
            v0 = store.publish_new(base)
            v1 = store.publish_new(base + 0.005)
            expected = store.get(v1).copy()
            store.release(v0)
            view = store.worker_handle().attach()
            np.testing.assert_array_equal(view.get(v1), expected)
            assert view.attach_count == 1
            view.close()

    def test_worker_view_decodes_float16(self, rng):
        codec = Float16Codec()
        with SharedMemoryModelStore(codec=codec) as store:
            flat = codec.canonicalize(vectors(rng, 32))
            version = store.publish(flat)
            view = store.worker_handle().attach()
            np.testing.assert_array_equal(view.get(version), flat)
            view.close()


class TestLosslessGating:
    def test_make_model_store_rejects_lossy_by_default(self):
        with pytest.raises(ValueError, match="lossy"):
            make_model_store(codec="quantized")

    def test_make_model_store_admits_lossy_explicitly(self):
        with make_model_store(
            codec="quantized", require_lossless=False
        ) as store:
            assert store.codec.name == "quantized"

    def test_make_engine_rejects_lossy_by_default(self):
        with pytest.raises(ValueError, match="lossy"):
            make_engine(0, codec="quantized")

    def test_make_engine_carries_codec(self):
        with make_engine(0, codec="float16") as engine:
            assert engine.codec.name == "float16"
            assert engine.store.codec.name == "float16"
        with make_engine(
            0, codec="quantized", require_lossless=False
        ) as engine:
            assert engine.codec.name == "quantized"

    def test_config_rejects_unknown_codec(self):
        from repro.experiments.configs import ExperimentConfig

        with pytest.raises(ValueError, match="codec"):
            ExperimentConfig(codec="middle-out")

    def test_config_rejects_lossy_without_opt_in(self):
        from repro.experiments.configs import ExperimentConfig

        with pytest.raises(ValueError, match="allow_lossy"):
            ExperimentConfig(codec="quantized")
        config = ExperimentConfig(codec="quantized", allow_lossy=True)
        assert config.codec == "quantized"

    def test_environment_key_tracks_codec(self):
        from repro.experiments.configs import ExperimentConfig

        base = ExperimentConfig()
        assert base.environment_key(0) != base.with_updates(
            codec="float16"
        ).environment_key(0)

    def test_cli_exposes_codec_flags(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["detect", "--codec", "quantized", "--allow-lossy"]
        )
        assert args.codec == "quantized" and args.allow_lossy
        assert not build_parser().parse_args(["detect"]).allow_lossy
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--codec", "middle-out"])


class TestCodecEngineEquivalence:
    """The codec axis of the equivalence matrix (acceptance criterion)."""

    def _run(self, store, executor):
        from tests.fl.test_parallel import build_defended_sim, run_and_snapshot

        return run_and_snapshot(build_defended_sim(executor, store=store))

    def test_identity_codec_matches_no_codec_baseline(self):
        from tests.fl.test_parallel import build_defended_sim, run_and_snapshot

        baseline_flat, baseline_records = run_and_snapshot(
            build_defended_sim(
                SequentialExecutor(cohort_size=1), store=InProcessModelStore()
            )
        )
        for engine in ("process", "thread"):
            with make_engine(2, engine=engine, codec="identity") as round_engine:
                flat, records = self._run(
                    round_engine.store, round_engine.executor
                )
            np.testing.assert_array_equal(baseline_flat, flat)
            assert baseline_records == records

    @pytest.mark.parametrize("name", ["float16"])
    def test_lossless_codec_runs_agree_across_engines(self, name):
        """float16 engines must agree with *each other* bit-for-bit (the
        canonicalized trajectory), across executors and stores."""
        runs = {}
        for label, workers, store_cls in [
            ("seq+inproc", 0, InProcessModelStore),
            ("pool+shm", 2, SharedMemoryModelStore),
        ]:
            store = store_cls(codec=name)
            with store:
                if label == "seq+inproc":
                    executor = SequentialExecutor(cohort_size=1)
                    executor.bind(store=store)
                else:
                    executor = make_executor(workers, store=store)
                with executor:
                    runs[label] = self._run(store, executor)
        base_flat, base_records = runs["seq+inproc"]
        for label, (flat, records) in runs.items():
            np.testing.assert_array_equal(base_flat, flat)
            assert records == base_records, label

    def test_round_records_surface_codec_telemetry(self):
        from tests.fl.test_parallel import build_defended_sim

        store = SharedMemoryModelStore(codec="float16")
        with store, make_executor(2, store=store) as executor:
            sim = build_defended_sim(executor, store=store)
            records = sim.run(4)
        assert all(r.codec == "float16" for r in records)
        moved = [r for r in records if r.transport_bytes]
        assert moved, "expected store transport in a pooled run"
        for record in moved:
            assert record.compressed_bytes == record.transport_bytes
            assert record.raw_transport_bytes > record.transport_bytes
            assert record.compression_ratio == pytest.approx(4.0, rel=0.01)

    def test_execution_report_includes_codec(self):
        from repro.experiments.reporting import format_execution_report
        from tests.fl.test_parallel import build_defended_sim

        store = InProcessModelStore(codec="float16")
        sim = build_defended_sim(SequentialExecutor(), store=store)
        report = format_execution_report(sim.run(3))
        assert "codec float16" in report
