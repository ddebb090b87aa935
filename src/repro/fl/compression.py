"""Pluggable weight-compression codecs for the model-store transport path.

BaFFLe's feasibility argument (Sec. VI-D) budgets for roughly 10x model
compression on the wire: the candidate and the ``l + 1``-model history move
to every validating client each round, and at realistic client counts the
raw float64 bytes dominate the round cost.  The
:class:`~repro.fl.model_store.ModelStore` publish/attach seam is the one
place all of that traffic flows through, so compression lives here as a
*codec* the store applies when a vector is published and inverts when a
consumer resolves a version key.

Codec contract
--------------
A :class:`WeightCodec` turns a flat float64 vector into a self-contained
:class:`CompressedSegment` (``encode``) and back (``decode``).  Three
codecs are registered: :class:`IdentityCodec` (the default),
:class:`Float16Codec` and :class:`QuantizedCodec`.

One capability flag drives the engine's gating, ``lossless``: the codec
reconstructs **bit-exactly** every vector in its *canonical domain* — the
image of :meth:`WeightCodec.canonicalize`.  The round loop canonicalizes
the initial model and each aggregated candidate before it is reviewed or
committed (see :class:`~repro.fl.simulation.FederatedSimulation`), so
everything a lossless codec is ever asked to transport round-trips exactly
and every engine running the same lossless codec commits identical models.
:class:`IdentityCodec` canonicalizes to the precision-policy dtype (a
no-op on the committed trajectory, so the guarantee extends to the
no-codec baseline); :class:`Float16Codec`'s canonical domain is the
float16-representable vectors (runs agree with each other, not with the
identity baseline).  :class:`QuantizedCodec` is lossy — its reconstruction
error is bounded but nonzero — so it is admitted only when the caller
explicitly opts out of the equivalence guarantee
(``require_lossless=False`` / ``ExperimentConfig.allow_lossy``).  A
non-identity codec changes the models a run commits, so the experiment
layer keys its pretrained-environment cache on the codec name.

Segments are self-describing: :meth:`CompressedSegment.to_bytes` prefixes
a fixed header (codec name, element count, payload length), and
:func:`decode_segment` dispatches on the embedded codec name through the
process-global registry — a worker that attaches to a shared-memory
segment needs no out-of-band metadata to reconstruct the weights, and
decoding never depends on the encoding instance's constructor parameters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.nn.precision import active_dtype

#: Fixed per-segment header: codec name (16 bytes, NUL-padded ascii),
#: element count, payload byte length.
SEGMENT_HEADER = struct.Struct("<16sqq")


@dataclass
class CompressedSegment:
    """One codec-encoded weight vector, ready for storage or the wire.

    ``payload`` may be ``bytes`` or a zero-copy ``memoryview`` into a
    shared-memory buffer.
    """

    codec: str
    num_params: int
    payload: bytes | memoryview

    @property
    def nbytes(self) -> int:
        """Payload bytes (the compressed size; headers excluded)."""
        return len(self.payload)

    def to_bytes(self) -> bytes:
        """Header + payload, the storage/wire representation."""
        name = self.codec.encode("ascii")
        if len(name) > 16:
            raise ValueError(f"codec name too long for segment header: {self.codec!r}")
        header = SEGMENT_HEADER.pack(name, self.num_params, len(self.payload))
        return header + bytes(self.payload)

    @classmethod
    def from_buffer(cls, buf) -> "CompressedSegment":
        """Parse a segment from a buffer (zero-copy payload view)."""
        view = memoryview(buf)
        name, num_params, payload_len = SEGMENT_HEADER.unpack_from(view, 0)
        payload = view[SEGMENT_HEADER.size : SEGMENT_HEADER.size + payload_len]
        return cls(name.rstrip(b"\x00").decode("ascii"), num_params, payload)

    @property
    def total_bytes(self) -> int:
        """Header + payload bytes (what a storage backend must hold)."""
        return SEGMENT_HEADER.size + len(self.payload)


def _as_flat64(flat: np.ndarray) -> np.ndarray:
    """Flatten-check + float64 view; the lossy codec's internal dtype.

    The quantized codec keeps float64 arithmetic regardless of the
    precision policy: it is lossy (bit-identity is void on its
    trajectories anyway).  Consumers cast decoded vectors back to the
    policy dtype at ``set_flat`` / aggregation time.
    """
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise ValueError(f"codecs operate on flat vectors, got shape {flat.shape}")
    return flat


def _as_flat_policy(flat: np.ndarray) -> np.ndarray:
    """Flatten-check + cast to the active precision-policy dtype."""
    flat = np.ascontiguousarray(flat, dtype=active_dtype())
    if flat.ndim != 1:
        raise ValueError(f"codecs operate on flat vectors, got shape {flat.shape}")
    return flat


def _read_only(flat: np.ndarray) -> np.ndarray:
    if flat.flags.writeable:
        flat.flags.writeable = False
    return flat


class WeightCodec:
    """Strategy interface for weight-vector compression.

    ``encode``/``decode`` must be deterministic pure functions (engine
    equivalence and fault-recovery replays both rely on it), and
    ``decode`` must depend only on the segment content — never on this
    instance's constructor parameters — so any process holding the
    registry can reconstruct any segment.
    """

    #: Registry key; also stored in every segment header.
    name: str = "abstract"
    #: Bit-exact on the canonical domain (see module docstring).
    lossless: bool = False

    def encode(self, flat: np.ndarray) -> CompressedSegment:
        """Compress ``flat`` into a self-contained segment."""
        raise NotImplementedError

    def decode(self, segment: CompressedSegment) -> np.ndarray:
        """Reconstruct the (read-only) flat weight vector of ``segment``."""
        raise NotImplementedError

    def canonicalize(self, flat: np.ndarray) -> np.ndarray:
        """Project ``flat`` onto the codec's exactly-representable domain.

        The default is one encode/decode round trip.
        """
        return np.asarray(self.decode(self.encode(_as_flat64(flat))))


class IdentityCodec(WeightCodec):
    """Raw policy-dtype passthrough — the default, zero-loss codec.

    Payloads carry the active policy dtype verbatim (float64 by default,
    float32 under the opt-in policy — which also halves identity-codec
    transport).  Decoding infers the dtype from the payload size, so a
    worker needs no out-of-band policy information to reconstruct a
    segment it attaches to.
    """

    name = "identity"
    lossless = True

    def encode(self, flat) -> CompressedSegment:
        flat = _as_flat_policy(flat)
        return CompressedSegment(self.name, flat.shape[0], flat.tobytes())

    def decode(self, segment) -> np.ndarray:
        # Zero-copy when the payload is a view into a (shared-memory)
        # buffer; ``frombuffer`` over immutable bytes is already read-only.
        flat = np.frombuffer(segment.payload, dtype=_identity_dtype(segment))
        if flat.flags.writeable:
            flat = flat.view()
            flat.flags.writeable = False
        return flat

    def canonicalize(self, flat: np.ndarray) -> np.ndarray:
        return _as_flat_policy(flat)


_IDENTITY_DTYPES = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}


def _identity_dtype(segment: CompressedSegment) -> np.dtype:
    """Infer an identity payload's dtype from bytes-per-element."""
    if segment.num_params == 0:
        return np.dtype(np.float64)
    itemsize, remainder = divmod(len(segment.payload), segment.num_params)
    dtype = _IDENTITY_DTYPES.get(itemsize)
    if remainder or dtype is None:
        raise ValueError(
            f"identity payload of {len(segment.payload)} bytes does not hold "
            f"{segment.num_params} float32 or float64 elements"
        )
    return dtype


class Float16Codec(WeightCodec):
    """Half-precision transport: 4x smaller, exact on float16 vectors.

    ``canonicalize`` rounds to the nearest float16 (relative error at most
    ``2**-11`` for in-range values; magnitudes above ~65504 overflow to
    ``inf``, which the round loop's finiteness check then rejects).  Once
    the engine canonicalizes candidates, every vector this codec carries
    is float16-representable and the ``float16 -> float64 -> float16``
    round trip is bit-exact — hence ``lossless = True`` under the
    canonical-domain definition, and all engines running this codec commit
    bit-identical models (to each other; the trajectory differs from the
    identity baseline because commits are rounded).
    """

    name = "float16"
    lossless = True

    def encode(self, flat) -> CompressedSegment:
        flat = _as_flat64(flat)
        with np.errstate(over="ignore"):  # out-of-range -> inf, by design
            half = flat.astype(np.float16)
        return CompressedSegment(self.name, flat.shape[0], half.tobytes())

    def decode(self, segment) -> np.ndarray:
        half = np.frombuffer(bytes(segment.payload), dtype=np.float16)
        return _read_only(half.astype(active_dtype()))

    def canonicalize(self, flat: np.ndarray) -> np.ndarray:
        # Encoding may flatten through float64 (exact for any float32
        # input), so rounding to float16 here matches rounding there;
        # the final cast lands the canonical vector in the policy dtype
        # (float16 values are exactly representable in both policies).
        with np.errstate(over="ignore"):  # out-of-range -> inf, by design
            return _as_flat64(flat).astype(np.float16).astype(active_dtype())


class QuantizedCodec(WeightCodec):
    """Uniform int8 quantization with per-chunk float32 scale/offset.

    Each ``chunk``-sized slice is affinely mapped onto the 0..255 grid
    spanned by its own min/max, costing 1 byte per weight plus 8 bytes per
    chunk — ~7.9x compression at the default chunk size.  The absolute
    reconstruction error of a weight is bounded by one quantization step
    of its chunk, ``(max - min) / 255`` (half a step from rounding, plus
    at most half a step more from the float32 scale/offset storage).  Not
    idempotent, therefore lossy: runs using it trade the bit-identical
    equivalence guarantee for the measured transport reduction.
    """

    name = "quantized"
    _LEVELS = 255

    def __init__(self, chunk: int = 4096) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self.chunk = chunk

    def encode(self, flat) -> CompressedSegment:
        flat = _as_flat64(flat)
        n = flat.shape[0]
        chunk = min(self.chunk, n) if n else self.chunk
        if n:
            starts = np.arange(0, n, chunk, dtype=np.intp)
            lo = np.minimum.reduceat(flat, starts).astype(np.float32)
            hi = np.maximum.reduceat(flat, starts).astype(np.float32)
            scale = (hi.astype(np.float64) - lo.astype(np.float64)) / self._LEVELS
            scale = scale.astype(np.float32)
            per_elem_lo = np.repeat(lo.astype(np.float64), chunk)[:n]
            per_elem_scale = np.repeat(scale.astype(np.float64), chunk)[:n]
            safe = np.where(per_elem_scale > 0.0, per_elem_scale, 1.0)
            levels = np.rint((flat - per_elem_lo) / safe)
            quantized = np.clip(levels, 0, self._LEVELS).astype(np.uint8)
        else:
            lo = np.empty(0, dtype=np.float32)
            scale = np.empty(0, dtype=np.float32)
            quantized = np.empty(0, dtype=np.uint8)
        payload = b"".join(
            (
                struct.pack("<q", chunk),
                lo.tobytes(),
                scale.tobytes(),
                quantized.tobytes(),
            )
        )
        return CompressedSegment(self.name, n, payload)

    def decode(self, segment) -> np.ndarray:
        payload = bytes(segment.payload)
        n = segment.num_params
        (chunk,) = struct.unpack_from("<q", payload, 0)
        num_chunks = -(-n // chunk) if n else 0
        offset = 8
        lo = np.frombuffer(payload, dtype=np.float32, count=num_chunks, offset=offset)
        offset += lo.nbytes
        scale = np.frombuffer(payload, dtype=np.float32, count=num_chunks, offset=offset)
        offset += scale.nbytes
        quantized = np.frombuffer(payload, dtype=np.uint8, count=n, offset=offset)
        if not n:
            return _read_only(np.empty(0, dtype=np.float64))
        per_elem_lo = np.repeat(lo.astype(np.float64), chunk)[:n]
        per_elem_scale = np.repeat(scale.astype(np.float64), chunk)[:n]
        return _read_only(quantized.astype(np.float64) * per_elem_scale + per_elem_lo)

    def max_error_bound(self, flat: np.ndarray) -> float:
        """Documented per-vector bound: one quantization step of the worst
        chunk, plus the float32 rounding of the stored offset (which is
        what remains when a chunk is constant and the step is zero)."""
        flat = _as_flat64(flat)
        n = flat.shape[0]
        if not n:
            return 0.0
        chunk = min(self.chunk, n)
        starts = np.arange(0, n, chunk, dtype=np.intp)
        lo = np.minimum.reduceat(flat, starts)
        spread = np.maximum.reduceat(flat, starts) - lo
        offset_rounding = float(np.max(np.abs(lo))) * float(
            np.finfo(np.float32).eps
        )
        return float(spread.max()) / self._LEVELS + offset_rounding


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Codec factories by name.  Worker processes decode through this registry
#: (segments embed their codec name), so custom codecs must be registered
#: at import time — before the process pool forks — to be decodable in
#: workers.
CODECS: dict[str, type[WeightCodec] | object] = {}


def register_codec(factory, name: str | None = None) -> None:
    """Register a codec factory (class or zero-arg callable) by name."""
    codec_name = name or factory.name
    if not codec_name or codec_name == "abstract":
        raise ValueError("codec factory must define a concrete name")
    CODECS[codec_name] = factory


register_codec(IdentityCodec)
register_codec(Float16Codec)
register_codec(QuantizedCodec)


def codec_names() -> tuple[str, ...]:
    """Registered codec names (config validation / CLI choices)."""
    return tuple(CODECS)


def make_codec(spec: "str | WeightCodec | None") -> WeightCodec:
    """Resolve a codec instance from a name, an instance, or ``None``.

    ``None`` means the identity codec; instances pass through unchanged
    (so callers can hand a parameterized codec straight to a store).
    """
    if spec is None:
        return IdentityCodec()
    if isinstance(spec, WeightCodec):
        return spec
    factory = CODECS.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown weight codec {spec!r}; registered: {sorted(CODECS)}"
        )
    return factory()


def decode_segment(segment: CompressedSegment) -> np.ndarray:
    """Decode via the registry, dispatching on the segment's codec name.

    This is how consumers that did not encode the segment (worker
    processes, migrated stores) reconstruct weights: decoding depends only
    on the segment content, never on the encoder's parameters.
    """
    factory = CODECS.get(segment.codec)
    if factory is None:
        raise ValueError(
            f"segment encoded with unregistered codec {segment.codec!r}"
        )
    return factory().decode(segment)


__all__ = [
    "CODECS",
    "CompressedSegment",
    "Float16Codec",
    "IdentityCodec",
    "QuantizedCodec",
    "SEGMENT_HEADER",
    "WeightCodec",
    "codec_names",
    "decode_segment",
    "make_codec",
    "register_codec",
]
