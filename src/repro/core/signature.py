"""Golden signature storage (the secure on-chip memory of the paper).

A :class:`SignatureStore` holds, for every protected layer, its
:class:`~repro.core.interleave.GroupLayout`, its secret
:class:`~repro.core.masking.SecretKey` and the golden signatures computed
from the clean weights.  The store also accounts for its own size, which is
the paper's storage-overhead metric (2 bits per group; 5.6 KB for
ResNet-18 at ``G = 512``, 8.2 KB for ResNet-20 at ``G = 8``).

The run-time side of this module is the **zero-copy scan kernel** of
:class:`FusedSignatures`: all layers fused at store-build time into one
contiguous int8 weight plane with a single global gather-index matrix and a
single int8 sign mask, so verifying any set of global rows is one int8
gather plus one int16-accumulation ``einsum`` — no per-layer Python loop,
no ``searchsorted`` routing, no materialized product matrix, and (for
engine-adopted models) no weight copies at all.  int16 sums are exact
modulo ``2**16``, which keeps every bit the signature reads (see
:mod:`repro.core.checksum`).  Contiguous row ranges of interleaved layers
gather as one strided-view copy per layer (:class:`PlaneStructure`).
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - e.g. WASM / stripped builds
    shared_memory = None  # type: ignore[assignment]

from repro.core.checksum import (
    SIGNATURE_ACCUMULATOR,
    binarize_in_place,
    compute_signatures,
    signature_from_sums,
)
from repro.core.config import RadarConfig
from repro.core.interleave import PAD_INDEX, GroupLayout
from repro.core.masking import SecretKey
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers


@dataclass
class LayerSignatures:
    """Per-layer protection state."""

    layer_name: str
    layout: GroupLayout
    key: Optional[SecretKey]
    golden: np.ndarray  # uint8, one packed signature per group

    @property
    def num_groups(self) -> int:
        return self.layout.num_groups


class SignatureStore:
    """Golden signatures for all quantized layers of one model."""

    def __init__(self, config: RadarConfig) -> None:
        self.config = config
        self._layers: Dict[str, LayerSignatures] = {}
        self._fused: Optional["FusedSignatures"] = None

    # -- construction ---------------------------------------------------------
    def build(self, model: Module) -> "SignatureStore":
        """Compute golden signatures from the model's current (clean) weights."""
        layers = quantized_layers(model)
        if not layers:
            raise ProtectionError("Model has no quantized layers to protect")
        self._layers.clear()
        self._fused = None
        for name, layer in layers:
            if not layer.is_quantized:
                raise ProtectionError(
                    f"Layer {name!r} is not quantized; call quantize_model before protecting"
                )
            self._layers[name] = self._build_layer(name, layer.qweight)
        return self

    def _build_layer(self, name: str, qweight: np.ndarray) -> LayerSignatures:
        config = self.config
        layout = GroupLayout(
            num_weights=int(qweight.size),
            group_size=config.group_size,
            use_interleave=config.use_interleave,
            interleave_offset=config.interleave_offset,
        )
        key = (
            SecretKey.generate(config.key_bits, config.secret_seed, name)
            if config.use_masking
            else None
        )
        golden = compute_signatures(
            qweight.reshape(-1), layout, key, config.signature_bits
        )
        return LayerSignatures(layer_name=name, layout=layout, key=key, golden=golden)

    # -- access ---------------------------------------------------------------
    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self._layers

    def __iter__(self) -> Iterator[LayerSignatures]:
        return iter(self._layers.values())

    def __len__(self) -> int:
        return len(self._layers)

    def layer(self, layer_name: str) -> LayerSignatures:
        if layer_name not in self._layers:
            raise ProtectionError(f"Layer {layer_name!r} is not protected by this store")
        return self._layers[layer_name]

    def layer_names(self) -> List[str]:
        return list(self._layers)

    # -- run-time recomputation ----------------------------------------------
    def current_signatures(self, model: Module) -> Dict[str, np.ndarray]:
        """Recompute signatures from the model's current (possibly corrupted) weights."""
        layer_map = dict(quantized_layers(model))
        signatures = {}
        for name, entry in self._layers.items():
            if name not in layer_map:
                raise ProtectionError(f"Protected layer {name!r} missing from model")
            signatures[name] = compute_signatures(
                layer_map[name].qweight.reshape(-1),
                entry.layout,
                entry.key,
                self.config.signature_bits,
            )
        return signatures

    def fused(self) -> "FusedSignatures":
        """Cached vectorized view over all layers (rebuilt by :meth:`build`)."""
        if self._fused is None:
            self._fused = FusedSignatures(self)
        return self._fused

    # -- storage accounting ----------------------------------------------------
    def total_groups(self) -> int:
        return sum(entry.num_groups for entry in self._layers.values())

    def storage_bits(self, include_keys: bool = False) -> int:
        """Bits of secure storage needed for the golden signatures.

        ``include_keys=True`` adds the per-layer secret keys (``N_k`` bits
        each) to the count; the paper reports signature storage only, since
        the keys are negligible (16 bits per layer).
        """
        bits = self.total_groups() * self.config.signature_bits
        if include_keys and self.config.use_masking:
            bits += len(self._layers) * self.config.key_bits
        return bits

    def storage_bytes(self, include_keys: bool = False) -> float:
        return self.storage_bits(include_keys) / 8.0

    def storage_kilobytes(self, include_keys: bool = False) -> float:
        return self.storage_bytes(include_keys) / 1024.0

    def describe(self) -> Dict[str, float]:
        """Summary used by reports."""
        return {
            "layers": len(self._layers),
            "groups": self.total_groups(),
            "signature_bits": self.config.signature_bits,
            "storage_kb": self.storage_kilobytes(),
        }


class ScanScratch:
    """Grow-only, named scratch buffers for the scan kernel.

    Every kernel pass needs the same few workspaces (gathered weights, row
    indices, sums); allocating them per pass would dominate small slices.
    A :class:`ScanScratch` hands out views of flat grow-only buffers keyed
    by ``(name, dtype)``, so steady-state passes allocate nothing.  One
    instance must not be shared across threads — the fleet engine owns one
    per batch bucket, each :class:`FusedSignatures` one for its own scans.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape``-d view of the named buffer (grown if needed)."""
        dtype = np.dtype(dtype)
        # math.prod, not np.prod: this runs a few times per scan and the
        # ufunc dispatch on a tiny shape tuple costs more than the whole
        # buffer lookup.
        size = math.prod(shape) if shape else 1
        buffer = self._buffers.get((name, dtype))
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[(name, dtype)] = buffer
        return buffer[:size].reshape(shape)


#: Cache-blocking budget for the stacked kernel: the per-tile gathered
#: stack and sign stack (2 int8 bytes per model per slot per column) are
#: sized to stay resident in a typical per-core L2 slice while the einsum
#: that immediately consumes them re-reads every byte.
STACKED_TILE_BYTES = 1 << 20

#: Tiles never shrink below this many columns — past that point the extra
#: per-tile NumPy dispatch costs more than the cache locality buys.
MIN_STACKED_TILE_COLUMNS = 256

#: Crossover between the strided-view gather and the general fancy gather,
#: in gathered bytes (``group_size`` x columns) per covered layer.  The
#: general ``np.take`` costs ~1 ns per gathered element plus the index
#: matrix it streams; the strided path costs a fixed ~5 us per layer (view
#: construction, copy and tail dispatch) and then runs at memcpy speed.
#: Measured on ResNet-20 planes at G = 8, 16 and 64 (2 CPUs): they break
#: even between 512 and 1024 bytes per layer.
STRIDED_MIN_BYTES_PER_LAYER = 1024

#: Largest per-layer take-only block (``group_size`` x columns) whose
#: contiguous intp index copy :class:`PlaneStructure` caches: 32 KB each.
TAIL_CACHE_ELEMENTS = 4096


def _stacked_tile_width(num_models: int, group_size: int, width: int) -> int:
    """Columns per cache-blocked stacked tile (the whole width if it fits)."""
    per_column = 2 * num_models * group_size
    tile = STACKED_TILE_BYTES // max(per_column, 1)
    if tile < MIN_STACKED_TILE_COLUMNS:
        tile = MIN_STACKED_TILE_COLUMNS
    return int(tile) if tile < width else int(width)


class PlaneStructureSpec(NamedTuple):
    """Plain-data strided-view structure of one published plane.

    The picklable half of :class:`PlaneStructure`, carried inside a
    :class:`SharedPlaneSpec` so worker processes rebuild the coordinator's
    strided views over the shared plane without re-deriving (or trusting)
    anything: the group size, per-layer global row bounds and plane
    offsets, and one interleave offset ``t`` per layer (``None`` for layers
    that gather through ``np.take`` only).
    """

    group_size: int
    row_starts: Tuple[int, ...]
    weight_offsets: Tuple[int, ...]
    offsets: Tuple[Optional[int], ...]


class PlaneStructure:
    """Strided-view gather structure of one fused weight plane.

    In a t-interleaved layer of ``N`` groups, slot ``r`` of group ``g``
    holds weight ``r*N + (g + s_r) % N`` with ``s_r = r*t``
    (:meth:`~repro.core.interleave.GroupLayout.slot_shifts`).  When
    ``(G-1)*t < N`` no shift wraps for ``g < N - (G-1)*t``, so slot row
    ``r`` of those groups starts at ``base + r*(N + t)``: the layer's
    gather block is a read-only ``(G, body)`` view of the plane with
    strides ``(N + t, 1)``, copied into the kernel scratch in one call.
    ``body`` is also capped at ``num_weights - (G-1)*(N + t)``, so the view
    never reads past the layer's real weights — and so never covers a
    padded slot, whose index would lie beyond them.  The bound is asserted
    when the structure is built.  The at most ``(G-1)*t`` tail columns of a
    layer, layers whose shifts wrap, and layers without verified structure
    gather with the general ``np.take`` over the kernel index matrix.

    Built at fuse time by :class:`FusedSignatures` after numerically
    verifying each layer's layout against its index matrix
    (:func:`_strided_offset`), and shipped to scan workers as a
    :class:`PlaneStructureSpec`.
    """

    def __init__(self, group_size, row_starts, weight_offsets, offsets) -> None:
        self.group_size = int(group_size)
        self.row_starts: List[int] = [int(value) for value in row_starts]
        self.weight_offsets: List[int] = [int(value) for value in weight_offsets]
        self.offsets: List[Optional[int]] = [
            None if value is None else int(value) for value in offsets
        ]
        #: Per layer: body columns served by the strided view (0 = none)
        #: and the view's row stride ``N + t``.
        self.bodies: List[int] = []
        self.strides: List[int] = []
        reach = self.group_size - 1
        for position, t in enumerate(self.offsets):
            n = self.row_starts[position + 1] - self.row_starts[position]
            num_weights = (
                self.weight_offsets[position + 1] - self.weight_offsets[position]
            )
            body = 0
            if t is not None:
                body = max(0, min(n - reach * t, num_weights - reach * (n + t)))
            assert body == 0 or reach * (n + t) + body <= num_weights
            self.bodies.append(body)
            self.strides.append(0 if t is None else n + t)
        self.structured_layers = sum(1 for body in self.bodies if body)
        #: Per layer: the lazily cached contiguous index block of its
        #: take-only columns (see gather_block), when that block is small.
        self._tails: List[Optional[np.ndarray]] = [None] * len(self.bodies)

    @property
    def num_layers(self) -> int:
        return len(self.bodies)

    @property
    def any_structured(self) -> bool:
        """Whether any layer has strided-view body columns at all."""
        return self.structured_layers > 0

    @property
    def fully_structured(self) -> bool:
        """Whether every layer's gather runs (mostly) on a strided view."""
        return self.structured_layers == self.num_layers

    def spec(self) -> PlaneStructureSpec:
        """Plain-tuple form for shared-memory publication (picklable)."""
        return PlaneStructureSpec(
            group_size=self.group_size,
            row_starts=tuple(self.row_starts),
            weight_offsets=tuple(self.weight_offsets),
            offsets=tuple(self.offsets),
        )

    @classmethod
    def from_spec(cls, spec: PlaneStructureSpec) -> "PlaneStructure":
        return cls(spec.group_size, spec.row_starts, spec.weight_offsets, spec.offsets)

    def gather_block(
        self,
        plane: np.ndarray,
        kernel_indices: np.ndarray,
        out: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Fill ``out[:, :stop - start]`` with the gathered plane values of
        global rows ``[start, stop)`` (the slot-major kernel layout).

        Each covered layer's body columns are one strided-view copy and
        its other columns (tail, or the whole of an unstructured layer) one
        ``np.take``.  A range below ``STRIDED_MIN_BYTES_PER_LAYER`` gathered
        bytes per covered layer, where the fixed per-view cost loses, is one
        ``np.take`` as a whole.  Both engines fill ``out`` with identical
        bytes.
        """
        row_starts = self.row_starts
        first = bisect.bisect_right(row_starts, start) - 1
        last = bisect.bisect_left(row_starts, stop, lo=first + 1)
        group_size = self.group_size
        if (stop - start) * group_size < (last - first) * STRIDED_MIN_BYTES_PER_LAYER:
            plane.take(
                kernel_indices[:, start:stop], out=out[:, : stop - start], mode="clip"
            )
            return
        bodies = self.bodies
        tails = self._tails
        for position in range(first, last):
            col0 = row_starts[position]
            col1 = row_starts[position + 1]
            lo = start if start > col0 else col0
            hi = stop if stop < col1 else col1
            # Body columns [lo, mid) read the strided view; [mid, hi) take.
            mid = col0 + bodies[position]
            if mid < lo:
                mid = lo
            elif mid > hi:
                mid = hi
            if mid > lo:
                out[:, lo - start : mid - start] = np.ndarray(
                    (group_size, mid - lo),
                    np.int8,
                    buffer=plane,
                    offset=self.weight_offsets[position] + lo - col0,
                    strides=(self.strides[position], 1),
                )
            if hi > mid:
                index = kernel_indices[:, mid:hi]
                if hi == col1 and mid == col0 + bodies[position]:
                    # The layer's whole take-only block: a take over a
                    # strided int32 slice first copies and casts it (~3 us),
                    # so small blocks keep a contiguous intp copy.
                    tail = tails[position]
                    if tail is None and (col1 - mid) * group_size <= TAIL_CACHE_ELEMENTS:
                        tail = tails[position] = np.ascontiguousarray(index, np.intp)
                    if tail is not None:
                        index = tail
                plane.take(index, out=out[:, mid - start : hi - start], mode="clip")


def _strided_offset(
    layout: GroupLayout, indices: np.ndarray, sign_mask: np.ndarray
) -> Optional[int]:
    """The layer's non-wrapping interleave offset, proven against its indices.

    The analytic :meth:`~repro.core.interleave.GroupLayout.slot_shifts`
    hint is re-derived from layout *parameters*; the kernel must not trust
    it blindly — a foreign or subclassed layout could change the assignment
    while keeping the flags.  This verifies, entry by entry over the
    non-padded slots, that the layer's actual ``(num_groups, group_size)``
    index matrix equals ``r * N + (g + s_r) % N``, and returns ``t = s_1``
    only when ``s_r = r * t`` never wraps (``(G-1) * t < N``); otherwise
    the layer gathers through ``np.take`` (returns ``None``).
    """
    hint = layout.slot_shifts()
    if hint is None:
        return None
    num_groups, group_size = indices.shape
    offset = int(hint[1])
    if (group_size - 1) * offset >= num_groups:
        return None
    g = np.arange(num_groups, dtype=np.int64)[:, None]
    r = np.arange(group_size, dtype=np.int64)[None, :]
    expected = r * num_groups + (g + hint[None, :]) % num_groups
    valid = sign_mask != 0
    if not np.array_equal(indices[valid], expected[valid]):
        return None
    return offset


def _contiguous_start(
    rows: np.ndarray, limit: int, scratch: ScanScratch
) -> Optional[int]:
    """``rows[0]`` when ``rows`` is one ascending run inside ``[0, limit)``.

    The kernel's one contiguity test.  With the end points ``size - 1``
    apart, every step is exactly 1 as soon as every step is at least 1
    (``size - 1`` integer steps >= 1 summing to ``size - 1``), so one
    subtraction into scratch and one ``min`` decide it without allocating.
    A run reaching outside ``[0, limit)`` reports ``None``, sending callers
    to their bounds validation.
    """
    size = rows.size
    if size == 0:
        return None
    start = int(rows[0])
    stop = start + size
    if start < 0 or stop > limit or int(rows[size - 1]) != stop - 1:
        return None
    if size > 1:
        steps = scratch.take("contiguous", (size - 1,), np.int64)
        np.subtract(rows[1:], rows[:-1], out=steps)
        if steps.min() < 1:
            return None
    return start


#: Shared zero-length flagged-rows array for clean passes.  Write-locked so
#: an accidental in-place mutation of a shared result raises instead of
#: silently corrupting every aliasing holder.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.setflags(write=False)

#: Memoized result of :func:`shared_memory_available` (None = not probed yet).
_SHM_AVAILABLE: Optional[bool] = None

#: Monotonic counter folded into segment names so repeated publishes (and
#: generation bumps) of one process never collide.
_SEGMENT_COUNTER = itertools.count()


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` actually works here.

    Probes by creating (and immediately destroying) a one-byte segment the
    first time it is called: importability alone is not enough — sandboxed
    platforms may expose the module but refuse ``shm_open``.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=1)
            except (OSError, ValueError):  # pragma: no cover - platform-specific
                _SHM_AVAILABLE = False
            else:
                probe.close()
                try:
                    probe.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
                _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _segment_name(suffix: str) -> str:
    """A collision-free shm segment name, short enough for every platform.

    macOS caps POSIX shm names at 31 characters, so the name packs the pid
    and a process-wide counter in hex rather than anything descriptive.
    """
    return f"radar{os.getpid():x}x{next(_SEGMENT_COUNTER):x}{suffix}"


class SharedSegmentSpec(NamedTuple):
    """Plain-data handle to one shm segment: everything attach needs."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


class SharedPlaneSpec(NamedTuple):
    """Picklable descriptor of one model's published scan-kernel arrays.

    This is what the coordinator ships to worker processes: segment names
    (which embed nothing model-specific — the ``model``/``generation``
    fields carry identity), array geometry, and the two kernel parameters
    (``group_size``, ``signature_bits``) a worker needs to rebuild the
    gather shape and binarization without importing any model code.
    The ``generation`` counter implements the republish protocol: a re-sign
    bumps it, workers compare it against their cached attachment and
    re-attach by (new) segment name when stale.

    ``structure`` carries the fuse-time structure verdict
    (:class:`PlaneStructureSpec`) so workers build the same strided views
    over the shared plane as the coordinator, on exactly the layers it
    proved structured, without re-deriving — or being able to disagree
    with — the classification.
    """

    model: str
    generation: int
    group_size: int
    signature_bits: int
    total_groups: int
    total_weights: int
    plane: SharedSegmentSpec
    indices: SharedSegmentSpec
    signs: SharedSegmentSpec
    golden: SharedSegmentSpec
    structure: Optional[PlaneStructureSpec] = None


class AttachedModelPlane:
    """A worker-side, read-only attachment to one published model plane.

    Maps the four segments named by a :class:`SharedPlaneSpec` and exposes
    them as non-writeable NumPy arrays.  Workers never write the plane —
    mutation (attack injection, recovery, re-adoption) is coordinator
    business, and marking the views read-only turns an accidental write
    into a loud ``ValueError`` instead of silent cross-process corruption.

    Resource-tracker note: Python 3.11's ``SharedMemory`` registers
    *attachments* with the resource tracker as if they were owned segments
    (``track=False`` arrives only in 3.13).  Pool workers are children of
    the coordinator and share its tracker process (both fork and spawn
    inherit the tracker fd), where registration is a set — the attach-side
    register is an idempotent re-add of the coordinator's own entry, and
    the coordinator's ``unlink`` clears it exactly once.  Attachments must
    therefore *not* unregister themselves: doing so would steal the
    coordinator's registration and make its later unlink warn.  This class
    is correspondingly only safe to use from processes sharing the
    publisher's resource tracker (the pool's workers, or the publishing
    process itself).
    """

    def __init__(self, spec: SharedPlaneSpec) -> None:
        if shared_memory is None:  # pragma: no cover - import-gated platforms
            raise ProtectionError("multiprocessing.shared_memory is unavailable")
        self.spec = spec
        self._segments: List["shared_memory.SharedMemory"] = []
        #: Rebuilt once per attachment (not per scan) so every task over
        #: this plane reuses the executable structure metadata.
        self.structure = (
            None if spec.structure is None else PlaneStructure.from_spec(spec.structure)
        )
        try:
            self.plane = self._attach(spec.plane)
            self.indices = self._attach(spec.indices)
            self.signs = self._attach(spec.signs)
            self.golden = self._attach(spec.golden)
        except BaseException:
            self.close()
            raise

    def _attach(self, segment_spec: SharedSegmentSpec) -> np.ndarray:
        segment = shared_memory.SharedMemory(name=segment_spec.name)
        self._segments.append(segment)
        array: np.ndarray = np.ndarray(
            segment_spec.shape, dtype=np.dtype(segment_spec.dtype), buffer=segment.buf
        )
        array.flags.writeable = False
        return array

    @property
    def generation(self) -> int:
        return self.spec.generation

    def close(self) -> None:
        """Drop the array views and unmap the segments (never unlinks)."""
        self.plane = self.indices = self.signs = self.golden = None
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except (BufferError, ValueError):  # pragma: no cover - stray view
                pass


class FusedSignatures:
    """Zero-copy scan kernel: vectorized recomputation across all layers.

    A :class:`SignatureStore` recomputes signatures layer by layer, each
    time re-gathering the layer's full weight tensor.  This view instead
    fuses, once per store build, everything recomputation needs into three
    global arrays under one **global row** numbering (row ``r`` is group
    ``r - row_start`` of its owning layer):

    * an int8 **weight plane** — all layers' flat weights, concatenated;
    * one **gather-index matrix** ``(total_groups, group_size)`` into that
      plane (padding redirected to an in-layer slot);
    * one int8 **sign mask** of the same shape — ``+1``/``-1`` from the
      secret masking key, ``0`` on padded slots — so masking and padding
      cost nothing beyond the multiply already fused into the sum.

    Verifying any row set is then one int8 gather plus one masked-sum
    ``einsum`` accumulated in int16 — exact modulo ``2**16``, which is all
    the signature reads, for any group size — with all workspaces reused
    from a :class:`ScanScratch` across passes.  Both matrices are stored
    slot-major (``group_size × total_groups``) so the einsum reduces over
    the short axis and streams rows contiguously.  There is no per-layer
    Python loop, no per-row ``searchsorted`` dispatch, and no materialized
    ``gathered * mask`` product matrix.

    Weights reach the plane one of two ways:

    * **Adopted (zero-copy)** — :meth:`adopt` copies a model's weights into
      the plane once and rebinds each layer's ``qweight`` to a view of it;
      from then on attacks and recovery mutate the plane directly and a
      scan performs *no* weight copies (the fleet engine adopts every
      registered model).  A layer whose ``qweight`` is later replaced
      wholesale (``set_qweight``) is transparently re-adopted.
    * **Copied (compatibility)** — un-adopted models get their covered
      layers memcpy'd into the plane per pass: still int8-narrow and still
      free of the per-layer gather loop.

    The PR-3 per-layer implementation is retained behind ``reference=True``
    on :meth:`group_sums` / :meth:`signatures` / :meth:`mismatched_rows`
    for bit-exactness tests and as the benchmark baseline
    (``benchmarks/test_bench_scan_kernel.py``).
    """

    def __init__(self, store: SignatureStore) -> None:
        if len(store) == 0:
            raise ProtectionError("Signature store is empty; call store.build(model) first")
        self.store = store
        self.config = store.config
        entries = list(store)
        self.layer_names: List[str] = [entry.layer_name for entry in entries]
        self._positions: Dict[str, int] = {
            name: position for position, name in enumerate(self.layer_names)
        }
        group_size = self.config.group_size
        self._indices: List[np.ndarray] = []
        self._sign_masks: List[np.ndarray] = []
        self._num_weights: List[int] = []
        row_starts = np.zeros(len(entries) + 1, dtype=np.int64)
        golden_blocks = []
        for position, entry in enumerate(entries):
            groups = entry.layout.groups
            valid = groups != PAD_INDEX
            signs = (
                entry.key.signs(group_size)
                if entry.key is not None
                else np.ones(group_size, dtype=np.int64)
            )
            mask = np.where(valid, signs[None, :], 0).astype(np.int8)
            self._indices.append(np.where(valid, groups, 0))
            self._sign_masks.append(mask)
            self._num_weights.append(entry.layout.num_weights)
            row_starts[position + 1] = row_starts[position] + entry.num_groups
            golden_blocks.append(entry.golden)
        self._row_starts = row_starts
        self.golden = np.concatenate(golden_blocks).astype(np.uint8)
        self.total_groups = int(row_starts[-1])
        # Shared empty per-layer arrays for the clean-scan fast path of
        # rows_to_layer_groups (never mutated; reports treat them read-only).
        self._empty_groups: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=np.int64) for name in self.layer_names
        }
        self._structure_key: Optional[Tuple] = None
        self._kernel_key: Tuple[int, int] = (
            self.config.group_size,
            self.config.signature_bits,
        )

        # -- fused kernel state (built lazily by _ensure_kernel: streaming-
        # only callers use the per-layer arrays and never pay for the global
        # matrices or the weight plane) ---------------------------------------
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(self._num_weights)
        self._weight_offsets = offsets
        self.total_weights = int(offsets[-1])
        # Strided-view structure, detected (and proven) once at fuse time:
        # layers without a verified offset gather through np.take inside
        # gather_block.
        self._structure = PlaneStructure(
            group_size,
            row_starts,
            offsets,
            [
                _strided_offset(
                    entry.layout, self._indices[position], self._sign_masks[position]
                )
                for position, entry in enumerate(entries)
            ],
        )
        self._scratch = ScanScratch()
        self._kernel_indices: Optional[np.ndarray] = None
        self._kernel_signs: Optional[np.ndarray] = None
        self._plane: Optional[np.ndarray] = None
        # Adoption state: the layer objects whose qweight buffers are views
        # of the plane, and those views themselves (identity-checked per
        # scan; see _prepare_plane).
        self._adopted = False
        self._plane_layers: List[Optional[Module]] = [None] * len(entries)
        self._plane_sources: List[Optional[np.ndarray]] = [None] * len(entries)
        # Scans of a *foreign* model while adopted must not write into the
        # adopted model's plane; they get their own lazily allocated one.
        self._foreign_plane: Optional[np.ndarray] = None
        # {name: layer} of the last scanned model, keyed by model identity
        # (see _layer_map): the module-tree walk is pure dispatch overhead
        # on the steady-state scan path.
        self._cached_layer_model: Optional[Module] = None
        self._cached_layer_map: Optional[Dict[str, Module]] = None
        # Shared-memory publication state (see share/unshare): the live
        # SharedMemory handles keyed like the spec fields, and the plain-data
        # spec workers attach from.
        self._shared_segments: Optional[Dict[str, object]] = None
        self._shared_spec: Optional[SharedPlaneSpec] = None
        # Optional crash-hygiene ledger (duck-typed: record/discard) the
        # publish/destroy paths notify, so a restarted coordinator can
        # reap segments a killed predecessor never unlinked.
        self._segment_registrar = None
        #: Weight bytes copied into a plane (adoption, stale re-adoption,
        #: un-adopted per-pass refresh).  The zero-copy acceptance evidence:
        #: in adopted steady state this counter does not move across scans.
        self.plane_copy_bytes = 0

    def _ensure_kernel(self) -> None:
        """Build the global kernel arrays on first kernel use (idempotent).

        Per-layer local indices already send pad slots to 0, so shifting by
        the layer offset keeps every index (pads included) inside its own
        layer's plane segment.  The global matrices are stored TRANSPOSED —
        ``(group_size, total_groups)``, slot-major — so the masked-sum
        einsum reduces over the short slot axis while streaming contiguously
        along the row axis (SIMD-friendly: ~2x the row-major reduction), and
        a row slice is one ``axis=1`` take.
        """
        if self._kernel_indices is not None:
            return
        index_dtype = (
            np.int32 if self.total_weights <= np.iinfo(np.int32).max else np.int64
        )
        self._kernel_indices = np.ascontiguousarray(
            np.concatenate(
                [
                    local + self._weight_offsets[position]
                    for position, local in enumerate(self._indices)
                ]
            ).T
        ).astype(index_dtype)
        self._kernel_signs = np.ascontiguousarray(
            np.concatenate(self._sign_masks).T
        )
        self._plane = np.empty(self.total_weights, dtype=np.int8)

    @property
    def adopted(self) -> bool:
        """Whether a model's weight buffers currently live inside the plane."""
        return self._adopted

    @property
    def structure(self) -> PlaneStructure:
        """The fuse-time strided-view structure of this plane."""
        return self._structure

    @property
    def structured(self) -> bool:
        """True when every layer's gather runs on a strided view."""
        return self._structure.fully_structured

    def structure_key(self) -> Tuple:
        """Hashable fingerprint of everything that determines this view's
        gather indices, sign masks and row numbering.

        Two stores with equal structure keys — same :class:`RadarConfig`
        grouping/masking parameters over the same layer names and weight
        counts — produce *identical* ``GroupLayout`` index matrices and
        secret-key sign masks (both are deterministic functions of these
        fields), so their slices can be verified together in one batched
        pass (:func:`batched_mismatched_rows`).  Golden signatures are NOT
        part of the key: they depend on each model's weights and stay
        per-view.
        """
        if self._structure_key is None:
            config = self.config
            self._structure_key = (
                config.group_size,
                config.signature_bits,
                config.use_interleave,
                config.interleave_offset,
                config.use_masking,
                config.key_bits,
                config.secret_seed,
                tuple(self.layer_names),
                tuple(self._num_weights),
            )
        return self._structure_key

    def kernel_key(self) -> Tuple[int, int]:
        """The coarser fingerprint bucketed stacking coalesces on.

        Views whose ``(group_size, signature_bits)`` match gather rows of
        the same width and binarize them identically, so their slices can
        share one padded stacked pass even when layer names, weight counts
        or masking keys differ (heterogeneous fleets); see
        :func:`batched_mismatched_rows`.
        """
        return self._kernel_key

    # -- row bookkeeping -------------------------------------------------------
    def row_range(self, layer_name: str) -> Tuple[int, int]:
        """``[start, end)`` global row range of one layer's groups."""
        position = self._position_of(layer_name)
        return int(self._row_starts[position]), int(self._row_starts[position + 1])

    def _position_of(self, layer_name: str) -> int:
        position = self._positions.get(layer_name)
        if position is None:
            raise ProtectionError(
                f"Layer {layer_name!r} is not protected by this store"
            )
        return position

    def _layer_flat(self, layer_map: Mapping[str, Module], position: int) -> np.ndarray:
        name = self.layer_names[position]
        if name not in layer_map:
            raise ProtectionError(f"Protected layer {name!r} missing from model")
        flat = layer_map[name].qweight.reshape(-1)
        if flat.size != self._num_weights[position]:
            raise ProtectionError(
                f"Layer {name!r} has {flat.size} weights, expected {self._num_weights[position]}"
            )
        return flat

    # -- plane management ------------------------------------------------------
    def adopt(self, layer_map: Mapping[str, Module]) -> None:
        """Move a model's int8 weights into the kernel plane (zero-copy scans).

        Copies each layer's current weights into its plane segment and
        rebinds the layer's ``qweight`` to a view of that segment, so every
        later in-place mutation (attacks, recovery) lands directly in the
        plane and scans gather without copying anything.  Layers whose
        buffer is replaced wholesale later (``set_qweight``, re-quantize)
        are re-adopted transparently on the next scan.

        A model previously adopted by another view with identical geometry
        (the re-sign path: same layers, same weight counts) already keeps
        its buffers in one conforming plane — that plane is adopted as-is,
        with no copy and no rebinding, so weight references taken before a
        re-protect stay valid.
        """
        self._ensure_kernel()
        for position in range(len(self.layer_names)):
            name = self.layer_names[position]
            if name not in layer_map:
                raise ProtectionError(f"Protected layer {name!r} missing from model")
        alias = self._plane_alias(layer_map)
        if alias is not None:
            self._plane = alias
            for position, name in enumerate(self.layer_names):
                layer = layer_map[name]
                self._plane_layers[position] = layer
                self._plane_sources[position] = layer.qweight
        else:
            for position, name in enumerate(self.layer_names):
                self._adopt_layer(position, layer_map[name])
        self._adopted = True
        # A re-adoption replaces the plane registry, so a memoized map from
        # the previously adopted model must not keep taking the fast sweep.
        self._cached_layer_model = None
        self._cached_layer_map = None

    def _plane_alias(self, layer_map: Mapping[str, Module]) -> Optional[np.ndarray]:
        """An existing buffer the layers' weights already form a plane in.

        Returns the one int8 array every layer's ``qweight`` is a
        contiguous view of, laid out exactly at this view's offsets —
        or ``None`` when the buffers are independent and adoption must
        copy-and-rebind.
        """
        owner: Optional[np.ndarray] = None
        owner_address = 0
        for position, name in enumerate(self.layer_names):
            qweight = layer_map[name].qweight
            if (
                qweight is None
                or qweight.dtype != np.int8
                or not qweight.flags["C_CONTIGUOUS"]
                or qweight.size != self._num_weights[position]
            ):
                return None
            # Walk to the owning ndarray.  Stop as soon as the next base is
            # not an ndarray: a shm-backed plane's base is the segment's
            # memoryview, and the plane array itself is the owner we want.
            base = qweight
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is qweight:
                return None
            if owner is None:
                if (
                    base.dtype != np.int8
                    or base.ndim != 1
                    or not base.flags["C_CONTIGUOUS"]
                    or base.size != self.total_weights
                ):
                    return None
                owner = base
                owner_address = owner.__array_interface__["data"][0]
            elif base is not owner:
                return None
            address = qweight.__array_interface__["data"][0]
            if address != owner_address + int(self._weight_offsets[position]):
                return None
        return owner

    def _adopt_layer(self, position: int, layer: Module) -> None:
        flat = layer.qweight.reshape(-1)
        # Adoption rebinds the layer's buffer, so a bad dtype here would not
        # just miscompute one scan — it would silently truncate the weights
        # into the int8 plane and corrupt the model.  Fail loudly instead.
        if flat.dtype != np.int8:
            raise ProtectionError(
                f"Layer {self.layer_names[position]!r} qweight has dtype "
                f"{flat.dtype}; only int8 weights can be adopted into the plane"
            )
        if flat.size != self._num_weights[position]:
            raise ProtectionError(
                f"Layer {self.layer_names[position]!r} has {flat.size} weights, "
                f"expected {self._num_weights[position]}"
            )
        start, end = self._weight_offsets[position], self._weight_offsets[position + 1]
        segment = self._plane[start:end]
        segment[:] = flat
        self.plane_copy_bytes += int(flat.size)
        layer.qweight = segment.reshape(layer.qweight.shape)
        self._plane_layers[position] = layer
        self._plane_sources[position] = layer.qweight

    def _covered_positions(
        self, rows: Optional[np.ndarray], start: Optional[int]
    ) -> Sequence[int]:
        """Layers whose plane segment a row slice reads (all, for a full scan).

        The layers spanning the rows' lowest to highest row (``start`` is
        the first row of a contiguous run, which spares the min/max pass):
        for a row set with gaps that may include a few layers it does not
        read, which only refreshes those segments as well.
        """
        if rows is None:
            return range(len(self.layer_names))
        if rows.size == 0:
            return ()
        if start is None:
            low, high = int(rows.min()), int(rows.max())
        else:
            low, high = start, start + rows.size - 1
        starts = self._structure.row_starts
        return range(
            bisect.bisect_right(starts, low) - 1, bisect.bisect_right(starts, high)
        )

    def _prepare_plane(
        self,
        layer_map: Mapping[str, Module],
        rows: Optional[np.ndarray],
        start: Optional[int] = None,
    ) -> np.ndarray:
        """The plane the kernel should gather from, refreshed as needed.

        Adopted steady state: every layer's ``qweight`` *is* its plane
        segment, so this is a pure identity sweep — zero copies.  A layer
        whose buffer was swapped out is re-adopted in place; a scan of a
        different model entirely falls back to memcpy-ing its covered
        layers into a separate foreign plane (the adopted model's weights
        live in the main plane and must not be overwritten).
        """
        self._ensure_kernel()
        if self._adopted:
            stale: List[int] = []
            foreign = False
            if layer_map is self._cached_layer_map:
                # The memoized map's layers were proven identical to the
                # plane registry when cached (_layer_map), so only buffer
                # staleness can change between scans — skip the name
                # lookups and identity sweep.
                for position, layer in enumerate(self._plane_layers):
                    if layer.qweight is not self._plane_sources[position]:
                        stale.append(position)
            else:
                for position, name in enumerate(self.layer_names):
                    if name not in layer_map:
                        raise ProtectionError(
                            f"Protected layer {name!r} missing from model"
                        )
                    layer = layer_map[name]
                    if layer is self._plane_layers[position]:
                        if layer.qweight is not self._plane_sources[position]:
                            stale.append(position)
                    else:
                        foreign = True
                        break
            if not foreign:
                for position in stale:
                    self._adopt_layer(
                        position, layer_map[self.layer_names[position]]
                    )
                return self._plane
            if self._foreign_plane is None:
                self._foreign_plane = np.empty(self.total_weights, dtype=np.int8)
            plane = self._foreign_plane
        else:
            plane = self._plane
        for position in self._covered_positions(rows, start):
            flat = self._layer_flat(layer_map, position)
            offset = self._weight_offsets[position]
            plane[offset : offset + flat.size] = flat
            self.plane_copy_bytes += int(flat.size)
        return plane

    # -- shared-memory publication ---------------------------------------------
    @property
    def shared_spec(self) -> Optional[SharedPlaneSpec]:
        """The spec workers attach from, or ``None`` while unpublished."""
        return self._shared_spec

    def share(
        self, model: str, generation: int, registrar=None
    ) -> SharedPlaneSpec:
        """Publish the kernel arrays into ``multiprocessing.shared_memory``.

        Allocates one named segment per kernel array (weight plane, gather
        indices, sign mask, golden signatures), copies the current contents
        in, and rebinds this view — including every adopted layer's
        ``qweight`` — onto the segment-backed arrays.  From then on the
        coordinator's in-place mutations (attack injection, recovery) land
        directly in shared memory and are visible to attached workers with
        no further copies; scans stay zero-copy exactly as before, just on
        a different backing allocation.

        ``generation`` is recorded in the returned spec; the caller owns
        the counter and bumps it when a re-sign republishes (segment names
        are fresh each publish, so a stale worker attaching by old name
        fails fast rather than reading a re-signed plane).
        """
        if not shared_memory_available():
            raise ProtectionError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        if self._shared_segments is not None:
            return self._shared_spec
        self._ensure_kernel()
        arrays = {
            "plane": self._plane,
            "indices": self._kernel_indices,
            "signs": self._kernel_signs,
            "golden": self.golden,
        }
        segments: Dict[str, object] = {}
        shared_arrays: Dict[str, np.ndarray] = {}
        specs: Dict[str, SharedSegmentSpec] = {}
        try:
            for key, array in arrays.items():
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes), name=_segment_name(key[0])
                )
                segments[key] = segment
                shared = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                shared[...] = array
                shared_arrays[key] = shared
                specs[key] = SharedSegmentSpec(
                    name=segment.name, shape=tuple(array.shape), dtype=array.dtype.str
                )
        except (OSError, ValueError) as error:
            for key in list(shared_arrays):
                del shared_arrays[key]
            for segment in segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except (OSError, FileNotFoundError):  # pragma: no cover
                    pass
            raise ProtectionError(
                f"could not publish shared-memory plane: {error}"
            ) from error
        self._plane = shared_arrays["plane"]
        self._kernel_indices = shared_arrays["indices"]
        self._kernel_signs = shared_arrays["signs"]
        self.golden = shared_arrays["golden"]
        if self._adopted:
            self._rebind_layers()
        self._shared_segments = segments
        self._shared_spec = SharedPlaneSpec(
            model=model,
            generation=int(generation),
            group_size=int(self.config.group_size),
            signature_bits=int(self.config.signature_bits),
            total_groups=self.total_groups,
            total_weights=self.total_weights,
            plane=specs["plane"],
            indices=specs["indices"],
            signs=specs["signs"],
            golden=specs["golden"],
            structure=self._structure.spec(),
        )
        # Record the published names *after* the segments exist: a crash
        # between publish and record leaks at most this one generation,
        # which the OS-level registry reap on the next restart cannot see —
        # whereas recording first could reap live segments.
        self._segment_registrar = registrar
        if registrar is not None:
            registrar.record(
                model,
                int(generation),
                [spec.name for spec in specs.values()],
            )
        return self._shared_spec

    def _rebind_layers(self) -> None:
        """Point every adopted layer's ``qweight`` at the current plane."""
        for position, layer in enumerate(self._plane_layers):
            if layer is None:
                continue
            start = self._weight_offsets[position]
            end = self._weight_offsets[position + 1]
            segment = self._plane[start:end]
            layer.qweight = segment.reshape(layer.qweight.shape)
            self._plane_sources[position] = layer.qweight

    def unshare(self) -> None:
        """Move the kernel arrays back to private memory, destroy the segments.

        The graceful-teardown path (engine ``close``): plane contents are
        preserved — adopted layers are rebound onto a fresh heap plane so
        the model stays fully usable — and only then are the segments
        unmapped and unlinked.  Idempotent.
        """
        if self._shared_segments is None:
            return
        self._plane = np.array(self._plane)
        self._kernel_indices = np.array(self._kernel_indices)
        self._kernel_signs = np.array(self._kernel_signs)
        self.golden = np.array(self.golden)
        if self._adopted:
            self._rebind_layers()
        self._destroy_segments()

    def release_shared(self) -> None:
        """Destroy the segments without preserving the plane (discard path).

        For a view being replaced after a re-sign: the successor view has
        already re-homed the layers' weights onto its own plane, so this
        view just drops its segment-backed arrays (golden is copied out —
        reports may still reference it) and unlinks.  The kernel arrays
        rebuild lazily if the view is ever scanned again.
        """
        if self._shared_segments is None:
            return
        self.golden = np.array(self.golden)
        self._plane = None
        self._kernel_indices = None
        self._kernel_signs = None
        self._adopted = False
        self._plane_layers = [None] * len(self.layer_names)
        self._plane_sources = [None] * len(self.layer_names)
        self._foreign_plane = None
        self._cached_layer_model = None
        self._cached_layer_map = None
        self._destroy_segments()

    def _destroy_segments(self) -> None:
        segments, self._shared_segments = self._shared_segments, None
        spec, self._shared_spec = self._shared_spec, None
        registrar, self._segment_registrar = self._segment_registrar, None
        if registrar is not None and spec is not None:
            # Graceful teardown owns its segments; drop the ledger entry so
            # a later reap never races a name the OS already recycled.  The
            # generation guard matters on re-sign: the successor records its
            # fresh names under the same model *before* this old view is
            # destroyed, and that entry must survive.
            registrar.discard(spec.model, generation=spec.generation)
        for segment in segments.values():
            # Unlink before close: unlinking works with live mappings, and
            # doing it first guarantees the name is gone even if a stray
            # external view makes close() raise.
            try:
                segment.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            try:
                segment.close()
            except (BufferError, ValueError):  # pragma: no cover - stray view
                pass

    # -- the kernel ------------------------------------------------------------
    def _validated_rows(self, rows: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if rows is None:
            return None
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < self.total_groups):
            raise ProtectionError(f"global rows out of range ({self.total_groups} groups)")
        return rows

    def _checked_rows(
        self, rows: Optional[np.ndarray]
    ) -> Tuple[Optional[np.ndarray], Optional[int]]:
        """Validated ``rows`` plus the first row when they are one run.

        ``None`` (every group) is the run starting at 0.  Contiguity is
        tested first: an in-range run needs no min/max validation pass.
        """
        if rows is None:
            return None, 0
        rows = np.asarray(rows, dtype=np.int64)
        start = _contiguous_start(rows, self.total_groups, self._scratch)
        if start is None:
            rows = self._validated_rows(rows)
        return rows, start

    def _kernel_sums(
        self,
        layer_map: Mapping[str, Module],
        rows: Optional[np.ndarray],
        start: Optional[int],
        accum: np.dtype = SIGNATURE_ACCUMULATOR,
    ) -> np.ndarray:
        """Masked checksums for ``rows`` (``None`` = all groups) in ``accum``.

        ``rows`` and ``start`` come from :meth:`_checked_rows`.  A run
        (every full scan and scheduler shard slice) gathers through
        :meth:`PlaneStructure.gather_block`; arbitrary row sets take the
        general fancy-indexing gather.  Both fill identical int8 bytes, so
        the path choice can never change a verdict.  In the default int16
        the sums are exact modulo ``2**16`` — every bit the signature reads.

        Returns a view into scratch storage — callers either consume it
        immediately (binarize/compare) or copy it out (:meth:`group_sums`).
        """
        self._ensure_kernel()
        plane = self._prepare_plane(layer_map, rows, start)
        scratch = self._scratch
        group_size = self.config.group_size
        count = self.total_groups if rows is None else int(rows.size)
        if count == 0:
            return np.empty(0, dtype=accum)
        gathered = scratch.take("gathered", (group_size, count), np.int8)
        if start is not None:
            self._structure.gather_block(
                plane, self._kernel_indices, gathered, start, start + count
            )
            signs = self._kernel_signs[:, start : start + count]
        else:
            indices = scratch.take(
                "row-indices", (group_size, count), self._kernel_indices.dtype
            )
            np.take(self._kernel_indices, rows, axis=1, out=indices)
            signs = scratch.take("row-signs", (group_size, count), np.int8)
            np.take(self._kernel_signs, rows, axis=1, out=signs)
            # mode="clip" skips per-element bounds checking; every index was
            # validated at build time, so clipping can never trigger.
            np.take(plane, indices, out=gathered, mode="clip")
        sums = scratch.take("sums", (count,), accum)
        np.einsum("gr,gr->r", gathered, signs, dtype=accum, out=sums)
        return sums

    def _layer_map(self, model: Module) -> Dict[str, Module]:
        """``{name: quantized layer}`` for ``model``, memoized for adoption.

        Walking the module tree dominated small sliced scans (~80 µs of a
        ~200 µs pass on ResNet-20), and the steady state scans the same
        model object every tick.  Only the *adopted* model is memoized: its
        layers are already pinned by the plane registry, so the memo adds
        no lifetime (transient foreign models stay collectable), and buffer
        staleness is still caught per scan — :meth:`_prepare_plane`
        compares every layer's ``qweight`` against the registry.  A model
        whose layer *attributes* are rebound to brand-new layer objects
        must be re-adopted, the same contract the fleet engine's
        ``ManagedModel.layer_map`` cache already imposes.
        """
        if model is self._cached_layer_model:
            return self._cached_layer_map
        layer_map = dict(quantized_layers(model))
        if self._adopted and all(
            layer_map.get(name) is layer
            for name, layer in zip(self.layer_names, self._plane_layers)
        ):
            self._cached_layer_model = model
            self._cached_layer_map = layer_map
        return layer_map

    # -- recomputation ---------------------------------------------------------
    def group_sums(
        self,
        model: Module,
        rows: Optional[np.ndarray] = None,
        reference: bool = False,
    ) -> np.ndarray:
        """Exact masked checksums for the given global rows (``None`` = every group).

        The kernel gather accumulated in int64 (the signature paths
        accumulate in int16, exact only modulo ``2**16``).
        ``reference=True`` runs the retained PR-3 per-layer path (int64
        promotion, per-layer gathers, ``searchsorted`` routing) — the
        bit-exactness oracle and benchmark baseline for the kernel.
        """
        layer_map = self._layer_map(model)
        if reference:
            return self._reference_sums(layer_map, self._validated_rows(rows))
        rows, start = self._checked_rows(rows)
        return self._kernel_sums(layer_map, rows, start, np.dtype(np.int64)).copy()

    def _reference_sums(
        self, layer_map: Mapping[str, Module], rows: Optional[np.ndarray]
    ) -> np.ndarray:
        if rows is None:
            sums = np.empty(self.total_groups, dtype=np.int64)
            for position in range(len(self.layer_names)):
                flat = self._layer_flat(layer_map, position)
                start, end = self._row_starts[position], self._row_starts[position + 1]
                gathered = flat[self._indices[position]].astype(np.int64)
                sums[start:end] = (gathered * self._sign_masks[position]).sum(axis=1)
            return sums
        sums = np.empty(rows.size, dtype=np.int64)
        owning_layer = np.searchsorted(self._row_starts, rows, side="right") - 1
        for position in np.unique(owning_layer):
            where = np.nonzero(owning_layer == position)[0]
            local = rows[where] - self._row_starts[position]
            flat = self._layer_flat(layer_map, position)
            gathered = flat[self._indices[position][local]].astype(np.int64)
            sums[where] = (gathered * self._sign_masks[position][local]).sum(axis=1)
        return sums

    def signatures(
        self,
        model: Module,
        rows: Optional[np.ndarray] = None,
        reference: bool = False,
    ) -> np.ndarray:
        """Current signatures for the given global rows, in row order."""
        if reference:
            return signature_from_sums(
                self.group_sums(model, rows, reference=True), self.config.signature_bits
            )
        layer_map = self._layer_map(model)
        rows, start = self._checked_rows(rows)
        sums = self._kernel_sums(layer_map, rows, start)
        return signature_from_sums(sums, self.config.signature_bits)

    def mismatched_rows(
        self,
        model: Module,
        rows: Optional[np.ndarray] = None,
        reference: bool = False,
    ) -> np.ndarray:
        """Global rows (among ``rows``) whose current signature differs from golden."""
        if reference:
            current = self.signatures(model, rows, reference=True)
            if rows is None:
                return np.nonzero(current != self.golden)[0].astype(np.int64)
            rows = np.asarray(rows, dtype=np.int64)
            return rows[current != self.golden[rows]]
        layer_map = self._layer_map(model)
        rows, start = self._checked_rows(rows)
        sums = binarize_in_place(
            self._kernel_sums(layer_map, rows, start), self.config.signature_bits
        )
        if rows is None:
            return np.nonzero(sums != self.golden)[0].astype(np.int64)
        if start is not None:
            return rows[sums != self.golden[start : start + rows.size]]
        return rows[sums != self.golden[rows]]

    def layer_stream_signatures(
        self,
        layer_name: str,
        qweight_flat: np.ndarray,
        groups: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Signatures of one layer's *streamed* weights on the kernel path.

        The streaming counterpart of :meth:`signatures`: no model object,
        just the flat int8 payload a DMA engine would deliver for
        ``layer_name``.  Uses the fused per-layer gather matrix and sign
        mask with int16 accumulation, so
        :class:`~repro.core.streaming.StreamingVerifier` shares the
        kernel's speed without owning a plane.  ``groups`` restricts the
        check to the listed local group indices (in order).
        """
        position = self._position_of(layer_name)
        qweight_flat = np.asarray(qweight_flat)
        if qweight_flat.dtype != np.int8:
            raise ProtectionError(
                f"Expected int8 weights, got dtype {qweight_flat.dtype}"
            )
        if qweight_flat.ndim != 1 or qweight_flat.size != self._num_weights[position]:
            raise ProtectionError(
                f"Layer {layer_name!r} stream has shape {qweight_flat.shape}, "
                f"expected ({self._num_weights[position]},)"
            )
        indices = self._indices[position]
        signs = self._sign_masks[position]
        if groups is not None:
            groups = np.atleast_1d(np.asarray(groups, dtype=np.int64))
            num_groups = indices.shape[0]
            if groups.size and not (
                0 <= groups.min() and groups.max() < num_groups
            ):
                raise ProtectionError(
                    f"group indices out of range ({num_groups} groups)"
                )
            if groups.size == 0:
                return np.empty(0, dtype=np.uint8)
            count = int(groups.size)
            group_size = self.config.group_size
            row_indices = self._scratch.take(
                "stream-indices", (count, group_size), indices.dtype
            )
            np.take(indices, groups, axis=0, out=row_indices)
            row_signs = self._scratch.take(
                "stream-signs", (count, group_size), np.int8
            )
            np.take(signs, groups, axis=0, out=row_signs)
            indices, signs = row_indices, row_signs
        gathered = self._scratch.take("stream-gathered", indices.shape, np.int8)
        np.take(qweight_flat, indices, out=gathered)
        sums = self._scratch.take(
            "stream-sums", (indices.shape[0],), SIGNATURE_ACCUMULATOR
        )
        np.einsum("ij,ij->i", gathered, signs, dtype=SIGNATURE_ACCUMULATOR, out=sums)
        return signature_from_sums(sums, self.config.signature_bits)

    def rows_to_layer_groups(self, rows: np.ndarray) -> Dict[str, np.ndarray]:
        """Translate global rows into per-layer group indices (all layers present).

        Layers with no listed row map to an empty array, matching the shape
        of a full :class:`~repro.core.detector.DetectionReport`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            # Clean scans dominate a healthy fleet's ticks; skip the per-layer
            # unique/compare work and hand out the shared empty arrays.
            return dict(self._empty_groups)
        result: Dict[str, np.ndarray] = {}
        for position, name in enumerate(self.layer_names):
            start, end = self._row_starts[position], self._row_starts[position + 1]
            inside = rows[(rows >= start) & (rows < end)]
            result[name] = np.unique(inside - start).astype(np.int64)
        return result


RowsArg = Union[np.ndarray, Sequence[np.ndarray]]


def split_by_padding_waste(
    sizes: Sequence[int], max_waste: float
) -> List[List[int]]:
    """Partition slice sizes so no padded stack wastes more than ``max_waste``.

    Bucketed padded stacking pads every model's row count to the bucket
    maximum, so a bucket mixing one huge slice with several tiny ones does
    almost all of its gather/einsum work on zero-signed padding.  This
    helper is the **width-disparity guard**: given the per-slice row counts
    of one kernel bucket, it returns index groups (into ``sizes``) such
    that every slice in a group satisfies

        size >= (1 - max_waste) * max(sizes in group)

    i.e. no slice's padded column is more than ``max_waste`` padding.  That
    per-column bound implies the group's aggregate padding-waste ratio
    ``1 - sum(sizes) / (width * len(group))`` stays at or below
    ``max_waste`` too (it is the mean of the per-column wastes).  Groups
    are cut over the sizes in descending order, so similarly sized slices
    stay coalesced (keeping the dispatch-amortization win) and a dwarfing
    slice is split off alone rather than dragging one near-threshold small
    slice along with it.

    ``max_waste`` must lie in ``[0, 1)``; ``0`` coalesces only exactly
    equal sizes, values near ``1`` effectively disable the guard.  Every
    input index appears in exactly one returned group, and a single-slice
    group is always acceptable (its waste is zero by definition).
    """
    if not 0 <= max_waste < 1:
        raise ProtectionError(f"max_waste must be in [0, 1), got {max_waste}")
    if sizes and len(set(sizes)) <= 1:
        # Equal sizes (the homogeneous fleet steady state) can never split.
        return [list(range(len(sizes)))]
    order = sorted(range(len(sizes)), key=lambda index: -int(sizes[index]))
    groups: List[List[int]] = []
    current: List[int] = []
    width = 0
    for index in order:
        size = int(sizes[index])
        if not current:
            current, width = [index], size
        elif size >= (1.0 - max_waste) * width:
            current.append(index)
        else:
            groups.append(current)
            current, width = [index], size
    if current:
        groups.append(current)
    return groups


def _stacked_sums(
    planes: Sequence[np.ndarray],
    indices_list: Sequence[np.ndarray],
    signs_list: Sequence[np.ndarray],
    rows_list: Sequence[np.ndarray],
    sizes: Sequence[int],
    width: int,
    group_size: int,
    scratch: ScanScratch,
    homogeneous: bool,
    structures: Sequence[Optional[PlaneStructure]],
) -> np.ndarray:
    """The stacked gather + einsum shared by coordinator and workers.

    One arithmetic core behind both :func:`batched_mismatched_rows` (the
    in-process engine path) and :func:`stacked_mismatched_rows` (the
    shared-memory worker path), so the two can never drift bit-wise.

    The width axis is processed in cache-blocked tiles
    (:func:`_stacked_tile_width`): the per-tile gathered stack and sign
    stack stay L2-resident while the einsum that immediately consumes them
    re-reads every byte, instead of streaming a whole padded bucket through
    cache twice.  Within each tile, a model whose rows are one contiguous
    run routes through :meth:`PlaneStructure.gather_block` when its plane
    has strided-view structure and the tile is wide enough to pay for the
    views, serves plain index/sign *views* to ``np.take`` otherwise, and
    arbitrary row sets take the general padded ``np.take`` — all produce
    identical int8 gathers.

    Returns the ``(num_models, width)`` int16 sums view into ``scratch``
    (exact modulo ``2**16``, see :mod:`repro.core.checksum`).
    """
    num_models = len(planes)
    tile = _stacked_tile_width(num_models, group_size, width)
    accum = SIGNATURE_ACCUMULATOR
    sums = scratch.take("stacked-sums", (num_models, width), accum)
    if homogeneous:
        rows0 = rows_list[0]
        indices0 = indices_list[0]
        signs0 = signs_list[0]
        start0 = _contiguous_start(rows0, indices0.shape[1], scratch)
        for w0 in range(0, width, tile):
            w1 = w0 + tile
            if w1 > width:
                w1 = width
            span = w1 - w0
            stacked = scratch.take("stacked", (num_models, group_size, span), np.int8)
            if start0 is not None:
                lo = start0 + w0
                hi = start0 + w1
                signs = signs0[:, lo:hi]
                block = indices0[:, lo:hi]
                # Narrow tiles (the budgeted fleet's per-tick slices) can
                # never clear gather_block's per-layer threshold — skip the
                # per-model chooser and serve one shared index view.
                wide = span * group_size >= STRIDED_MIN_BYTES_PER_LAYER
                for index in range(num_models):
                    structure = structures[index]
                    if wide and structure is not None and structure.any_structured:
                        structure.gather_block(
                            planes[index], indices_list[index], stacked[index], lo, hi
                        )
                    else:
                        # ndarray.take skips the np.take wrapper dispatch;
                        # at fleet scale the wrapper alone is a visible
                        # share of a narrow pass.
                        planes[index].take(block, out=stacked[index], mode="clip")
            else:
                block = rows0[w0:w1]
                indices = scratch.take("row-indices", (group_size, span), indices0.dtype)
                np.take(indices0, block, axis=1, out=indices)
                signs = scratch.take("row-signs", (group_size, span), np.int8)
                np.take(signs0, block, axis=1, out=signs)
                for index in range(num_models):
                    planes[index].take(indices, out=stacked[index], mode="clip")
            np.einsum(
                "kgr,gr->kr", stacked, signs, dtype=accum, out=sums[:, w0:w1]
            )
        return sums
    starts = [
        _contiguous_start(rows_list[index], indices_list[index].shape[1], scratch)
        for index in range(num_models)
    ]
    for w0 in range(0, width, tile):
        w1 = w0 + tile
        if w1 > width:
            w1 = width
        span = w1 - w0
        stacked = scratch.take("stacked", (num_models, group_size, span), np.int8)
        signs = scratch.take("stacked-signs", (num_models, group_size, span), np.int8)
        for index in range(num_models):
            # A model shorter than the bucket width contributes garbage
            # columns past ``valid``; zeroed signs null them exactly, so no
            # padded gather is ever performed (the legacy path padded the
            # row list with row 0 and gathered it anyway).
            valid = sizes[index] - w0
            if valid <= 0:
                signs[index].fill(0)
                continue
            if valid > span:
                valid = span
            start = starts[index]
            if start is not None:
                lo = start + w0
                hi = lo + valid
                # Same narrow-span bypass as the homogeneous loop.
                structure = (
                    structures[index]
                    if valid * group_size >= STRIDED_MIN_BYTES_PER_LAYER
                    else None
                )
                if structure is not None and structure.any_structured:
                    structure.gather_block(
                        planes[index],
                        indices_list[index],
                        stacked[index][:, :valid],
                        lo,
                        hi,
                    )
                else:
                    planes[index].take(
                        indices_list[index][:, lo:hi],
                        out=stacked[index][:, :valid],
                        mode="clip",
                    )
                np.copyto(signs[index][:, :valid], signs_list[index][:, lo:hi])
            else:
                block = rows_list[index][w0 : w0 + valid]
                indices = scratch.take(
                    "bucket-indices", (group_size, valid), indices_list[index].dtype
                )
                np.take(indices_list[index], block, axis=1, out=indices)
                np.take(signs_list[index], block, axis=1, out=signs[index][:, :valid])
                np.take(
                    planes[index], indices, out=stacked[index][:, :valid], mode="clip"
                )
            if valid < span:
                signs[index][:, valid:] = 0
        np.einsum("kgr,kgr->kr", stacked, signs, dtype=accum, out=sums[:, w0:w1])
    return sums


def batched_mismatched_rows(
    views: Sequence[FusedSignatures],
    layer_maps: Sequence[Mapping[str, Module]],
    rows: RowsArg,
    scratch: Optional[ScanScratch] = None,
) -> List[np.ndarray]:
    """Verify row slices of several models in one stacked kernel pass.

    ``views[i]`` is model *i*'s fused view and ``layer_maps[i]`` its
    ``{layer_name: quantized layer}`` mapping.  Two calling conventions:

    * ``rows`` as a **single array** — the legacy homogeneous contract: all
      views must share a :meth:`FusedSignatures.structure_key` and the one
      slice is verified for every model.
    * ``rows`` as a **sequence of per-model arrays** — bucketed padded
      stacking: views only need matching :meth:`FusedSignatures.kernel_key`
      (``group_size``, ``signature_bits``); row counts are padded to the
      bucket max with zero sign rows, so models of *different*
      architectures still share the stacked gather + einsum + binarize +
      compare.  This is what lets the fleet engine coalesce heterogeneous
      fleets instead of falling back to sequential per-model scans.

    When every view shares a structure key and every model scans the same
    rows, the stack degenerates to the broadcast fast path (one shared
    index/sign matrix); otherwise each model contributes its own.  Either
    way the per-pass NumPy dispatch overhead is paid once for the whole
    batch, the gather stays int8 and the accumulation int16, and all
    stacked workspaces come from ``scratch`` (the engine passes its
    per-bucket :class:`ScanScratch`; ``None`` allocates a private one).

    Returns one flagged-row array per model, identical to what
    ``views[i].mismatched_rows(model_i, rows_i)`` would report.
    """
    if not views:
        raise ProtectionError("batched_mismatched_rows needs at least one view")
    if len(views) != len(layer_maps):
        raise ProtectionError(
            f"got {len(views)} views but {len(layer_maps)} layer maps"
        )
    # A list/tuple is per-model rows only when every element is itself an
    # array-like; a plain sequence of ints (``rows=[0, 1, 2]``) keeps its
    # historical meaning of one shared row slice.
    per_model = (
        not isinstance(rows, np.ndarray)
        and isinstance(rows, (list, tuple))
        and len(rows) > 0
        and all(isinstance(item, (np.ndarray, list, tuple)) for item in rows)
    )
    shared = not per_model
    reference = views[0]
    if shared:
        key = reference.structure_key()
        for view in views[1:]:
            if view.structure_key() != key:
                raise ProtectionError(
                    "batched verification of one shared row slice needs "
                    "structurally identical models; structure keys differ "
                    "(pass per-model row arrays for bucketed stacking)"
                )
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return [rows.copy() for _ in views]
        rows_list = [reference._validated_rows(rows)] * len(views)
    else:
        if len(rows) != len(views):
            raise ProtectionError(
                f"got {len(views)} views but {len(rows)} row arrays"
            )
        kernel_key = reference.kernel_key()
        for view in views[1:]:
            if view.kernel_key() != kernel_key:
                raise ProtectionError(
                    "bucketed stacking needs matching (group_size, "
                    "signature_bits) kernel keys"
                )
        rows_list = [
            view._validated_rows(np.asarray(item, dtype=np.int64))
            for view, item in zip(views, rows)
        ]

    num_models = len(views)
    sizes = [int(item.size) for item in rows_list]
    width = max(sizes)
    if width == 0:
        return [np.empty(0, dtype=np.int64) for _ in views]
    for view in views:
        view._ensure_kernel()
    scratch = scratch if scratch is not None else ScanScratch()
    group_size = reference.config.group_size
    signature_bits = reference.config.signature_bits

    reference_key = reference.structure_key()
    rows0 = rows_list[0]
    size0 = sizes[0]
    homogeneous = all(
        view.structure_key() == reference_key for view in views
    ) and all(
        item is rows0 or (size == size0 and np.array_equal(item, rows0))
        for size, item in zip(sizes, rows_list)
    )

    planes = [
        view._prepare_plane(layer_map, model_rows) if size else view._plane
        for view, layer_map, model_rows, size in zip(
            views, layer_maps, rows_list, sizes
        )
    ]
    sums = _stacked_sums(
        planes,
        [view._kernel_indices for view in views],
        [view._kernel_signs for view in views],
        rows_list,
        sizes,
        width,
        group_size,
        scratch,
        homogeneous,
        [view._structure for view in views],
    )

    current = binarize_in_place(sums, signature_bits)
    flagged: List[np.ndarray] = []
    for index, (view, model_rows) in enumerate(zip(views, rows_list)):
        size = sizes[index]
        if size == 0:
            flagged.append(np.empty(0, dtype=np.int64))
            continue
        mismatched = current[index, :size] != view.golden[model_rows]
        flagged.append(model_rows[mismatched])
    return flagged


class StackedVerifier:
    """A precompiled :func:`batched_mismatched_rows` over a fixed bucket.

    The fleet engine re-verifies the *same* set of views with the same
    layer maps every tick; only the row slices change.  The general entry
    point re-derives everything per call — kernel-key validation,
    per-model metadata lists, homogeneity detection, and a per-model
    golden gather/compare tail — which at fleet scale costs more Python
    dispatch than the stacked kernel itself.  This class hoists all of it
    to construction time:

    * kernel keys are validated and the per-view index/sign/structure
      lists are built once;
    * when every view shares a structure key, the goldens are prestacked
      into one ``(num_models, total_groups)`` matrix, so a homogeneous
      contiguous slice compares against a *view* of it — the clean-tick
      tail collapses to one vectorized compare + ``any`` instead of a
      per-model gather/compare/nonzero loop.

    :meth:`verify` re-checks per call only what can actually change
    between ticks — each view's ``golden`` binding (``share``/``unshare``
    rebind it in place) — and routes anything irregular (padded widths,
    non-identical rows, rebound goldens) to the general function, so the
    flagged rows are bit-identical to it by construction.  Callers are
    responsible for rebuilding the verifier when bucket *membership*
    changes (a re-sign replaces the fused view object, which the engine
    detects by identity).
    """

    def __init__(
        self,
        views: Sequence["FusedSignatures"],
        layer_maps: Sequence[Mapping[str, Module]],
    ) -> None:
        if not views:
            raise ProtectionError("StackedVerifier needs at least one view")
        if len(views) != len(layer_maps):
            raise ProtectionError(
                f"got {len(views)} views but {len(layer_maps)} layer maps"
            )
        kernel_key = views[0].kernel_key()
        for view in views[1:]:
            if view.kernel_key() != kernel_key:
                raise ProtectionError(
                    "bucketed stacking needs matching (group_size, "
                    "signature_bits) kernel keys"
                )
        for view in views:
            view._ensure_kernel()
        self.views = list(views)
        self.layer_maps = list(layer_maps)
        reference = views[0]
        self._reference = reference
        self._group_size = reference.config.group_size
        self._signature_bits = reference.config.signature_bits
        self._indices = [view._kernel_indices for view in views]
        self._signs = [view._kernel_signs for view in views]
        self._structures = [view._structure for view in views]
        key = reference.structure_key()
        self._uniform = all(view.structure_key() == key for view in views)
        self._goldens = [view.golden for view in views]
        self._golden_matrix = (
            np.stack(self._goldens) if self._uniform else None
        )
        #: Identity-keyed memo of already-proven row tuples.  Schedulers
        #: hand out their (immutable) shard arrays by reference, so a
        #: rotation revisits the same id tuple every ``num_shards`` ticks;
        #: the value keeps strong references to the keyed arrays, which
        #: pins their ids for the life of the entry.
        self._rows_memo: Dict[Tuple[int, ...], Tuple[Tuple[np.ndarray, ...], np.ndarray, Optional[int]]] = {}

    def _intact(self) -> bool:
        """Whether every view's kernel arrays still match the prebuilt ones."""
        for index, view in enumerate(self.views):
            if (
                view.golden is not self._goldens[index]
                or view._kernel_indices is not self._indices[index]
                or view._kernel_signs is not self._signs[index]
            ):
                return False
        return True

    def verify(
        self, rows_list: Sequence[np.ndarray], scratch: Optional[ScanScratch] = None
    ) -> List[np.ndarray]:
        """Flagged-row arrays for one tick's per-model row slices.

        Bit-identical to ``batched_mismatched_rows(views, layer_maps,
        rows_list, scratch)``; the precompiled fast path only engages for
        the steady fleet state (uniform bucket, every model scanning the
        same in-range slice, kernel arrays unchanged since construction).
        """
        views = self.views
        scratch = scratch if scratch is not None else ScanScratch()
        rows0 = rows_list[0]
        width = rows0.size
        if self._uniform and width and self._intact():
            memo_key = tuple(map(id, rows_list))
            memo = self._rows_memo.get(memo_key)
            if memo is not None:
                _, validated, start = memo
                return self._verify_homogeneous(validated, width, scratch, start)
            distinct = []
            identical = True
            for item in rows_list:
                if item is rows0:
                    continue
                if item.size != width:
                    identical = False
                    break
                distinct.append(item)
            if identical and distinct:
                # One stacked compare instead of a per-model array_equal
                # loop: the steady state is "every model scans the same
                # slice", so this almost always confirms.
                identical = bool((np.vstack(distinct) == rows0).all())
            if identical:
                validated = self._reference._validated_rows(
                    np.asarray(rows0, dtype=np.int64)
                )
                start = _contiguous_start(
                    validated, self._reference.total_groups, scratch
                )
                if len(self._rows_memo) >= 256:
                    self._rows_memo.clear()
                self._rows_memo[memo_key] = (tuple(rows_list), validated, start)
                return self._verify_homogeneous(validated, width, scratch, start)
        return batched_mismatched_rows(
            views, self.layer_maps, list(rows_list), scratch=scratch
        )

    def _verify_homogeneous(
        self,
        rows0: np.ndarray,
        width: int,
        scratch: ScanScratch,
        start: Optional[int],
    ) -> List[np.ndarray]:
        views = self.views
        num_models = len(views)
        planes = [
            view._prepare_plane(layer_map, rows0, start)
            for view, layer_map in zip(views, self.layer_maps)
        ]
        sums = _stacked_sums(
            planes,
            self._indices,
            self._signs,
            [rows0] * num_models,
            [width] * num_models,
            width,
            self._group_size,
            scratch,
            True,
            self._structures,
        )
        current = binarize_in_place(sums, self._signature_bits)
        if start is not None:
            golden_block = self._golden_matrix[:, start : start + width]
        else:
            golden_block = self._golden_matrix[:, rows0]
        mismatch = current != golden_block
        if not mismatch.any():
            # One immutable empty shared by all models: flagged rows are
            # treated as read-only downstream, and the write-lock makes a
            # violation fail loudly instead of corrupting a neighbor.
            return [_EMPTY_ROWS] * num_models
        return [rows0[mismatch[index]] for index in range(num_models)]


def stacked_mismatched_rows(
    planes: Sequence[np.ndarray],
    indices_list: Sequence[np.ndarray],
    signs_list: Sequence[np.ndarray],
    goldens: Sequence[np.ndarray],
    rows_list: Sequence[np.ndarray],
    group_size: int,
    signature_bits: int,
    scratch: Optional[ScanScratch] = None,
    homogeneous: bool = False,
    structures: Optional[Sequence[Optional[object]]] = None,
) -> List[np.ndarray]:
    """:func:`batched_mismatched_rows` over plain arrays instead of views.

    The worker-process half of the scan kernel: a process attached to
    published :class:`SharedPlaneSpec` segments has no ``Module`` objects
    and no :class:`FusedSignatures` — just each model's weight plane,
    slot-major gather-index and sign matrices, and golden signatures.  This
    runs the exact same arithmetic through :func:`_stacked_sums`
    (cache-blocked int8 gather, int16-accumulation einsum, in-place
    binarize and golden compare), so its flagged rows are bit-identical to
    the coordinator's in-process path for the same inputs.

    ``homogeneous=True`` is a coordinator-supplied promise that every model
    shares one structure key *and* one row slice (the engine knows; the
    worker cannot cheaply verify), enabling the shared index/sign broadcast
    fast path.  ``structures`` optionally carries each model's published
    strided-view structure — a :class:`PlaneStructure`, a picklable
    :class:`PlaneStructureSpec`, or ``None`` — so workers run the
    strided-view gather without re-deriving (or guessing) anything.  Both
    flags change dispatch cost only — every path gathers identical bytes,
    so every path produces identical results.
    """
    num_models = len(planes)
    if not (
        num_models == len(indices_list) == len(signs_list) == len(goldens) == len(rows_list)
    ):
        raise ProtectionError("stacked_mismatched_rows arguments disagree on model count")
    if num_models == 0:
        return []
    if structures is None:
        structure_list: List[Optional[PlaneStructure]] = [None] * num_models
    else:
        if len(structures) != num_models:
            raise ProtectionError(
                f"got {num_models} planes but {len(structures)} structures"
            )
        structure_list = [
            PlaneStructure.from_spec(item)
            if isinstance(item, PlaneStructureSpec)
            else item
            for item in structures
        ]
    rows_list = [np.asarray(rows, dtype=np.int64) for rows in rows_list]
    for rows, golden in zip(rows_list, goldens):
        if rows.size and not (0 <= rows.min() and rows.max() < golden.size):
            raise ProtectionError(f"global rows out of range ({golden.size} groups)")
    sizes = [int(rows.size) for rows in rows_list]
    width = max(sizes)
    if width == 0:
        return [np.empty(0, dtype=np.int64) for _ in planes]
    scratch = scratch if scratch is not None else ScanScratch()
    sums = _stacked_sums(
        planes,
        indices_list,
        signs_list,
        rows_list,
        sizes,
        width,
        group_size,
        scratch,
        homogeneous,
        structure_list,
    )
    current = binarize_in_place(sums, signature_bits)
    flagged: List[np.ndarray] = []
    for index in range(num_models):
        size = sizes[index]
        if size == 0:
            flagged.append(np.empty(0, dtype=np.int64))
            continue
        model_rows = rows_list[index]
        mismatched = current[index, :size] != goldens[index][model_rows]
        flagged.append(model_rows[mismatched])
    return flagged


def flip_group_index(store: SignatureStore, layer_name: str, flat_index: int) -> Tuple[str, int]:
    """The ``(layer, group)`` a given weight index belongs to under the store's layout."""
    entry = store.layer(layer_name)
    return layer_name, entry.layout.group_of(flat_index)
