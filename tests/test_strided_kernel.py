"""Tests for the int16 scan kernel and its strided-view gather.

Two contracts are pinned here:

* **int16 is exact where it matters** — every signature path accumulates
  in int16, which wraps once ``|M| > 2**15`` but keeps bits 0-15 of the
  sum, and the signature reads only bits 6-8.  Signatures and flagged rows
  must therefore equal the ``reference=True`` int64 oracle for any group
  size, on groups built to overflow, through the fused, batched,
  ``StackedVerifier``, worker-side ``stacked_mismatched_rows`` and
  streaming paths.  ``group_sums`` stays exact (it accumulates in int64).
* **The strided-view gather fills exactly what ``np.take`` fills** — for
  every layer shape the fuse-time detector can meet (wrapping shifts,
  zero rotations, padded last groups, the plane's last layer), every row
  range (narrow, cross-layer, whole plane), and planes attached read-only
  from shared memory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AttachedModelPlane,
    ModelProtector,
    RadarConfig,
    ScanScratch,
    StreamingVerifier,
    batched_mismatched_rows,
    shared_memory_available,
    stacked_mismatched_rows,
)
from repro.core.checksum import SIGNATURE_ACCUMULATOR, signature_from_sums
from repro.core.signature import PlaneStructure, StackedVerifier, _contiguous_start
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers
from repro.utils.rng import new_rng

#: (input_dim, hidden_dims, num_classes) of the test MLPs.
SMALL = (128, (64,), 10)

requires_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory is unavailable on this platform",
)


def _mlp(seed, dims=SMALL):
    input_dim, hidden, num_classes = dims
    model = MLP(
        input_dim=input_dim, num_classes=num_classes, hidden_dims=hidden, seed=seed
    )
    quantize_model(model)
    return model


def _fill_extreme(model, config, mode, seed):
    """Overwrite every weight so group sums sit at (or near) ``±128 * G``.

    ``aligned`` puts +127 where the weight's slot is masked +1 and -128
    where it is masked -1, so every masked term is ~+128 and ``|M|``
    passes ``2**15`` from ``G = 256`` up; ``low``/``high`` fill -128/+127
    everywhere; ``random`` keeps a uniform int8 draw.
    """
    store = ModelProtector(config).protect(model)
    rng = new_rng(("int16-fill", seed))
    for name, layer in quantized_layers(model):
        flat = layer.qweight.reshape(-1)
        if mode == "low":
            flat[:] = -128
        elif mode == "high":
            flat[:] = 127
        elif mode == "random":
            flat[:] = rng.integers(-128, 128, size=flat.size)
        else:
            entry = store.layer(name)
            groups = entry.layout.groups
            signs = (
                entry.key.signs(config.group_size)
                if entry.key is not None
                else np.ones(config.group_size, dtype=np.int64)
            )
            slot_sign = np.ones(flat.size, dtype=np.int64)
            valid = groups >= 0
            slot_sign[groups[valid]] = np.broadcast_to(signs, groups.shape)[valid]
            flat[:] = np.where(slot_sign > 0, 127, -128)


def _flip_msbs(model, count, seed):
    rng = new_rng(("int16-flip", seed))
    layers = quantized_layers(model)
    for _ in range(count):
        _, layer = layers[int(rng.integers(len(layers)))]
        flat = layer.qweight.reshape(-1)
        index = int(rng.integers(flat.size))
        flat[index] = np.int8(int(flat[index]) ^ -128)


def _protected_pair(group_size, mode, use_masking, signature_bits, seed):
    """Two structurally identical overflow-heavy models, protected, then hit."""
    config = RadarConfig(
        group_size=group_size,
        use_masking=use_masking,
        signature_bits=signature_bits,
    )
    pairs = []
    for offset in range(2):
        model = _mlp(seed + offset)
        _fill_extreme(model, config, mode, seed + offset)
        protector = ModelProtector(config)
        protector.protect(model)
        pairs.append((model, protector.store.fused()))
    return config, pairs


def _row_cases(total, rng):
    return [
        None,
        np.arange(total, dtype=np.int64),
        np.arange(total // 3, max(total // 3 + 1, 2 * total // 3), dtype=np.int64),
        np.sort(rng.choice(total, size=max(1, total // 2), replace=False)),
    ]


class TestInt16Exactness:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        group_size=st.sampled_from([2, 8, 16, 512, 1024]),
        mode=st.sampled_from(["aligned", "low", "high", "random"]),
        use_masking=st.booleans(),
        signature_bits=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_path_matches_the_int64_oracle(
        self, seed, group_size, mode, use_masking, signature_bits
    ):
        config, pairs = _protected_pair(
            group_size, mode, use_masking, signature_bits, seed
        )
        (model, fused), (other, other_fused) = pairs
        # Clean: the int16 goldens agree with the exact sums of the oracle.
        assert fused.mismatched_rows(model, reference=True).size == 0
        _flip_msbs(model, 3, seed)
        _flip_msbs(other, 2, seed + 1)
        if mode == "aligned" and group_size >= 512:
            # The case the proof is about: sums beyond the int16 range.
            exact = fused.group_sums(model, reference=True)
            assert np.abs(exact).max() > 2**15
        rng = new_rng(("int16-rows", seed))
        layer_maps = [dict(quantized_layers(m)) for m in (model, other)]
        for rows in _row_cases(fused.total_groups, rng):
            expected = [
                view.mismatched_rows(m, rows, reference=True)
                for view, m in ((fused, model), (other_fused, other))
            ]
            np.testing.assert_array_equal(
                fused.signatures(model, rows),
                fused.signatures(model, rows, reference=True),
            )
            np.testing.assert_array_equal(
                fused.group_sums(model, rows),
                fused.group_sums(model, rows, reference=True),
            )
            np.testing.assert_array_equal(fused.mismatched_rows(model, rows), expected[0])
            if rows is None:
                continue
            for got, want in zip(
                batched_mismatched_rows([fused, other_fused], layer_maps, rows), expected
            ):
                np.testing.assert_array_equal(got, want)
            for got, want in zip(
                batched_mismatched_rows(
                    [fused, other_fused], layer_maps, [rows, rows[: rows.size // 2]]
                ),
                [expected[0], other_fused.mismatched_rows(
                    other, rows[: rows.size // 2], reference=True
                )],
            ):
                np.testing.assert_array_equal(got, want)
            verifier = StackedVerifier([fused, other_fused], layer_maps)
            for got, want in zip(verifier.verify([rows, rows]), expected):
                np.testing.assert_array_equal(got, want)
            for homogeneous in (False, True):
                flagged = stacked_mismatched_rows(
                    [view._prepare_plane(lm, None) for view, lm in zip(
                        (fused, other_fused), layer_maps
                    )],
                    [view._kernel_indices for view in (fused, other_fused)],
                    [view._kernel_signs for view in (fused, other_fused)],
                    [view.golden for view in (fused, other_fused)],
                    [rows, rows],
                    group_size=group_size,
                    signature_bits=signature_bits,
                    homogeneous=homogeneous,
                    structures=[view.structure.spec() for view in (fused, other_fused)],
                )
                for got, want in zip(flagged, expected):
                    np.testing.assert_array_equal(got, want)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        group_size=st.sampled_from([2, 8, 16, 512, 1024]),
        mode=st.sampled_from(["aligned", "low", "high"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_streaming_path_matches_the_oracle(self, seed, group_size, mode):
        _, [(model, fused), _] = _protected_pair(group_size, mode, True, 2, seed)
        _flip_msbs(model, 2, seed)
        verifier = StreamingVerifier(fused.store)
        for name, layer in quantized_layers(model):
            start, stop = fused.row_range(name)
            rows = np.arange(start, stop, dtype=np.int64)
            oracle = fused.signatures(model, rows, reference=True)
            flat = layer.qweight.reshape(-1)
            np.testing.assert_array_equal(
                fused.layer_stream_signatures(name, flat), oracle
            )
            groups = np.arange(0, stop - start, 2, dtype=np.int64)
            np.testing.assert_array_equal(
                fused.layer_stream_signatures(name, flat, groups=groups), oracle[groups]
            )
            np.testing.assert_array_equal(
                verifier.verify_layer(name, flat).flagged_groups,
                fused.mismatched_rows(model, rows, reference=True) - start,
            )

    def test_wrapped_sums_keep_the_signature_bits(self):
        exact = np.arange(-(2**17), 2**17, 37, dtype=np.int64)
        wrapped = exact.astype(SIGNATURE_ACCUMULATOR)
        for bits in (1, 2, 3):
            np.testing.assert_array_equal(
                signature_from_sums(wrapped, bits), signature_from_sums(exact, bits)
            )


def _assert_gathers_like_take(structure, plane, indices, ranges):
    group_size = indices.shape[0]
    for start, stop in ranges:
        out = np.full((group_size, stop - start + 3), 99, dtype=np.int8)
        structure.gather_block(plane, indices, out, start, stop)
        np.testing.assert_array_equal(out[:, : stop - start], plane[indices[:, start:stop]])
        # Nothing past the requested columns is written.
        assert (out[:, stop - start :] == 99).all()


def _assert_view_bounds(structure):
    """Every strided view stays inside its layer's real weights."""
    reach = structure.group_size - 1
    for position, body in enumerate(structure.bodies):
        n = structure.row_starts[position + 1] - structure.row_starts[position]
        weights = structure.weight_offsets[position + 1] - structure.weight_offsets[position]
        t = structure.offsets[position]
        if t is None:
            assert body == 0
            continue
        assert reach * t < n
        assert 0 <= body <= n - reach * t
        assert body == 0 or reach * (n + t) + body <= weights


def _structure_of(dims, seed=0, **config_kwargs):
    model = _mlp(seed, dims)
    protector = ModelProtector(RadarConfig(**config_kwargs))
    protector.protect(model)
    fused = protector.store.fused()
    fused.adopt(dict(quantized_layers(model)))
    return model, fused


def _all_ranges(total, rng, count=12):
    ranges = [(0, total), (0, 1), (total - 1, total), (total // 2, total)]
    for _ in range(count):
        start = int(rng.integers(total))
        stop = int(rng.integers(start + 1, total + 1))
        ranges.append((start, stop))
        ranges.append((start, min(total, start + int(rng.integers(1, 9)))))
    return ranges


class TestStridedGather:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        group_size=st.sampled_from([2, 4, 8, 16, 32]),
        offset=st.sampled_from([1, 2, 3, 5, 7]),
        dims=st.sampled_from([(100, (30,), 7), (128, (64,), 10), (24, (16,), 4)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gather_matches_take_on_any_range(self, seed, group_size, offset, dims):
        model, fused = _structure_of(
            dims, seed, group_size=group_size, interleave_offset=offset
        )
        structure = fused.structure
        _assert_view_bounds(structure)
        rng = new_rng(("strided-ranges", seed))
        _assert_gathers_like_take(
            structure, fused._plane, fused._kernel_indices,
            _all_ranges(fused.total_groups, rng),
        )
        _flip_msbs(model, 2, seed)
        total = fused.total_groups
        for rows in (None, np.arange(total // 4, total, dtype=np.int64)):
            np.testing.assert_array_equal(
                fused.mismatched_rows(model, rows),
                fused.mismatched_rows(model, rows, reference=True),
            )

    def test_wrapping_layers_go_through_the_tail(self):
        # G=16, t=3: the 7-class head (30 * 7 = 210 weights, N = 14) has
        # (G-1)*t = 45 >= N, so its shifts wrap and every column is taken.
        _, fused = _structure_of((100, (30,), 7), group_size=16, interleave_offset=3)
        structure = fused.structure
        n = [
            structure.row_starts[i + 1] - structure.row_starts[i]
            for i in range(structure.num_layers)
        ]
        assert n == [188, 14]
        assert structure.offsets == [3, None]
        assert structure.bodies[1] == 0
        assert structure.any_structured and not structure.fully_structured
        assert not fused.structured
        _assert_gathers_like_take(
            structure, fused._plane, fused._kernel_indices,
            [(0, fused.total_groups), (180, 202), (188, 202)],
        )

    def test_padded_last_group_caps_the_body(self):
        # 100 * 30 = 3000 weights at G=16: N = 188 with 8 padded slots.
        # N - (G-1)*t = 143, but the view must stop at the real weights:
        # 3000 - 15 * 191 = 135 columns.
        _, fused = _structure_of((100, (30,), 7), group_size=16, interleave_offset=3)
        assert fused.structure.bodies[0] == 135
        _assert_view_bounds(fused.structure)
        _assert_gathers_like_take(
            fused.structure, fused._plane, fused._kernel_indices, [(0, 188), (130, 140)]
        )

    def test_last_layer_of_the_plane(self):
        # G=8, t=3: both layers are strided, the head's view ends at the
        # last weight of the plane.
        _, fused = _structure_of((128, (64,), 40), group_size=8, interleave_offset=3)
        structure = fused.structure
        assert structure.fully_structured
        last = structure.num_layers - 1
        n = structure.row_starts[last + 1] - structure.row_starts[last]
        assert structure.bodies[last] == n - 7 * 3
        end = (
            structure.weight_offsets[last]
            + 7 * structure.strides[last]
            + structure.bodies[last]
        )
        assert end == fused.total_weights == fused._plane.size
        total = fused.total_groups
        _assert_gathers_like_take(
            structure, fused._plane, fused._kernel_indices,
            [(structure.row_starts[last], total), (total - 2, total)],
        )

    @pytest.mark.parametrize("offset", [0, 48, 96])
    def test_offsets_divisible_by_every_n_stay_unstructured(self, offset):
        # 24*16 and 16*4 weights at G=8: N = 48 and 8, both divide t.
        _, fused = _structure_of((24, (16,), 4), group_size=8, interleave_offset=offset)
        assert not fused.structure.any_structured
        assert not fused.structured
        _assert_gathers_like_take(
            fused.structure, fused._plane, fused._kernel_indices,
            [(0, fused.total_groups), (3, 50)],
        )

    def test_spec_round_trip_rebuilds_the_same_views(self):
        _, fused = _structure_of((100, (30,), 7), group_size=16, interleave_offset=3)
        rebuilt = PlaneStructure.from_spec(fused.structure.spec())
        assert rebuilt.bodies == fused.structure.bodies
        assert rebuilt.strides == fused.structure.strides

    @requires_shm
    def test_shared_planes_attached_by_workers(self):
        model, fused = _structure_of((128, (64,), 10), group_size=16, interleave_offset=3)
        other_model, other = _structure_of(
            (128, (64,), 10), seed=1, group_size=16, interleave_offset=3
        )
        _flip_msbs(model, 3, 0)
        spec = fused.share("a", 0)
        other_spec = other.share("b", 0)
        try:
            attached = [AttachedModelPlane(spec), AttachedModelPlane(other_spec)]
            try:
                plane = attached[0].plane
                assert not plane.flags.writeable
                assert attached[0].structure.bodies == fused.structure.bodies
                rng = new_rng(("strided-shm", 0))
                _assert_gathers_like_take(
                    attached[0].structure, plane, attached[0].indices,
                    _all_ranges(fused.total_groups, rng, count=4),
                )
                total = fused.total_groups
                for rows in (np.arange(total), np.arange(5, total // 2)):
                    flagged = stacked_mismatched_rows(
                        [a.plane for a in attached],
                        [a.indices for a in attached],
                        [a.signs for a in attached],
                        [a.golden for a in attached],
                        [rows, rows],
                        group_size=16,
                        signature_bits=2,
                        scratch=ScanScratch(),
                        homogeneous=True,
                        structures=[a.structure for a in attached],
                    )
                    np.testing.assert_array_equal(
                        flagged[0], fused.mismatched_rows(model, rows, reference=True)
                    )
                    np.testing.assert_array_equal(
                        flagged[1], other.mismatched_rows(other_model, rows, reference=True)
                    )
            finally:
                for attachment in attached:
                    attachment.close()
        finally:
            fused.unshare()
            other.unshare()


@pytest.mark.parametrize(
    "rows, limit, expected",
    [
        ([3, 4, 5, 6], 10, 3),
        ([7], 10, 7),
        ([], 10, None),
        ([0, 2, 1, 3], 10, None),   # end points fit, order does not
        ([0, 1, 1, 3], 10, None),   # a repeat balanced by a jump
        ([5, 4, 3, 2], 10, None),
        ([8, 9, 10], 10, None),     # runs past the limit
        ([-1, 0, 1], 10, None),
    ],
)
def test_contiguous_start(rows, limit, expected):
    rows = np.asarray(rows, dtype=np.int64)
    assert _contiguous_start(rows, limit, ScanScratch()) == expected
