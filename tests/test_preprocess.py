import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labench import preprocess
from labench.errors import ConstantVolume, InvalidSpec, NonFiniteIntensity, TooManyTiles
from labench.grids import Mask, Volume
from labench.preprocess import (
    AugmentationSpec,
    apply_augmentation,
    augment,
    clahe_slicewise,
    load_augmentation_specs,
    normalize_intensity,
)

from oracles import equalize_by_rank, per_tile_clahe, tile_mappings


def _volume(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data), spacing)


# --- normalize ---------------------------------------------------------------


def test_normalize_endpoints():
    v = _volume(np.array([[[0, 255]]], dtype=np.uint8))
    out = normalize_intensity(v)
    assert out.data.dtype == np.float32
    assert out.data.tolist() == [[[0.0, 1.0]]]


def test_normalize_idempotent_on_unit_range():
    data = np.array([[[0.0, 0.25, 1.0]]], dtype=np.float32)
    v = _volume(data)
    out = normalize_intensity(v)
    assert np.array_equal(out.data, data)


def test_normalize_affine_values():
    v = _volume(np.array([[[10.0, 20.0, 30.0]]], dtype=np.float32))
    assert normalize_intensity(v).data.tolist() == [[[0.0, 0.5, 1.0]]]


def test_normalize_constant_volume_errors():
    with pytest.raises(ConstantVolume):
        normalize_intensity(_volume(np.full((2, 2, 2), 9.0, dtype=np.float32)))


# --- CLAHE ---------------------------------------------------------------------


def test_clahe_constant_slice_stays_constant(rng):
    v = _volume(np.full((16, 16, 2), 77, dtype=np.uint8))
    out = clahe_slicewise(v, tiles=(2, 2), clip_limit=2.0)
    for z in range(2):
        assert len(np.unique(out.data[:, :, z])) == 1


def test_clahe_single_tile_unbounded_clip_equals_histogram_equalization(rng):
    data = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
    v = _volume(data)
    out = clahe_slicewise(v, tiles=(1, 1), clip_limit=math.inf)
    for z in range(3):
        expected = equalize_by_rank(data[:, :, z])
        assert np.array_equal(out.data[:, :, z], expected)


def test_clahe_checkerboard_two_levels_ordered():
    ix, iy = np.indices((8, 8))
    board = np.where((ix + iy) % 2 == 0, 60, 180).astype(np.uint8)
    v = _volume(board[:, :, None])
    out = clahe_slicewise(v, tiles=(1, 1), clip_limit=math.inf)
    levels = np.unique(out.data)
    assert levels.size == 2
    low_out = out.data[board[:, :, None] == 60].astype(int)
    high_out = out.data[board[:, :, None] == 180].astype(int)
    assert low_out.max() < high_out.min()
    # two-bin histogram by hand: cdf(60) = 0.5, cdf(180) = 1.0
    assert set(levels.tolist()) == {round(0.5 * 255), 255}


def test_clahe_16bit_and_float_ranges(rng):
    data16 = rng.integers(0, 2**16, size=(16, 16, 2)).astype(np.uint16)
    out16 = clahe_slicewise(_volume(data16), tiles=(2, 2), clip_limit=3.0)
    assert out16.data.dtype == np.uint16

    dataf = rng.normal(100.0, 25.0, size=(16, 16, 2)).astype(np.float32)
    outf = clahe_slicewise(_volume(dataf), tiles=(2, 2), clip_limit=3.0)
    assert outf.data.dtype == np.float32
    assert outf.data.min() >= dataf.min() - 1e-3
    assert outf.data.max() <= dataf.max() + 1e-3


def test_clahe_clipping_flattens_less_than_equalization(rng):
    # a heavily clipped mapping must stay closer to identity than the
    # unclipped one on a peaked histogram
    base = rng.normal(128, 6, size=(64, 64)).clip(0, 255).astype(np.uint8)
    v = _volume(base[:, :, None])
    clipped = clahe_slicewise(v, tiles=(1, 1), clip_limit=1.5)
    equalized = clahe_slicewise(v, tiles=(1, 1), clip_limit=math.inf)
    d_clip = np.abs(clipped.data.astype(int) - v.data.astype(int)).mean()
    d_eq = np.abs(equalized.data.astype(int) - v.data.astype(int)).mean()
    assert d_clip < d_eq


def test_clahe_too_many_tiles():
    v = _volume(np.zeros((4, 4, 1), dtype=np.uint8))
    with pytest.raises(TooManyTiles):
        clahe_slicewise(v, tiles=(5, 1), clip_limit=2.0)


def test_clahe_clip_limit_validation():
    v = _volume(np.zeros((4, 4, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        clahe_slicewise(v, tiles=(1, 1), clip_limit=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_intensities_raise_a_named_error(bad):
    data = np.arange(16 * 16 * 4, dtype=np.float32).reshape(16, 16, 4)
    data[3, 5, 2] = bad
    v = _volume(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteIntensity):
            clahe_slicewise(v, tiles=(2, 2), clip_limit=3.0)
        with pytest.raises(NonFiniteIntensity):
            normalize_intensity(v)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    unsigned = np.dtype(f"u{a.dtype.itemsize}")
    return a.dtype == b.dtype and np.array_equal(a.view(unsigned), b.view(unsigned))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
def test_clahe_equals_per_tile_oracle(rng, dtype, order):
    # 37 x 29 divides by none of the tile counts; slice 1 is constant; unlike
    # the others, the clip limit 2.2 gives thresholds that binary cannot hold
    if dtype == np.float32:
        data = rng.normal(100.0, 25.0, size=(37, 29, 3))
    else:
        data = rng.integers(0, np.iinfo(dtype).max + 1, size=(37, 29, 3))
    data = data.astype(dtype)
    data[:, :, 1] = data[0, 0, 1]
    v = _volume(np.asarray(data, order=order))
    for tiles in ((1, 1), (3, 5), (8, 8)):
        for clip in (1.5, 2.2, 3.0, math.inf):
            expected = per_tile_clahe(v, tiles, clip).data
            assert _same_bits(clahe_slicewise(v, tiles, clip).data, expected), (tiles, clip)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "dtype, top", [(np.uint8, 255), (np.uint16, 200), (np.uint16, 4095), (np.uint16, 40000), (np.float32, None)]
)
def test_clahe_equals_per_tile_oracle_past_one_chunk(rng, dtype, top, order):
    # a 150 x 130 slice is more than one chunk in either memory order, so its
    # last chunk is partial; uint16 tables hold the power of two above ``top``
    dims = (150, 130, 2)
    assert preprocess._CHUNK_PIXELS < 150 * 130
    if dtype == np.float32:
        data = rng.normal(100.0, 25.0, size=dims)
    else:
        data = rng.integers(0, top + 1, size=dims)
    v = _volume(np.asarray(data.astype(dtype), order=order))
    for tiles, clip in (((8, 8), 3.0), ((3, 5), math.inf)):
        expected = per_tile_clahe(v, tiles, clip).data
        assert _same_bits(clahe_slicewise(v, tiles, clip).data, expected), (tiles, clip)


@pytest.mark.parametrize("top", [3, 200, 4095])
def test_clahe_integer_mappings_equal_full_width_ones(monkeypatch, top):
    # the tables hold fewer bins than uint16 has levels, so every mapping
    # entry must equal the full 65,536-bin one bit for bit. numpy's pairwise
    # excess sum runs in turn below 8 bins and splits a width that is not a
    # power of two elsewhere; the rounded pixels almost never show the last
    # bit this moves, so the float64 mappings that ``np.take`` reads are
    # recorded and compared. The level histograms vary from tile to tile
    # (a skew that grows along x and y), as the last bit of a sum depends on
    # how its partial sums round
    tiles, clip = (5, 6), 2.2
    dims = (40, 36, 3)
    skew = np.exp(np.linspace(-2, 2, dims[0])[:, None, None] + np.linspace(-2, 2, dims[1])[:, None])
    data = (np.random.default_rng(top).random(dims) ** skew * (top + 1)).astype(np.uint16)
    data[0, 0, :] = top
    read = []

    class Recording:
        def __getattr__(self, name):
            return getattr(np, name)

        def take(self, a, *args, **kwargs):
            if not read or read[-1] is not a:
                read.append(a)
            return np.take(a, *args, **kwargs)

    monkeypatch.setattr(preprocess, "np", Recording())
    clahe_slicewise(Volume(data), tiles, clip)
    monkeypatch.undo()
    assert len(read) == dims[2]  # one mapping per slice
    for z, mapping in enumerate(read):
        full = tile_mappings(data[:, :, z].astype(np.int64), 65536, tiles, clip).reshape(30, -1)
        got = mapping.reshape(30, -1)
        assert got.shape[1] > top
        assert np.array_equal(got, full[:, : got.shape[1]]), z


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
def test_clahe_memory_is_the_output_plus_slice_buffers(dtype):
    # 16 float64 buffers of a slice are 4 bytes per voxel at 32 slices; 2 x 2
    # tiles keep the tables small. uint16 tables of every level took about 16
    # bytes per voxel more
    dims = (150, 130, 32)
    data = np.random.default_rng(0).integers(0, 200, size=dims).astype(dtype)
    v = Volume(np.asfortranarray(data))
    tracemalloc.start()
    try:
        clahe_slicewise(v, (2, 2), 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < v.nvox * (v.data.itemsize + 4)


@given(
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
    dtype=st.sampled_from([np.uint8, np.uint16, np.float32]),
    span=st.sampled_from([1, 3, 40, 256, 65536]),
    tiles=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    clip=st.one_of(st.just(math.inf), st.floats(1.01, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_clahe_equals_per_tile_oracle_on_random_volumes(dims, dtype, span, tiles, clip, seed):
    values = np.random.default_rng(seed).integers(0, span, size=dims)
    if dtype == np.float32:
        data = (values * 0.37 - 5.0).astype(np.float32)
    else:
        data = np.minimum(values, np.iinfo(dtype).max).astype(dtype)
    v = _volume(data)
    tiles = (min(tiles[0], dims[0]), min(tiles[1], dims[1]))
    assert _same_bits(clahe_slicewise(v, tiles, clip).data, per_tile_clahe(v, tiles, clip).data)


# --- augmentation -----------------------------------------------------------------


def _pair(rng, dims=(12, 12, 8)):
    data = rng.integers(0, 255, size=dims).astype(np.uint8)
    bits = np.zeros(dims, dtype=bool)
    bits[3:9, 2:10, 2:6] = True
    bits[4, 3, 3] = False  # asymmetry so orientation bugs show up
    return Volume(data), Mask(bits)


def test_rotate_zero_is_identity(rng):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, AugmentationSpec(kind="rotate", angle_deg=0.0))
    assert v2 == v and m2 == m


def test_rotate_90_cycles_and_matches_general_path(rng):
    v, m = _pair(rng)
    spec90 = AugmentationSpec(kind="rotate", angle_deg=90.0)
    v1, m1 = apply_augmentation(v, m, spec90)
    out_v, out_m = v, m
    for _ in range(4):
        out_v, out_m = apply_augmentation(out_v, out_m, spec90)
    assert out_v == v and out_m == m

    # the fast 90-degree path and the resampling path agree on the mask
    v_gen, m_gen = apply_augmentation(v, m, AugmentationSpec(kind="rotate", angle_deg=90.0 + 1e-12))
    assert m_gen == m1


def test_rotate_small_angle_keeps_mask_binary_and_near_identity(rng):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, AugmentationSpec(kind="rotate", angle_deg=7.5))
    assert m2.bits.dtype == np.bool_
    assert m2.dims == m.dims
    inter = np.count_nonzero(m2.bits & m.bits)
    assert inter > 0.7 * m.count


def test_flip_involution(rng):
    v, m = _pair(rng)
    for axis in ("x", "y", "z"):
        spec = AugmentationSpec(kind="flip", flip_axis=axis)
        v2, m2 = apply_augmentation(*apply_augmentation(v, m, spec), spec)
        assert v2 == v and m2 == m


def test_flip_preserves_foreground_count(rng):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, AugmentationSpec(kind="flip", flip_axis="y"))
    assert m2.count == m.count


def test_scale_identity_and_shrink(rng):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, AugmentationSpec(kind="perspective-scale", scale=1.0))
    assert v2 == v and m2 == m
    _, m3 = apply_augmentation(v, m, AugmentationSpec(kind="perspective-scale", scale=0.5))
    assert 0 < m3.count < m.count


def test_integer_volumes_round_to_the_float_result():
    # uint16 values over the whole range, resampled by the affine kinds and
    # by elastic: the integer output is the float32 output rounded half-up
    data = (np.arange(20 * 18 * 4).reshape(20, 18, 4) * 97 % 65521).astype(np.uint16)
    m = Mask(np.zeros(data.shape, dtype=bool))
    for spec in (
        AugmentationSpec(kind="rotate", angle_deg=17.0),
        AugmentationSpec(kind="perspective-scale", scale=1.3),
        AugmentationSpec(kind="elastic", magnitude=1.5, seed=2),
    ):
        as_int = apply_augmentation(Volume(data), m, spec)[0].data.astype(np.float64)
        as_float = apply_augmentation(Volume(data.astype(np.float32)), m, spec)[0].data
        assert np.abs(as_int - as_float).max() <= 0.5, spec.kind


def test_elastic_zero_magnitude_is_identity(rng):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, AugmentationSpec(kind="elastic", magnitude=0.0, seed=5))
    assert v2 == v and m2 == m


def test_elastic_is_deterministic(rng):
    v, m = _pair(rng)
    spec = AugmentationSpec(kind="elastic", magnitude=2.0, grid_size=4, seed=123)
    a = apply_augmentation(v, m, spec)
    b = apply_augmentation(v, m, spec)
    assert a[0] == b[0] and a[1] == b[1]
    c = apply_augmentation(v, m, AugmentationSpec(kind="elastic", magnitude=2.0, grid_size=4, seed=124))
    assert c[0] != a[0]


def test_mask_stays_binary_under_all_kinds(rng):
    v, m = _pair(rng)
    for spec in (
        AugmentationSpec(kind="rotate", angle_deg=33.0),
        AugmentationSpec(kind="elastic", magnitude=1.5, seed=9),
        AugmentationSpec(kind="perspective-scale", scale=1.3),
        AugmentationSpec(kind="flip", flip_axis="z"),
    ):
        _, m2 = apply_augmentation(v, m, spec)
        assert m2.bits.dtype == np.bool_


@pytest.mark.parametrize(
    "spec",
    [
        AugmentationSpec(kind="rotate", angle_deg=90.0),
        AugmentationSpec(kind="rotate", angle_deg=33.0),
        AugmentationSpec(kind="elastic", magnitude=1.5, seed=9),
        AugmentationSpec(kind="perspective-scale", scale=1.3),
        AugmentationSpec(kind="flip", flip_axis="y"),
    ],
    ids=["rotate-90", "rotate", "elastic", "perspective-scale", "flip"],
)
def test_augmentation_results_are_x_fastest(rng, spec):
    v, m = _pair(rng)
    v2, m2 = apply_augmentation(v, m, spec)
    assert v2.data.flags.f_contiguous and m2.bits.flags.f_contiguous


def test_invalid_specs():
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8))
    m = Mask(np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="shear"))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="flip", flip_axis="w"))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="rotate", angle_deg=math.nan))


@pytest.mark.parametrize(
    "spec, message",
    [
        (AugmentationSpec(kind=["rotate"]), "unknown augmentation kind ['rotate']"),
        (AugmentationSpec(kind="rotate", angle_deg="x"), "angle_deg must be a finite number, got 'x'"),
        (AugmentationSpec(kind="rotate", angle_deg=None), "angle_deg must be a finite number, got None"),
        (AugmentationSpec(kind="rotate", angle_deg=True), "angle_deg must be a finite number, got True"),
        (AugmentationSpec(kind="rotate", angle_deg=10**400), "angle_deg must be a finite number, got 1000"),
        (AugmentationSpec(kind="perspective-scale", scale="2"), "scale must be a finite number > 0, got '2'"),
        (AugmentationSpec(kind="perspective-scale", scale=math.inf), "scale must be a finite number > 0, got inf"),
        (AugmentationSpec(kind="elastic", magnitude=-1.0), "magnitude must be a finite number >= 0, got -1.0"),
        (AugmentationSpec(kind="elastic", grid_size=2.5), "grid_size must be an integer >= 2, got 2.5"),
        (AugmentationSpec(kind="elastic", seed="a"), "seed must be an integer >= 0, got 'a'"),
        (AugmentationSpec(kind="elastic", seed=-5), "seed must be an integer >= 0, got -5"),
        (AugmentationSpec(kind="flip", flip_axis=0), "flip_axis must be x, y or z, got 0"),
        # a 4 x 4 x 4 grid has 64 voxels, fewer than 5**3 control points
        (AugmentationSpec(kind="elastic", magnitude=1.0, grid_size=5), "grid_size 5 has more control points"),
    ],
)
def test_a_field_of_the_wrong_type_or_range_is_invalid(spec, message):
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8))
    m = Mask(np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(InvalidSpec) as exc:
        apply_augmentation(v, m, spec)
    assert message in str(exc.value)


def test_numpy_scalars_are_numbers_of_their_kind(rng):
    v, m = _pair(rng)
    spec = AugmentationSpec(kind="elastic", magnitude=np.float32(1.0), grid_size=np.int64(3), seed=np.uint8(4))
    plain = AugmentationSpec(kind="elastic", magnitude=1.0, grid_size=3, seed=4)
    assert apply_augmentation(v, m, spec) == apply_augmentation(v, m, plain)


@pytest.mark.parametrize("text", ["[{'kind': 'flip'}]", "[{\"kind\": \"rotate\"", "\udcff"])
def test_a_config_that_is_not_utf8_json_is_invalid(tmp_path, text):
    path = tmp_path / "aug.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(InvalidSpec, match="is not a JSON file"):
        load_augmentation_specs(path)


@pytest.mark.parametrize(
    "spec, field",
    [
        (AugmentationSpec(kind="rotate", scale=2.0), "scale"),
        (AugmentationSpec(kind="rotate", angle_deg=10.0, seed=1), "seed"),
        (AugmentationSpec(kind="flip", flip_axis="y", angle_deg=5.0), "angle_deg"),
        (AugmentationSpec(kind="perspective-scale", scale=1.2, grid_size=3), "grid_size"),
        (AugmentationSpec(kind="elastic", magnitude=1.0, flip_axis="z"), "flip_axis"),
    ],
)
def test_a_field_the_kind_does_not_read_is_rejected_in_process(spec, field):
    v = Volume(np.zeros((4, 4, 4), dtype=np.float32))
    m = Mask(np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(InvalidSpec, match=rf"kind '{spec.kind}' does not read \['{field}'\]"):
        apply_augmentation(v, m, spec)


def test_augment_shifts_only_elastic_seeds(rng):
    v, m = _pair(rng)
    rotate = AugmentationSpec(kind="rotate", angle_deg=33.0)
    assert augment(v, m, [rotate], seed=7) == apply_augmentation(v, m, rotate)


def test_augment_applies_specs_in_order_with_shifted_seeds(rng):
    v, m = _pair(rng)
    specs = [
        AugmentationSpec(kind="flip", flip_axis="x"),
        AugmentationSpec(kind="elastic", magnitude=1.0, grid_size=3, seed=11),
    ]
    sv, sm = augment(v, m, specs, seed=102)
    ev, em = apply_augmentation(v, m, specs[0])
    shifted = AugmentationSpec(kind="elastic", magnitude=1.0, grid_size=3, seed=113)
    ev, em = apply_augmentation(ev, em, shifted)
    assert sv == ev and sm == em
    assert augment(v, m, specs, seed=102)[0] == sv
    assert augment(v, m, specs, seed=103)[0] != sv
    assert augment(v, m, [], seed=5) == (v, m)


def test_flip_only_augment_preserves_count(rng):
    v, m = _pair(rng)
    for seed in range(3):
        _, mm = augment(v, m, [AugmentationSpec(kind="flip", flip_axis="x")], seed=seed)
        assert mm.count == m.count


def test_load_augmentation_specs(tmp_path):
    path = tmp_path / "aug.json"
    path.write_text(json.dumps([
        {"kind": "rotate", "angle_deg": 10.0},
        {"kind": "flip", "flip_axis": "y"},
    ]))
    specs = load_augmentation_specs(path)
    assert [s.kind for s in specs] == ["rotate", "flip"]

    path.write_text(json.dumps([{"kind": "rotate", "angel": 10.0}]))
    with pytest.raises(InvalidSpec):
        load_augmentation_specs(path)


@pytest.mark.parametrize(
    "entry, key",
    [
        ({"kind": "rotate", "scale": 2.0}, "scale"),
        ({"kind": "rotate", "angle_deg": 10.0, "seed": 1}, "seed"),
        ({"kind": "flip", "flip_axis": "x", "angle_deg": 5.0}, "angle_deg"),
        ({"kind": "perspective-scale", "magnitude": 1.0}, "magnitude"),
        ({"kind": "elastic", "magnitude": 1.0, "flip_axis": "y"}, "flip_axis"),
    ],
)
def test_a_key_the_kind_does_not_read_is_rejected(tmp_path, entry, key):
    path = tmp_path / "aug.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(InvalidSpec, match=rf"kind '{entry['kind']}' does not read \['{key}'\]"):
        load_augmentation_specs(path)
