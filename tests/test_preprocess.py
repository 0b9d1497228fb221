import json
import math

import numpy as np
import pytest

from labench.errors import ConstantVolume, InvalidSpec, TooManyTiles
from labench.grids import Mask, Volume
from labench.preprocess import (
    AugmentationSpec,
    apply_augmentation,
    augment,
    clahe_slicewise,
    load_augmentation_specs,
    normalize_intensity,
)

from oracles import equalize_by_rank


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


def test_invalid_specs():
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8))
    m = Mask(np.zeros((4, 4, 4), dtype=bool))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="shear"))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="flip", flip_axis="w"))
    with pytest.raises(InvalidSpec):
        apply_augmentation(v, m, AugmentationSpec(kind="rotate", angle_deg=math.nan))


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
        {"kind": "rotate", "angle_deg": 10.0, "seed": 1},
        {"kind": "flip", "flip_axis": "y"},
    ]))
    specs = load_augmentation_specs(path)
    assert [s.kind for s in specs] == ["rotate", "flip"]

    path.write_text(json.dumps([{"kind": "rotate", "angel": 10.0}]))
    with pytest.raises(InvalidSpec):
        load_augmentation_specs(path)
