import numpy as np
import pytest

from labench.errors import EmptyMask, NoForeground, NonFiniteIntensity
from labench.grids import Mask, Volume
from labench.metrics import dice
from labench.phantom import cohort_member, default_phantom_spec, generate
from labench.pipeline import (
    MaskSegmenter,
    ThresholdSegmenter,
    crop,
    localize_oracle,
    localize_threshold,
    max_noloss_displacement,
    offset_sweep,
    otsu_threshold,
    patch_size_sweep,
    run_pipeline,
)

from conftest import mask_from, random_blob_mask


def _blob_volume(dims=(40, 36, 28), lo=(14, 12, 9), hi=(26, 24, 19), bright=800.0, dark=100.0):
    bits = np.zeros(dims, dtype=bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    data = np.where(bits, bright, dark).astype(np.float32)
    return Volume(data), Mask(bits)


def _box_mask(dims, box):
    keep = np.zeros(dims, dtype=bool)
    keep[box] = True
    return keep


# --- crop -----------------------------------------------------------------------


def test_crop_whole_volume_is_identity():
    v, m = _blob_volume()
    center = tuple(n // 2 for n in v.dims)
    patch, box = crop(v, center, v.dims)
    assert patch == v
    assert box == tuple(slice(0, n) for n in v.dims)


def test_crop_then_uncrop_of_foreground_inside_box():
    v, m = _blob_volume()
    patch, box = crop(m, (3, 30, 14), (20, 20, 16))
    # origin (-7, 20, 6): x is clipped below, y above, z fits
    assert box == (slice(0, 13), slice(20, 36), slice(6, 22))
    assert np.array_equal(patch.bits, m.bits[box])
    assert np.shares_memory(patch.bits, m.bits)
    assert np.shares_memory(MaskSegmenter(m)(None, box).bits, m.bits)

    # foreground inside the box: pasting the patch back restores the mask
    patch, box = crop(m, localize_oracle(m), (20, 20, 16))
    restored = np.zeros(m.dims, dtype=bool)
    restored[box] = patch.bits
    assert np.array_equal(restored, m.bits)

    # foreground partially outside the box: exactly the in-box voxels survive
    patch, box = crop(m, (14, 12, 9), (20, 20, 16))
    partial = np.zeros(m.dims, dtype=bool)
    partial[box] = patch.bits
    assert np.array_equal(partial, m.bits & _box_mask(m.dims, box))
    assert 0 < partial.sum() < m.count


def test_crop_uncrop_round_trip_in_bounds(rng):
    for _ in range(40):
        m = random_blob_mask(rng, dims=(24, 24, 24))
        size = tuple(int(w) for w in rng.integers(1, 40, 3))
        center = tuple(int(c) for c in rng.integers(-16, 40, 3))
        patch, box = crop(m, center, size)
        # the grid indices the box covers, one axis at a time
        covered = [
            [i for i in range(n) if c - w // 2 <= i < c - w // 2 + w]
            for c, w, n in zip(center, size, m.dims)
        ]
        if all(covered):
            assert box == tuple(slice(ix[0], ix[-1] + 1) for ix in covered)
            assert np.array_equal(patch.bits, m.bits[box])
            restored = np.zeros(m.dims, dtype=bool)
            restored[box] = patch.bits
            assert np.array_equal(restored, m.bits & _box_mask(m.dims, box))
        else:
            assert patch is None
            assert any(sl.start == sl.stop for sl in box)


def test_roi_deeper_than_grid_in_z_segments_the_in_grid_part():
    # 20 of the ROI's 48 slices lie off the 28-slice grid: zero padding there
    # would draw Otsu's threshold between the padding and the tissue
    v, m = _blob_volume(bright=500.0, dark=300.0)
    center = localize_oracle(m)
    pred = run_pipeline(v, center, ThresholdSegmenter(), (24, 24, 48))
    _, box = crop(v, center, (24, 24, 48))
    assert box[2] == slice(0, 28)
    direct = np.zeros(v.dims, dtype=bool)
    direct[box] = ThresholdSegmenter()(Volume(v.data[box]), box).bits
    assert np.array_equal(pred.bits, direct)
    assert pred == m


def test_box_off_grid_gives_empty_mask_without_segmenting():
    v, m = _blob_volume()

    def never(patch, box):
        raise AssertionError("segmenter called on a box that misses the grid")

    for center in ((80, 18, 14), (-30, 18, 14), (20, 18, 60)):
        patch, box = crop(v, center, (24, 24, 20))
        assert patch is None
        pred = run_pipeline(v, center, never, (24, 24, 20))
        assert pred.dims == v.dims and pred.is_empty


# --- localizers ---------------------------------------------------------------


def test_localize_oracle_examples():
    bits = np.zeros((32, 32, 40), dtype=bool)
    bits[10, 20, 30] = True
    assert localize_oracle(Mask(bits)) == (10, 20, 30)

    cube = np.zeros((31, 31, 31), dtype=bool)
    cube[10:21, 10:21, 10:21] = True  # symmetric around 15
    assert localize_oracle(Mask(cube)) == (15, 15, 15)

    with pytest.raises(EmptyMask):
        localize_oracle(mask_from(np.zeros((4, 4, 4))))


def test_localize_oracle_l_shape_rounds_half_up():
    bits = np.zeros((8, 8, 8), dtype=bool)
    bits[0, 0, 0] = bits[1, 0, 0] = bits[0, 1, 0] = True
    # mean indices (1/3, 1/3, 0) -> rounds to (0, 0, 0)
    assert localize_oracle(Mask(bits)) == (0, 0, 0)
    bits2 = np.zeros((8, 8, 8), dtype=bool)
    bits2[0, 0, 0] = bits2[1, 0, 0] = True  # mean 0.5 -> rounds half-up to 1
    assert localize_oracle(Mask(bits2)) == (1, 0, 0)


def test_localize_oracle_translation_equivariance(rng):
    m = random_blob_mask(rng, dims=(16, 16, 16))
    c = localize_oracle(m)
    shifted = np.zeros((24, 24, 24), dtype=bool)
    shifted[5:21, 3:19, 7:23] = m.bits
    c2 = localize_oracle(Mask(shifted))
    assert c2 == (c[0] + 5, c[1] + 3, c[2] + 7)


def test_localize_threshold_finds_bright_blob():
    v, m = _blob_volume()
    found = localize_threshold(v, downsample_factor=2)
    truth_c = localize_oracle(m)
    assert all(abs(f - t) <= 1 for f, t in zip(found, truth_c))


def test_localize_threshold_prefers_larger_component():
    dims = (48, 32, 24)
    data = np.full(dims, 50.0, dtype=np.float32)
    data[4:20, 8:24, 4:20] = 900.0  # large blob, center (12, 16, 12)
    data[40:44, 8:12, 4:8] = 900.0  # small blob
    found = localize_threshold(Volume(data), downsample_factor=2)
    assert all(abs(f - t) <= 1 for f, t in zip(found, (11, 15, 11)))


def test_localize_threshold_rejects_a_zero_factor():
    with pytest.raises(ValueError):
        localize_threshold(_blob_volume()[0], 0)


def test_localize_threshold_tie_goes_to_first_component_in_x_fastest_order():
    # two equal blobs: the one at high x, low z comes first in x-fastest
    # order, the one at low x, high z in C order
    data = np.full((20, 8, 20), 50.0, dtype=np.float32)
    data[2:6, 2:6, 14:18] = 900.0
    data[14:18, 2:6, 2:6] = 900.0
    assert localize_threshold(Volume(data), downsample_factor=1) == (16, 4, 4)


def test_localize_threshold_uniform_volume_errors():
    v = Volume(np.full((16, 16, 16), 5.0, dtype=np.float32))
    with pytest.raises(NoForeground):
        localize_threshold(v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_threshold_localizer_and_segmenter_name_a_non_finite_scan(bad):
    v, m = _blob_volume()
    data = np.array(v.data)
    data[20, 18, 14] = bad
    scan = Volume(data)
    with pytest.raises(NonFiniteIntensity):
        otsu_threshold(data)
    with pytest.raises(NonFiniteIntensity):
        localize_threshold(scan)
    with pytest.raises(NonFiniteIntensity):
        run_pipeline(scan, localize_oracle(m), ThresholdSegmenter(), (24, 24, 24))


# --- pipeline ------------------------------------------------------------------


def test_oracle_pipeline_is_exact():
    v, m = _blob_volume()
    pred = run_pipeline(v, localize_oracle(m), MaskSegmenter(m), (24, 24, 24))
    assert dice(pred, m) == 1.0
    assert pred.dims == v.dims
    assert pred.bits.flags.f_contiguous  # x-fastest, as written to NRRD


def test_threshold_segmenter_on_a_constant_patch_is_empty_and_x_fastest():
    patch = Volume(np.full((6, 5, 4), 7.0, dtype=np.float32))
    out = ThresholdSegmenter()(patch, tuple(slice(0, n) for n in patch.dims))
    assert out.is_empty and out.dims == patch.dims
    assert out.bits.flags.f_contiguous


def test_threshold_segmenter_exact_on_noiseless_phantom():
    spec = default_phantom_spec(
        dims=(64, 64, 40), spacing=(1.0, 1.0, 1.0), sigma_fg=0.0, sigma_bg=0.0
    )
    v, m = generate(spec)
    pred = run_pipeline(v, localize_oracle(m), ThresholdSegmenter(), (48, 40, 32))
    assert dice(pred, m) == 1.0


def test_smoothed_threshold_segment_equals_one_from_the_default_filter_output():
    # the segmenter filters into an x-fastest buffer; scipy's default output is
    # C-ordered, and the values, so the mask, must be the same bits
    from scipy import ndimage

    from labench.postprocess import StructuringElement, close_mask, largest_component

    v, m = generate(default_phantom_spec(dims=(64, 64, 40), spacing=(1.0, 1.0, 1.0)))
    patch, box = crop(v, localize_oracle(m), (48, 40, 32))
    smooth = ndimage.gaussian_filter(patch.data.astype(np.float64), 1.5)
    raw = Mask(smooth > otsu_threshold(smooth), patch.spacing)
    want = close_mask(largest_component(raw, connectivity=26), StructuringElement("cross", 1))
    got = ThresholdSegmenter(smooth_sigma=1.5)(patch, box)
    assert not want.is_empty
    assert np.array_equal(got.bits, want.bits)
    assert got.bits.flags.f_contiguous


@pytest.mark.parametrize("tier", ["high", "medium"])
def test_smoothing_rescues_the_threshold_segmenter_on_noisy_members(tier):
    # voxel noise breaks the Otsu mask into speckle, whose largest component
    # misses most of the atrium; a Gaussian of one voxel first restores it
    from scipy import ndimage

    from labench.postprocess import StructuringElement, close_mask, largest_component

    v, m = cohort_member(default_phantom_spec((96, 96, 40)), 7, tier)
    center, roi = localize_oracle(m), (48, 40, 24)
    assert dice(run_pipeline(v, center, ThresholdSegmenter(), roi), m) < 0.1
    assert dice(run_pipeline(v, center, ThresholdSegmenter(smooth_sigma=1.0), roi), m) >= 0.9
    patch, box = crop(v, center, roi)
    smooth = ndimage.gaussian_filter(patch.data.astype(np.float64), 1.0)
    raw = Mask(smooth > otsu_threshold(smooth), patch.spacing)
    want = close_mask(largest_component(raw, connectivity=26), StructuringElement("cross", 1))
    assert ThresholdSegmenter(smooth_sigma=1.0)(patch, box) == want


def test_fixed_center_on_off_center_phantom_matches_inbox_bound():
    dims = (40, 40, 24)
    bits = np.zeros(dims, dtype=bool)
    bits[2:12, 2:12, 2:12] = True  # far off center
    m = Mask(bits)
    v = Volume(np.where(bits, 500.0, 10.0).astype(np.float32))
    roi = (16, 16, 16)
    center = tuple(n // 2 for n in v.dims)
    pred = run_pipeline(v, center, MaskSegmenter(m), roi)
    patch, _ = crop(m, center, roi)
    k = patch.count
    assert dice(pred, m) == pytest.approx(2 * k / (m.count + k), abs=1e-15)


def test_pipeline_dice_bound_on_seeded_placements(rng):
    v, m = _blob_volume()
    roi = (18, 18, 14)
    for _ in range(20):
        center = tuple(int(rng.integers(0, n)) for n in v.dims)
        patch, _ = crop(m, center, roi)
        k = patch.count
        pred = run_pipeline(v, center, MaskSegmenter(m), roi)
        expected = 1.0 if m.count == 0 and k == 0 else 2 * k / (m.count + k)
        assert dice(pred, m) == pytest.approx(expected, abs=1e-15)


# --- sweeps ----------------------------------------------------------------------


def test_offset_sweep_oracle_values():
    v, m = _blob_volume()
    roi = (24, 24, 20)
    curve = offset_sweep(v, m, MaskSegmenter(m), roi, offsets=(0, 50, 100, 125, 150))
    by_pct = dict(curve)
    assert by_pct[0.0] == 1.0
    assert by_pct[50.0] == 1.0
    assert by_pct[100.0] == 1.0  # pressed against the side, no loss
    assert by_pct[125.0] < 1.0
    # past 100% the dice equals the in-box voxel-count bound
    d100 = max_noloss_displacement(m, roi, 0)
    c = localize_oracle(m)
    d = int(np.floor(1.25 * d100 + 0.5))
    patch, _ = crop(m, (c[0] + d, c[1], c[2]), roi)
    k = patch.count
    assert by_pct[125.0] == pytest.approx(2 * k / (m.count + k), abs=1e-15)


def test_offset_sweep_non_increasing_for_convex_mask():
    v, m = _blob_volume()
    curve = offset_sweep(
        v, m, MaskSegmenter(m), (24, 24, 20), offsets=tuple(range(0, 201, 20))
    )
    dices = [d for _, d in curve]
    assert all(a >= b - 1e-15 for a, b in zip(dices, dices[1:]))


def test_offset_sweep_empty_truth_errors():
    v, m = _blob_volume()
    empty = mask_from(np.zeros(v.dims))
    with pytest.raises(EmptyMask):
        offset_sweep(v, empty, MaskSegmenter(m), (8, 8, 8), offsets=(0,))


def test_patch_size_sweep_trends():
    dims = (64, 64, 30)
    bits = np.zeros(dims, dtype=bool)
    bits[22:42, 26:38, 8:22] = True  # 20 x 12 x 14 block at center
    m = Mask(bits)
    sizes = [(56, 56), (48, 48), (40, 40), (32, 24)]
    rows = patch_size_sweep(m, sizes, z_extent=24)
    bg = [r[2] for r in rows]
    containment = [r[3] for r in rows]
    assert all(a > b for a, b in zip(bg, bg[1:]))  # strictly decreasing
    assert all(c == 100.0 for c in containment)

    # a box smaller than the mask cannot contain it
    rows_small = patch_size_sweep(m, [(10, 10)], z_extent=24)
    assert rows_small[0][3] < 100.0


def test_patch_size_sweep_whole_volume_background_share():
    dims = (32, 32, 22)
    bits = np.zeros(dims, dtype=bool)
    bits[12:20, 12:20, 8:14] = True
    m = Mask(bits)
    rows = patch_size_sweep(m, [(32, 32)], z_extent=22)
    wx, wy, bg_pct, cont = rows[0]
    assert cont == 100.0
    assert bg_pct == pytest.approx(100.0 * (1 - m.count / (32 * 32 * 22)), abs=1e-12)
