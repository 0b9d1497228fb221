import tracemalloc

import numpy as np
import pytest

from labench.errors import DegenerateContrast, EmptyBackground, EmptyInput, EmptyMask, NonFiniteIntensity
from labench.grids import Mask, Volume
from labench.nrrd_io import read_nrrd, write_nrrd
from labench.phantom import cohort_member, default_phantom_spec
from labench.quality import QualityReport, assess_quality, quality_band, quality_distribution


def _two_level_phantom(dims=(20, 20, 12), fg_slice=None):
    bits = np.zeros(dims, dtype=bool)
    fg_slice = fg_slice or (slice(6, 14), slice(6, 14), slice(3, 9))
    bits[fg_slice] = True
    return bits


def _direct_stats(values):
    # independent mean/std by explicit summation
    n = len(values)
    mu = sum(values) / n
    var = sum((v - mu) ** 2 for v in values) / n
    return mu, var**0.5


def test_noiseless_phantom():
    bits = _two_level_phantom()
    data = np.where(bits, 200.0, 100.0).astype(np.float32)
    report = assess_quality(Volume(data), Mask(bits), margin=0)
    assert report.het == 0.0
    assert report.snr == 0.0
    assert report.cr == 2.0
    assert report.band == "high"


def test_seeded_gaussian_regions_match_direct_summation():
    rng = np.random.default_rng(42)
    bits = _two_level_phantom()
    data = rng.normal(100.0, 20.0, size=bits.shape)
    data[bits] = rng.normal(200.0, 20.0, size=int(bits.sum()))
    scan = Volume(data.astype(np.float32))
    report = assess_quality(scan, Mask(bits), margin=0)

    fg_vals = [float(v) for v in scan.data[bits]]
    bg_vals = [float(v) for v in scan.data[~bits]]
    mu_fg, sd_fg = _direct_stats(fg_vals)
    mu_bg, sd_bg = _direct_stats(bg_vals)
    assert report.snr == pytest.approx(sd_bg / (mu_fg - mu_bg), rel=1e-12)
    assert report.cr == pytest.approx(mu_fg / mu_bg, rel=1e-12)
    assert report.het == pytest.approx(sd_fg / mu_fg, rel=1e-12)
    assert report.snr == pytest.approx(0.2, abs=0.02)
    assert report.band == "high"


def test_noisy_background_lands_in_low_band():
    rng = np.random.default_rng(7)
    bits = _two_level_phantom()
    data = rng.normal(100.0, 80.0, size=bits.shape)
    data[bits] = rng.normal(120.0, 10.0, size=int(bits.sum()))
    report = assess_quality(Volume(data.astype(np.float32)), Mask(bits), margin=0)
    assert report.snr > 3.0
    assert report.band == "low"


def test_margin_dilation_and_edge_exclusion():
    # foreground margin pulls the rim into the fg region; background stats
    # exclude the margin-wide frame at the grid edge
    bits = _two_level_phantom()
    data = np.where(bits, 200.0, 100.0)
    edge_value = 10000.0
    data[0, :, :] = edge_value  # would wreck sigma_bg if included
    report = assess_quality(Volume(data.astype(np.float32)), Mask(bits), margin=2)
    assert report.snr == 0.0


def test_scale_covariance():
    rng = np.random.default_rng(3)
    bits = _two_level_phantom()
    data = rng.normal(100.0, 15.0, size=bits.shape)
    data[bits] = rng.normal(260.0, 30.0, size=int(bits.sum()))
    base = assess_quality(Volume(data.astype(np.float32)), Mask(bits))
    scaled = assess_quality(Volume((3.0 * data).astype(np.float32)), Mask(bits))
    assert scaled.snr == pytest.approx(base.snr, rel=1e-6)
    assert scaled.cr == pytest.approx(base.cr, rel=1e-6)
    assert scaled.het == pytest.approx(base.het, rel=1e-6)


def test_scale_covariance_exact_in_float64_statistics():
    # float32 storage limits the achievable match above; the statistic
    # itself is scale-free to 1e-12 when the input scaling is lossless
    rng = np.random.default_rng(4)
    bits = _two_level_phantom()
    data = rng.integers(80, 120, size=bits.shape).astype(np.float64)
    data[bits] = rng.integers(200, 260, size=int(bits.sum()))
    a = assess_quality(Volume(data.astype(np.float32)), Mask(bits))
    b = assess_quality(Volume((data * 4.0).astype(np.float32)), Mask(bits))
    assert b.snr == pytest.approx(a.snr, rel=1e-12)
    assert b.cr == pytest.approx(a.cr, rel=1e-12)
    assert b.het == pytest.approx(a.het, rel=1e-12)


def test_uniform_offset_decreases_cr():
    bits = _two_level_phantom()
    data = np.where(bits, 200.0, 100.0).astype(np.float32)
    base = assess_quality(Volume(data), Mask(bits), margin=0)
    shifted = assess_quality(Volume(data + np.float32(50.0)), Mask(bits), margin=0)
    assert shifted.cr < base.cr


def test_band_boundaries_go_to_medium():
    assert quality_band(0.999) == "high"
    assert quality_band(1.0) == "medium"
    assert quality_band(3.0) == "medium"
    assert quality_band(3.001) == "low"


def test_degenerate_contrast():
    bits = _two_level_phantom()
    data = np.where(bits, 100.0, 200.0).astype(np.float32)  # inverted contrast
    with pytest.raises(DegenerateContrast):
        assess_quality(Volume(data), Mask(bits), margin=0)


@pytest.mark.parametrize("bg", [0.0, -10.0])
def test_nonpositive_background_mean_is_degenerate_contrast(bg):
    # a 0/1 mask scored as its own scan has background mean 0
    bits = _two_level_phantom()
    data = np.where(bits, 1.0, bg).astype(np.float32)
    with pytest.raises(DegenerateContrast, match="background mean"):
        assess_quality(Volume(data), Mask(bits), margin=0)


def test_empty_mask_and_empty_background():
    data = np.zeros((4, 4, 4), dtype=np.float32)
    with pytest.raises(EmptyMask):
        assess_quality(Volume(data), Mask(np.zeros((4, 4, 4), dtype=bool)))
    full = np.ones((4, 4, 4), dtype=bool)
    with pytest.raises(EmptyBackground):
        assess_quality(Volume(data), Mask(full), margin=0)
    single = np.zeros((4, 4, 4), dtype=bool)
    single[1, 1, 1] = True
    with pytest.raises(EmptyBackground):  # the edge exclusion takes the whole grid
        assess_quality(Volume(data), Mask(single), margin=2)


@pytest.mark.parametrize("seed, tier", [(1, "high"), (2, "medium"), (3, "low")])
def test_report_is_the_same_for_any_layout_of_the_scan(seed, tier):
    # one scan held C-ordered and x-fastest: every field equal, to the bit
    scan, la = cohort_member(default_phantom_spec((96, 96, 40)), seed, tier)
    want = assess_quality(scan, la)
    for given in (np.ascontiguousarray(scan.data), np.asfortranarray(scan.data)):
        assert assess_quality(Volume(given, scan.spacing), la) == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(2, 2, 2), (10, 10, 6), (0, 0, 0)], ids=["background", "foreground", "frame"])
def test_a_non_finite_voxel_where_quality_is_measured_is_named(bad, where):
    bits = _two_level_phantom()
    data = np.where(bits, 200.0, 100.0).astype(np.float32)
    data[(12, 12, 6)] = 190.0
    data[where] = bad
    if where == (0, 0, 0):  # in the edge frame, which the margin leaves out
        assert assess_quality(Volume(data), Mask(bits), margin=1).band == "high"
        return
    with pytest.raises(NonFiniteIntensity):
        assess_quality(Volume(data), Mask(bits), margin=1)


def test_assess_quality_memory_is_bounded_by_the_plane(tmp_path):
    # the background is summed one float64 plane at a time, so beside the
    # foreground box nothing grid-sized is made: 1.0 bytes per grid voxel
    # at 128x128x64, where a grid-sized mask, gather and float64 copy took
    # 13.8
    dims = (128, 128, 64)
    bits = np.zeros(dims, dtype=bool)
    bits[40:80, 50:90, 20:45] = True
    data = np.random.default_rng(5).normal(100.0, 20.0, size=dims).astype(np.float32)
    data[bits] += 300.0
    write_nrrd(Volume(data), tmp_path / "scan.nrrd")
    scan = read_nrrd(tmp_path / "scan.nrrd", as_mask=False)
    assert scan.data.flags.f_contiguous  # x-fastest, as read
    la = Mask(bits)
    tracemalloc.start()
    try:
        assess_quality(scan, la)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * bits.size


def test_quality_distribution():
    def report(snr):
        return QualityReport(snr=snr, cr=2.0, het=0.1, band=quality_band(snr))

    dist = quality_distribution([report(0.5)] * 4)
    assert dist["high"] == (4, 1.0)
    assert dist["medium"] == (0, 0.0)

    dist = quality_distribution([report(0.5), report(2.0), report(4.0)])
    assert [dist[band][0] for band in ("high", "medium", "low")] == [1, 1, 1]

    reports = [report(0.5)] * 15 + [report(2.0)] * 70 + [report(4.0)] * 15
    dist = quality_distribution(reports)
    assert [dist[band][1] for band in ("high", "medium", "low")] == [0.15, 0.70, 0.15]

    with pytest.raises(EmptyInput):
        quality_distribution([])
