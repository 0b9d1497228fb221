import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labench import metrics
from labench.errors import DegenerateTruth, GeometryMismatch
from labench.grids import Mask, boxes
from labench.metrics import dice, evaluate_case, surface_voxels

from conftest import mask_from, random_blob_mask
from oracles import (
    brute_force_hd,
    brute_force_stsd,
    counting_dice,
    counting_iou,
    counting_sens_spec,
    full_grid_evaluate_case,
    surface_points,
)


def _cube(dims, lo, hi, spacing=(1.0, 1.0, 1.0)):
    bits = np.zeros(dims, dtype=bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return Mask(bits, spacing)


def test_dice_identity_and_disjoint():
    a = _cube((8, 8, 8), (1, 1, 1), (4, 4, 4))
    b = _cube((8, 8, 8), (5, 5, 5), (7, 7, 7))
    assert dice(a, a) == 1.0
    assert dice(a, b) == 0.0


def test_dice_shifted_cube_is_half():
    a = _cube((8, 8, 8), (2, 2, 2), (4, 4, 4))  # 2x2x2 cube
    b = _cube((8, 8, 8), (3, 2, 2), (5, 4, 4))  # shifted +1 in x
    assert dice(a, b) == 0.5
    assert dice(a, b) == counting_dice(a, b)


def test_empty_masks_dice_and_iou():
    e = mask_from(np.zeros((4, 4, 4)))
    assert dice(e, e) == 1.0
    # IoU is only scored against a truth with foreground
    with pytest.raises(DegenerateTruth):
        evaluate_case(e, e)


def test_iou_shifted_cube_and_identity_relation():
    a = _cube((8, 8, 8), (2, 2, 2), (4, 4, 4))
    b = _cube((8, 8, 8), (3, 2, 2), (5, 4, 4))
    c = evaluate_case(b, a)
    assert c.iou == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert c.iou == counting_iou(b, a)
    assert c.iou == pytest.approx(c.dice / (2.0 - c.dice), abs=1e-15)


def test_published_mean_pair_consistency():
    # printed team means: 93.2 dice vs 87.4 iou; the identity holds within
    # half a point even though means of ratios are not exactly related
    d = 0.932
    assert d / (2 - d) == pytest.approx(0.874, abs=0.005)


def test_geometry_mismatch_raises():
    a = mask_from(np.zeros((4, 4, 4)))
    b = mask_from(np.zeros((4, 4, 5)))
    for fn in (dice, evaluate_case):
        with pytest.raises(GeometryMismatch):
            fn(a, b)


def test_sensitivity_specificity_examples():
    truth = _cube((10, 10, 10), (0, 0, 0), (10, 1, 1))  # 10 voxels in 1000
    pred_bits = np.zeros((10, 10, 10), dtype=bool)
    pred_bits[0:9, 0, 0] = True  # 9 of the 10 true voxels
    pred_bits[5, 5, 5] = pred_bits[6, 5, 5] = pred_bits[7, 5, 5] = True  # 3 false
    pred = mask_from(pred_bits)
    c = evaluate_case(pred, truth)
    # TP 9, FN 1, FP 3, TN 987
    assert c.sensitivity == 0.9
    assert c.specificity == 987 / 990
    assert (c.sensitivity, c.specificity) == counting_sens_spec(pred, truth)
    assert (c.volume_pred_cm3, c.volume_true_cm3) == (12 / 1000.0, 10 / 1000.0)

    c = evaluate_case(truth, truth)
    assert (c.sensitivity, c.specificity) == (1.0, 1.0)

    c = evaluate_case(mask_from(np.zeros((10, 10, 10))), truth)
    assert (c.sensitivity, c.specificity) == (0.0, 1.0)


def test_degenerate_truth():
    empty = mask_from(np.zeros((4, 4, 4)))
    full = mask_from(np.ones((4, 4, 4)))
    some = _cube((4, 4, 4), (1, 1, 1), (2, 2, 2))
    with pytest.raises(DegenerateTruth):
        evaluate_case(empty, empty)
    with pytest.raises(DegenerateTruth):
        evaluate_case(some, empty)
    with pytest.raises(DegenerateTruth):
        evaluate_case(full, full)


def test_surface_definition_matches_neighbor_enumeration(rng):
    m = random_blob_mask(rng, dims=(16, 16, 16))
    ours = set(map(tuple, surface_voxels(m, boxes(m.bits, 1)).T))
    oracle = set(map(tuple, surface_points(m).astype(int)))
    assert ours == oracle


def test_surface_includes_grid_border():
    # in a 2-thick grid every voxel has an out-of-grid 6-neighbor
    slab = mask_from(np.ones((2, 4, 4)))
    assert surface_voxels(slab, boxes(slab.bits, 1)).shape == (3, 2 * 4 * 4)
    # in a full 3x3x3 grid only the center voxel is interior
    full = mask_from(np.ones((3, 3, 3)))
    surf = surface_voxels(full, boxes(full.bits, 1))
    assert (1, 1, 1) not in set(map(tuple, surf.T.tolist()))
    assert surf.shape == (3, 26)


def test_surface_of_interleaved_boxes_is_c_ordered_in_nonzero_order():
    # two blobs side by side along y share their x range, so their boxes
    # interleave in x-slowest order and the voxels must be sorted together
    bits = np.zeros((12, 20, 8), dtype=bool)
    bits[2:9, 1:7, 1:6] = True
    bits[3:11, 10:18, 2:7] = True
    m = mask_from(bits)
    parts = boxes(m.bits, 1)
    assert len(parts) == 2
    at = surface_voxels(m, parts)
    assert np.array_equal(at, surface_points(m).T)
    assert at.flags.c_contiguous


def test_hausdorff_examples():
    dims = (8, 8, 8)
    a = _cube(dims, (0, 0, 0), (1, 1, 1))
    assert evaluate_case(a, a).hd_mm == 0.0
    b = _cube(dims, (3, 4, 0), (4, 5, 1))
    assert evaluate_case(a, b).hd_mm == 5.0
    a625 = _cube(dims, (0, 0, 0), (1, 1, 1), spacing=(0.625, 0.625, 0.625))
    b625 = _cube(dims, (3, 4, 0), (4, 5, 1), spacing=(0.625, 0.625, 0.625))
    assert evaluate_case(a625, b625).hd_mm == pytest.approx(3.125, abs=1e-12)


def test_hausdorff_is_the_larger_directed_distance():
    dims = (16, 4, 4)
    a = _cube(dims, (0, 0, 0), (12, 1, 1))
    b = _cube(dims, (0, 0, 0), (1, 1, 1))
    # B lies on A's surface (directed 0), A's far end is 11 from B
    assert evaluate_case(a, b).hd_mm == 11.0
    assert evaluate_case(b, a).hd_mm == 11.0


def test_stsd_examples():
    dims = (6, 6, 6)
    a = _cube(dims, (1, 1, 1), (2, 2, 2))
    assert evaluate_case(a, a).stsd_mm == 0.0
    b = _cube(dims, (2, 1, 1), (3, 2, 2))
    assert evaluate_case(a, b).stsd_mm == 1.0


def test_distance_transform_equals_brute_force(rng):
    for _ in range(12):
        a = random_blob_mask(rng, dims=(20, 20, 20), spacing=(0.7, 1.0, 1.3))
        b = random_blob_mask(rng, dims=(20, 20, 20), spacing=(0.7, 1.0, 1.3))
        c = evaluate_case(a, b)
        assert c.hd_mm == pytest.approx(brute_force_hd(a, b), abs=1e-9)
        assert c.stsd_mm == pytest.approx(brute_force_stsd(a, b), abs=1e-9)


@pytest.mark.parametrize("spacing", [(0.5, 1.0, 2.0), (0.7, 0.9, 1.3), (0.7, 0.7, 0.7), (0.625, 0.625, 2.5)])
def test_offsets_are_every_offset_up_to_the_longest_in_order(spacing):
    # counted in a box twice as wide: an offset left out is longer, as float
    offsets, sq = metrics._offsets(spacing)
    r = 2 * np.abs(offsets).max(axis=1) + 1
    wide = np.indices(2 * r + 1).reshape(3, -1) - r[:, None]
    assert set(map(tuple, offsets.T)) == set(map(tuple, wide[:, metrics._sq_mm(wide, spacing) <= sq[-1]].T))
    assert np.array_equal(sq, metrics._sq_mm(offsets, spacing))
    assert (np.diff(sq) >= 0).all()
    reach = metrics._REACH * min(spacing)  # the longest is the reach along the finest axis
    assert sq[-1] == reach * reach
    assert tuple(offsets[:, 0]) == (0, 0, 0)


@pytest.mark.parametrize("shells", [None, math.inf], ids=["default", "every_offset"])
@pytest.mark.parametrize("spacing", [(0.5, 1.0, 2.0), (0.7, 0.9, 1.3), (0.7, 0.7, 0.7)])
def test_near_search_equals_brute_force(monkeypatch, spacing, shells):
    # random sources; queries within the reach's box of a source, out to
    # three times the reach, and on either side of the source hull grown
    # by the reach; a single source first. Without the early stop, the
    # search finds exactly the queries with a source within reach.
    monkeypatch.setattr(metrics, "_PAIRS_PER_VOXEL", math.inf)
    if shells:
        monkeypatch.setattr(metrics, "_SHELLS", shells)
    rng = np.random.default_rng(1231)
    offsets, sq = metrics._offsets(spacing)
    reach = np.abs(offsets).max(axis=1)
    for n in (1, 2, 5, 40, 300):
        source = rng.integers(0, 16, size=(3, n)) + 3 * reach[:, None]
        lo, hi = source.min(axis=1), source.max(axis=1)
        parts = [
            source[:, rng.integers(0, n, size=300)] + rng.integers(-reach, reach + 1, size=(300, 3)).T,
            rng.integers(lo - 3 * reach, hi + 3 * reach + 1, size=(100, 3)).T,
        ]
        for ax in range(3):
            for at in (lo[ax] - reach[ax] - 1, lo[ax] - reach[ax], hi[ax] + reach[ax], hi[ax] + reach[ax] + 1):
                edge = rng.integers(lo, hi + 1, size=(20, 3)).T
                edge[ax] = at
                parts.append(edge)
        query = np.hstack(parts)
        want = metrics._sq_mm(source[:, None] - query[:, :, None], spacing).min(axis=1)
        near = metrics._near(source, query, spacing)
        found = near < np.inf
        assert found.any()
        assert np.array_equal(near[found], want[found])
        if shells:
            assert np.array_equal(found, want <= sq[-1])
        assert np.array_equal(metrics._distances_to(source, query, spacing), np.sqrt(want))


def _far_heavy() -> tuple[Mask, Mask]:
    # thresholded noise in a box beside a blob truth: most of the noise's
    # surface lies beyond the near search's reach of the truth
    dims, spacing = (48, 40, 32), (0.7, 0.9, 1.3)
    rng = np.random.default_rng(5)
    truth = np.zeros(dims, dtype=bool)
    truth[6:20, 8:30, 6:26] = True
    pred = np.zeros(dims, dtype=bool)
    pred[16:46, 4:38, 2:30] = rng.random((30, 34, 28)) < 0.3
    return Mask(pred, spacing), Mask(truth, spacing)


def test_far_heavy_prediction_takes_the_transform_and_equals_full_grid(monkeypatch):
    p, t = _far_heavy()
    transformed = []
    call = metrics._transformed
    monkeypatch.setattr(metrics, "_transformed", lambda *args: transformed.append(1) or call(*args))
    assert evaluate_case(p, t) == full_grid_evaluate_case(p, t)
    assert transformed


def test_far_heavy_prediction_keeps_one_copy_of_the_far_queries():
    # 6,559 of the prediction's 8,640 surface voxels go to the transform; one
    # copy of them (24 B each) peaks at 20.2 bytes per grid voxel, and a
    # second would lift that to 22.7
    p, t = _far_heavy()
    evaluate_case(p, t)  # scipy's first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        evaluate_case(p, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 21.5 * p.nvox


def test_evaluate_case_memory_is_bounded_by_the_box():
    # a compact blob plus two corner cubes: the union box spans the grid,
    # but surfaces are found per island box and the feature transforms run
    # where the masks meet, so nothing spans it
    dims, spacing = (128, 128, 64), (0.7, 0.9, 1.3)
    truth = np.zeros(dims, dtype=bool)
    truth[40:80, 50:90, 20:45] = True
    pred = np.roll(truth, (2, -1, 1), axis=(0, 1, 2))
    pred[1:4, 1:4, 1:4] = True
    pred[-4:-1, -4:-1, -4:-1] = True
    p, t = Mask(pred, spacing), Mask(truth, spacing)
    tracemalloc.start()
    try:
        evaluate_case(p, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * pred.size


def test_diameter_examples():
    one = _cube((4, 4, 4), (2, 1, 1), (3, 2, 2), spacing=(0.625, 1.0, 1.0))
    c = evaluate_case(one, one)
    assert c.diameter_pred_mm == c.diameter_true_mm == 0.625

    dims = (256, 4, 4)
    span = _cube(dims, (100, 0, 0), (200, 1, 1), spacing=(0.625, 1.0, 1.0))
    assert evaluate_case(span, span).diameter_true_mm == pytest.approx(62.5)

    mirrored = Mask(np.ascontiguousarray(span.bits[::-1]), span.spacing)
    c = evaluate_case(mirrored, span)
    assert c.diameter_pred_mm == c.diameter_true_mm
    assert c.diameter_err_pct == 0.0

    # the diameter is the x extent, however long the mask is along y or z
    across = Mask(np.ascontiguousarray(span.bits.transpose(1, 0, 2)), (1.0, 0.625, 1.0))
    assert evaluate_case(across, across).diameter_true_mm == 1.0
    # an empty prediction has no extent
    assert evaluate_case(mask_from(np.zeros(dims), span.spacing), span).diameter_pred_mm == 0.0


def test_volume_examples():
    s = (0.625, 0.625, 0.625)
    eight = _cube((4, 4, 4), (0, 0, 0), (2, 2, 2), spacing=s)
    c = evaluate_case(mask_from(np.zeros((4, 4, 4)), s), eight)
    assert c.volume_pred_cm3 == 0.0
    # the count times the voxel volume, in that order
    assert c.volume_true_cm3 == 8 * 0.625 * 0.625 * 0.625 / 1000.0
    assert c.volume_true_cm3 == pytest.approx(0.001953125, abs=1e-15)
    # additivity over disjoint parts
    other = _cube((4, 4, 4), (2, 2, 2), (4, 4, 4), spacing=s)
    union = Mask(eight.bits | other.bits, s)
    assert evaluate_case(union, union).volume_true_cm3 == pytest.approx(
        evaluate_case(eight, union).volume_pred_cm3 + evaluate_case(other, union).volume_pred_cm3,
        abs=1e-15,
    )


def test_evaluate_case_identity():
    truth = _cube((12, 12, 12), (3, 3, 3), (9, 9, 9), spacing=(0.625, 0.625, 0.625))
    c = evaluate_case(truth, truth)
    assert c.dice == 1.0 and c.iou == 1.0
    assert c.hd_mm == 0.0 and c.stsd_mm == 0.0
    assert c.diameter_err_pct == 0.0 and c.volume_err_pct == 0.0


def test_evaluate_case_composes_individual_metrics(rng):
    dims = (20, 20, 20)
    truth = random_blob_mask(rng, dims=dims, spacing=(0.8, 0.9, 1.1))
    shifted = np.zeros(dims, dtype=bool)
    shifted[1:, :, :] = truth.bits[:-1, :, :]
    pred = Mask(shifted, truth.spacing)
    c = evaluate_case(pred, truth)
    assert c.dice == dice(pred, truth) == counting_dice(pred, truth)
    assert c.iou == counting_iou(pred, truth)
    assert (c.sensitivity, c.specificity) == counting_sens_spec(pred, truth)
    assert c.hd_mm == pytest.approx(brute_force_hd(pred, truth), abs=1e-9)
    assert c.stsd_mm == pytest.approx(brute_force_stsd(pred, truth), abs=1e-9)
    xs = np.nonzero(pred.bits)[0]
    assert c.diameter_pred_mm == (xs.max() - xs.min() + 1) * 0.8
    sx, sy, sz = pred.spacing
    assert c.volume_pred_cm3 == int(pred.bits.sum()) * sx * sy * sz / 1000.0
    assert c.diameter_err_pct == pytest.approx(
        100.0 * abs(c.diameter_pred_mm - c.diameter_true_mm) / c.diameter_true_mm
    )


def test_evaluate_case_empty_prediction_has_absent_distances():
    truth = _cube((8, 8, 8), (2, 2, 2), (6, 6, 6))
    c = evaluate_case(mask_from(np.zeros((8, 8, 8))), truth)
    assert c.dice == 0.0
    assert c.hd_mm is None and c.stsd_mm is None
    assert c.diameter_err_pct == 100.0 and c.volume_err_pct == 100.0


@given(st.integers(0, 2**31 - 1))
def test_symmetry_and_identity_chain(seed):
    rng = np.random.default_rng(seed)
    a = random_blob_mask(rng, dims=(10, 10, 10))
    b = random_blob_mask(rng, dims=(10, 10, 10))
    ab, ba = evaluate_case(a, b), evaluate_case(b, a)
    assert dice(a, b) == dice(b, a) == ab.dice == ba.dice
    assert ab.iou == ba.iou
    assert (ab.hd_mm, ab.stsd_mm) == (ba.hd_mm, ba.stsd_mm)
    d, j = ab.dice, ab.iou
    assert j == pytest.approx(d / (2.0 - d), abs=1e-12)
    assert d >= j


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 2.0, 3.0]))
def test_spacing_covariance(seed, c):
    rng = np.random.default_rng(seed)
    a = random_blob_mask(rng, dims=(12, 12, 12))
    b = random_blob_mask(rng, dims=(12, 12, 12))
    scaled = tuple(c * s for s in a.spacing)
    m, m2 = evaluate_case(a, b), evaluate_case(Mask(a.bits, scaled), Mask(b.bits, scaled))
    assert (m2.dice, m2.iou) == (m.dice, m.iou)
    assert m2.hd_mm == pytest.approx(c * m.hd_mm, rel=1e-12)
    assert m2.stsd_mm == pytest.approx(c * m.stsd_mm, rel=1e-12)
    assert m2.diameter_pred_mm == pytest.approx(c * m.diameter_pred_mm, rel=1e-12)
    assert m2.volume_pred_cm3 == pytest.approx(c**3 * m.volume_pred_cm3, rel=1e-12)


@given(st.integers(0, 2**31 - 1), st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_translation_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    small = random_blob_mask(rng, dims=(8, 8, 8))
    dims = (14, 14, 14)

    def place(offset, source):
        bits = np.zeros(dims, dtype=bool)
        bits[offset[0]:offset[0] + 8, offset[1]:offset[1] + 8, offset[2]:offset[2] + 8] = source.bits
        return Mask(bits)

    other = random_blob_mask(rng, dims=(8, 8, 8))
    c0 = evaluate_case(place((0, 0, 0), small), place((0, 0, 0), other))
    c1 = evaluate_case(place(shift, small), place(shift, other))
    assert (c1.dice, c1.iou) == (c0.dice, c0.iou)
    assert c1.hd_mm == pytest.approx(c0.hd_mm, abs=1e-12)
    assert c1.stsd_mm == pytest.approx(c0.stsd_mm, abs=1e-12)
    assert c1.volume_pred_cm3 == c0.volume_pred_cm3
