import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labench.errors import DegenerateTruth, EmptyMask, GeometryMismatch
from labench.grids import Mask
from labench.metrics import (
    confusion_counts,
    dice,
    dice_profile_z,
    evaluate_case,
    hausdorff_mm,
    iou,
    la_diameter_mm,
    la_volume_cm3,
    sensitivity_specificity,
    stsd_mm,
    surface_voxels,
)

from conftest import mask_from, random_blob_mask
from oracles import (
    brute_force_hd,
    brute_force_stsd,
    counting_dice,
    counting_iou,
    counting_sens_spec,
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
    assert iou(e, e) == 1.0


def test_iou_shifted_cube_and_identity_relation():
    a = _cube((8, 8, 8), (2, 2, 2), (4, 4, 4))
    b = _cube((8, 8, 8), (3, 2, 2), (5, 4, 4))
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)
    d = dice(a, b)
    assert iou(a, b) == pytest.approx(d / (2.0 - d), abs=1e-15)


def test_published_mean_pair_consistency():
    # printed team means: 93.2 dice vs 87.4 iou; the identity holds within
    # half a point even though means of ratios are not exactly related
    d = 0.932
    assert d / (2 - d) == pytest.approx(0.874, abs=0.005)


def test_geometry_mismatch_raises():
    a = mask_from(np.zeros((4, 4, 4)))
    b = mask_from(np.zeros((4, 4, 5)))
    for fn in (dice, iou, stsd_mm):
        with pytest.raises(GeometryMismatch):
            fn(a, b)


def test_sensitivity_specificity_examples():
    truth = _cube((10, 10, 10), (0, 0, 0), (10, 1, 1))  # 10 voxels in 1000
    pred_bits = np.zeros((10, 10, 10), dtype=bool)
    pred_bits[0:9, 0, 0] = True  # 9 of the 10 true voxels
    pred_bits[5, 5, 5] = pred_bits[6, 5, 5] = pred_bits[7, 5, 5] = True  # 3 false
    pred = mask_from(pred_bits)
    sens, spec, counts = sensitivity_specificity(pred, truth)
    assert sens == 0.9
    assert spec == 987 / 990
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (9, 1, 3, 987)
    assert counts.total == 1000
    assert (sens, spec) == counting_sens_spec(pred, truth)

    sens, spec, _ = sensitivity_specificity(truth, truth)
    assert (sens, spec) == (1.0, 1.0)

    empty = mask_from(np.zeros((10, 10, 10)))
    sens, spec, _ = sensitivity_specificity(empty, truth)
    assert (sens, spec) == (0.0, 1.0)


def test_degenerate_truth():
    empty = mask_from(np.zeros((4, 4, 4)))
    full = mask_from(np.ones((4, 4, 4)))
    with pytest.raises(DegenerateTruth):
        sensitivity_specificity(empty, empty)
    with pytest.raises(DegenerateTruth):
        sensitivity_specificity(full, full)


def test_surface_definition_matches_neighbor_enumeration(rng):
    m = random_blob_mask(rng, dims=(16, 16, 16))
    ours = set(map(tuple, np.argwhere(surface_voxels(m))))
    oracle = set(map(tuple, surface_points(m).astype(int)))
    assert ours == oracle


def test_surface_includes_grid_border():
    # in a 2-thick grid every voxel has an out-of-grid 6-neighbor
    assert surface_voxels(mask_from(np.ones((2, 4, 4)))).all()
    # in a full 3x3x3 grid only the center voxel is interior
    surf = surface_voxels(mask_from(np.ones((3, 3, 3))))
    assert not surf[1, 1, 1]
    assert surf.sum() == 26


def test_hausdorff_examples():
    dims = (8, 8, 8)
    a = _cube(dims, (0, 0, 0), (1, 1, 1))
    assert hausdorff_mm(a, a) == 0.0
    b = _cube(dims, (3, 4, 0), (4, 5, 1))
    assert hausdorff_mm(a, b) == 5.0
    a625 = _cube(dims, (0, 0, 0), (1, 1, 1), spacing=(0.625, 0.625, 0.625))
    b625 = _cube(dims, (3, 4, 0), (4, 5, 1), spacing=(0.625, 0.625, 0.625))
    assert hausdorff_mm(a625, b625) == pytest.approx(3.125, abs=1e-12)


def test_hausdorff_is_the_larger_directed_distance():
    dims = (16, 4, 4)
    a = _cube(dims, (0, 0, 0), (12, 1, 1))
    b = _cube(dims, (0, 0, 0), (1, 1, 1))
    # B lies on A's surface (directed 0), A's far end is 11 from B
    assert hausdorff_mm(a, b) == 11.0
    assert hausdorff_mm(a, b) == hausdorff_mm(b, a)


def test_stsd_examples():
    dims = (6, 6, 6)
    a = _cube(dims, (1, 1, 1), (2, 2, 2))
    assert stsd_mm(a, a) == 0.0
    b = _cube(dims, (2, 1, 1), (3, 2, 2))
    assert stsd_mm(a, b) == 1.0


def test_empty_mask_distance_errors():
    e = mask_from(np.zeros((4, 4, 4)))
    a = _cube((4, 4, 4), (1, 1, 1), (2, 2, 2))
    with pytest.raises(EmptyMask):
        hausdorff_mm(a, e)
    with pytest.raises(EmptyMask):
        stsd_mm(e, a)


def test_distance_transform_equals_brute_force(rng):
    for _ in range(12):
        a = random_blob_mask(rng, dims=(20, 20, 20), spacing=(0.7, 1.0, 1.3))
        b = random_blob_mask(rng, dims=(20, 20, 20), spacing=(0.7, 1.0, 1.3))
        assert hausdorff_mm(a, b) == pytest.approx(brute_force_hd(a, b), abs=1e-9)
        assert stsd_mm(a, b) == pytest.approx(brute_force_stsd(a, b), abs=1e-9)


def test_evaluate_case_memory_is_bounded_by_the_box():
    # a compact blob plus two corner cubes: the union box spans the grid,
    # so only the feature transforms may take grid-sized memory
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
    assert peak < 20 * pred.size


def test_diameter_examples():
    one = _cube((4, 4, 4), (2, 1, 1), (3, 2, 2), spacing=(0.625, 1.0, 1.0))
    assert la_diameter_mm(one) == 0.625

    dims = (256, 4, 4)
    span = _cube(dims, (100, 0, 0), (200, 1, 1), spacing=(0.625, 1.0, 1.0))
    assert la_diameter_mm(span) == pytest.approx(62.5)

    mirrored = Mask(np.ascontiguousarray(span.bits[::-1]), span.spacing)
    assert la_diameter_mm(mirrored) == la_diameter_mm(span)

    assert la_diameter_mm(span, axis="y") == 1.0
    with pytest.raises(EmptyMask):
        la_diameter_mm(mask_from(np.zeros((4, 4, 4))))


def test_volume_examples():
    s = (0.625, 0.625, 0.625)
    assert la_volume_cm3(mask_from(np.zeros((4, 4, 4)), s)) == 0.0
    eight = _cube((4, 4, 4), (0, 0, 0), (2, 2, 2), spacing=s)
    assert la_volume_cm3(eight) == pytest.approx(0.001953125, abs=1e-15)
    # additivity over disjoint parts
    other = _cube((4, 4, 4), (2, 2, 2), (4, 4, 4), spacing=s)
    union = Mask(eight.bits | other.bits, s)
    assert la_volume_cm3(union) == pytest.approx(
        la_volume_cm3(eight) + la_volume_cm3(other), abs=1e-15
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
    sens, spec, _ = sensitivity_specificity(pred, truth)
    assert c.dice == dice(pred, truth)
    assert c.iou == iou(pred, truth)
    assert (c.sensitivity, c.specificity) == (sens, spec)
    assert c.hd_mm == hausdorff_mm(pred, truth)
    assert c.stsd_mm == stsd_mm(pred, truth)
    assert c.diameter_pred_mm == la_diameter_mm(pred)
    assert c.volume_pred_cm3 == la_volume_cm3(pred)
    assert c.diameter_err_pct == pytest.approx(
        100.0 * abs(c.diameter_pred_mm - c.diameter_true_mm) / c.diameter_true_mm
    )


def test_evaluate_case_empty_prediction_has_absent_distances():
    truth = _cube((8, 8, 8), (2, 2, 2), (6, 6, 6))
    c = evaluate_case(mask_from(np.zeros((8, 8, 8))), truth)
    assert c.dice == 0.0
    assert c.hd_mm is None and c.stsd_mm is None
    assert c.diameter_err_pct == 100.0 and c.volume_err_pct == 100.0


def test_dice_profile_identity_and_undefined_slices():
    dims = (10, 10, 88)
    truth = _cube(dims, (2, 2, 11), (8, 8, 82))  # occupies z in [11, 81]
    profile = dice_profile_z(truth, truth)
    assert len(profile) == 88
    defined = [z for z, v in profile if v is not None]
    # 1-based slices 12..82 in the paper's counting
    assert defined == list(range(11, 82))
    assert all(v == 1.0 for z, v in profile if v is not None)


def test_dice_profile_single_slice_disagreement():
    dims = (6, 6, 4)
    a = _cube(dims, (0, 0, 1), (4, 1, 2))  # 4 voxels at z=1
    b = _cube(dims, (2, 0, 1), (6, 1, 2))  # 4 voxels, overlap 2
    profile = dict(dice_profile_z(a, b))
    assert profile[1] == pytest.approx(2 * 2 / 8)
    assert profile[0] is None and profile[2] is None


@given(st.integers(0, 2**31 - 1))
def test_symmetry_and_identity_chain(seed):
    rng = np.random.default_rng(seed)
    a = random_blob_mask(rng, dims=(10, 10, 10))
    b = random_blob_mask(rng, dims=(10, 10, 10))
    assert dice(a, b) == dice(b, a)
    assert iou(a, b) == iou(b, a)
    d, j = dice(a, b), iou(a, b)
    assert j == pytest.approx(d / (2.0 - d), abs=1e-12)
    assert d >= j
    if d not in (0.0,) and a != b:
        assert d > j or d == j


@given(st.integers(0, 2**31 - 1), st.sampled_from([0.5, 2.0, 3.0]))
def test_spacing_covariance(seed, c):
    rng = np.random.default_rng(seed)
    a = random_blob_mask(rng, dims=(12, 12, 12))
    b = random_blob_mask(rng, dims=(12, 12, 12))
    scaled = tuple(c * s for s in a.spacing)
    a2, b2 = Mask(a.bits, scaled), Mask(b.bits, scaled)
    assert dice(a2, b2) == dice(a, b)
    assert iou(a2, b2) == iou(a, b)
    assert hausdorff_mm(a2, b2) == pytest.approx(c * hausdorff_mm(a, b), rel=1e-12)
    assert stsd_mm(a2, b2) == pytest.approx(c * stsd_mm(a, b), rel=1e-12)
    assert la_diameter_mm(a2) == pytest.approx(c * la_diameter_mm(a), rel=1e-12)
    assert la_volume_cm3(a2) == pytest.approx(c**3 * la_volume_cm3(a), rel=1e-12)


@given(st.integers(0, 2**31 - 1), st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
def test_translation_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    small = random_blob_mask(rng, dims=(8, 8, 8))
    dims = (14, 14, 14)

    def place(offset):
        bits = np.zeros(dims, dtype=bool)
        bits[offset[0]:offset[0] + 8, offset[1]:offset[1] + 8, offset[2]:offset[2] + 8] = small.bits
        return Mask(bits)

    def place2(offset, source):
        bits = np.zeros(dims, dtype=bool)
        bits[offset[0]:offset[0] + 8, offset[1]:offset[1] + 8, offset[2]:offset[2] + 8] = source.bits
        return Mask(bits)

    other = random_blob_mask(rng, dims=(8, 8, 8))
    a0, b0 = place2((0, 0, 0), small), place2((0, 0, 0), other)
    a1, b1 = place2(shift, small), place2(shift, other)
    assert dice(a1, b1) == dice(a0, b0)
    assert hausdorff_mm(a1, b1) == pytest.approx(hausdorff_mm(a0, b0), abs=1e-12)
    assert stsd_mm(a1, b1) == pytest.approx(stsd_mm(a0, b0), abs=1e-12)
    assert la_volume_cm3(a1) == la_volume_cm3(a0)


def test_confusion_counts_sum_to_grid(rng):
    a = random_blob_mask(rng, dims=(9, 9, 9))
    b = random_blob_mask(rng, dims=(9, 9, 9))
    assert confusion_counts(a, b).total == 9 * 9 * 9
