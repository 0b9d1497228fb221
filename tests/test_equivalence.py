"""The foreground-box scoring path against the full-grid references.

``evaluate_case`` and ``assess_quality`` confine their work to the
foreground box; every value they return must equal, bit for bit, the one
the full-grid code in ``tests/oracles.py`` computes, except the quality
SNR and CR, which sum the background in another order and must agree to
1e-12 relative. The quality foreground's numpy dilation must equal
scipy's, box and region. Surface distances come from a near search of
sorted offsets, and the surface voxels it leaves are measured pair by pair
or by the feature transform; the tests force that split with a reach of
one voxel, once with every fallback pair by pair and once by transform.
"""

import functools
import math

import numpy as np
import pytest
from scipy import ndimage

from conftest import random_blob_mask
from labench import metrics
from labench.errors import EmptyBackground
from labench.grids import Mask, Volume
from labench.metrics import evaluate_case
from labench.phantom import default_phantom_spec, generate
from labench.quality import assess_quality, foreground_region
from oracles import full_grid_assess_quality, full_grid_evaluate_case, scipy_foreground_region

DIMS = (64, 60, 40)
SPACING = (1.0, 1.1, 1.25)


def _phantom():
    # a shifted, thinned prediction of a default phantom; the prediction is
    # Fortran-ordered as read from NRRD, the truth C-ordered as generated
    scan, truth = generate(default_phantom_spec(dims=DIMS, spacing=SPACING, seed=3))
    moved = np.roll(truth.bits, (2, -1, 1), axis=(0, 1, 2))
    pred = np.asfortranarray(ndimage.binary_erosion(moved))
    return scan, truth.bits, pred


def _stray():
    # a compact prediction plus two cubes at opposite corners: the box spans the grid
    scan, truth, pred = _phantom()
    pred[1:4, 1:4, 1:4] = True
    pred[-4:-1, -4:-1, -4:-1] = True
    return scan, truth, pred


def _displaced():
    # the prediction moved past the overlap box's growth
    scan, truth, _ = _phantom()
    return scan, truth, np.roll(truth, 8, axis=0)


def _stray_truth():
    # the islands are on the truth side
    scan, truth, pred = _phantom()
    truth = truth.copy()
    truth[1:4, -4:-1, 1:4] = True
    truth[-4:-1, 1:4, -4:-1] = True
    return scan, truth, pred


def _disjoint():
    # the two mask boxes do not meet, so there is no overlap box
    scan, truth, _ = _phantom()
    pred = np.zeros(DIMS, dtype=bool)
    pred[-6:-1, -7:-2, -5:-1] = True
    pred[-4, -5, -3] = False
    return scan, truth, pred


def _border():
    # truth touches the x = 0 and z = max faces, the prediction the y faces
    truth = np.zeros(DIMS, dtype=bool)
    truth[0:20, 10:40, 25:] = True
    truth[5:12, 30:50, 15:25] = True
    pred = np.zeros(DIMS, dtype=bool)
    pred[2:22, 0:35, 22:38] = True
    pred[10:30, 40:, 5:10] = True
    rng = np.random.default_rng(7)
    data = rng.normal(200.0, 60.0, size=DIMS)
    data[truth] = rng.normal(600.0, 40.0, size=int(truth.sum()))
    return Volume(data.astype(np.float32), SPACING), truth, pred


INPUTS = {
    "phantom": _phantom,
    "stray": _stray,
    "border": _border,
    "displaced": _displaced,
    "stray_truth": _stray_truth,
    "disjoint": _disjoint,
}


# the inputs whose prediction overlaps the scan's foreground enough to
# have a contrast; the others test surface distances only
QUALITY_INPUTS = ("border", "phantom", "stray")


def _masks(name):
    scan, truth, pred = INPUTS[name]()
    return scan, Mask(truth, SPACING), Mask(pred, SPACING)


@pytest.fixture(scope="module", params=sorted(INPUTS))
def case(request):
    return _masks(request.param)


@pytest.fixture(scope="module", params=QUALITY_INPUTS)
def quality_case(request):
    return _masks(request.param)


@pytest.mark.parametrize("axis", ["x", "z"])
def test_evaluate_case_equals_full_grid(case, axis):
    # the diameter is the x extent; "z" swaps the case's x and z axes, so
    # that the diameter spans what was its z extent
    _, truth, pred = case
    if axis == "z":
        truth, pred = (Mask(np.swapaxes(m.bits, 0, 2), m.spacing[::-1]) for m in (truth, pred))
    empty = Mask(np.zeros(truth.dims, dtype=bool), truth.spacing)
    for p in (pred, truth, empty):
        assert evaluate_case(p, truth) == full_grid_evaluate_case(p, truth)


def _assert_quality_equal(scan, la, margin):
    # the background is summed z plane by z plane, so SNR and CR may differ
    # from the C-order gather in the last bits; HET and the band may not
    for order in ("C", "F"):
        ordered = Volume(np.asarray(scan.data, order=order), scan.spacing)
        got = assess_quality(ordered, la, margin)
        want = full_grid_assess_quality(ordered, la, margin)
        assert got.het == want.het
        assert got.band == want.band
        assert got.snr == pytest.approx(want.snr, rel=1e-12)
        assert got.cr == pytest.approx(want.cr, rel=1e-12)


@pytest.mark.parametrize("margin", [0, 1, 3])
def test_assess_quality_equals_full_grid(quality_case, margin):
    scan, truth, pred = quality_case
    for la in (truth, pred):
        _assert_quality_equal(scan, la, margin)


@pytest.mark.parametrize("margin", [0, 1, 3])
def test_assess_quality_equals_full_grid_with_box_flush_with_the_frame(margin):
    # the foreground box (mask box grown by margin) starts on the interior's
    # low x face and ends on its high z face; a second island's box runs
    # past the interior on the high y face
    bits = np.zeros(DIMS, dtype=bool)
    bits[2 * margin : 2 * margin + 9, 12:30, DIMS[2] - 2 * margin - 10 : DIMS[2] - 2 * margin] = True
    bits[30:40, -3:, 5:12] = True
    rng = np.random.default_rng(11)
    data = rng.normal(200.0, 50.0, size=DIMS)
    data[bits] = rng.normal(700.0, 60.0, size=int(bits.sum()))
    _assert_quality_equal(Volume(data.astype(np.float32), SPACING), Mask(bits, SPACING), margin)


def test_assess_quality_without_interior_has_no_background(quality_case):
    # a frame of 20 voxels leaves no interior on the 40-voxel z axis
    scan, truth, pred = quality_case
    for order in ("C", "F"):
        ordered = Volume(np.asarray(scan.data, order=order), scan.spacing)
        for la in (truth, pred):
            with pytest.raises(EmptyBackground):
                assess_quality(ordered, la, 20)
            with pytest.warns(RuntimeWarning):  # numpy's mean of no values
                assert math.isnan(full_grid_assess_quality(ordered, la, 20).snr)


def _assert_foreground_equal(bits, margin):
    box, region = foreground_region(bits, margin)
    want_box, want_region = scipy_foreground_region(bits, margin)
    assert box == want_box
    assert region.shape == want_region.shape
    assert np.array_equal(region, want_region)
    if margin > 0:
        assert not np.shares_memory(region, bits)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("margin", range(5))
def test_foreground_region_equals_scipy_on_random_masks(order, margin):
    rng = np.random.default_rng(1000 + margin)
    for _ in range(40):
        shape = tuple(rng.integers(1, 14, size=3))
        bits = np.asarray(rng.random(shape) < rng.uniform(0.02, 0.3), order=order)
        if bits.any():
            _assert_foreground_equal(bits, margin)


@pytest.mark.parametrize("margin", [1, 2, 4])
@pytest.mark.parametrize("face", range(6))
def test_foreground_region_equals_scipy_on_islands_at_each_face(face, margin):
    # an island flush with one grid face, so the grown box is clipped there
    bits = np.zeros((11, 9, 7), dtype=bool)
    axis, end = divmod(face, 2)
    at = [slice(3, 6), slice(3, 6), slice(2, 5)]
    at[axis] = slice(0, 2) if end == 0 else slice(bits.shape[axis] - 2, None)
    bits[tuple(at)] = True
    bits[tuple(s.start for s in at)] = False  # not a plain cuboid
    box, _ = foreground_region(bits, margin)
    assert (box[axis].start == 0) if end == 0 else (box[axis].stop == bits.shape[axis])
    _assert_foreground_equal(bits, margin)


@pytest.mark.parametrize("margin", range(5))
def test_foreground_region_equals_scipy_on_thin_grids(margin):
    _assert_foreground_equal(np.ones((1, 1, 1), dtype=bool), margin)
    for axis in range(3):
        shape = [9, 8, 7]
        shape[axis] = 1
        slab = np.zeros(shape, dtype=bool)
        slab[tuple(n // 2 for n in shape)] = True
        slab[tuple(n - 1 for n in shape)] = True
        _assert_foreground_equal(slab, margin)
        _assert_foreground_equal(np.asfortranarray(slab), margin)


# the near search's reach and the fallbacks' cost per regime: the default,
# and a reach of one voxel with every far query measured pair by pair or by
# the feature transform
REGIMES = {
    "default": {},
    "pairs": {"_REACH": 1, "_PAIRS_PER_VOXEL": math.inf},
    "transform": {"_REACH": 1, "_PAIRS_PER_VOXEL": 0},
}


def _counted(count, name, call, *args):
    count[name] += 1
    return call(*args)


def _in_each_regime(monkeypatch, check):
    """Run ``check()`` in each regime; the calls of each exact fallback, by regime."""
    calls = {}
    for regime, settings in REGIMES.items():
        count = calls[regime] = {"_pairwise": 0, "_transformed": 0}
        with monkeypatch.context() as patch:
            for attr, value in settings.items():
                patch.setattr(metrics, attr, value)
            for name in count:
                patch.setattr(metrics, name, functools.partial(_counted, count, name, getattr(metrics, name)))
            check()
    return calls


def test_forced_split_equals_full_grid(case, monkeypatch):
    _, truth, pred = case
    want = [full_grid_evaluate_case(p, truth) for p in (pred, truth)]

    def check():
        assert [evaluate_case(p, truth) for p in (pred, truth)] == want

    # a reach of one voxel leaves queries in both directions of the
    # prediction against the truth, and none when the truth meets itself
    calls = _in_each_regime(monkeypatch, check)
    assert calls["pairs"] == {"_pairwise": 2, "_transformed": 0}
    assert calls["transform"] == {"_pairwise": 0, "_transformed": 2}


SPACINGS = [
    (0.7, 0.9, 1.3), (1.0, 1.1, 1.25), (1.25, 1.25, 1.25), (0.625, 0.625, 2.5),
    (0.7, 0.7, 0.7), (1.1, 1.1, 2.3),
]


def test_split_equals_full_grid_on_random_pairs(monkeypatch):
    # blobs with rough surfaces, shifted apart by up to 10 voxels, with
    # corner islands on either side, at non-dyadic and dyadic spacings;
    # equal spacings let offsets tie exactly and round apart as floats
    rng = np.random.default_rng(412314)
    pairs = []
    for i in range(240):
        dims = tuple(int(n) for n in rng.integers(18, 30, size=3))
        spacing = SPACINGS[i % len(SPACINGS)]
        truth = random_blob_mask(rng, dims, spacing).bits.copy()
        pred = np.roll(truth, tuple(rng.integers(-10, 11, size=3)), axis=(0, 1, 2))
        for bits in (b for b in (pred, truth) if rng.random() < 0.5):
            for corner in rng.integers(0, 2, size=(int(rng.integers(1, 3)), 3)):
                at = tuple(slice(0, 2) if c == 0 else slice(-2, None) for c in corner)
                bits[at] = True
        pairs.append((Mask(pred, spacing), Mask(truth, spacing)))

    want = [full_grid_evaluate_case(p, t) for p, t in pairs]

    def check():
        for i, (p, t) in enumerate(pairs):
            assert evaluate_case(p, t) == want[i], (i, p.spacing)

    # a reach of one voxel leaves queries in every direction: 480 calls
    calls = _in_each_regime(monkeypatch, check)
    assert calls["pairs"]["_pairwise"] >= 480
    assert calls["transform"]["_transformed"] >= 480
