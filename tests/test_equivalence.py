"""The foreground-box scoring path against the full-grid references.

``evaluate_case`` and ``assess_quality`` confine their work to the
foreground box; every value they return must equal, bit for bit, the one
the full-grid code in ``tests/oracles.py`` computes.
"""

import numpy as np
import pytest
from scipy import ndimage

from labench.grids import Mask, Volume
from labench.metrics import evaluate_case
from labench.phantom import default_phantom_spec, generate
from labench.quality import assess_quality
from oracles import full_grid_assess_quality, full_grid_evaluate_case

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


INPUTS = {"phantom": _phantom, "stray": _stray, "border": _border}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def case(request):
    scan, truth, pred = INPUTS[request.param]()
    return scan, Mask(truth, SPACING), Mask(pred, SPACING)


@pytest.mark.parametrize("axis", ["x", "z"])
def test_evaluate_case_equals_full_grid(case, axis):
    _, truth, pred = case
    empty = Mask(np.zeros(DIMS, dtype=bool), SPACING)
    for p in (pred, truth, empty):
        assert evaluate_case(p, truth, axis) == full_grid_evaluate_case(p, truth, axis)


@pytest.mark.parametrize("margin", [0, 1, 3])
def test_assess_quality_equals_full_grid(case, margin):
    scan, truth, pred = case
    for la in (truth, pred):
        assert assess_quality(scan, la, margin) == full_grid_assess_quality(scan, la, margin)
