import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from labench import postprocess
from labench.grids import Mask, boxes
from labench.metrics import surface_voxels
from labench.postprocess import (
    StructuringElement,
    close_mask,
    dilate,
    erode,
    largest_component,
    open_mask,
    smooth_surface,
)

from conftest import mask_from
from oracles import (
    _full_grid_surface,
    full_grid_close_mask,
    full_grid_dilate,
    full_grid_erode,
    full_grid_largest_component,
    full_grid_open_mask,
    full_grid_smooth_surface,
)


def _flood_fill_components(bits, connectivity):
    """Independent component enumeration by explicit flood fill."""
    if connectivity == 6:
        neighbors = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    else:
        neighbors = [
            (dx, dy, dz)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)
        ]
    seen = np.zeros_like(bits, dtype=bool)
    components = []
    nx, ny, nz = bits.shape
    for start in zip(*np.nonzero(bits)):
        if seen[start]:
            continue
        stack, comp = [start], set()
        seen[start] = True
        while stack:
            x, y, z = stack.pop()
            comp.add((x, y, z))
            for dx, dy, dz in neighbors:
                j = (x + dx, y + dy, z + dz)
                if 0 <= j[0] < nx and 0 <= j[1] < ny and 0 <= j[2] < nz:
                    if bits[j] and not seen[j]:
                        seen[j] = True
                        stack.append(j)
        components.append(comp)
    return components


def test_largest_component_single_passes_through():
    bits = np.zeros((6, 6, 6), dtype=bool)
    bits[1:4, 1:4, 1:4] = True
    m = mask_from(bits)
    assert largest_component(m) == m


def test_largest_component_keeps_bigger(rng):
    bits = np.zeros((12, 12, 6), dtype=bool)
    bits[0:10, 0, 0] = True  # 10 voxels
    bits[0:5, 6, 3] = True  # 5 voxels
    out = largest_component(mask_from(bits), connectivity=6)
    comps = _flood_fill_components(bits, 6)
    expected = max(comps, key=len)
    assert set(map(tuple, np.argwhere(out.bits))) == expected


def test_diagonal_connectivity_difference():
    bits = np.zeros((4, 4, 4), dtype=bool)
    bits[1, 1, 1] = bits[2, 2, 2] = True  # touch only diagonally
    assert len(_flood_fill_components(bits, 26)) == 1
    assert len(_flood_fill_components(bits, 6)) == 2
    m = mask_from(bits)
    assert largest_component(m, connectivity=26).count == 2
    assert largest_component(m, connectivity=6).count == 1


def test_largest_component_tie_breaks_by_linear_index():
    bits = np.zeros((8, 4, 4), dtype=bool)
    bits[6, 0, 0] = True  # linear index 6
    bits[0, 0, 1] = True  # linear index 32: larger despite lower x? no: 0 + 0 + 1*32
    out = largest_component(mask_from(bits), connectivity=6)
    assert out.count == 1
    assert out.bits[6, 0, 0]


def test_largest_component_empty():
    e = mask_from(np.zeros((4, 4, 4)))
    assert largest_component(e) == e


def test_dilate_erode_empty():
    e = mask_from(np.zeros((4, 4, 4)))
    assert dilate(e) == e
    assert erode(e) == e


def test_single_voxel_cross_dilation_is_seven():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[2, 2, 2] = True
    out = dilate(mask_from(bits), StructuringElement("cross", 1))
    assert out.count == 7
    expected = {(2, 2, 2), (1, 2, 2), (3, 2, 2), (2, 1, 2), (2, 3, 2), (2, 2, 1), (2, 2, 3)}
    assert set(map(tuple, np.argwhere(out.bits))) == expected


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_footprints_are_l1_and_chebyshev_balls(radius):
    # dilating one centre voxel draws the footprint: r rounds of the cross
    # give the L1 ball, r rounds of the cube the (2r+1)^3 cube
    n = 2 * radius + 3
    bits = np.zeros((n, n, n), dtype=bool)
    bits[radius + 1, radius + 1, radius + 1] = True
    offsets = np.abs(np.arange(n) - (radius + 1))
    ox, oy, oz = offsets[:, None, None], offsets[None, :, None], offsets[None, None, :]
    l1 = ox + oy + oz
    chebyshev = np.maximum(np.maximum(ox, oy), oz)
    cross = dilate(mask_from(bits), StructuringElement("cross", radius)).bits
    cube = dilate(mask_from(bits), StructuringElement("cube", radius)).bits
    assert np.array_equal(cross, l1 <= radius)
    assert np.array_equal(cube, chebyshev <= radius)


def test_cube_element_dilation_is_27():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[2, 2, 2] = True
    assert dilate(mask_from(bits), StructuringElement("cube", 1)).count == 27


def test_closing_restores_solid_cube():
    bits = np.zeros((9, 9, 9), dtype=bool)
    bits[2:7, 2:7, 2:7] = True
    m = mask_from(bits)
    assert close_mask(m, StructuringElement("cross", 1)) == m


def test_erosion_treats_border_as_background():
    full = mask_from(np.ones((4, 4, 4)))
    out = erode(full, StructuringElement("cross", 1))
    # the outer shell erodes away; only the 2x2x2 core survives
    assert out.count == 8
    assert out.bits[1:3, 1:3, 1:3].all()


@given(st.integers(0, 2**31 - 1), st.sampled_from(["cross", "cube"]), st.integers(1, 2))
def test_duality_erode_is_complement_dilate(seed, kind, radius):
    rng = np.random.default_rng(seed)
    bits = rng.random((16, 16, 16)) < 0.5
    se = StructuringElement(kind, radius)
    eroded = erode(mask_from(bits), se)

    # complement-dilate with the border treated as foreground of the
    # complement: pad, dilate, crop back
    padded = np.pad(~bits, radius, constant_values=True)
    dilated = dilate(mask_from(padded), se)
    r = radius
    expected = ~dilated.bits[r:-r, r:-r, r:-r]
    assert np.array_equal(eroded.bits, expected)


@given(st.integers(0, 2**31 - 1), st.sampled_from(["cross", "cube"]))
def test_extensivity_chain(seed, kind):
    rng = np.random.default_rng(seed)
    bits = rng.random((12, 12, 12)) < 0.3
    m = mask_from(bits)
    se = StructuringElement(kind, 1)
    d, e = dilate(m, se), erode(m, se)
    assert np.all(~m.bits | d.bits)  # m subset of dilate(m)
    assert np.all(~e.bits | m.bits)  # erode(m) subset of m
    assert np.all(~m.bits | close_mask(m, se).bits)  # closing extensive
    assert np.all(~open_mask(m, se).bits | m.bits)  # opening anti-extensive


@given(st.integers(0, 2**31 - 1))
def test_largest_component_is_connected_subset(seed):
    rng = np.random.default_rng(seed)
    bits = rng.random((10, 10, 10)) < 0.2
    m = mask_from(bits)
    out = largest_component(m, connectivity=26)
    assert np.all(~out.bits | m.bits)
    if not out.is_empty:
        assert len(_flood_fill_components(out.bits, 26)) == 1


def test_smoothing_halfspace_unchanged():
    bits = np.zeros((8, 8, 8), dtype=bool)
    bits[:, :, 0:4] = True
    m = mask_from(bits)
    assert smooth_surface(m, iterations=1) == m
    assert smooth_surface(m, iterations=3) == m


def test_smoothing_removes_isolated_voxel():
    bits = np.zeros((7, 7, 7), dtype=bool)
    bits[3, 3, 3] = True
    assert smooth_surface(mask_from(bits), 1).is_empty
    # isolated voxel at a corner disappears too (replicated border)
    bits = np.zeros((7, 7, 7), dtype=bool)
    bits[0, 0, 0] = True
    assert smooth_surface(mask_from(bits), 1).is_empty


def test_smoothing_fills_interior_hole():
    bits = np.ones((7, 7, 7), dtype=bool)
    bits[3, 3, 3] = False
    out = smooth_surface(mask_from(bits), 1)
    assert out.bits[3, 3, 3]
    assert out.count == 7 * 7 * 7


def _box_inputs(rng, dims=(14, 12, 10)):
    # random noise in random sub-boxes, some of which touch the grid faces,
    # plus fixed border-touching shapes and an empty mask
    yield np.zeros(dims, dtype=bool)
    slab = np.zeros(dims, dtype=bool)
    slab[:3] = True
    yield slab
    corner = np.zeros(dims, dtype=bool)
    corner[-4:, :5, -3:] = True
    yield corner
    for _ in range(40):
        lo = rng.integers(0, np.array(dims) - 1)
        hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, dims)]
        bits = np.zeros(dims, dtype=bool)
        region = tuple(slice(a, b) for a, b in zip(lo, hi))
        bits[region] = rng.random(bits[region].shape) < rng.uniform(0.3, 0.8)
        yield bits


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_smoothing_in_box_equals_full_grid(rng, iterations):
    for bits in _box_inputs(rng):
        m = mask_from(bits)
        assert smooth_surface(m, iterations) == full_grid_smooth_surface(m, iterations)


@pytest.mark.parametrize("kind", ["cross", "cube"])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_closing_in_box_equals_full_grid(rng, kind, radius):
    se = StructuringElement(kind, radius)
    for bits in _box_inputs(rng):
        m = mask_from(bits)
        assert close_mask(m, se) == full_grid_close_mask(m, se)


def test_operators_preserve_binarity_and_empty_safety(rng):
    bits = rng.random((8, 8, 8)) < 0.4
    m = mask_from(bits)
    for op in (
        lambda x: dilate(x),
        lambda x: erode(x),
        lambda x: largest_component(x),
        lambda x: smooth_surface(x),
    ):
        out = op(m)
        assert out.bits.dtype == np.bool_
        empty = op(mask_from(np.zeros((8, 8, 8))))
        assert empty.count == 0


def _islands(rng, dims=(16, 13, 11)):
    """Seeded multi-island masks, each in C and Fortran order: random islands
    that often touch a grid face, and islands of tied size."""
    def place(bits, island, at):
        bits[tuple(slice(a, a + n) for a, n in zip(at, island.shape))] |= island

    masks = [np.zeros(dims, dtype=bool)]
    for _ in range(30):
        bits = np.zeros(dims, dtype=bool)
        for _ in range(int(rng.integers(1, 6))):
            shape = rng.integers(1, 5, size=3)
            # each axis: flush with the low face, the high face, or anywhere
            at = [int(rng.choice([0, n - s, rng.integers(0, n - s + 1)])) for s, n in zip(shape, dims)]
            place(bits, rng.random(shape) < rng.uniform(0.5, 1.0), at)
        masks.append(bits)
    for _ in range(10):
        # two to four copies of one island, spaced so they stay apart under
        # either connectivity: their sizes tie
        island = rng.random(rng.integers(1, 4, size=3)) < 0.8
        island[0, 0, 0] = True
        bits = np.zeros(dims, dtype=bool)
        starts = rng.permutation([(x, y, z) for x in (0, 5, 10) for y in (0, 5) for z in (0, 5)])
        for at in starts[: int(rng.integers(2, 5))]:
            place(bits, island, at)
        masks.append(bits)
    for bits in masks:
        yield bits
        yield np.asfortranarray(bits)


@pytest.mark.parametrize("gap", [1, 2, 3])
def test_boxes_hold_each_voxel_once_in_tight_split_boxes(rng, gap):
    # every box is tight, no box keeps a run of gap empty planes on any
    # axis, and the islands of tied size that the component tests rely on
    # do land in different boxes
    tied_across = 0
    for bits in _islands(rng):
        parts = boxes(bits, gap)
        held = np.zeros(bits.shape, dtype=int)
        for box in parts:
            held[box] += 1
            for ax in range(3):
                occupied = bits[box].any(axis=tuple(a for a in range(3) if a != ax))
                assert occupied[0] and occupied[-1]
                empty_runs = np.diff(np.flatnonzero(occupied)) - 1
                assert (empty_runs < gap).all()
        assert (held[bits] == 1).all()
        sizes = [int(bits[box].sum()) for box in parts]
        tied_across += len(parts) > 1 and sizes.count(max(sizes)) > 1
    assert tied_across >= 5


@pytest.mark.parametrize("connectivity", [6, 26])
def test_largest_component_in_box_equals_full_grid(rng, connectivity):
    for bits in _islands(rng):
        m = mask_from(bits)
        assert largest_component(m, connectivity) == full_grid_largest_component(m, connectivity)


@pytest.mark.parametrize("kind", ["cross", "cube"])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_dilate_and_erode_in_box_equal_full_grid(rng, kind, radius):
    se = StructuringElement(kind, radius)
    for bits in _islands(rng):
        m = mask_from(bits)
        assert dilate(m, se) == full_grid_dilate(m, se)
        assert erode(m, se) == full_grid_erode(m, se)


@pytest.mark.parametrize("kind", ["cross", "cube"])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_opening_in_box_equals_full_grid(rng, kind, radius):
    se = StructuringElement(kind, radius)
    for bits in _islands(rng):
        m = mask_from(bits)
        assert open_mask(m, se) == full_grid_open_mask(m, se)


def test_surface_in_box_equals_full_grid(rng):
    for bits in _islands(rng):
        assert np.array_equal(surface_voxels(mask_from(bits)), np.argwhere(_full_grid_surface(bits)).T)


def test_largest_component_memory_is_bounded_by_the_box():
    # two compact islands in a large grid: labels and their comparison
    # span the box, so only the one-byte output spans the grid
    bits = np.zeros((128, 128, 64), dtype=bool)
    bits[40:60, 50:70, 20:35] = True
    bits[62:70, 50:58, 20:28] = True
    m = mask_from(bits)
    tracemalloc.start()
    try:
        largest_component(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * bits.size


def test_largest_component_memory_follows_the_islands():
    # a compact blob plus two corner cubes: the foreground box spans the
    # grid, but each island is labelled on its own box
    bits = np.zeros((128, 128, 64), dtype=bool)
    bits[40:80, 50:90, 20:45] = True
    bits[1:4, 1:4, 1:4] = True
    bits[-4:-1, -4:-1, -4:-1] = True
    m = mask_from(bits)
    tracemalloc.start()
    try:
        out = largest_component(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.count == 40 * 40 * 25
    assert peak < 2 * bits.size


# --- boxes proven one component, and the smoothing counts ---------------------------

_DIMS = (24, 22, 18)


def _cuboid(lo, hi):
    bits = np.zeros(_DIMS, dtype=bool)
    bits[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    return bits


def _paths():
    """Masks that each send ``largest_component`` down one path, with that
    path: ``_whole``'s answer for each box it takes, the number of
    ``ndimage.label`` calls, and whether a flood step ran."""
    x, y, z = np.indices(_DIMS)
    blob = (x - 11) ** 2 + (y - 10) ** 2 + (z - 8) ** 2 <= 36
    corners = _cuboid((0, 0, 0), (2, 2, 2)) | _cuboid((21, 19, 15), _DIMS)
    # a thick hollow cube holding an island in its hollow, 1-2 voxels off the walls
    hollow = _cuboid((2, 2, 2), (22, 20, 16)) & ~_cuboid((9, 8, 6), (15, 14, 10))
    speckle = np.zeros(_DIMS, dtype=bool)
    speckle[2:20, 2:20, 2:16] = np.random.default_rng(5).random((18, 18, 14)) < 0.3
    # equal cubes in two boxes (10 a side, the smallest cube the guard lets
    # through): the first box along x holds the later x-fastest voxels, so
    # the tie goes to the second box
    tied = _cuboid((0, 2, 8), (10, 12, 18)) | _cuboid((13, 2, 0), (23, 12, 10))
    faces = _cuboid((0, 0, 0), (10, 10, 10)) | _cuboid((16, 14, 10), _DIMS)
    return {
        "blob": (blob, [True], 0, True),
        "islands-skipped": (blob | corners, [True], 0, True),
        "island-in-the-box": (hollow | _cuboid((11, 10, 7), (13, 12, 9)), [False], 1, True),
        "speckle": (speckle, [False], 1, False),
        "thin-slab": (_cuboid((2, 2, 2), (4, 20, 16)), [False], 1, False),
        "tie": (tied, [True, True], 0, True),
        "grid-faces": (faces, [True], 0, True),
    }


@pytest.mark.parametrize("connectivity", [6, 26])
@pytest.mark.parametrize("name", list(_paths()))
def test_each_path_of_largest_component_equals_full_grid(monkeypatch, name, connectivity):
    # a box proven whole is never labelled, and boxes holding fewer voxels
    # than the largest component are never looked at; speckle and a slab
    # with every voxel on its surface fail the guard and reach the labeller
    # with no flood step; a box the flood cannot fill is labelled
    bits, answers, labelled, flooded = _paths()[name]
    m = mask_from(bits)
    expected = full_grid_largest_component(m, connectivity)
    seen = {"whole": [], "label": 0, "grow": 0}
    whole, grow, label = postprocess._whole, postprocess.grow, ndimage.label

    def recorded_whole(*args):
        seen["whole"].append(whole(*args))
        return seen["whole"][-1]

    def counted_grow(*args):
        seen["grow"] += 1
        return grow(*args)

    def counted_label(*args, **kwargs):
        seen["label"] += 1
        return label(*args, **kwargs)

    monkeypatch.setattr(postprocess, "_whole", recorded_whole)
    monkeypatch.setattr(postprocess, "grow", counted_grow)
    monkeypatch.setattr(ndimage, "label", counted_label)
    assert largest_component(m, connectivity) == expected
    # each _whole call grows once for its guard; any further grow is a flood step
    assert (seen["whole"], seen["label"], seen["grow"] > len(seen["whole"])) == (answers, labelled, flooded)


def _piece(rng, shape, kind):
    """A ball filling ``shape``, the same ball hollow with an island at its
    centre, or speckle."""
    if kind == "speckle":
        return rng.random(shape) < 0.3
    x, y, z = np.ogrid[tuple(slice(0, n) for n in shape)]
    q = sum(((c - (n - 1) / 2) / (n / 2)) ** 2 for c, n in zip((x, y, z), shape))
    if kind == "ball":
        return q <= 1
    return (q <= 1) & (q > 0.3) | (q < 0.02)


# piece kinds, balls twice as likely; copies are three of one small ball, whose sizes tie
_KINDS = ["ball", "ball", "hollow", "copies", "speckle"]


@st.composite
def _component_masks(draw):
    """Grids of one to three pieces, each flush with a grid face or
    anywhere, in C or Fortran order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dims = tuple(int(n) for n in rng.integers(4, 28, size=3))
    bits = np.zeros(dims, dtype=bool)
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3)):
        if kind == "copies":
            shape = [int(rng.integers(1, min(n, 12) + 1)) for n in dims]
        else:
            shape = [int(rng.integers(n // 3, n + 1)) for n in dims]
        piece = _piece(rng, shape, "ball" if kind == "copies" else kind)
        for _ in range(3 if kind == "copies" else 1):
            at = [int(rng.choice([0, n - s, rng.integers(0, n - s + 1)])) for s, n in zip(shape, dims)]
            bits[tuple(slice(a, a + s) for a, s in zip(at, shape))] |= piece
    return np.asfortranarray(bits) if draw(st.booleans()) else bits


@settings(max_examples=100)
@given(_component_masks(), st.sampled_from([6, 26]))
def test_largest_component_equals_full_grid_on_drawn_masks(bits, connectivity):
    m = mask_from(bits)
    assert largest_component(m, connectivity) == full_grid_largest_component(m, connectivity)


@settings(max_examples=100)
@given(_component_masks(), st.integers(1, 3))
def test_smoothing_equals_full_grid_on_drawn_masks(bits, iterations):
    m = mask_from(bits)
    assert smooth_surface(m, iterations) == full_grid_smooth_surface(m, iterations)


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 5, 2), (2, 2, 7), (9, 6, 5)])
def test_cube_counts_equal_the_edge_replicated_convolution(rng, dims):
    for p in (0.2, 0.5, 0.9):
        bits = rng.random(dims) < p
        expected = ndimage.convolve(bits.astype(np.uint8), np.ones((3, 3, 3), dtype=np.uint8), mode="nearest")
        assert np.array_equal(postprocess._cube_counts(bits), expected)
