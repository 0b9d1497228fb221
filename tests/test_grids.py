import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from labench import grids
from labench.errors import FactorExceedsDim, GeometryMismatch, NonPositiveSpacing
from labench.grids import CROSS6, CUBE26, Mask, Volume, bbox, check_same_geometry, downsample
from labench.nrrd_io import read_nrrd

from oracles import reduceat_downsample, whole_grid_downsample


def test_flat_is_x_fastest(tmp_path):
    # a grid read from raster samples puts sample ix + nx*(iy + ny*iz) on [ix, iy, iz]
    nx, ny, nz = 3, 4, 5
    flat = np.arange(nx * ny * nz, dtype=np.uint8)
    path = tmp_path / "raster.nrrd"
    header = (
        f"NRRD0004\ntype: unsigned char\ndimension: 3\nsizes: {nx} {ny} {nz}\nencoding: raw\n\n"
    )
    path.write_bytes(header.encode() + flat.tobytes())
    v = read_nrrd(path, as_mask=False)
    assert isinstance(v, Volume) and v.dims == (nx, ny, nz)
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                assert v.data[ix, iy, iz] == flat[ix + nx * (iy + ny * iz)]


def test_spacing_validation():
    data = np.zeros((2, 2, 2), dtype=np.uint8)
    for bad in [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0)]:
        with pytest.raises(NonPositiveSpacing):
            Volume(data, bad)


def test_dtype_validation():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        Mask(np.zeros((2, 2, 2), dtype=np.uint8))


def test_grids_are_immutable():
    v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0
    m = Mask(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        m.bits[0, 0, 0] = True


# layouts a caller may hand a constructor: the values of ``a`` in another memory order
_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "flip": lambda a: np.flip(np.asfortranarray(a[::-1]), axis=0),
    "rot90": lambda a: np.rot90(np.asfortranarray(np.rot90(a, -1, axes=(0, 1))), 1, axes=(0, 1)),
    "y-fastest": lambda a: np.asfortranarray(a.transpose(1, 0, 2)).transpose(1, 0, 2),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_grids_are_x_fastest_whatever_layout_they_are_given(layout):
    values = np.arange(4 * 5 * 6).reshape(4, 5, 6)
    for make, cast in ((Volume, lambda a: a.astype(np.float32)), (Mask, lambda a: a % 3 == 0)):
        given = _LAYOUTS[layout](cast(values))
        assert np.array_equal(given, cast(values))
        held = make(given).data if make is Volume else make(given).bits
        assert held.flags.f_contiguous and not held.flags.writeable
        assert np.array_equal(held, given)
        if layout == "F":  # kept as it is, so frozen as the grid's own
            assert held is given and not given.flags.writeable
        else:  # copied once; the caller's array stays the caller's
            assert not np.shares_memory(held, given) and given.flags.writeable


def test_a_box_view_of_a_grid_is_kept_without_a_copy():
    v = Volume(np.arange(6 * 7 * 8, dtype=np.float32).reshape(6, 7, 8), (0.5, 1.0, 2.0))
    for box in ((slice(1, 4), slice(2, 6), slice(3, 7)), (slice(2, 3), slice(None), slice(5, 6))):
        view = v.data[box]
        patch = Volume(view, v.spacing)
        assert patch.data is view and np.shares_memory(patch.data, v.data)
    m = Mask(v.data > 100.0)
    assert np.shares_memory(Mask(m.bits[1:5, ::2, 2:]).bits, m.bits)


def test_geometry_check():
    a = Mask(np.zeros((2, 2, 2), dtype=bool), (1.0, 1.0, 1.0))
    b = Mask(np.zeros((2, 2, 2), dtype=bool), (1.0, 1.0, 2.0))
    c = Mask(np.zeros((2, 2, 3), dtype=bool), (1.0, 1.0, 1.0))
    check_same_geometry(a, a)
    with pytest.raises(GeometryMismatch):
        check_same_geometry(a, b)
    with pytest.raises(GeometryMismatch):
        check_same_geometry(a, c)


def test_downsample_identity():
    v = Volume(np.arange(24, dtype=np.uint16).reshape(2, 3, 4), (0.5, 0.5, 0.5))
    assert downsample(v, (1, 1, 1)) == v


def test_downsample_constant_field():
    v = Volume(np.full((4, 4, 4), 7, dtype=np.uint8), (1.0, 1.0, 1.0))
    out = downsample(v, (2, 2, 2))
    assert out.dims == (2, 2, 2)
    assert out.spacing == (2.0, 2.0, 2.0)
    assert np.all(out.data == 7.0)
    assert float(out.data.mean()) == 7.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_downsample_result_is_x_fastest(order):
    data = np.arange(9 * 8 * 7, dtype=np.float32).reshape(9, 8, 7)
    out = downsample(Volume(np.asarray(data, order=order)), (2, 3, 2))
    assert out.data.flags.f_contiguous
    assert out == whole_grid_downsample(Volume(data), (2, 3, 2))


def test_downsample_block_mean():
    v = Volume(np.array([10, 30], dtype=np.float32).reshape(2, 1, 1))
    out = downsample(v, (2, 1, 1))
    assert out.dims == (1, 1, 1)
    assert out.data[0, 0, 0] == 20.0


def test_downsample_partial_blocks():
    # dims 3 with factor 2: blocks [0,1] and [2]; ceil(3/2) = 2 outputs
    v = Volume(np.array([1, 3, 10], dtype=np.float32).reshape(3, 1, 1))
    out = downsample(v, (2, 1, 1))
    assert out.dims == (2, 1, 1)
    assert out.data[0, 0, 0] == 2.0
    assert out.data[1, 0, 0] == 10.0


def test_downsample_factor_too_large():
    v = Volume(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(FactorExceedsDim):
        downsample(v, (3, 1, 1))


def test_structuring_elements_are_scipy_connectivities():
    for element, rank in ((CROSS6, 1), (CUBE26, 3)):
        expected = ndimage.generate_binary_structure(3, rank)
        assert element.dtype == expected.dtype == np.bool_
        assert np.array_equal(element, expected)


def _cancelling(dims, order, seed) -> Volume:
    # half the values are +-2**50, which cancel in many blocks and leave the
    # others' sum rounded to quarters in an order-dependent way, so that a
    # change in the float64 summation order shows in float32
    rng = np.random.default_rng(seed)
    big = rng.choice([-(2.0**50), 2.0**50], size=dims)
    data = np.where(rng.random(dims) < 0.5, big, rng.normal(0, 1, size=dims))
    return Volume(np.asarray(data.astype(np.float32), order=order), (0.5, 0.75, 1.25))


def _assert_slabs_equal_whole_grid(monkeypatch, dims, order, factor):
    v = _cancelling(dims, order, sum(factor))
    expected = whole_grid_downsample(v, factor)
    plane = dims[0] * dims[1]
    for slab in (1, plane * factor[2] * 2, plane * factor[2] * 3):
        monkeypatch.setattr(grids, "_SLAB_VOXELS", slab)
        out = downsample(v, factor)
        assert out.spacing == expected.spacing
        assert np.array_equal(out.data.view(np.uint32), expected.data.view(np.uint32))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "factor", [(2, 2, 2), (3, 2, 5), (1, 4, 3), (2, 1, 1), (4, 3, 23), (9, 9, 9), (2, 3, 16)]
)
def test_slab_downsample_equals_whole_grid(monkeypatch, order, factor):
    # slabs of 1 to 3 blocks; 23 slices leave a partial last block for most
    # factors. Blocks of 9 or more (9, 16, 23) are where the in-turn order
    # leaves numpy's pairwise one, which adds 8 or more terms in 8 running sums
    _assert_slabs_equal_whole_grid(monkeypatch, (13, 11, 23), order, factor)


@pytest.mark.parametrize("order", ["C", "F"])
def test_slab_downsample_equals_whole_grid_past_128_terms(monkeypatch, order):
    # numpy's pairwise sum would split runs of more than 128 terms in halves;
    # blocks of 150 give 149 terms after the first, the partial last block 9
    _assert_slabs_equal_whole_grid(monkeypatch, (8, 8, 310), order, (1, 1, 150))


@pytest.mark.parametrize("f", range(1, 9))
def test_downsample_up_to_8_per_axis_is_reduceat(f):
    # up to 8 per axis, a block's first value plus the rest added in turn is
    # numpy's reduceat order, so the means equal reduceat's bit for bit;
    # 13, 11 and 23 leave a partial last block for f >= 2
    for factor in ((f, f, f), (f, 1, 9 - f), (9 - f, f, 1)):
        v = _cancelling((13, 11, 23), "F", f)
        expected = reduceat_downsample(v, factor).data.view(np.uint32)
        assert np.array_equal(whole_grid_downsample(v, factor).data.view(np.uint32), expected)
        assert np.array_equal(downsample(v, factor).data.view(np.uint32), expected)


@pytest.mark.parametrize("dtype, top", [(np.uint8, 256), (np.uint16, 4096)])
@pytest.mark.parametrize("factor", [(9, 9, 9), (16, 16, 8), (3, 5, 23)])
def test_integer_downsample_is_the_exact_mean(dtype, top, factor):
    # integers sum exactly in float64 in any order, so the last-bit change
    # of long float blocks cannot reach integer scans: every block is the
    # float32 of its exact mean; 20, 19 and 50 leave partial last blocks
    dims = (20, 19, 50)
    data = np.random.default_rng(3).integers(0, top, size=dims).astype(dtype)
    sums, counts = data.astype(np.int64), np.ones((1, 1, 1), dtype=np.int64)
    for axis, f in enumerate(factor):
        starts = np.arange(0, dims[axis], f)
        sums = np.add.reduceat(sums, starts, axis=axis)
        lengths = np.diff(np.append(starts, dims[axis]))
        counts = counts * lengths.reshape([-1 if a == axis else 1 for a in range(3)])
    out = downsample(Volume(data), factor)
    assert np.array_equal(out.data.view(np.uint32), (sums / counts).astype(np.float32).view(np.uint32))


def test_downsample_memory_is_bounded_by_the_slab(monkeypatch):
    # the whole-grid float64 copy alone took 8 bytes per voxel
    monkeypatch.setattr(grids, "_SLAB_VOXELS", 1 << 14)
    v = Volume(np.ones((64, 64, 64), dtype=np.float32))
    tracemalloc.start()
    try:
        downsample(v, (2, 2, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * v.nvox


@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.integers(0, 2**32 - 1),
)
def test_downsample_preserves_constant_mean(dims, seed):
    value = float(np.random.default_rng(seed).integers(0, 255))
    v = Volume(np.full(dims, value, dtype=np.float32))
    factor = tuple(min(2, d) for d in dims)
    out = downsample(v, factor)
    assert float(out.data.mean()) == value


# --- bbox -------------------------------------------------------------------------


def _extents(bits, pad=0):
    """Reference box from np.nonzero: (start, stop) per axis, padded and clipped."""
    coords = np.nonzero(bits)
    if coords[0].size == 0:
        return None
    return tuple(
        (max(int(c.min()) - pad, 0), min(int(c.max()) + 1 + pad, n))
        for c, n in zip(coords, bits.shape)
    )


def _as_extents(box):
    return None if box is None else tuple((s.start, s.stop) for s in box)


def test_bbox_empty_is_none():
    assert bbox(np.zeros((3, 4, 5), dtype=bool)) is None
    assert bbox(np.zeros((3, 4, 5), dtype=bool), pad=2) is None


def test_bbox_single_voxel():
    bits = np.zeros((5, 6, 7), dtype=bool)
    bits[2, 3, 4] = True
    box = bbox(bits)
    assert box == (slice(2, 3), slice(3, 4), slice(4, 5))
    assert bits[box].shape == (1, 1, 1) and bits[box].all()
    assert _as_extents(bbox(bits, pad=1)) == ((1, 4), (2, 5), (3, 6))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("side", [0, -1])
def test_bbox_touching_each_face(axis, side):
    bits = np.zeros((4, 5, 6), dtype=bool)
    index = [slice(1, 3), slice(1, 4), slice(2, 5)]
    index[axis] = side
    bits[tuple(index)] = True
    assert _as_extents(bbox(bits)) == _extents(bits)
    extent = bbox(bits)[axis]
    assert (extent.start == 0) if side == 0 else (extent.stop == bits.shape[axis])


def test_bbox_pad_is_clipped_to_the_grid():
    bits = np.zeros((4, 5, 6), dtype=bool)
    bits[0, 2, 5] = True
    assert _as_extents(bbox(bits, pad=2)) == ((0, 3), (0, 5), (3, 6))
    assert _as_extents(bbox(bits, pad=100)) == ((0, 4), (0, 5), (0, 6))
    with pytest.raises(ValueError):
        bbox(bits, pad=-1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_bbox_memory_order(order):
    bits = np.zeros((7, 8, 9), dtype=bool, order=order)
    bits[1:3, 4:8, 2] = True
    bits[5, 5, 6] = True
    assert _as_extents(bbox(bits)) == ((1, 6), (4, 8), (2, 7))
    assert _as_extents(bbox(bits.T)) == _extents(bits.T)


def test_boxes_stop_splitting_at_the_cap():
    # voxels two planes apart on every axis would give a box per voxel
    bits = np.zeros((40, 40, 10), dtype=bool)
    bits[::2, ::2, ::2] = True
    parts = grids.boxes(bits, 1)
    assert 1 < len(parts) <= grids._MAX_BOXES
    held = np.zeros(bits.shape, dtype=int)
    for box in parts:
        held[box] += 1
        assert _as_extents(bbox(bits[box])) == tuple((0, s.stop - s.start) for s in box)
    assert (held[bits] == 1).all()


@pytest.mark.parametrize("order", ["C", "F"])
def test_on_box_result_is_x_fastest(order):
    bits = np.zeros((7, 8, 9), dtype=bool, order=order)
    bits[1:3, 4:8, 2] = True
    out = grids.on_box(Mask(bits), 1, lambda b: ~b)
    assert out.bits.flags.f_contiguous
    assert np.array_equal(out.bits[0:4, 3:8, 1:4], ~bits[0:4, 3:8, 1:4]) and out.count == 4 * 5 * 3 - 8


@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    st.floats(0.0, 0.3),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_bbox_matches_nonzero_extents(dims, density, pad, fortran, seed):
    bits = np.random.default_rng(seed).random(dims) < density
    if fortran:
        bits = np.asfortranarray(bits)
    assert _as_extents(bbox(bits, pad)) == _extents(bits, pad)
