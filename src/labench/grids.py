"""In-memory 3D grids: grayscale volumes and binary masks.

Arrays are indexed ``[ix, iy, iz]`` and every grid is x-fastest: its
strides ascend over the axes longer than 1, as in the raster order of the
NRRD files. The constructor keeps an array already laid out so (an NRRD
read, a phantom, a box view of another grid) and copies any other layout
once, so a grid's values never depend on the layout it was given and no
function reads the layout. Grids are immutable after construction (the
constructor marks the array it keeps read-only), so they are safe to
share across threads.

The foreground is found from axis projections. :func:`boxes` gives tight
boxes split on empty planes, which no surface or 26-connected component
crosses, so stray islands far apart keep boxes of their own;
:func:`bbox` is its one-box hull. :func:`grow` is the one numpy
dilation step, by the cross or the cube, that the quality foreground and
the largest-component flood take, and :func:`surface` the one surface
predicate, which the metrics and the largest-component guard take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorExceedsDim, GeometryMismatch, NonPositiveSpacing

VoxelIndex = tuple[int, int, int]

# 6- and 26-connected neighbourhoods (ndimage.generate_binary_structure(3, 1) and (3, 3))
CROSS6 = np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1
CUBE26 = np.ones((3, 3, 3), dtype=bool)

AXES = {"x": 0, "y": 1, "z": 2}

_SLAB_VOXELS = 1 << 21  # voxels per float64 slab in downsample

INTENSITY_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.float32))


def checked_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as three floats; NonPositiveSpacing unless each is finite and > 0."""
    s = tuple(float(x) for x in spacing)
    if len(s) != 3 or not all(np.isfinite(x) and x > 0.0 for x in s):
        raise NonPositiveSpacing(
            f"spacing must be three strictly positive finite values, got {spacing!r}"
        )
    return s


def _x_fastest(array, what: str) -> np.ndarray:
    """``array`` as a read-only x-fastest 3D array: kept when its strides
    already ascend over the axes longer than 1, else copied once."""
    if array.ndim != 3 or 0 in array.shape:
        raise ValueError(f"{what} must be a non-empty 3D array, got shape {array.shape}")
    strides = [0, *(s for s, n in zip(array.strides, array.shape) if n > 1)]
    if any(a >= b for a, b in zip(strides, strides[1:])):
        array = np.asfortranarray(array)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Volume:
    """3D grayscale intensity grid with physical voxel spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in INTENSITY_DTYPES:
            raise ValueError(
                f"unsupported intensity dtype {data.dtype}; expected uint8, uint16 or float32"
            )
        object.__setattr__(self, "data", _x_fastest(data, "volume data"))
        object.__setattr__(self, "spacing", checked_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def nvox(self) -> int:
        return self.data.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Volume)
            and self.dims == other.dims
            and self.spacing == other.spacing
            and self.data.dtype == other.data.dtype
            and bool(np.array_equal(self.data, other.data))
        )


@dataclass(frozen=True, eq=False)
class Mask:
    """3D binary grid aligned to a :class:`Volume`."""

    bits: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.dtype != np.bool_:
            raise ValueError(f"mask bits must be boolean, got dtype {bits.dtype}")
        object.__setattr__(self, "bits", _x_fastest(bits, "mask bits"))
        object.__setattr__(self, "spacing", checked_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.bits.shape

    @property
    def nvox(self) -> int:
        return self.bits.size

    @property
    def count(self) -> int:
        """Number of foreground voxels."""
        return int(np.count_nonzero(self.bits))

    @property
    def is_empty(self) -> bool:
        return not self.bits.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mask)
            and self.dims == other.dims
            and self.spacing == other.spacing
            and bool(np.array_equal(self.bits, other.bits))
        )


Grid = Volume | Mask


def check_same_geometry(a: Grid, b: Grid) -> None:
    """Raise GeometryMismatch unless dims and spacing agree exactly."""
    if a.dims != b.dims or a.spacing != b.spacing:
        raise GeometryMismatch(
            f"grids disagree: dims {a.dims} vs {b.dims}, spacing {a.spacing} vs {b.spacing}"
        )


def axis_index(axis: int | str) -> int:
    """Axis number of ``"x"``/``"y"``/``"z"`` or of 0..2."""
    ax = AXES.get(axis, axis) if isinstance(axis, str) else int(axis)
    if ax not in (0, 1, 2):
        raise ValueError(f"axis must be one of x, y, z (or 0..2), got {axis!r}")
    return ax


Box = tuple[slice, slice, slice]


def _runs(occupied: np.ndarray, gap: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of set entries of a 1-D projection,
    where runs closer than ``gap`` empty entries count as one."""
    at = np.flatnonzero(occupied)
    if at.size == 0:
        return []
    cut = np.diff(at) > gap
    return list(zip([int(at[0]), *at[1:][cut].tolist()], [*(at[:-1][cut] + 1).tolist(), int(at[-1]) + 1]))


_MAX_BOXES = 64  # boxes past which regions stay whole, so per-box overhead stays bounded


def boxes(bits: np.ndarray, gap: int) -> list[Box]:
    """Tight boxes that together hold every set voxel of ``bits`` once,
    split wherever a box's projection on an axis has a run of at least
    ``gap`` >= 1 empty planes; [] when nothing is set.

    No 6-neighbour surface and no 26-connected component crosses an empty
    plane, so per-box surfaces and labels equal those of the grid; every
    voxel just outside a box's faces is background. One ``any`` along z
    over the grid gives the x and y splits of every box; each x/y box then
    takes one ``any`` over itself for its z extent, and a box split along
    z one more for its own x/y projection. A split that would make more
    than ``_MAX_BOXES`` boxes is not made (a lattice of voxels two planes
    apart would otherwise give a box per voxel).
    """
    out = []
    nx, ny, nz = bits.shape
    # (x, y, z) ranges whose outside planes hold nothing, with the region's
    # projection along z when known
    todo = [((0, nx), (0, ny), (0, nz), bits.any(axis=2))]

    def split(runs):
        return len(runs) > 1 and len(out) + len(todo) + len(runs) <= _MAX_BOXES

    while todo:
        (x0, x1), (y0, y1), (z0, z1), xy = todo.pop()
        if xy is None:
            xy = bits[x0:x1, y0:y1, z0:z1].any(axis=2)
        xs = _runs(xy.any(axis=1), gap)
        if not xs:
            continue
        if split(xs):
            todo += [((x0 + a, x0 + b), (y0, y1), (z0, z1), xy[a:b]) for a, b in reversed(xs)]
            continue
        ys = _runs(xy.any(axis=0), gap)
        if split(ys):
            todo += [((x0, x1), (y0 + a, y0 + b), (z0, z1), xy[:, a:b]) for a, b in reversed(ys)]
            continue
        x0, x1, y0, y1 = x0 + xs[0][0], x0 + xs[-1][1], y0 + ys[0][0], y0 + ys[-1][1]
        zs = _runs(bits[x0:x1, y0:y1, z0:z1].any(axis=(0, 1)), gap)
        if split(zs):
            todo += [((x0, x1), (y0, y1), (z0 + a, z0 + b), None) for a, b in reversed(zs)]
        else:
            out.append((slice(x0, x1), slice(y0, y1), slice(z0 + zs[0][0], z0 + zs[-1][1])))
    return out


def hull(parts: list[Box]) -> Box | None:
    """The smallest box holding every box of ``parts``; None when there are none."""
    if not parts:
        return None
    return tuple(
        slice(min(p[ax].start for p in parts), max(p[ax].stop for p in parts)) for ax in range(3)
    )


def bbox(bits: np.ndarray, pad: int = 0) -> Box | None:
    """Slices of the smallest box holding every set voxel of ``bits``,
    grown by ``pad`` voxels per side and clipped to the grid; None when
    nothing is set. This is :func:`boxes` with a gap no box can hold, so
    one box: one ``any`` over the grid and one over the x/y box.
    """
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    box = hull(boxes(bits, max(bits.shape)))
    if box is None:
        return None
    return tuple(slice(max(s.start - pad, 0), min(s.stop + pad, n)) for s, n in zip(box, bits.shape))


def grow(bits: np.ndarray, connectivity: int = 6) -> np.ndarray:
    """``bits`` dilated once by the 6-connected cross or the 26-connected
    cube, reading the voxels beyond the array's faces as unset: scipy's
    ``binary_dilation(bits, CROSS6 or CUBE26)``. Each axis ORs in the
    one-voxel shifts either way, without wrap-around; for the cube each
    axis shifts what the axes before it grew, so the three steps span the
    3x3x3 box."""
    out = bits.copy(order="K")
    for ax in range(3):
        src = out if connectivity == 26 else bits
        head = (slice(None),) * ax + (slice(1, None),)
        tail = (slice(None),) * ax + (slice(None, -1),)
        out[tail] |= src[head]
        out[head] |= src[tail]
    return out


def surface(bits: np.ndarray) -> np.ndarray:
    """The set voxels of ``bits`` with an unset 6-neighbour, reading the
    voxels beyond the array's faces as unset: every set face voxel, and
    each inner one that :func:`grow` of the unset voxels reaches."""
    out = bits.copy(order="K")
    inner = (slice(1, -1),) * 3
    out[inner] &= grow(~bits)[inner]
    return out


def on_box(m: Mask, reach: int, op) -> Mask:
    """``op`` applied to the foreground box of ``m`` grown by ``reach`` voxels
    and clipped to the grid, placed in an otherwise empty grid; an empty mask
    passes through unchanged. This equals ``op`` over the whole grid when
    ``op`` sets nothing farther than ``reach`` from the foreground and reads
    the crop faces as background (where the box is clipped, they are the
    grid border). The result grid is x-fastest, as the NRRD files are.
    """
    box = bbox(m.bits, pad=reach)
    if box is None:
        return m
    out = np.zeros(m.dims, dtype=bool, order="F")
    out[box] = op(m.bits[box])
    return Mask(out, m.spacing)


def _block_means(data: np.ndarray, axis: int, f: int) -> np.ndarray:
    """Float64 means of the runs of ``f`` entries along ``axis`` (the last
    run may be shorter). A run's sum is its first entry plus the rest added
    in turn, which is ``np.add.reduceat``'s order for runs of at most 8.
    The k-th entries of every run form one strided part, added whole into
    the front of one buffer, so a short last run takes only the parts it
    holds. The buffer starts at -0.0, the identity of float addition, so a
    run of one entry keeps its bits."""
    n = data.shape[axis]

    def run(start, stop, step):
        return (slice(None),) * axis + (slice(start, stop, step),)

    shape = list(data.shape)
    shape[axis] = -(-n // f)
    acc = np.full(shape, -0.0, order="F")
    for k in range(1, f):
        part = data[run(k, n, f)]
        acc[run(0, part.shape[axis], 1)] += part
    acc += data[run(0, n, f)]
    counts = np.minimum(np.arange(n, 0, -f), f)  # f, ..., f, the last run's length
    acc /= counts.reshape([-1 if a == axis else 1 for a in range(3)])
    return acc


def downsample(v: Volume, factor: tuple[int, int, int]) -> Volume:
    """Block-mean downsampling.

    Output dims are ceil(dim/factor) per axis; each output voxel is the
    exact mean of its source block (edge blocks may be partial) and the
    spacing is multiplied by the factor. Factors of (1, 1, 1) return the
    input unchanged; any other factor yields a float32 volume since block
    means are generally fractional.

    Summation order: the blocks are reduced along x, then y, then z, each
    time in float64, and every block sum is its first value plus the rest
    added in turn. For blocks of at most 8 along each axis this is
    ``np.add.reduceat``'s order, so the result is bit for bit the
    whole-grid reduceat means. Longer blocks of a float scan may differ
    from them in the last bit (reduceat adds long runs pairwise); integer
    scans sum exactly in any order. The work runs over z-slabs of whole
    z-blocks, about ``_SLAB_VOXELS`` voxels each, and widens the input to
    float64 one strided part at a time.
    """
    fx, fy, fz = (int(f) for f in factor)
    if min(fx, fy, fz) < 1:
        raise ValueError(f"factors must be positive integers, got {factor!r}")
    for f, n in zip((fx, fy, fz), v.dims):
        if f > n:
            raise FactorExceedsDim(f"factor {f} exceeds dimension {n}")
    if (fx, fy, fz) == (1, 1, 1):
        return v

    nx, ny, nz = v.dims
    out = np.empty((-(-nx // fx), -(-ny // fy), -(-nz // fz)), dtype=np.float32, order="F")
    step = fz * max(1, _SLAB_VOXELS // (nx * ny * fz))
    for z0 in range(0, nz, step):
        data = v.data[:, :, z0 : z0 + step]
        for axis, f in enumerate((fx, fy, fz)):
            if f > 1:
                data = _block_means(data, axis, f)
        out[:, :, z0 // fz : z0 // fz + data.shape[2]] = data

    sx, sy, sz = v.spacing
    return Volume(out, (sx * fx, sy * fy, sz * fz))
