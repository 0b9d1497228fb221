"""In-memory 3D grids: grayscale volumes and binary masks.

Arrays are indexed ``[ix, iy, iz]``. The canonical linear order is
x-fastest, i.e. ``flat[ix + iy*nx + iz*nx*ny]``, which is the raster order
of the NRRD files this package reads and writes; :meth:`Volume.flat` and
:meth:`Volume.from_flat` convert at that boundary. Grids are immutable
after construction (the constructor marks the underlying array read-only),
so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import FactorExceedsDim, GeometryMismatch, NonPositiveSpacing

VoxelIndex = tuple[int, int, int]

# 6- and 26-connected neighbourhoods shared by labeling and morphology
CROSS6 = ndimage.generate_binary_structure(3, 1)
CUBE26 = ndimage.generate_binary_structure(3, 3)

AXES = {"x": 0, "y": 1, "z": 2}

INTENSITY_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.float32))


def checked_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as three floats; NonPositiveSpacing unless each is finite and > 0."""
    s = tuple(float(x) for x in spacing)
    if len(s) != 3 or not all(np.isfinite(x) and x > 0.0 for x in s):
        raise NonPositiveSpacing(
            f"spacing must be three strictly positive finite values, got {spacing!r}"
        )
    return s


@dataclass(frozen=True, eq=False)
class Volume:
    """3D grayscale intensity grid with physical voxel spacing in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError(f"volume data must be a non-empty 3D array, got shape {data.shape}")
        if data.dtype not in INTENSITY_DTYPES:
            raise ValueError(
                f"unsupported intensity dtype {data.dtype}; expected uint8, uint16 or float32"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", checked_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def intensity_type(self) -> np.dtype:
        return self.data.dtype

    @property
    def nvox(self) -> int:
        return self.data.size

    def flat(self) -> np.ndarray:
        """Intensities in x-fastest linear order."""
        return self.data.ravel(order="F")

    @classmethod
    def from_flat(cls, flat, dims, spacing=(1.0, 1.0, 1.0), dtype=None) -> "Volume":
        arr = np.asarray(flat, dtype=dtype)
        nx, ny, nz = dims
        if arr.size != nx * ny * nz:
            raise ValueError(f"flat data length {arr.size} != {nx}*{ny}*{nz}")
        return cls(arr.reshape((nx, ny, nz), order="F"), spacing)

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
        if bits.ndim != 3 or 0 in bits.shape:
            raise ValueError(f"mask bits must be a non-empty 3D array, got shape {bits.shape}")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)
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

    def flat(self) -> np.ndarray:
        return self.bits.ravel(order="F")

    @classmethod
    def from_flat(cls, flat, dims, spacing=(1.0, 1.0, 1.0)) -> "Mask":
        arr = np.asarray(flat).astype(bool)
        nx, ny, nz = dims
        if arr.size != nx * ny * nz:
            raise ValueError(f"flat data length {arr.size} != {nx}*{ny}*{nz}")
        return cls(arr.reshape((nx, ny, nz), order="F"), spacing)

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


def bbox(bits: np.ndarray, pad: int = 0) -> Box | None:
    """Slices of the smallest box holding every set voxel of ``bits``,
    grown by ``pad`` voxels per side and clipped to the grid; None when
    nothing is set.

    The box comes from axis projections: one ``any`` along z over the
    grid gives the x and y extents, and one over the x/y box the z extent.
    """
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    xy = bits.any(axis=2)
    xs = np.flatnonzero(xy.any(axis=1))
    if xs.size == 0:
        return None
    ys = np.flatnonzero(xy.any(axis=0))
    zs = np.flatnonzero(bits[xs[0] : xs[-1] + 1, ys[0] : ys[-1] + 1].any(axis=(0, 1)))
    return tuple(
        slice(max(int(c[0]) - pad, 0), min(int(c[-1]) + 1 + pad, n))
        for c, n in zip((xs, ys, zs), bits.shape)
    )


def linear_index(idx: VoxelIndex, dims: tuple[int, int, int]) -> int:
    """x-fastest linear index of a voxel."""
    ix, iy, iz = idx
    nx, ny, _ = dims
    return ix + iy * nx + iz * nx * ny


def downsample(v: Volume, factor: tuple[int, int, int]) -> Volume:
    """Block-mean downsampling.

    Output dims are ceil(dim/factor) per axis; each output voxel is the
    exact mean of its source block (edge blocks may be partial) and the
    spacing is multiplied by the factor. Factors of (1, 1, 1) return the
    input unchanged; any other factor yields a float32 volume since block
    means are generally fractional.
    """
    fx, fy, fz = (int(f) for f in factor)
    if min(fx, fy, fz) < 1:
        raise ValueError(f"factors must be positive integers, got {factor!r}")
    for f, n in zip((fx, fy, fz), v.dims):
        if f > n:
            raise FactorExceedsDim(f"factor {f} exceeds dimension {n}")
    if (fx, fy, fz) == (1, 1, 1):
        return v

    data = v.data.astype(np.float64)
    for axis, f in enumerate((fx, fy, fz)):
        if f == 1:
            continue
        n = data.shape[axis]
        starts = np.arange(0, n, f)
        sums = np.add.reduceat(data, starts, axis=axis)
        counts = np.diff(np.append(starts, n)).astype(np.float64)
        shape = [1, 1, 1]
        shape[axis] = counts.size
        data = sums / counts.reshape(shape)

    sx, sy, sz = v.spacing
    return Volume(data.astype(np.float32), (sx * fx, sy * fy, sz * fz))
