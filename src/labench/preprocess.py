"""Intensity normalization, slice-wise CLAHE, and deterministic augmentation.

CLAHE follows the classic tiled formulation: per-tile histograms are
clipped at ``clip_limit`` times the uniform bin height, the clipped excess
is redistributed uniformly over all bins, each tile's cumulative histogram
becomes an intensity mapping, and every voxel is bilinearly interpolated
between the mappings of the four surrounding tile centers. With a single
tile and an unbounded clip limit this reduces exactly to plain histogram
equalization ``out = round((L-1) * cdf(v))``.

Augmentations are pure functions of their spec: rotation about z, elastic
deformation from a coarse random displacement grid, uniform in-plane
scaling, and axis flips. Volumes resample with trilinear interpolation and
masks with nearest-neighbor, so masks stay strictly binary. Out-of-bounds
samples fill with 0 / background.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import ConstantVolume, InvalidSpec, TooManyTiles
from .grids import AXES, Mask, Volume, check_same_geometry


def normalize_intensity(v: Volume) -> Volume:
    """Affine rescale of the intensity range to float32 [0, 1]."""
    lo = float(v.data.min())
    hi = float(v.data.max())
    if hi <= lo:
        raise ConstantVolume("cannot normalize a constant volume")
    out = (v.data.astype(np.float32) - np.float32(lo)) / np.float32(hi - lo)
    return Volume(out, v.spacing)


# --- CLAHE ----------------------------------------------------------------


def _tile_edges(n: int, tiles: int) -> np.ndarray:
    return np.round(np.linspace(0, n, tiles + 1)).astype(int)


def _axis_interp(n: int, edges: np.ndarray):
    """Per-pixel (left tile, right tile, right weight) along one axis."""
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    pos = np.arange(n, dtype=np.float64)
    right = np.searchsorted(centers, pos, side="left")
    left = np.clip(right - 1, 0, centers.size - 1)
    right = np.clip(right, 0, centers.size - 1)
    span = centers[right] - centers[left]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(span > 0, (pos - centers[left]) / np.where(span > 0, span, 1.0), 0.0)
    return left, right, w


def _clahe_slice(img: np.ndarray, tiles: tuple[int, int], clip_limit: float) -> np.ndarray:
    tx, ty = tiles
    nx, ny = img.shape

    if np.issubdtype(img.dtype, np.integer):
        levels = int(np.iinfo(img.dtype).max) + 1
        lv = img.astype(np.int64)
        decode = None
    else:
        lo = float(img.min())
        hi = float(img.max())
        if hi <= lo:
            return img.copy()
        levels = 256
        lv = np.floor((img.astype(np.float64) - lo) / (hi - lo) * (levels - 1) + 0.5).astype(np.int64)
        decode = (lo, hi)

    x_edges = _tile_edges(nx, tx)
    y_edges = _tile_edges(ny, ty)

    mappings = np.empty((tx, ty, levels), dtype=np.float64)
    for i in range(tx):
        for j in range(ty):
            tile = lv[x_edges[i]:x_edges[i + 1], y_edges[j]:y_edges[j + 1]]
            n_t = tile.size
            hist = np.bincount(tile.ravel(), minlength=levels).astype(np.float64)
            if math.isfinite(clip_limit):
                threshold = clip_limit * n_t / levels
                excess = np.maximum(hist - threshold, 0.0).sum()
                if excess > 0.0:
                    hist = np.minimum(hist, threshold) + excess / levels
            cdf = np.cumsum(hist) / n_t
            mappings[i, j] = cdf * (levels - 1)

    xl, xr, wx = _axis_interp(nx, x_edges)
    yl, yr, wy = _axis_interp(ny, y_edges)
    wx = wx[:, None]
    wy = wy[None, :]
    xl = xl[:, None]
    xr = xr[:, None]
    yl = yl[None, :]
    yr = yr[None, :]

    out = (
        (1 - wx) * (1 - wy) * mappings[xl, yl, lv]
        + wx * (1 - wy) * mappings[xr, yl, lv]
        + (1 - wx) * wy * mappings[xl, yr, lv]
        + wx * wy * mappings[xr, yr, lv]
    )
    out = np.clip(np.floor(out + 0.5), 0, levels - 1)

    if decode is None:
        return out.astype(img.dtype)
    lo, hi = decode
    return (lo + out / (levels - 1) * (hi - lo)).astype(img.dtype)


def clahe_slicewise(v: Volume, tiles: tuple[int, int] = (8, 8), clip_limit: float = 4.0) -> Volume:
    """Contrast-limited adaptive histogram equalization of each xy slice.

    ``clip_limit`` is relative to the uniform bin height and must exceed 1;
    pass ``math.inf`` to disable clipping. Float volumes are quantized to
    256 levels over their value range and mapped back, so the output range
    stays within the input range for every intensity type.
    """
    tx, ty = int(tiles[0]), int(tiles[1])
    if tx < 1 or ty < 1:
        raise ValueError(f"tile counts must be >= 1, got {tiles!r}")
    if tx > v.dims[0] or ty > v.dims[1]:
        raise TooManyTiles(f"{tiles!r} tiles for slice dims {v.dims[:2]}")
    if not clip_limit > 1.0:
        raise ValueError(f"clip_limit must be > 1.0, got {clip_limit!r}")
    out = np.empty(v.dims, dtype=v.data.dtype)
    for z in range(v.dims[2]):
        out[:, :, z] = _clahe_slice(v.data[:, :, z], (tx, ty), clip_limit)
    return Volume(out, v.spacing)


# --- augmentation -----------------------------------------------------------

# the spec fields each kind reads besides ``kind``
READS = {
    "rotate": ("angle_deg",),
    "elastic": ("magnitude", "grid_size", "seed"),
    "perspective-scale": ("scale",),
    "flip": ("flip_axis",),
}
KINDS = tuple(READS)


@dataclass(frozen=True)
class AugmentationSpec:
    """One deterministic transform.

    Fields are per-kind: rotate uses ``angle_deg`` (about z, through the
    volume center); elastic uses ``magnitude`` (voxels, std of the control
    displacements), ``grid_size`` and ``seed``; perspective-scale uses
    ``scale`` (in-plane, about the center); flip uses ``flip_axis``.
    """

    kind: str
    seed: int = 0
    angle_deg: float = 0.0
    magnitude: float = 0.0
    grid_size: int = 4
    scale: float = 1.0
    flip_axis: str = "x"

    def validated(self) -> "AugmentationSpec":
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown augmentation kind {self.kind!r}")
        for name in ("angle_deg", "magnitude", "scale"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite")
        if self.kind == "flip" and self.flip_axis not in AXES:
            raise InvalidSpec(f"flip axis must be x, y or z, got {self.flip_axis!r}")
        if self.kind == "elastic" and self.grid_size < 2:
            raise InvalidSpec(f"elastic grid_size must be >= 2, got {self.grid_size}")
        if self.kind == "perspective-scale" and self.scale <= 0:
            raise InvalidSpec(f"scale must be positive, got {self.scale}")
        return self


def load_augmentation_specs(path) -> list[AugmentationSpec]:
    """Load a JSON list of transform entries; a key the entry's kind does
    not read is rejected."""
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise InvalidSpec("augmentation config must be a JSON list")
    specs = []
    for entry in entries:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise InvalidSpec(f"each entry needs a 'kind': {entry!r}")
        spec = AugmentationSpec(entry["kind"]).validated()
        unread = sorted(set(entry) - {"kind", *READS[spec.kind]})
        if unread:
            raise InvalidSpec(f"augmentation kind {spec.kind!r} does not read {unread}")
        specs.append(replace(spec, **entry).validated())
    return specs


def _cast(data: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``data`` as ``dtype``; an integer dtype rounds half-up and clips to its range."""
    if np.issubdtype(dtype, np.integer):
        data = np.clip(np.floor(data.astype(np.float64, copy=False) + 0.5), 0, np.iinfo(dtype).max)
    return data.astype(dtype, copy=False)


def _resample(data: np.ndarray, coords, order: int) -> np.ndarray:
    return ndimage.map_coordinates(data, coords, order=order, mode="constant", cval=0.0)


def _affine_pair(volume: Volume, mask: Mask, matrix: np.ndarray, center: np.ndarray):
    offset = center - matrix @ center
    new_data = ndimage.affine_transform(
        volume.data.astype(np.float32, copy=False), matrix, offset=offset,
        order=1, mode="constant", cval=0.0, prefilter=False,
    )
    new_data = _cast(new_data, volume.data.dtype)
    new_bits = ndimage.affine_transform(
        mask.bits.astype(np.uint8), matrix, offset=offset, order=0,
        mode="constant", cval=0, prefilter=False,
    )
    return Volume(np.ascontiguousarray(new_data), volume.spacing), Mask(new_bits > 0, mask.spacing)


def _rotate(volume: Volume, mask: Mask, angle_deg: float):
    nx, ny, _ = volume.dims
    k = angle_deg / 90.0
    if nx == ny and k == int(k):
        k = int(k) % 4
        if k == 0:
            return volume, mask
        return (
            Volume(np.ascontiguousarray(np.rot90(volume.data, k, axes=(0, 1))), volume.spacing),
            Mask(np.ascontiguousarray(np.rot90(mask.bits, k, axes=(0, 1))), mask.spacing),
        )
    if angle_deg % 360.0 == 0.0:
        return volume, mask
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    # inverse map: output index -> input index, rotation about the center
    matrix = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    center = (np.array(volume.dims, dtype=np.float64) - 1.0) / 2.0
    return _affine_pair(volume, mask, matrix, center)


def _scale(volume: Volume, mask: Mask, factor: float):
    if factor == 1.0:
        return volume, mask
    inv = 1.0 / factor
    matrix = np.diag([inv, inv, 1.0])
    center = (np.array(volume.dims, dtype=np.float64) - 1.0) / 2.0
    return _affine_pair(volume, mask, matrix, center)


def _elastic(volume: Volume, mask: Mask, magnitude: float, grid_size: int, seed: int):
    if magnitude == 0.0:
        return volume, mask
    rng = np.random.default_rng(seed)
    dims = volume.dims
    disp = rng.normal(0.0, magnitude, size=(3, grid_size, grid_size, grid_size))
    coords = np.indices(dims, dtype=np.float64)
    for axis in range(3):
        zoom = tuple(n / grid_size for n in dims)
        field = ndimage.zoom(disp[axis], zoom, order=3, mode="nearest", grid_mode=True)
        assert field.shape == dims
        coords[axis] += field
    new_data = _resample(volume.data.astype(np.float64), coords, order=1)
    new_bits = _resample(mask.bits.astype(np.uint8), coords, order=0) > 0
    return (
        Volume(_cast(new_data, volume.data.dtype), volume.spacing),
        Mask(new_bits, mask.spacing),
    )


def _flip(volume: Volume, mask: Mask, axis_name: str):
    axis = AXES[axis_name]
    return (
        Volume(np.ascontiguousarray(np.flip(volume.data, axis=axis)), volume.spacing),
        Mask(np.ascontiguousarray(np.flip(mask.bits, axis=axis)), mask.spacing),
    )


def apply_augmentation(v: Volume, m: Mask, spec: AugmentationSpec) -> tuple[Volume, Mask]:
    """Apply one transform identically to a volume (trilinear) and mask (nearest)."""
    check_same_geometry(v, m)
    spec = spec.validated()
    if spec.kind == "rotate":
        return _rotate(v, m, spec.angle_deg)
    if spec.kind == "perspective-scale":
        return _scale(v, m, spec.scale)
    if spec.kind == "elastic":
        return _elastic(v, m, spec.magnitude, spec.grid_size, spec.seed)
    return _flip(v, m, spec.flip_axis)


def augment(v: Volume, m: Mask, specs, seed: int) -> tuple[Volume, Mask]:
    """Apply ``specs`` in order to a volume and its mask, each spec's seed
    shifted by ``seed``; the same specs and seed give the same pair."""
    check_same_geometry(v, m)
    for spec in specs:
        v, m = apply_augmentation(v, m, replace(spec, seed=spec.seed + seed))
    return v, m
