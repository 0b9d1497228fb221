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
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConstantVolume, InvalidSpec, NonFiniteIntensity, TooManyTiles
from .grids import AXES, Mask, Volume, check_same_geometry


def normalize_intensity(v: Volume) -> Volume:
    """Affine rescale of the intensity range to float32 [0, 1]."""
    lo = float(v.data.min())
    hi = float(v.data.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteIntensity("cannot normalize a volume holding NaN or infinity")
    if hi <= lo:
        raise ConstantVolume("cannot normalize a constant volume")
    out = (v.data.astype(np.float32) - np.float32(lo)) / np.float32(hi - lo)
    return Volume(out, v.spacing)


# --- CLAHE ----------------------------------------------------------------


def _axis_interp(n: int, edges: np.ndarray):
    """Per-pixel (left tile, right tile, right weight) along one axis."""
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    pos = np.arange(n, dtype=np.float64)
    right = np.searchsorted(centers, pos, side="left")
    left = np.clip(right - 1, 0, centers.size - 1)
    right = np.clip(right, 0, centers.size - 1)
    span = centers[right] - centers[left]
    w = np.where(span > 0, (pos - centers[left]) / np.where(span > 0, span, 1.0), 0.0)
    return left, right, w


_CHUNK_PIXELS = 1 << 14  # pixels per chunk of CLAHE's per-pixel work


def clahe_slicewise(v: Volume, tiles: tuple[int, int] = (8, 8), clip_limit: float = 4.0) -> Volume:
    """Contrast-limited adaptive histogram equalization of each xy slice.

    ``clip_limit`` is relative to the uniform bin height and must exceed 1;
    pass ``math.inf`` to disable clipping. Float volumes are quantized to
    256 levels over each slice's value range and mapped back, so the output
    range stays within the input range for every intensity type; a float
    volume holding NaN or infinity raises NonFiniteIntensity.

    The clip threshold and the mapping's scale use every level of the
    dtype, but the histogram and mapping tables hold only the smallest
    power of two of bins, at least 128, above the volume's maximum: the
    bins past it are empty, so numpy's pairwise sum of a tile's excess and
    the cumulative sum give the same values over either width. Each
    slice's per-pixel work runs in its memory order, as y-major rows of
    the x-fastest grid, in chunks of about ``_CHUNK_PIXELS`` pixels, in
    place in buffers allocated once per call; a float slice maps back
    through a table of its 256 levels.
    """
    tx, ty = int(tiles[0]), int(tiles[1])
    if tx < 1 or ty < 1:
        raise ValueError(f"tile counts must be >= 1, got {tiles!r}")
    if tx > v.dims[0] or ty > v.dims[1]:
        raise TooManyTiles(f"{tiles!r} tiles for slice dims {v.dims[:2]}")
    if not clip_limit > 1.0:
        raise ValueError(f"clip_limit must be > 1.0, got {clip_limit!r}")
    integer = np.issubdtype(v.data.dtype, np.integer)
    if integer:
        levels = int(np.iinfo(v.data.dtype).max) + 1
        bins = max(128, 1 << int(v.data.max()).bit_length())
    else:
        levels = bins = 256
        los, his = v.data.min(axis=(0, 1)), v.data.max(axis=(0, 1))
        if not (np.isfinite(los).all() and np.isfinite(his).all()):
            raise NonFiniteIntensity("CLAHE cannot map a volume holding NaN or infinity")

    nx, ny, nz = v.dims
    x_edges, y_edges = (np.round(np.linspace(0, n, t + 1)).astype(int) for n, t in ((nx, tx), (ny, ty)))
    x_sizes, y_sizes = np.diff(x_edges), np.diff(y_edges)
    n_t = (x_sizes[:, None] * y_sizes).reshape(-1, 1)
    threshold = clip_limit * n_t / levels
    # a slice is worked on as y-major rows, its memory order in an x-fastest
    # grid; per-pixel tables broadcast from axis vectors come out in that order
    xl, xr, wx = _axis_interp(nx, x_edges)
    yl, yr, wy = (a[:, None] for a in _axis_interp(ny, y_edges))
    keys = (np.repeat(np.arange(tx), x_sizes) * ty + np.repeat(np.arange(ty), y_sizes)[:, None]) * bins
    # each pixel's four tile offsets from its own tile and their bilinear
    # weights, in the order they are summed
    corners = [((x * ty + y) * bins - keys, u * w)
               for y, w in ((yl, 1 - wy), (yr, wy)) for x, u in ((xl, 1 - wx), (xr, wx))]

    n_rows, n_cols = keys.shape
    step = max(1, _CHUNK_PIXELS // n_cols)  # rows per chunk
    key = np.empty_like(keys)  # each pixel's tile * bins + level
    idx = np.empty((min(step, n_rows), n_cols), dtype=np.intp)
    gathered, res = np.empty(idx.shape), np.empty(idx.shape)

    out = np.empty_like(v.data)
    for z in range(nz):
        img, dst = v.data[:, :, z].T, out[:, :, z].T
        if integer:
            key[...] = img
        else:
            lo, hi = float(los[z]), float(his[z])
            if hi <= lo:
                dst[...] = img
                continue
            for r0 in range(0, n_rows, step):
                q = res[: min(step, n_rows - r0)]
                np.subtract(img[r0 : r0 + step], lo, out=q, dtype=np.float64)
                q /= hi - lo
                q *= levels - 1
                q += 0.5
                key[r0 : r0 + step] = np.floor(q, out=q)
            decode = (lo + np.arange(levels) / (levels - 1) * (hi - lo)).astype(out.dtype)
        key += keys
        # one bincount over the keys gives every tile histogram of the slice
        hist = np.bincount(key.ravel(), minlength=tx * ty * bins)
        hist = hist.reshape(tx * ty, bins).astype(np.float64)
        if math.isfinite(clip_limit):
            # a tile without excess adds 0 to bins that the clip leaves as they are
            excess = np.maximum(hist - threshold, 0.0).sum(axis=1, keepdims=True)
            hist = np.minimum(hist, threshold) + excess / levels
        mapping = (np.cumsum(hist, axis=1) / n_t * (levels - 1)).ravel()
        for r0 in range(0, n_rows, step):
            rs, m = slice(r0, r0 + step), min(step, n_rows - r0)
            i, r = idx[:m], res[:m]
            # every index is in range; mode="clip" only spares take a bounds-checked copy
            for c, (offset, weight) in enumerate(corners):
                term = gathered[:m] if c else r
                np.add(key[rs], offset[rs], out=i)
                np.take(mapping, i, out=term, mode="clip")
                term *= weight[rs]
                if c:
                    r += term
            r += 0.5
            # the weights and mappings are >= 0, so only the top of the clip can bite
            np.minimum(np.floor(r, out=r), levels - 1, out=r)
            if integer:
                dst[rs] = r
            else:
                i[...] = r
                np.take(decode, i, out=dst[rs], mode="clip")
    return Volume(out, v.spacing)


# --- augmentation -----------------------------------------------------------

# the spec fields each kind reads besides ``kind``
READS = {
    "rotate": ("angle_deg",),
    "elastic": ("magnitude", "grid_size", "seed"),
    "perspective-scale": ("scale",),
    "flip": ("flip_axis",),
}

# each field's type, its range as a test, and the text that names both; a
# bool is not a number
_VALUES = {
    "seed": (numbers.Integral, lambda v: v >= 0, "an integer >= 0"),
    "angle_deg": (numbers.Real, math.isfinite, "a finite number"),
    "magnitude": (numbers.Real, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"),
    "grid_size": (numbers.Integral, lambda v: v >= 2, "an integer >= 2"),
    "scale": (numbers.Real, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    "flip_axis": (str, lambda v: v in AXES, "x, y or z"),
}


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
        """``self``; InvalidSpec for an unknown kind, a field the kind does
        not read that is set off its default, or a field it reads whose
        type or value is outside :data:`_VALUES`."""
        if not isinstance(self.kind, str) or self.kind not in READS:
            raise InvalidSpec(f"unknown augmentation kind {self.kind!r}")
        unread = [
            f.name for f in fields(self)
            if f.name not in ("kind", *READS[self.kind]) and getattr(self, f.name) != f.default
        ]
        if unread:
            raise InvalidSpec(f"augmentation kind {self.kind!r} does not read {unread}")
        for name in READS[self.kind]:
            kind, within, what = _VALUES[name]
            value = getattr(self, name)
            try:
                valid = isinstance(value, kind) and not isinstance(value, bool) and within(value)
            except OverflowError:  # an int too large for a float
                valid = False
            if not valid:
                raise InvalidSpec(f"{name} must be {what}, got {value!r}")
        return self


def load_augmentation_specs(path) -> list[AugmentationSpec]:
    """Load a JSON list of transform entries; a key the entry's kind does
    not read is rejected, and so is a file that is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InvalidSpec(f"{path} is not a JSON file: {exc}") from None
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


def _affine_pair(volume: Volume, mask: Mask, matrix: np.ndarray):
    from scipy import ndimage
    center = (np.array(volume.dims, dtype=np.float64) - 1.0) / 2.0
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
    return Volume(new_data, volume.spacing), Mask(new_bits > 0, mask.spacing)


def _rotate(volume: Volume, mask: Mask, angle_deg: float):
    nx, ny, _ = volume.dims
    k = angle_deg / 90.0
    if nx == ny and k == int(k):
        k = int(k) % 4
        if k == 0:
            return volume, mask
        return (
            Volume(np.rot90(volume.data, k, axes=(0, 1)), volume.spacing),
            Mask(np.rot90(mask.bits, k, axes=(0, 1)), mask.spacing),
        )
    if angle_deg % 360.0 == 0.0:
        return volume, mask
    theta = math.radians(angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    # inverse map: output index -> input index, rotation about the center
    matrix = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return _affine_pair(volume, mask, matrix)


def _scale(volume: Volume, mask: Mask, factor: float):
    if factor == 1.0:
        return volume, mask
    inv = 1.0 / factor
    matrix = np.diag([inv, inv, 1.0])
    return _affine_pair(volume, mask, matrix)


def _elastic(volume: Volume, mask: Mask, magnitude: float, grid_size: int, seed: int):
    if grid_size**3 > volume.nvox:
        raise InvalidSpec(f"elastic grid_size {grid_size} has more control points than the volume has voxels")
    if magnitude == 0.0:
        return volume, mask
    from scipy import ndimage
    rng = np.random.default_rng(seed)
    dims = volume.dims
    disp = rng.normal(0.0, magnitude, size=(3, grid_size, grid_size, grid_size))
    coords = np.indices(dims, dtype=np.float64)
    for axis in range(3):
        zoom = tuple(n / grid_size for n in dims)
        field = ndimage.zoom(disp[axis], zoom, order=3, mode="nearest", grid_mode=True)
        assert field.shape == dims
        coords[axis] += field
    # map_coordinates fills out-of-bounds samples with 0 by default
    new_data = ndimage.map_coordinates(volume.data.astype(np.float64), coords, order=1)
    new_bits = ndimage.map_coordinates(mask.bits.astype(np.uint8), coords, order=0) > 0
    return (
        Volume(_cast(new_data, volume.data.dtype), volume.spacing),
        Mask(new_bits, mask.spacing),
    )


def _flip(volume: Volume, mask: Mask, axis_name: str):
    axis = AXES[axis_name]
    return (
        Volume(np.flip(volume.data, axis=axis), volume.spacing),
        Mask(np.flip(mask.bits, axis=axis), mask.spacing),
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
    """Apply ``specs`` in order to a volume and its mask, the seed of each
    elastic spec shifted by ``seed``; the same specs and seed give the same pair."""
    check_same_geometry(v, m)
    for spec in specs:
        if spec.kind == "elastic":
            spec = replace(spec, seed=spec.seed + seed)
        v, m = apply_augmentation(v, m, spec)
    return v, m
