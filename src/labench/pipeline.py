"""Two-stage localize -> crop -> segment -> place-back pipeline geometry.

The winning challenge pipelines detect the cavity centroid, crop a fixed
240x160x96 region around it, segment inside the crop, and place the
result back at the scan resolution. Here the two CNNs are replaced by
plain values so the geometry (and the offset and patch-size experiments
that probe it) can be exercised without any trained model. The first
stage is a voxel center, found by :func:`localize_threshold` (threshold
centroid), :func:`localize_oracle` (truth centroid) or taken as the grid
center. The second is a segmenter called as ``segment(patch, box)``: a
:class:`ThresholdSegmenter`, or a :class:`MaskSegmenter` over a full-grid
mask (the truth as an oracle, or an external model's prediction).

The patch is the in-grid part of the ROI box, a view of the scan, and
``box`` holds its slices (a :data:`grids.Box`). Nothing is padded: a box
that leaves the grid gives a smaller patch, and one that misses it
entirely gives an empty prediction without calling the segmenter. This
module reads no files; the CLI reads every input.
"""

from __future__ import annotations

import math

import numpy as np

from . import grids
from .errors import EmptyMask, NoForeground, NonFiniteIntensity, RoiTooSmall
from .grids import (
    DEFAULT_ROI_SIZE,
    Box,
    Grid,
    Mask,
    Volume,
    VoxelIndex,
    axis_index,
    check_same_geometry,
)
from .metrics import dice
from .postprocess import StructuringElement, close_mask, largest_component


def crop(grid: Grid, center: VoxelIndex, size: tuple[int, int, int]) -> tuple[Grid | None, Box]:
    """The in-grid part of a box of the given size centered on a voxel.

    The box starts at ``center - size//2`` per axis. Returns a view of the
    grid over the box clipped to the grid, and the clipped slices; the
    view is None when the box misses the grid.
    """
    size = tuple(int(w) for w in size)
    if min(size) < 1:
        raise ValueError(f"box size must be positive, got {size!r}")
    box = []
    for c, w, n in zip(center, size, grid.dims):
        lo = int(c) - w // 2
        box.append(slice(min(max(lo, 0), n), max(min(lo + w, n), 0)))
    box = tuple(box)
    if any(sl.start == sl.stop for sl in box):
        return None, box
    src = grid.bits if isinstance(grid, Mask) else grid.data
    return type(grid)(src[box], grid.spacing), box


# --- localizers -------------------------------------------------------------


def otsu_threshold(data: np.ndarray) -> float:
    """Otsu's threshold (maximal between-class variance) over 256 bins;
    NonFiniteIntensity for data holding NaN or infinity."""
    flat = data.ravel(order="K").astype(np.float64)
    lo, hi = float(flat.min()), float(flat.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteIntensity("Otsu's threshold needs a volume without NaN or infinity")
    if hi <= lo:
        raise NoForeground("constant volume has no separable foreground")
    hist, edges = np.histogram(flat, bins=256, range=(lo, hi))
    p = hist.astype(np.float64) / flat.size
    omega = np.cumsum(p)
    mu = np.cumsum(p * (edges[:-1] + edges[1:]) / 2.0)
    mu_t = mu[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma_b = (mu_t * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = 0.0
    k = int(np.argmax(sigma_b))
    return float(edges[k + 1])


def _centroid(bits: np.ndarray) -> tuple[float, float, float]:
    """Mean index of the set voxels of ``bits`` per axis, found on their box."""
    box = grids.bbox(bits)
    return tuple(float((c + sl.start).mean()) for c, sl in zip(np.nonzero(bits[box]), box))


def localize_oracle(truth: Mask) -> VoxelIndex:
    """Truth foreground centroid rounded half-up to a voxel index."""
    if truth.is_empty:
        raise EmptyMask("cannot localize an empty truth mask")
    return tuple(int(np.floor(c + 0.5)) for c in _centroid(truth.bits))


def localize_threshold(v: Volume, downsample_factor: int = 4) -> VoxelIndex:
    """Centroid of the largest bright component of a downsampled scan.

    Otsu-thresholds the downsampled volume, keeps the largest
    26-connected bright component, and maps its centroid back to full
    resolution (block centers), clamped to the volume bounds.
    """
    f = min(int(downsample_factor), *v.dims)
    # looked up on the module, so a wrapper installed on grids.downsample
    # (a profiler, say) sees this call too
    small = grids.downsample(v, (f, f, f))
    threshold = otsu_threshold(small.data)
    bright = Mask(small.data > threshold, small.spacing)
    if bright.is_empty:
        raise NoForeground("thresholding produced an empty foreground")
    bright = largest_component(bright, connectivity=26).bits
    # block centers: downsampled index c covers full-res [c*f, c*f + f)
    return tuple(
        int(np.clip(np.floor((c + 0.5) * f), 0, dim - 1))
        for c, dim in zip(_centroid(bright), v.dims)
    )


# --- segmenters -------------------------------------------------------------


class MaskSegmenter:
    """Segments a patch as a fixed full-grid mask restricted to the patch
    box: the truth (an oracle) or an external model's prediction."""

    def __init__(self, mask: Mask):
        self.mask = mask

    def __call__(self, patch: Volume, box: Box) -> Mask:
        return Mask(self.mask.bits[box], self.mask.spacing)


class ThresholdSegmenter:
    """Otsu threshold, largest 26-component, then closing with the radius-1 cross.

    ``smooth_sigma`` optionally Gaussian-filters the patch first; leave it
    at 0 for bit-exact behavior on noiseless data, raise it (~1-2 voxels)
    to get graceful instead of catastrophic degradation under voxel noise.
    """

    def __init__(self, smooth_sigma: float = 0.0):
        self.smooth_sigma = smooth_sigma

    def __call__(self, patch: Volume, box: Box) -> Mask:
        data = patch.data
        if self.smooth_sigma > 0.0:
            from scipy import ndimage
            data = data.astype(np.float64)
            # an x-fastest output, so the threshold mask below needs no copy
            data = ndimage.gaussian_filter(data, self.smooth_sigma, output=np.empty_like(data))
        try:
            threshold = otsu_threshold(data)
        except NoForeground:
            return Mask(np.zeros(patch.dims, dtype=bool, order="F"), patch.spacing)
        mask = largest_component(Mask(data > threshold, patch.spacing), connectivity=26)
        return close_mask(mask, StructuringElement("cross", 1))


# --- pipeline and experiments ------------------------------------------------


def run_pipeline(v: Volume, center: VoxelIndex, segmenter, roi_size=DEFAULT_ROI_SIZE) -> Mask:
    """Crop around ``center`` -> segment -> place the patch mask in a zero
    grid, x-fastest as the NRRD files are."""
    patch, box = crop(v, center, roi_size)
    full = np.zeros(v.dims, dtype=bool, order="F")
    if patch is not None:
        full[box] = segmenter(patch, box).bits
    return Mask(full, v.spacing)


def max_noloss_displacement(truth: Mask, roi_size, axis: int = 0) -> int:
    """Largest positive crop-center displacement (voxels) along an axis
    that keeps every foreground voxel inside the box.

    This is the sweep's 100% point: the mask is pressed against the box
    side without losing any voxels. RoiTooSmall when no crop center keeps
    every foreground voxel inside the box.
    """
    c = localize_oracle(truth)[axis]
    w = roi_size[axis]
    extent = grids.bbox(truth.bits)[axis]
    lo, hi = extent.start, extent.stop - 1
    d_max = lo - c + w // 2           # box start must stay at or below the mask start
    d_min = hi - c - (w - w // 2 - 1)  # box end must stay at or above the mask end
    if d_max < max(0, d_min):
        raise RoiTooSmall(f"roi size {roi_size!r} cannot hold the mask along axis {axis}")
    return d_max


def offset_sweep(
    v: Volume,
    truth: Mask,
    segmenter,
    roi_size=DEFAULT_ROI_SIZE,
    offsets=(0, 25, 50, 75, 100, 125, 150),
    axis: int | str = "x",
) -> list[tuple[float, float]]:
    """Dice as the crop center is displaced away from the cavity centroid.

    Each offset is a percentage of the maximal no-loss displacement along
    the chosen axis; 100% presses the cavity against the box side without
    voxel loss, and larger offsets start cutting it.
    """
    if not all(np.isfinite(pct) and pct >= 0 for pct in offsets):
        raise ValueError(f"offsets must be finite and non-negative, got {list(offsets)}")
    check_same_geometry(v, truth)
    if truth.is_empty:
        raise EmptyMask("offset sweep needs a non-empty truth mask")
    ax = axis_index(axis)
    center = localize_oracle(truth)
    d100 = max_noloss_displacement(truth, roi_size, ax)
    curve = []
    for pct in offsets:
        d = int(np.floor(pct / 100.0 * d100 + 0.5))
        shifted = tuple(c + (d if i == ax else 0) for i, c in enumerate(center))
        pred = run_pipeline(v, shifted, segmenter, roi_size)
        curve.append((float(pct), dice(pred, truth)))
    return curve


def patch_size_sweep(
    truth: Mask, sizes, z_extent: int = DEFAULT_ROI_SIZE[2]
) -> list[tuple[int, int, float, float]]:
    """Background share and cavity containment across candidate xy patch sizes.

    Boxes are centered on the truth centroid with a fixed z extent.
    Returns (wx, wy, background_pct, containment_pct) per size, where
    background_pct is over the whole requested box, its out-of-grid part
    included, and containment_pct is the share of truth foreground inside
    the box.
    """
    if truth.is_empty:
        raise EmptyMask("patch-size sweep needs a non-empty truth mask")
    center = localize_oracle(truth)
    total_fg = truth.count
    rows = []
    for wx, wy in sizes:
        size = (int(wx), int(wy), int(z_extent))
        patch, _ = crop(truth, center, size)
        inside = patch.count
        box_voxels = size[0] * size[1] * size[2]
        rows.append(
            (
                size[0],
                size[1],
                100.0 * (1.0 - inside / box_voxels),
                100.0 * inside / total_fg,
            )
        )
    return rows
