"""Binary mask clean-up: largest component, morphology, surface smoothing.

These mirror the post-processing column of the challenge methods table:
keep-largest-component, dilation/erosion, and smoothing.

Each operator is one :func:`labench.grids.on_box` call around one scipy
call, with its own reach, so it runs on the foreground box and equals the
operator over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CROSS6, CUBE26, Mask, on_box


@dataclass(frozen=True)
class StructuringElement:
    """Structuring element for morphology: a 6-connected cross or 26-connected cube.

    Radius r means r rounds of the radius-1 ``unit`` element, which scipy
    runs as ``iterations=r``: the L1 ball of radius r for the cross, the
    (2r+1)^3 Chebyshev ball for the cube.
    """

    kind: str = "cross"
    radius: int = 1

    def __post_init__(self):
        if self.kind not in ("cross", "cube"):
            raise ValueError(f"kind must be 'cross' or 'cube', got {self.kind!r}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")

    @property
    def unit(self) -> np.ndarray:
        return CROSS6 if self.kind == "cross" else CUBE26


def largest_component(m: Mask, connectivity: int = 26) -> Mask:
    """Keep only the largest connected foreground component.

    Size ties are broken by the smallest minimum x-fastest linear index.
    An empty mask passes through unchanged.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    from scipy import ndimage

    def largest(bits):
        labels, _ = ndimage.label(bits, structure=CROSS6 if connectivity == 6 else CUBE26)
        sizes = np.bincount(labels.ravel())[1:]  # skip background label 0
        best = int(np.argmax(sizes)) + 1
        tied = np.nonzero(sizes == sizes[best - 1])[0] + 1
        if tied.size > 1:
            flat = labels.ravel(order="F")
            best = int(flat[np.argmax(np.isin(flat, tied))])
        return labels == best

    return on_box(m, 0, largest)


def dilate(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    from scipy import ndimage
    return on_box(m, se.radius, lambda b: ndimage.binary_dilation(b, se.unit, se.radius))


def erode(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    """Binary erosion; the grid border is treated as background."""
    from scipy import ndimage
    return on_box(m, 0, lambda b: ndimage.binary_erosion(b, se.unit, se.radius, border_value=0))


def close_mask(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    """Dilation followed by erosion, computed in a padded domain so the
    border convention cannot shave foreground off the grid edge
    (closing must be extensive). The domain is the foreground box padded by
    r, which holds the dilation; the closing stays inside the box."""
    from scipy import ndimage
    r = se.radius
    return on_box(m, 0, lambda b: ndimage.binary_closing(np.pad(b, r), se.unit, r)[r:-r, r:-r, r:-r])


def open_mask(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    """Erosion followed by dilation; the grid border is treated as background."""
    from scipy import ndimage
    return on_box(m, se.radius, lambda b: ndimage.binary_opening(b, se.unit, se.radius))


def smooth_surface(m: Mask, iterations: int = 1) -> Mask:
    """Majority-filter smoothing over the 3x3x3 box, iterated.

    A voxel becomes foreground when at least 14 of the 27 voxels of its
    3x3x3 box are. This is the 26-neighbour majority with ties kept (set
    above 13 neighbours, cleared below, unchanged at 13), since the box
    count is the neighbour count plus the voxel. Out-of-grid neighbours
    replicate the nearest edge voxel so flat regions touching the border
    are fixed points.

    Each pass grows the foreground by at most one voxel, so on the box
    grown by ``iterations + 1`` the crop faces stay background; where the
    box is clipped at the grid edge, the replicated edge is the grid's.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    from scipy import ndimage

    def smoothed(bits):
        for _ in range(iterations):
            new = ndimage.convolve(bits.astype(np.uint8), CUBE26, mode="nearest") >= 14
            if np.array_equal(new, bits):
                break
            bits = new
        return bits

    return on_box(m, iterations + 1, smoothed)
