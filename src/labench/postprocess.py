"""Binary mask clean-up: largest component, morphology, surface smoothing.

These mirror the post-processing column of the challenge methods table:
keep-largest-component, dilation/erosion, and smoothing.

:func:`largest_component` labels each of the mask's
:func:`labench.grids.boxes` on its own, so stray islands far apart cost
their own boxes, not the grid-wide box between them. Every other operator
is one :func:`labench.grids.on_box` call around one scipy call, with its
own reach, so it runs on the foreground box. Each equals the operator over
the whole grid, and returns an x-fastest grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CROSS6, CUBE26, Mask, boxes, on_box


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


def _first(box, labels: np.ndarray, ids, dims):
    """(grid x-fastest linear index, box, labels, label) of the first voxel
    in x-fastest order of ``labels``, which cover ``box``, with a label in ``ids``."""
    flat = labels.ravel(order="F")
    i = int(np.argmax(np.isin(flat, ids)))
    at = [c + s.start for c, s in zip(np.unravel_index(i, labels.shape, order="F"), box)]
    return int(np.ravel_multi_index(at, dims, order="F")), box, labels, flat[i]


def largest_component(m: Mask, connectivity: int = 26) -> Mask:
    """Keep only the largest connected foreground component.

    Size ties are broken by the smallest minimum x-fastest linear index.
    An empty mask passes through unchanged. Each of the mask's
    :func:`labench.grids.boxes` (gap 1, which no component crosses) is
    labelled on its own, so the labels are box-sized.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    parts = boxes(m.bits, 1)
    if not parts:
        return m
    from scipy import ndimage

    # per box: its largest size, the box, its labels and the labels of that size
    labelled = []
    for box in parts:
        labels, _ = ndimage.label(m.bits[box], structure=CROSS6 if connectivity == 6 else CUBE26)
        sizes = np.bincount(labels.ravel())[1:]  # skip background label 0
        labelled.append((sizes.max(), box, labels, np.flatnonzero(sizes == sizes.max()) + 1))
    top = max(entry[0] for entry in labelled)
    tied = [entry[1:] for entry in labelled if entry[0] == top]
    if len(tied) == 1 and tied[0][2].size == 1:
        box, labels, (best,) = tied[0]
    else:
        _, box, labels, best = min((_first(*entry, m.dims) for entry in tied), key=lambda f: f[0])
    out = np.zeros(m.dims, dtype=bool, order="F")
    out[box] = labels == best
    return Mask(out, m.spacing)


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
