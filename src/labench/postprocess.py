"""Binary mask clean-up: largest component, morphology, surface smoothing.

These mirror the post-processing column of the challenge methods table:
keep-largest-component, dilation/erosion, and smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CROSS6, CUBE26, Mask, bbox


@dataclass(frozen=True)
class StructuringElement:
    """Footprint for morphology: a 6-connected cross or 26-connected cube.

    Radius r yields the L1 ball (iterated cross) or the Chebyshev ball
    ((2r+1)^3 cube) respectively.
    """

    kind: str = "cross"
    radius: int = 1

    def __post_init__(self):
        if self.kind not in ("cross", "cube"):
            raise ValueError(f"kind must be 'cross' or 'cube', got {self.kind!r}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")

    def footprint(self) -> np.ndarray:
        from scipy import ndimage
        return ndimage.iterate_structure(CROSS6 if self.kind == "cross" else CUBE26, self.radius)


def largest_component(m: Mask, connectivity: int = 26) -> Mask:
    """Keep only the largest connected foreground component.

    Size ties are broken by the smallest minimum x-fastest linear index.
    An empty mask passes through unchanged.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    if m.is_empty:
        return m
    from scipy import ndimage
    labels, n = ndimage.label(m.bits, structure=CROSS6 if connectivity == 6 else CUBE26)
    if n == 1:
        return m
    sizes = np.bincount(labels.ravel())[1:]  # skip background label 0
    best = int(np.argmax(sizes)) + 1
    tied = np.nonzero(sizes == sizes[best - 1])[0] + 1
    if tied.size > 1:
        flat = labels.ravel(order="F")
        best = int(flat[np.argmax(np.isin(flat, tied))])
    return Mask(labels == best, m.spacing)


def dilate(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    if m.is_empty:
        return m
    from scipy import ndimage
    return Mask(ndimage.binary_dilation(m.bits, structure=se.footprint()), m.spacing)


def erode(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    """Binary erosion; the grid border is treated as background."""
    if m.is_empty:
        return m
    from scipy import ndimage
    return Mask(
        ndimage.binary_erosion(m.bits, structure=se.footprint(), border_value=0),
        m.spacing,
    )


def close_mask(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    """Dilation followed by erosion, computed in a padded domain so the
    border convention cannot shave foreground off the grid edge
    (closing must be extensive). The domain is the foreground box padded by
    r, which holds the dilation; the closing stays inside the box."""
    r = se.radius
    box = bbox(m.bits)
    if box is None:
        return m
    from scipy import ndimage
    padded = np.pad(m.bits[box], r)
    padded = ndimage.binary_dilation(padded, structure=se.footprint())
    padded = ndimage.binary_erosion(padded, structure=se.footprint(), border_value=0)
    out = np.zeros(m.dims, dtype=bool)
    out[box] = padded[r:-r, r:-r, r:-r]
    return Mask(out, m.spacing)


def open_mask(m: Mask, se: StructuringElement = StructuringElement()) -> Mask:
    return dilate(erode(m, se), se)


_NEIGHBOR_KERNEL = np.ones((3, 3, 3), dtype=np.uint8)
_NEIGHBOR_KERNEL[1, 1, 1] = 0


def smooth_surface(m: Mask, iterations: int = 1) -> Mask:
    """Majority-filter smoothing over the 26-neighborhood, iterated.

    A voxel becomes foreground when more than half of its 26 neighbors
    are, background when fewer than half are, and keeps its value on an
    exact 13-13 tie. Out-of-grid neighbors replicate the nearest edge
    voxel so flat regions touching the border are fixed points.

    The filter runs on the foreground box grown by ``iterations + 1``: each
    pass grows the foreground by at most one voxel, so the box faces stay
    background and every voxel outside keeps its value. Where the box is
    clipped at the grid edge, the replicated edge is the same as before.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    box = bbox(m.bits, pad=iterations + 1)
    if box is None:
        return m
    from scipy import ndimage
    bits = m.bits[box]
    for _ in range(iterations):
        neighbors = ndimage.convolve(
            bits.astype(np.uint8), _NEIGHBOR_KERNEL, mode="nearest"
        )
        new = np.where(neighbors > 13, True, np.where(neighbors < 13, False, bits))
        if np.array_equal(new, bits):
            break
        bits = new
    out = np.zeros(m.dims, dtype=bool)
    out[box] = bits
    return Mask(out, m.spacing)
