"""Binary mask clean-up: largest component, morphology, surface smoothing.

These mirror the post-processing column of the challenge methods table:
keep-largest-component, dilation/erosion, and smoothing.

:func:`largest_component` takes each of the mask's
:func:`labench.grids.boxes` on its own, so stray islands far apart cost
their own boxes, not the grid-wide box between them. It takes them in
descending foreground count and stops at the first that holds fewer
voxels than the largest component found, so small islands cost only
their count. A compact box that a flood fills (:func:`_whole`) is one
component; every other box is labelled by ``scipy.ndimage.label``, the
only labeller. :func:`smooth_surface` counts each 3x3x3 neighbourhood as
separable numpy sums over a copy padded by its edge voxels, equal to
scipy's ``convolve`` with ``mode="nearest"``. So on a compact mask
``largest`` and ``smooth`` load no scipy, whose ``ndimage`` import
(0.25 s or more) would dwarf their few milliseconds of work; the tests hold
both to the scipy operators over the whole grid. Dilation, erosion,
opening and closing are each one :func:`labench.grids.on_box` call around
one scipy call, with its own reach, so they run on the foreground box.
Each operator equals itself over the whole grid, and returns an
x-fastest grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CROSS6, CUBE26, Mask, boxes, grow, on_box, surface


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


def _whole(bits: np.ndarray, count: int, connectivity: int) -> bool:
    """Whether the ``count`` set voxels of the box ``bits`` are one component.

    The box must be compact, with at most half its voxels on its
    :func:`labench.grids.surface`, and a flood from its first x-fastest
    voxel, one :func:`labench.grids.grow` by the ``connectivity`` element
    kept inside the mask per step, must reach every voxel. Step k works only on the
    voxels within k of the seed along each axis, all that k steps can
    reach. The guard is one pass over the box. It keeps the flood, a pass
    per step, off speckle, whose many small components the flood would
    cross before it failed."""
    if 2 * np.count_nonzero(surface(bits)) > count:
        return False
    seed = np.unravel_index(np.argmax(bits.ravel(order="F")), bits.shape, order="F")
    reached = np.zeros_like(bits)
    reached[seed] = True
    size, steps = 1, 0
    while size < count:
        steps += 1
        near = tuple(slice(max(at - steps, 0), at + steps + 1) for at in seed)  # what the steps can reach
        reached[near] = grow(reached[near], connectivity) & bits[near]
        size, grew = np.count_nonzero(reached[near]), size
        if size == grew:
            return False
    return True


def largest_component(m: Mask, connectivity: int = 26) -> Mask:
    """Keep only the largest connected foreground component.

    Size ties are broken by the smallest minimum x-fastest linear index.
    An empty mask passes through unchanged. Each of the mask's
    :func:`labench.grids.boxes` (gap 1, which no component crosses) is
    taken on its own, in descending foreground count, until a box holds
    fewer voxels than the largest component found, so it can neither win
    nor tie. A box that :func:`_whole` proves one component has its count
    as its size; any other is labelled by scipy, with box-sized labels.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    parts = [(int(np.count_nonzero(m.bits[box])), box) for box in boxes(m.bits, 1)]
    if not parts:
        return m
    # per box taken: its largest size, the box, its labels and the labels of that size
    top, labelled = 0, []
    for count, box in sorted(parts, key=lambda part: -part[0]):
        if count < top:
            break
        bits = m.bits[box]
        if _whole(bits, count, connectivity):
            labels, ids = bits, [True]
        else:
            from scipy import ndimage

            labels, _ = ndimage.label(bits, structure=CROSS6 if connectivity == 6 else CUBE26)
            sizes = np.bincount(labels.ravel())[1:]  # skip background label 0
            count = sizes.max()
            ids = np.flatnonzero(sizes == count) + 1
        top = max(top, count)
        labelled.append((count, box, labels, ids))
    tied = [entry[1:] for entry in labelled if entry[0] == top]
    # one winner skips _first's pass over its labels: 199 ms, not 269, on pipeline's 576 Otsu patch
    if len(tied) == 1 and len(tied[0][2]) == 1:
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

    def smoothed(bits):
        for _ in range(iterations):
            bits = _cube_counts(bits) >= 14
        return bits

    return on_box(m, iterations + 1, smoothed)


def _cube_counts(bits: np.ndarray) -> np.ndarray:
    """The number of set voxels in the 3x3x3 box around each voxel of
    ``bits``, where voxels beyond a face replicate the nearest edge voxel:
    ``ndimage.convolve(bits.astype(np.uint8), CUBE26, mode="nearest")``,
    as three ``uint8`` sums along each axis of a copy padded by its edge
    voxels (at most 27)."""
    c = np.pad(bits.astype(np.uint8), 1, mode="edge")
    c = c[:-2] + c[1:-1] + c[2:]
    c = c[:, :-2] + c[:, 1:-1] + c[:, 2:]
    return c[:, :, :-2] + c[:, :, 1:-1] + c[:, :, 2:]
