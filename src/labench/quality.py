"""Per-scan image-quality assessment from a scan and its cavity mask.

The published challenge data was graded by a noise-to-contrast style SNR
(lower is better), a foreground/background contrast ratio and a
foreground heterogeneity. The exact formulas were never published; the
ones here are the documented toolkit definitions:

    snr = sigma_bg / (mu_fg - mu_bg)      (error when mu_fg <= mu_bg)
    cr  = mu_fg / mu_bg                   (error when mu_bg <= 0)
    het = sigma_fg / mu_fg

where the foreground region is the mask dilated by ``margin`` voxels of
6-connected dilation (to take in the enhanced blood-pool border) and the
background is everything else, excluding voxels within ``margin`` of the
grid edge. The dilation is numpy shifts on the foreground box, equal to
scipy's ``binary_dilation``, whose 0.35 s import would dwarf its 2 ms of
work. Means and standard deviations are population statistics over the
region voxels, in float64; a region holding NaN or infinity gives a mean
that is not finite, which raises NonFiniteIntensity. The foreground is
gathered from its box. The background is summed in z planes, the
slowest axis of every (x-fastest) grid, so a scan gives the same bits
whatever layout it was built from: one float64 copy of an interior plane
at a time, its foreground zeroed, one pass for the mean and one for the
squared deviations. Nothing grid-sized is made, and only background
voxels are added (a whole-interior sum less the foreground sum would
cancel when the foreground is much brighter). numpy's ``mean`` and
``std`` of a C-order gather add the same values in another order, so SNR
and CR can differ from theirs in the last bits (under 1e-15 relative).
Quality bands: high for snr < 1, medium for 1..3 inclusive, low above 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_MARGIN
from .errors import DegenerateContrast, EmptyBackground, EmptyInput, EmptyMask, NonFiniteIntensity
from .grids import Box, Mask, Volume, bbox, check_same_geometry, grow

BANDS = ("high", "medium", "low")


@dataclass(frozen=True)
class QualityReport:
    snr: float
    cr: float
    het: float
    band: str


def quality_band(snr: float) -> str:
    """Band from snr alone; the boundary values 1 and 3 are medium."""
    if snr < 1.0:
        return "high"
    if snr <= 3.0:
        return "medium"
    return "low"


def foreground_region(bits: np.ndarray, margin: int) -> tuple[Box, np.ndarray]:
    """The box of ``bits`` grown by ``margin`` voxels and, inside it, ``bits``
    dilated ``margin`` times by the 6-connected cross: the quality foreground.
    The dilation cannot reach past the box, so it equals the full-grid one.
    Each round is one :func:`labench.grids.grow` by the cross:
    ``binary_dilation`` by ``CROSS6``, ``border_value=0``."""
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    box = bbox(bits, pad=margin)
    if box is None:
        raise EmptyMask("quality assessment needs a non-empty cavity mask")
    region = bits[box]
    for _ in range(margin):
        region = grow(region)
    return box, region


def _background_stats(
    data: np.ndarray, box: Box, region: np.ndarray, margin: int
) -> tuple[float, float]:
    """Mean and population standard deviation of the background: the voxels
    of the interior (the grid less its ``margin``-wide frame) outside the
    foreground ``region`` at ``box``, summed in z planes as the module
    docstring says. EmptyBackground when there are none."""
    interior = data[tuple(slice(margin, n - margin) for n in data.shape)]
    # the foreground inside the interior, at [lo, hi) in grid indices; the
    # box is a mask box grown by margin, so lo <= hi unless the interior is empty
    lo = [max(b.start, margin) for b in box]
    hi = [min(b.stop, n - margin) for b, n in zip(box, data.shape)]
    fg = region[tuple(slice(l - b.start, h - b.start) for l, h, b in zip(lo, hi, box))]
    count = interior.size - int(np.count_nonzero(fg))
    if count == 0:
        raise EmptyBackground("no background voxels after dilation and edge exclusion")
    at = (slice(lo[0] - margin, hi[0] - margin), slice(lo[1] - margin, hi[1] - margin))

    def total(mean: float | None) -> float:
        acc = 0.0
        for k in range(interior.shape[2]):
            plane = interior[:, :, k].astype(np.float64)
            if mean is not None:
                plane -= mean
                plane *= plane
            if lo[2] <= k + margin < hi[2]:
                plane[at][fg[:, :, k + margin - lo[2]]] = 0.0
            acc += float(plane.sum())
        return acc

    mean = total(None) / count
    if not math.isfinite(mean):
        raise NonFiniteIntensity("the scan's background holds NaN or infinity")
    return mean, math.sqrt(total(mean) / count)


def assess_quality(scan: Volume, la: Mask, margin: int = DEFAULT_MARGIN) -> QualityReport:
    check_same_geometry(scan, la)
    box, fg_region = foreground_region(la.bits, margin)
    # padding artifacts live at the grid edge; keep them out of the noise estimate
    mu_bg, sigma_bg = _background_stats(scan.data, box, fg_region, margin)
    fg = scan.data[box][fg_region].astype(np.float64)
    mu_fg = float(fg.mean())
    if not math.isfinite(mu_fg):
        raise NonFiniteIntensity("the scan's foreground holds NaN or infinity")
    if mu_fg <= mu_bg:
        raise DegenerateContrast(
            f"foreground mean {mu_fg:.6g} does not exceed background mean {mu_bg:.6g}"
        )
    if mu_bg <= 0.0:
        raise DegenerateContrast(f"background mean {mu_bg:.6g} leaves the contrast ratio undefined")
    snr = sigma_bg / (mu_fg - mu_bg)
    return QualityReport(
        snr=snr,
        cr=mu_fg / mu_bg,
        het=float(fg.std()) / mu_fg,
        band=quality_band(snr),
    )


def quality_distribution(reports) -> dict[str, tuple[int, float]]:
    """Counts and fractions per band; fractions sum to 1."""
    reports = list(reports)
    if not reports:
        raise EmptyInput("no quality reports to summarize")
    counts = {band: 0 for band in BANDS}
    for report in reports:
        counts[report.band] += 1
    n = len(reports)
    return {band: (counts[band], counts[band] / n) for band in BANDS}
