"""Per-scan image-quality assessment from a scan and its cavity mask.

The published challenge data was graded by a noise-to-contrast style SNR
(lower is better), a foreground/background contrast ratio and a
foreground heterogeneity. The exact formulas were never published; the
ones here are the documented toolkit definitions:

    snr = sigma_bg / (mu_fg - mu_bg)      (error when mu_fg <= mu_bg)
    cr  = mu_fg / mu_bg
    het = sigma_fg / mu_fg

where the foreground region is the mask dilated by ``margin`` voxels of
6-connected dilation (to take in the enhanced blood-pool border) and the
background is everything else, excluding voxels within ``margin`` of the
grid edge. Means and standard deviations are population statistics over
the region voxels. Quality bands: high for snr < 1, medium for 1..3
inclusive, low above 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateContrast, EmptyBackground, EmptyInput, EmptyMask
from .grids import CROSS6, Mask, Volume, check_same_geometry

BANDS = ("high", "medium", "low")

DEFAULT_MARGIN = 3


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


def assess_quality(scan: Volume, la: Mask, margin: int = DEFAULT_MARGIN) -> QualityReport:
    check_same_geometry(scan, la)
    if la.is_empty:
        raise EmptyMask("quality assessment needs a non-empty cavity mask")
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")

    fg_region = la.bits
    if margin > 0:
        fg_region = ndimage.binary_dilation(la.bits, structure=CROSS6, iterations=margin)

    bg_region = ~fg_region
    if margin > 0:
        # padding artifacts live at the grid edge; keep them out of the noise estimate
        for axis in range(3):
            sl = [slice(None)] * 3
            sl[axis] = slice(0, margin)
            bg_region[tuple(sl)] = False
            sl[axis] = slice(-margin, None)
            bg_region[tuple(sl)] = False
    if not bg_region.any():
        raise EmptyBackground("no background voxels after dilation and edge exclusion")

    data = scan.data.astype(np.float64)
    fg = data[fg_region]
    bg = data[bg_region]
    mu_fg = float(fg.mean())
    mu_bg = float(bg.mean())
    if mu_fg <= mu_bg:
        raise DegenerateContrast(
            f"foreground mean {mu_fg:.6g} does not exceed background mean {mu_bg:.6g}"
        )
    snr = float(bg.std()) / (mu_fg - mu_bg)
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
