"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the code paths they check: surfaces come from
explicit neighbor loops, distances from all-pairs enumeration, histogram
equalization from per-pixel rank counting, and the t-distribution CDF from
numerical quadrature of the density. The full-grid ``evaluate_case`` and
``assess_quality`` are those functions as they were before the scoring path
was confined to the foreground box; the box path must match them exactly.
``two_pass_cohort`` is the cohort composition that ``generate_cohort`` must
reproduce bit for bit, and ``full_grid_smooth_surface`` the majority filter
over the whole grid that the boxed ``smooth_surface`` must equal.
"""

import math
from dataclasses import replace

import numpy as np
from scipy import integrate, ndimage

from labench.grids import CROSS6, Mask, Volume, axis_index
from labench.metrics import CaseMetrics
from labench.phantom import (
    DEFAULT_TIER_FRACTIONS,
    TIER_SNR_TARGETS,
    CohortVariation,
    _jittered_spec,
    _voxelize,
    generate,
    tier_counts,
)
from labench.quality import DEFAULT_MARGIN, QualityReport, quality_band


def surface_points(m: Mask) -> np.ndarray:
    """(n, 3) indices of foreground voxels with a background 6-neighbor
    (out-of-grid counts as background)."""
    bits = m.bits
    nx, ny, nz = bits.shape
    points = []
    for ix, iy, iz in zip(*np.nonzero(bits)):
        on_surface = False
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz) or not bits[jx, jy, jz]:
                on_surface = True
                break
        if on_surface:
            points.append((ix, iy, iz))
    return np.asarray(points, dtype=np.float64)


def _pairwise_min_dists(points_a, points_b, spacing) -> np.ndarray:
    """For every point of A, the min Euclidean mm distance to B (all pairs)."""
    sa = points_a * np.asarray(spacing)
    sb = points_b * np.asarray(spacing)
    d2 = ((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def brute_force_hd(a: Mask, b: Mask) -> float:
    pa, pb = surface_points(a), surface_points(b)
    b_to_a = _pairwise_min_dists(pb, pa, a.spacing)
    a_to_b = _pairwise_min_dists(pa, pb, a.spacing)
    return float(max(a_to_b.max(), b_to_a.max()))


def brute_force_stsd(a: Mask, b: Mask) -> float:
    pa, pb = surface_points(a), surface_points(b)
    a_to_b = _pairwise_min_dists(pa, pb, a.spacing)
    b_to_a = _pairwise_min_dists(pb, pa, a.spacing)
    return float((a_to_b.sum() + b_to_a.sum()) / (len(pa) + len(pb)))


def counting_dice(a: Mask, b: Mask) -> float:
    inter = sum(1 for pa, pb in zip(a.flat(), b.flat()) if pa and pb)
    na = int(a.flat().sum())
    nb = int(b.flat().sum())
    return 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)


def counting_iou(a: Mask, b: Mask) -> float:
    inter = union = 0
    for pa, pb in zip(a.flat(), b.flat()):
        inter += bool(pa and pb)
        union += bool(pa or pb)
    return 1.0 if union == 0 else inter / union


def counting_sens_spec(pred: Mask, truth: Mask) -> tuple[float, float]:
    tp = fn = tn = fp = 0
    for p, t in zip(pred.flat(), truth.flat()):
        if t:
            tp, fn = tp + bool(p), fn + (not p)
        else:
            fp, tn = fp + bool(p), tn + (not p)
    return tp / (tp + fn), tn / (tn + fp)


def equalize_by_rank(img: np.ndarray) -> np.ndarray:
    """Histogram equalization out = round((L-1) * P(X <= v)), computed by
    per-pixel counting rather than a cumulative histogram."""
    levels = int(np.iinfo(img.dtype).max) + 1
    flat = np.sort(img.ravel())
    n = flat.size
    out = np.empty(img.shape, dtype=img.dtype)
    for idx, value in np.ndenumerate(img):
        cdf = np.searchsorted(flat, value, side="right") / n
        out[idx] = int(math.floor(cdf * (levels - 1) + 0.5))
    return out


def t_two_tailed_p_quadrature(t: float, df: float) -> float:
    """Two-tailed t-test p-value via numerical integration of the density."""

    def pdf(u):
        return (
            math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))
            / math.sqrt(df * math.pi)
            * (1 + u * u / df) ** (-(df + 1) / 2)
        )

    tail, _ = integrate.quad(pdf, abs(t), math.inf)
    return 2.0 * tail


def _full_grid_surface(bits: np.ndarray) -> np.ndarray:
    return bits & ~ndimage.binary_erosion(bits, structure=CROSS6, border_value=0)


def _full_grid_extent_mm(m: Mask, ax: int) -> float:
    occupied = np.nonzero(m.bits.any(axis=tuple(i for i in range(3) if i != ax)))[0]
    return float(occupied[-1] - occupied[0] + 1) * m.spacing[ax]


def full_grid_evaluate_case(pred: Mask, truth: Mask, diameter_axis="x") -> CaseMetrics:
    """Every count, surface and extent taken over the whole grid; the EDT
    runs on the union box of the two surfaces found by ``np.nonzero``."""
    ax = axis_index(diameter_axis)
    tp = int(np.count_nonzero(pred.bits & truth.bits))
    fp = pred.count - tp
    fn = truth.count - tp
    tn = pred.nvox - tp - fp - fn
    if pred.is_empty:
        hd = stsd = None
        diameter_pred = 0.0
    else:
        surf_a, surf_b = _full_grid_surface(pred.bits), _full_grid_surface(truth.bits)
        ix, iy, iz = np.nonzero(surf_a | surf_b)
        box = tuple(slice(c.min(), c.max() + 1) for c in (ix, iy, iz))
        sa, sb = surf_a[box], surf_b[box]
        d_a_to_b = ndimage.distance_transform_edt(~sb, sampling=pred.spacing)[sa]
        d_b_to_a = ndimage.distance_transform_edt(~sa, sampling=pred.spacing)[sb]
        hd = float(max(d_a_to_b.max(), d_b_to_a.max()))
        stsd = float((d_a_to_b.sum() + d_b_to_a.sum()) / (d_a_to_b.size + d_b_to_a.size))
        diameter_pred = _full_grid_extent_mm(pred, ax)
    diameter_true = _full_grid_extent_mm(truth, ax)
    sx, sy, sz = pred.spacing
    volume_pred = pred.count * sx * sy * sz / 1000.0
    volume_true = truth.count * sx * sy * sz / 1000.0
    return CaseMetrics(
        dice=2.0 * tp / (2 * tp + fp + fn),
        iou=tp / (tp + fp + fn),
        sensitivity=tp / (tp + fn),
        specificity=tn / (tn + fp),
        hd_mm=hd,
        stsd_mm=stsd,
        diameter_pred_mm=diameter_pred,
        diameter_true_mm=diameter_true,
        diameter_err_pct=100.0 * abs(diameter_pred - diameter_true) / diameter_true,
        volume_pred_cm3=volume_pred,
        volume_true_cm3=volume_true,
        volume_err_pct=100.0 * abs(volume_pred - volume_true) / volume_true,
    )


def full_grid_assess_quality(scan: Volume, la: Mask, margin: int) -> QualityReport:
    """Dilation, region masks and the float64 copy over the whole grid."""
    fg_region = la.bits
    if margin > 0:
        fg_region = ndimage.binary_dilation(la.bits, structure=CROSS6, iterations=margin)
    bg_region = ~fg_region
    if margin > 0:
        for axis in range(3):
            sl = [slice(None)] * 3
            sl[axis] = slice(0, margin)
            bg_region[tuple(sl)] = False
            sl[axis] = slice(-margin, None)
            bg_region[tuple(sl)] = False
    data = scan.data.astype(np.float64)
    fg = data[fg_region]
    bg = data[bg_region]
    mu_fg = float(fg.mean())
    mu_bg = float(bg.mean())
    snr = float(bg.std()) / (mu_fg - mu_bg)
    return QualityReport(
        snr=snr, cr=mu_fg / mu_bg, het=float(fg.std()) / mu_fg, band=quality_band(snr)
    )


def two_pass_cohort(base, n, seed=0, tier_fractions=DEFAULT_TIER_FRACTIONS, margin=DEFAULT_MARGIN):
    """``generate_cohort`` as it was composed before each member was
    voxelized once: voxelize for the noise level, with the foreground
    dilated over the whole grid, then ``generate`` voxelizes again."""
    counts = tier_counts(n, tier_fractions)
    tiers = ["high"] * counts[0] + ["medium"] * counts[1] + ["low"] * counts[2]
    members = []
    for i, tier in enumerate(tiers):
        spec = _jittered_spec(base, seed + i, CohortVariation())
        bits = _voxelize(spec)
        dilated = bits
        if margin > 0:
            dilated = ndimage.binary_dilation(bits, structure=CROSS6, iterations=margin)
        w = int(np.count_nonzero(bits)) / int(np.count_nonzero(dilated))
        sigma_bg = TIER_SNR_TARGETS[tier] * w * (spec.mu_fg - spec.mu_bg)
        volume, mask = generate(replace(spec, sigma_bg=sigma_bg))
        members.append((volume, mask, tier))
    return members


def full_grid_smooth_surface(m: Mask, iterations: int = 1) -> Mask:
    """``smooth_surface`` as it was before it ran on the foreground box:
    the 26-neighbor majority filter convolved over the whole grid."""
    kernel = np.ones((3, 3, 3), dtype=np.uint8)
    kernel[1, 1, 1] = 0
    bits = m.bits
    for _ in range(iterations):
        neighbors = ndimage.convolve(bits.astype(np.uint8), kernel, mode="nearest")
        new = np.where(neighbors > 13, True, np.where(neighbors < 13, False, bits))
        if np.array_equal(new, bits):
            break
        bits = new
    return Mask(bits, m.spacing)
