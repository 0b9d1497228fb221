"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the code paths they check: surfaces come from
explicit neighbor loops, distances from all-pairs enumeration, histogram
equalization from per-pixel rank counting, and the t-distribution CDF from
numerical quadrature of the density. The full-grid ``evaluate_case`` and
``assess_quality`` are those functions as they were before the scoring path
was confined to the foreground box; the box path must match them exactly.
``full_grid_voxelize`` and ``one_shot_draw`` are the phantom voxelization over
the whole grid and the scan drawn in one piece, which the boxed voxelization
and the boxed float32 draw of :mod:`labench.phantom` must equal bit for
bit (``float64_one_shot_draw`` is the float64 draw that the float32 one
replaced), and
``two_pass_cohort``, built on them, the cohort composition that
``generate_cohort`` must reproduce bit for bit. ``full_grid_smooth_surface``, ``full_grid_close_mask``,
``full_grid_largest_component``, ``full_grid_dilate``, ``full_grid_erode`` and
``full_grid_open_mask`` are the post-processing operators over the whole grid,
each morphology step with the radius-r footprint built whole by
``ndimage.iterate_structure``, which the boxed operators of
:mod:`labench.postprocess`, iterating the radius-1 element, must equal.
``scipy_foreground_region`` is ``quality.foreground_region`` as it was with
scipy's ``binary_dilation``, which the numpy shifts must equal.
``per_tile_clahe`` is CLAHE with one histogram and one mapping per tile in a
loop, which the one-``bincount``-per-slice ``clahe_slicewise`` must equal bit
for bit, and ``whole_grid_downsample`` the block means over the whole grid
in float64 that the slab-wise ``downsample`` must equal; for blocks of at
most 8 per axis both equal ``reduceat_downsample``, numpy's reduceat means.
"""

import math
from dataclasses import replace

import numpy as np
from scipy import integrate, ndimage

from labench.errors import EmptyMask
from labench.grids import CROSS6, CUBE26, Box, Mask, Volume, bbox
from labench.metrics import CaseMetrics
from labench.phantom import (
    DEFAULT_TIER_FRACTIONS,
    TIER_SNR_TARGETS,
    PhantomSpec,
    _jittered_spec,
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
    fa, fb = a.bits.ravel(order="F"), b.bits.ravel(order="F")
    inter = sum(1 for pa, pb in zip(fa, fb) if pa and pb)
    na, nb = int(fa.sum()), int(fb.sum())
    return 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)


def counting_iou(a: Mask, b: Mask) -> float:
    inter = union = 0
    for pa, pb in zip(a.bits.ravel(order="F"), b.bits.ravel(order="F")):
        inter += bool(pa and pb)
        union += bool(pa or pb)
    return 1.0 if union == 0 else inter / union


def counting_sens_spec(pred: Mask, truth: Mask) -> tuple[float, float]:
    tp = fn = tn = fp = 0
    for p, t in zip(pred.bits.ravel(order="F"), truth.bits.ravel(order="F")):
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


def full_grid_evaluate_case(pred: Mask, truth: Mask) -> CaseMetrics:
    """Every count, surface and extent taken over the whole grid; the EDT
    runs on the union box of the two surfaces found by ``np.nonzero``."""
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
        diameter_pred = _full_grid_extent_mm(pred, 0)
    diameter_true = _full_grid_extent_mm(truth, 0)
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


def scipy_foreground_region(bits: np.ndarray, margin: int) -> tuple[Box, np.ndarray]:
    """The box of ``bits`` grown by ``margin`` voxels and, inside it, ``bits``
    dilated ``margin`` times by the 6-connected cross: the quality foreground.
    The dilation cannot reach past the box, so it equals the full-grid one."""
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    box = bbox(bits, pad=margin)
    if box is None:
        raise EmptyMask("quality assessment needs a non-empty cavity mask")
    region = bits[box]
    if margin > 0:
        region = ndimage.binary_dilation(region, structure=CROSS6, iterations=margin)
    return box, region


def full_grid_voxelize(spec: PhantomSpec) -> np.ndarray:
    """``phantom._voxelize`` as it was before each primitive ran on its own
    box: the ellipsoid, every tube and the valve plane evaluated over the
    whole grid in float64. The geometry checks are left out."""
    nx, ny, nz = spec.dims
    sx, sy, sz = spec.spacing
    xs = (np.arange(nx, dtype=np.float64) + 0.5) * sx
    ys = (np.arange(ny, dtype=np.float64) + 0.5) * sy
    zs = (np.arange(nz, dtype=np.float64) + 0.5) * sz

    cx, cy, cz = spec.resolved_center()
    a, b, c = spec.semi_axes_mm
    q = (
        (((xs - cx) / a) ** 2)[:, None, None]
        + (((ys - cy) / b) ** 2)[None, :, None]
        + (((zs - cz) / c) ** 2)[None, None, :]
    )
    solid = q <= 1.0

    for tube in spec.tubes:
        u = tube.unit_direction()
        ax, ay, az = tube.attach_mm
        dx = (xs - ax)[:, None, None]
        dy = (ys - ay)[None, :, None]
        dz = (zs - az)[None, None, :]
        t = dx * u[0] + dy * u[1] + dz * u[2]
        r2 = dx**2 + dy**2 + dz**2 - t**2
        solid |= (t >= 0.0) & (t <= tube.length_mm) & (r2 <= tube.radius_mm**2)

    if spec.valve_plane is not None:
        (px, py, pz), offset = spec.valve_plane
        plane = px * xs[:, None, None] + py * ys[None, :, None] + pz * zs[None, None, :]
        solid &= plane >= offset
    return solid


def one_shot_draw(spec: PhantomSpec, bits: np.ndarray) -> tuple[Volume, Mask]:
    """``phantom._draw`` as one whole-grid float32 draw: standard normals in
    x-fastest order, scaled and shifted in float32, then the foreground's
    scattered through the whole-grid mask."""
    rng = np.random.default_rng(spec.seed)
    n = math.prod(spec.dims)
    data = rng.standard_normal(n, dtype=np.float32).reshape(spec.dims, order="F")
    data = data * np.float32(spec.sigma_bg) + np.float32(spec.mu_bg)
    n_fg = int(np.count_nonzero(bits))
    if n_fg:
        fg = rng.standard_normal(n_fg, dtype=np.float32)
        data[bits] = fg * np.float32(spec.sigma_fg) + np.float32(spec.mu_fg)
    return Volume(data, spec.spacing), Mask(bits, spec.spacing)


def float64_one_shot_draw(spec: PhantomSpec, bits: np.ndarray) -> tuple[Volume, Mask]:
    """``phantom._draw`` as it was before the noise was drawn in float32:
    one whole-grid float64 draw, cast to float32 at the end."""
    rng = np.random.default_rng(spec.seed)
    data = rng.normal(spec.mu_bg, spec.sigma_bg, size=spec.dims)
    n_fg = int(np.count_nonzero(bits))
    if n_fg:
        data[bits] = rng.normal(spec.mu_fg, spec.sigma_fg, size=n_fg)
    return Volume(data.astype(np.float32), spec.spacing), Mask(bits, spec.spacing)


def two_pass_cohort(base, n, seed=0, tier_fractions=DEFAULT_TIER_FRACTIONS):
    """``generate_cohort`` as it was composed before each member was
    voxelized once: voxelize for the noise level, with the foreground
    dilated over the whole grid, then voxelize again and draw the scan,
    both over the whole grid."""
    counts = tier_counts(n, tier_fractions)
    tiers = ["high"] * counts[0] + ["medium"] * counts[1] + ["low"] * counts[2]
    members = []
    for i, tier in enumerate(tiers):
        spec = _jittered_spec(base, seed + i)
        bits = full_grid_voxelize(spec)
        dilated = ndimage.binary_dilation(bits, structure=CROSS6, iterations=DEFAULT_MARGIN)
        w = int(np.count_nonzero(bits)) / int(np.count_nonzero(dilated))
        sigma_bg = TIER_SNR_TARGETS[tier] * w * (spec.mu_fg - spec.mu_bg)
        spec = replace(spec, sigma_bg=sigma_bg)
        volume, mask = one_shot_draw(spec, full_grid_voxelize(spec))
        members.append((volume, mask, tier))
    return members


def _footprint(se) -> np.ndarray:
    """The whole radius-r footprint of a structuring element."""
    return ndimage.iterate_structure(CROSS6 if se.kind == "cross" else CUBE26, se.radius)


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


def full_grid_close_mask(m: Mask, se) -> Mask:
    """``close_mask`` as it was before it ran on the foreground box: the
    whole grid padded by the radius, dilated, then eroded."""
    if m.is_empty:
        return m
    r = se.radius
    padded = np.pad(m.bits, r)
    padded = ndimage.binary_dilation(padded, structure=_footprint(se))
    padded = ndimage.binary_erosion(padded, structure=_footprint(se), border_value=0)
    return Mask(padded[r:-r, r:-r, r:-r], m.spacing)


def full_grid_largest_component(m: Mask, connectivity: int = 26) -> Mask:
    """``largest_component`` as it was before it ran on the foreground box:
    the whole grid labelled, ties broken by the x-fastest linear index."""
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    if m.is_empty:
        return m
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


def full_grid_dilate(m: Mask, se) -> Mask:
    """``dilate`` as it was before it ran on the foreground box."""
    if m.is_empty:
        return m
    return Mask(ndimage.binary_dilation(m.bits, structure=_footprint(se)), m.spacing)


def full_grid_erode(m: Mask, se) -> Mask:
    """``erode`` as it was before it ran on the foreground box: the grid
    border is treated as background."""
    if m.is_empty:
        return m
    return Mask(
        ndimage.binary_erosion(m.bits, structure=_footprint(se), border_value=0),
        m.spacing,
    )


def full_grid_open_mask(m: Mask, se) -> Mask:
    """``open_mask`` as it was before it was one scipy call: the whole grid
    eroded, then dilated."""
    return full_grid_dilate(full_grid_erode(m, se), se)


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


def tile_mappings(lv: np.ndarray, levels: int, tiles: tuple[int, int], clip_limit: float) -> np.ndarray:
    """The ``(tx, ty, levels)`` float64 CLAHE mapping of each tile of the
    slice of levels ``lv``: every level of the dtype wide."""
    tx, ty = tiles
    x_edges = _tile_edges(lv.shape[0], tx)
    y_edges = _tile_edges(lv.shape[1], ty)
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
    return mappings


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
    mappings = tile_mappings(lv, levels, tiles, clip_limit)

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


def per_tile_clahe(v: Volume, tiles: tuple[int, int], clip_limit: float) -> Volume:
    """``clahe_slicewise`` as it was before one ``bincount`` built every tile
    histogram of a slice: a loop over slices, and over tiles per slice."""
    out = np.empty(v.dims, dtype=v.data.dtype)
    for z in range(v.dims[2]):
        out[:, :, z] = _clahe_slice(v.data[:, :, z], tiles, clip_limit)
    return Volume(out, v.spacing)


def whole_grid_downsample(v: Volume, factor) -> Volume:
    """Block means over the whole grid widened to float64, one axis at a
    time in x, y, z order, in ``downsample``'s summation order: each
    block's sum is its first value plus the last entry of
    ``np.add.accumulate`` (which adds in turn) over the rest."""
    data = v.data.astype(np.float64)
    for axis, f in enumerate(factor):
        rows = np.moveaxis(data, axis, 0)
        means = []
        for lo in range(0, rows.shape[0], f):
            block = rows[lo : lo + f]
            total = block[0] + np.add.accumulate(block[1:])[-1] if len(block) > 1 else block[0]
            means.append(total / len(block))
        data = np.moveaxis(np.stack(means), 0, axis)

    sx, sy, sz = v.spacing
    fx, fy, fz = factor
    return Volume(data.astype(np.float32), (sx * fx, sy * fy, sz * fz))


def reduceat_downsample(v: Volume, factor) -> Volume:
    """Block means over the whole grid widened to float64, each block summed
    by ``np.add.reduceat``: its first value plus numpy's pairwise sum of
    the rest, which adds in turn below 8 terms."""
    data = v.data.astype(np.float64)
    for axis, f in enumerate(factor):
        n = data.shape[axis]
        starts = np.arange(0, n, f)
        sums = np.add.reduceat(data, starts, axis=axis)
        counts = np.diff(np.append(starts, n)).astype(np.float64)
        shape = [1, 1, 1]
        shape[axis] = counts.size
        data = sums / counts.reshape(shape)

    sx, sy, sz = v.spacing
    fx, fy, fz = factor
    return Volume(data.astype(np.float32), (sx * fx, sy * fy, sz * fz))
