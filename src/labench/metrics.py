"""Per-case segmentation metrics.

:func:`evaluate_case` is the one scorer: it gives every technical and
biological value of a case (:class:`CaseMetrics`) from one pass over the
two masks. :func:`dice` alone is kept for the pipeline's report and
sweeps. The module computes values only; :mod:`labench.cli` writes and
reads the per-case tables.

Overlap scores (Dice, IoU, sensitivity, specificity) and volumes are
exact voxel counts; boundary distances (Hausdorff, symmetric mean surface
distance) are Euclidean distances in mm between surface voxel centers,
weighted by the grid spacing. A surface voxel is a foreground voxel with
at least one background 6-neighbor, where the grid border counts as
background.

A case is scored inside the foreground box: the union of the prediction's
and the truth's bounding boxes (:func:`labench.grids.bbox`, found from axis
projections). Every voxel outside it is background in both masks, so the
overlap counts taken inside it equal full-grid counts; only TN comes from
the grid size. Diameters are box extents along x. Surface distances follow the
surfaces, not the union box that stray islands stretch over the grid.
scipy's exact feature transform of each surface runs on the overlap box W,
the intersection of the two mask boxes grown by ``_GROW`` and clipped to
the union box; surface voxels outside W are measured pair by pair. Every
distance is formed with the float steps of ``distance_transform_edt`` and
the smallest squared sum wins, so an exact tie across W's border takes the
float minimum (bit-identical to the transform at dyadic spacing). W is the
union box when the boxes do not meet or the pairs would cost more than the
transforms they save.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruth
from .grids import CROSS6, Box, Mask, bbox, check_same_geometry, on_box


@dataclass(frozen=True)
class CaseMetrics:
    """All per-case metric values for one prediction/truth pair.

    ``hd_mm`` and ``stsd_mm`` are None when the prediction is empty (no
    surface to measure against); the per-case table leaves those cells blank.
    """

    dice: float
    iou: float
    sensitivity: float
    specificity: float
    hd_mm: float | None
    stsd_mm: float | None
    diameter_pred_mm: float
    diameter_true_mm: float
    diameter_err_pct: float
    volume_pred_cm3: float
    volume_true_cm3: float
    volume_err_pct: float


def surface_voxels(m: Mask) -> np.ndarray:
    """Boolean array marking boundary voxels of the mask."""
    from scipy import ndimage
    return on_box(m, 0, lambda b: b & ~ndimage.binary_erosion(b, CROSS6, border_value=0)).bits


def _crops(a: Mask, b: Mask) -> tuple[Box | None, Box | None, np.ndarray, np.ndarray]:
    """Each mask's foreground box (None when empty), and both masks cropped
    to the union of the two boxes.

    Every voxel outside the union box is background in both masks, so
    overlap counts and surfaces taken on the crops equal those of the
    grid. With both masks empty the crops are empty.
    """
    check_same_geometry(a, b)
    box_a, box_b = bbox(a.bits), bbox(b.bits)
    if box_a is None or box_b is None:
        union = box_a or box_b or (slice(0, 0),) * 3
    else:
        union = tuple(
            slice(min(p.start, q.start), max(p.stop, q.stop)) for p, q in zip(box_a, box_b)
        )
    return box_a, box_b, a.bits[union], b.bits[union]


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """(|A∩B|, |A|-|A∩B|, |B|-|A∩B|) of two crops from :func:`_crops`:
    TP, FP and FN when A is the prediction and B the truth."""
    both = int(np.count_nonzero(a & b))
    return both, int(np.count_nonzero(a)) - both, int(np.count_nonzero(b)) - both


def dice(a: Mask, b: Mask) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); 1.0 when both masks are empty."""
    tp, fp, fn = _overlap(*_crops(a, b)[2:])
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 1.0


_GROW = 4  # voxels the overlap box grows by on every side
_PAIRS_PER_VOXEL = 8  # distance pairs that cost about one voxel of feature transform
_CHUNK = 1 << 16  # distance pairs formed at once


def _sq_mm(offsets: np.ndarray, spacing) -> np.ndarray:
    """Squared lengths (mm^2) of integer voxel offsets, axis first, formed
    with the float steps of ``distance_transform_edt`` in its order."""
    d = offsets.astype(np.float64)
    for ax, s in enumerate(spacing):
        d[ax] *= s
    np.multiply(d, d, d)
    return np.add.reduce(d, axis=0)


def _distances_to(surface: np.ndarray, source, query, box: Box, spacing) -> np.ndarray:
    """Distance (mm) from each (3, m) ``query`` voxel to the nearest (3, n)
    ``source`` voxel, which ``surface`` marks. Queries inside ``box`` take the
    feature transform of ``surface`` cropped to it; sources and queries
    outside it are measured pair by pair, about ``_CHUNK`` pairs at a time."""
    from scipy import ndimage
    lo, hi = (np.array([getattr(s, end) for s in box])[:, None] for end in ("start", "stop"))
    src_in, qry_in = (((lo <= v) & (v < hi)).all(axis=0) for v in (source, query))
    d2 = np.full(query.shape[1], np.inf)
    if src_in.any():
        ft = ndimage.distance_transform_edt(
            ~surface[box], sampling=spacing, return_distances=False, return_indices=True
        )
        at = np.compress(qry_in, query, axis=1) - lo
        d2[qry_in] = _sq_mm(ft[(slice(None), *at)] - at, spacing)
    for rows, src in ((qry_in, np.compress(~src_in, source, axis=1)), (~qry_in, source)):
        rows = np.flatnonzero(rows)
        step = _CHUNK // max(src.shape[1], 1) + 1
        for i in range(0, rows.size if src.size else 0, step):
            j = rows[i : i + step]
            d2[j] = np.minimum(d2[j], _sq_mm(src[:, None] - query[:, j, None], spacing).min(axis=1))
    return np.sqrt(d2)


def _hd_stsd(a: np.ndarray, b: np.ndarray, box_a: Box, box_b: Box, spacing) -> tuple[float, float]:
    """Symmetric Hausdorff and mean surface distance (mm) of two non-empty
    masks cropped by :func:`_crops` to the union of their boxes in the grid.

    The Hausdorff distance is the larger of the two directed worst cases;
    the mean runs over the distances of every A-surface voxel to B's
    surface and of every B-surface voxel to A's.
    """
    sa = surface_voxels(Mask(a, spacing))
    sb = surface_voxels(Mask(b, spacing))
    pa, pb = np.array(np.nonzero(sa)), np.array(np.nonzero(sb))
    o = [min(p.start, q.start) for p, q in zip(box_a, box_b)]
    lo = [max(p.start, q.start) - x for p, q, x in zip(box_a, box_b, o)]
    hi = [min(p.stop, q.stop) - x for p, q, x in zip(box_a, box_b, o)]
    w = tuple(slice(max(l - _GROW, 0), min(h + _GROW, n)) for l, h, n in zip(lo, hi, a.shape))
    na, nb, ka, kb = pa.shape[1], pb.shape[1], np.count_nonzero(sa[w]), np.count_nonzero(sb[w])
    # per direction: queries inside W with sources outside, queries outside with all
    pairs = ka * (nb - kb) + (na - ka) * nb + kb * (na - ka) + (nb - kb) * na
    meet = min(h - l for l, h in zip(lo, hi)) > 0
    if not meet or 2 * sa[w].size + pairs / _PAIRS_PER_VOXEL >= 2 * sa.size:
        w = tuple(slice(0, n) for n in a.shape)
    a_to_b, b_to_a = _distances_to(sb, pb, pa, w, spacing), _distances_to(sa, pa, pb, w, spacing)
    hd = float(max(a_to_b.max(), b_to_a.max()))
    return hd, float((a_to_b.sum() + b_to_a.sum()) / (a_to_b.size + b_to_a.size))


def _diameter_mm(box: Box, spacing) -> float:
    """Foreground extent along x in mm, (max - min + 1) * spacing."""
    return float(box[0].stop - box[0].start) * spacing[0]


def evaluate_case(pred: Mask, truth: Mask) -> CaseMetrics:
    """Compute every technical and biological metric for one case.

    The truth must have both foreground and background voxels. An empty
    prediction is legal: its surface distances are absent (None), its
    diameter and volume are 0 and the percent errors are 100. The
    diameter is the foreground extent along x, the anterior-posterior
    axis in the challenge orientation, as the paper measures it.
    """
    box_p, box_t, p, t = _crops(pred, truth)
    tp, fp, fn = _overlap(p, t)
    tn = pred.nvox - tp - fp - fn
    if tp + fn == 0 or tn + fp == 0:
        raise DegenerateTruth("truth must contain both foreground and background voxels")

    if box_p is None:
        hd = stsd = None
        diameter_pred = 0.0
    else:
        hd, stsd = _hd_stsd(p, t, box_p, box_t, pred.spacing)
        diameter_pred = _diameter_mm(box_p, pred.spacing)

    diameter_true = _diameter_mm(box_t, truth.spacing)
    sx, sy, sz = pred.spacing
    volume_pred = (tp + fp) * sx * sy * sz / 1000.0
    volume_true = (tp + fn) * sx * sy * sz / 1000.0

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

