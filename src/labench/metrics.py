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

A case is scored on the masks' foreground boxes (:func:`labench.grids.boxes`):
tight boxes split where an axis projection has an empty plane, so a stray
island far from the rest gets its own box instead of stretching one box
over the grid. Each mask's projections run once per case. Every voxel
outside a mask's boxes is background, so each mask is counted on its
boxes and the two together on the meet of their hulls; only TN comes from
the grid size. Diameters are hull extents along x. Surfaces are found per
box and kept as voxel coordinates. scipy's exact feature transform of
each surface runs on the overlap box W, the meet of the two hulls grown by
``_GROW`` and clipped to their union, with the surface marked on W alone;
surface voxels outside W are measured pair by pair. Every distance is
formed with the float steps of ``distance_transform_edt`` and the smallest
squared sum wins, so an exact tie across W's border takes the float
minimum (bit-identical to the transform at dyadic spacing). W is the
union of the hulls when they do not meet or the pairs would cost more
than the transforms they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruth
from .grids import CROSS6, Box, Mask, boxes, check_same_geometry, hull


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


def surface_voxels(m: Mask, parts: list[Box] | None = None) -> np.ndarray:
    """``(3, n)`` grid coordinates of the mask's surface voxels, in the
    order ``np.nonzero`` gives (x slowest). ``parts`` are the mask's
    :func:`labench.grids.boxes`, found here when not given. Each box is
    eroded on its own, reading the voxels beyond its faces as the
    background they are."""
    from scipy import ndimage
    if parts is None:
        parts = boxes(m.bits, 1)
    found = []
    for box in parts:
        bits = m.bits[box]
        at = np.array(np.nonzero(bits & ~ndimage.binary_erosion(bits, CROSS6, border_value=0)))
        at += np.array([s.start for s in box])[:, None]
        found.append(at)
    if len(found) < 2:
        return found[0] if found else np.empty((3, 0), dtype=np.intp)
    at = np.concatenate(found, axis=1)
    key = np.ravel_multi_index(at, m.dims)
    return at if (np.diff(key) > 0).all() else at[:, np.argsort(key, kind="stable")]


def _meet(p: Box, q: Box) -> Box | None:
    """The intersection of two boxes; None when they do not meet."""
    box = tuple(slice(max(s.start, t.start), min(s.stop, t.stop)) for s, t in zip(p, q))
    return box if all(s.start < s.stop for s in box) else None


def _overlap(a: Mask, b: Mask, parts_a: list[Box], parts_b: list[Box]) -> tuple[int, int, int]:
    """(|A∩B|, |A|-|A∩B|, |B|-|A∩B|) from each mask's boxes: TP, FP and FN
    when A is the prediction and B the truth. Each mask is counted on its
    boxes, the two together on the meet of their hulls."""
    check_same_geometry(a, b)
    meet = _meet(hull(parts_a), hull(parts_b)) if parts_a and parts_b else None
    both = int(np.count_nonzero(a.bits[meet] & b.bits[meet])) if meet else 0
    na, nb = (sum(int(np.count_nonzero(m.bits[p])) for p in ps) for m, ps in ((a, parts_a), (b, parts_b)))
    return both, na - both, nb - both


def dice(a: Mask, b: Mask) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); 1.0 when both masks are empty."""
    tp, fp, fn = _overlap(a, b, boxes(a.bits, 1), boxes(b.bits, 1))
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


def _inside(points: np.ndarray, box: Box) -> np.ndarray:
    """Which of the (3, n) ``points`` lie in ``box``."""
    lo, hi = (np.array([getattr(s, end) for s in box])[:, None] for end in ("start", "stop"))
    return ((lo <= points) & (points < hi)).all(axis=0)


def _distances_to(surface: np.ndarray, source, query, box: Box, spacing) -> np.ndarray:
    """Distance (mm) from each (3, m) ``query`` voxel to the nearest (3, n)
    ``source`` voxel. ``surface`` marks the sources inside ``box`` on the
    box; queries inside it take the feature transform of ``surface``, and
    sources and queries outside it are measured pair by pair, about
    ``_CHUNK`` pairs at a time."""
    from scipy import ndimage
    lo = np.array([s.start for s in box])[:, None]
    src_in, qry_in = _inside(source, box), _inside(query, box)
    d2 = np.full(query.shape[1], np.inf)
    if src_in.any():
        ft = ndimage.distance_transform_edt(
            ~surface, sampling=spacing, return_distances=False, return_indices=True
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


def _marked(points: np.ndarray, inside: np.ndarray, box: Box) -> np.ndarray:
    """The (3, n) ``points`` that ``inside`` marks, which lie in ``box``, set
    on a box-sized grid."""
    lo = np.array([s.start for s in box])[:, None]
    grid = np.zeros(tuple(s.stop - s.start for s in box), dtype=bool)
    grid[tuple(np.compress(inside, points, axis=1) - lo)] = True
    return grid


def _hd_stsd(a: Mask, b: Mask, parts_a: list[Box], parts_b: list[Box]) -> tuple[float, float]:
    """Symmetric Hausdorff and mean surface distance (mm) of two non-empty
    masks with their :func:`labench.grids.boxes`.

    The Hausdorff distance is the larger of the two directed worst cases;
    the mean runs over the distances of every A-surface voxel to B's
    surface and of every B-surface voxel to A's, in ``np.nonzero`` order.
    Coordinates and W are taken from the union box's low corner.
    """
    box_a, box_b = hull(parts_a), hull(parts_b)
    union, meet = hull([box_a, box_b]), _meet(box_a, box_b)
    o, n = [s.start for s in union], [s.stop - s.start for s in union]
    pa, pb = (surface_voxels(m, ps) - np.array(o)[:, None] for m, ps in ((a, parts_a), (b, parts_b)))
    whole = tuple(slice(0, k) for k in n)
    w = whole if meet is None else tuple(
        slice(max(s.start - x - _GROW, 0), min(s.stop - x + _GROW, k)) for s, x, k in zip(meet, o, n)
    )
    ina, inb = _inside(pa, w), _inside(pb, w)
    na, nb, ka, kb = pa.shape[1], pb.shape[1], int(np.count_nonzero(ina)), int(np.count_nonzero(inb))
    # per direction: queries inside W with sources outside, queries outside with all
    pairs = ka * (nb - kb) + (na - ka) * nb + kb * (na - ka) + (nb - kb) * na
    volume = math.prod(s.stop - s.start for s in w)
    if meet is None or 2 * volume + pairs / _PAIRS_PER_VOXEL >= 2 * math.prod(n):
        w, ina, inb = whole, np.ones(na, dtype=bool), np.ones(nb, dtype=bool)
    spacing = a.spacing
    a_to_b = _distances_to(_marked(pb, inb, w), pb, pa, w, spacing)
    b_to_a = _distances_to(_marked(pa, ina, w), pa, pb, w, spacing)
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
    parts_p, parts_t = boxes(pred.bits, 1), boxes(truth.bits, 1)
    tp, fp, fn = _overlap(pred, truth, parts_p, parts_t)
    tn = pred.nvox - tp - fp - fn
    if tp + fn == 0 or tn + fp == 0:
        raise DegenerateTruth("truth must contain both foreground and background voxels")

    if not parts_p:
        hd = stsd = None
        diameter_pred = 0.0
    else:
        hd, stsd = _hd_stsd(pred, truth, parts_p, parts_t)
        diameter_pred = _diameter_mm(hull(parts_p), pred.spacing)

    diameter_true = _diameter_mm(hull(parts_t), truth.spacing)
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

