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
box by :func:`labench.grids.surface` and kept as voxel coordinates.
A surface voxel's distance to the other surface comes from a near search:
the integer offsets within ``_REACH`` times the finest spacing, sorted by
length, are tried from the voxel on a grid marking the other surface, and
the first hit is the nearest. Every distance is formed with the float
steps of ``distance_transform_edt``, and the search takes the float
minimum: the transform's distance bit for bit at dyadic spacing, and at
every other spacing the tests try. The voxels the search leaves (beyond
the reach, or all the open ones when it stops early because most find
nothing near) are measured pair by pair when the pairs are few, else by
scipy's exact feature transform on the hull of the other surface and
those voxels: the module's only scipy call, which nearby surfaces never
reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTruth
from .grids import Box, Mask, boxes, check_same_geometry, hull, surface


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
    :func:`labench.grids.boxes`, found here when not given. Each box
    takes :func:`labench.grids.surface` on its own, which reads the voxels
    beyond its faces as the background they are."""
    if parts is None:
        parts = boxes(m.bits, 1)
    found = []
    for box in parts:
        at = np.array(np.nonzero(surface(m.bits[box])))
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


_REACH = 6  # reach of the near search, in units of the finest spacing
_BATCH = 16  # offsets the near search tries at once
_SHELLS = 64  # offsets tried before a search with three quarters open stops
_PAIRS_PER_VOXEL = 8  # distance pairs that cost about one voxel of feature transform
_CHUNK = 1 << 16  # distance pairs, or query-offset trials, formed at once


def _sq_mm(offsets: np.ndarray, spacing) -> np.ndarray:
    """Squared lengths (mm^2) of integer voxel offsets, axis first, formed
    with the float steps of ``distance_transform_edt`` in its order."""
    d = offsets.astype(np.float64)
    for ax, s in enumerate(spacing):
        d[ax] *= s
    np.multiply(d, d, d)
    return np.add.reduce(d, axis=0)


def _offsets(spacing) -> tuple[np.ndarray, np.ndarray]:
    """Every (3, k) integer offset whose :func:`_sq_mm` is at most the
    squared reach, stably sorted by it, and those squared lengths. An
    offset left out is longer, as float, than every one kept."""
    reach = _REACH * min(spacing)
    r = np.array([int(reach / s) + 1 for s in spacing])
    table = np.indices(2 * r + 1).reshape(3, -1) - r[:, None]
    sq = _sq_mm(table, spacing)
    keep = np.flatnonzero(sq <= reach * reach)
    keep = keep[np.argsort(sq[keep], kind="stable")]
    return table[:, keep], sq[keep]


def _span(*points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low corner, as a column, and shape of the hull of (3, n) voxel sets."""
    lo = np.min([p.min(axis=1) for p in points], axis=0)
    return lo[:, None], np.max([p.max(axis=1) for p in points], axis=0) + 1 - lo


def _pairwise(source: np.ndarray, query: np.ndarray, spacing) -> np.ndarray:
    """Smallest :func:`_sq_mm` from each (3, m) ``query`` voxel to the
    (3, n) ``source`` voxels, about ``_CHUNK`` pairs at a time."""
    d2 = np.empty(query.shape[1])
    step = _CHUNK // source.shape[1] + 1
    for i in range(0, d2.size, step):
        d2[i : i + step] = _sq_mm(source[:, None] - query[:, i : i + step, None], spacing).min(axis=1)
    return d2


def _transformed(source: np.ndarray, query: np.ndarray, spacing) -> np.ndarray:
    """:func:`_sq_mm` from each query voxel to the source voxel that
    scipy's exact feature transform picks, run on the hull of both."""
    from scipy import ndimage
    lo, shape = _span(source, query)
    grid = np.ones(tuple(shape), dtype=bool)
    grid[tuple(source - lo)] = False
    ft = ndimage.distance_transform_edt(grid, sampling=spacing, return_distances=False, return_indices=True)
    at = query - lo
    return _sq_mm(np.subtract(ft[(slice(None), *at)], at, out=at), spacing)


def _near(source: np.ndarray, query: np.ndarray, spacing) -> np.ndarray:
    """Smallest :func:`_sq_mm` from each (3, m) ``query`` voxel to the (3, n)
    ``source`` voxels within reach of :func:`_offsets`; inf where none is
    found. The queries in both the query hull and the source hull grown by
    the reach try the offsets in order, ``_BATCH`` at a time, on the
    sources marked on that box grown by the reach, and the first hit wins.
    The search stops when over three quarters of its queries are still
    open after ``_SHELLS`` offsets: the far side of a sponge-like mask."""
    offsets, sq = _offsets(spacing)
    reach = np.abs(offsets).max(axis=1)
    lo = np.maximum(source.min(axis=1) - reach, query.min(axis=1)) - reach
    shape = np.minimum(source.max(axis=1) + reach, query.max(axis=1)) + reach + 1 - lo
    d2 = np.full(query.shape[1], np.inf)
    if not (shape > 2 * reach).all():
        return d2
    marked = np.zeros(tuple(shape), dtype=bool)
    at = source - lo[:, None]
    marked[tuple(at[:, ((at >= 0) & (at < shape[:, None])).all(axis=0)])] = True
    at = query - lo[:, None]
    rows = np.flatnonzero(((at >= reach[:, None]) & (at < (shape - reach)[:, None])).all(axis=0))
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    cells, steps, flat = strides @ at[:, rows], strides @ offsets, marked.reshape(-1)
    size, most = _CHUNK // _BATCH, 0.75 * rows.size
    for k in range(0, steps.size, _BATCH):
        if not rows.size or (k >= _SHELLS and rows.size > most):
            break
        found = np.empty(rows.size, dtype=bool)
        for i in range(0, rows.size, size):
            hit = flat[cells[i : i + size, None] + steps[k : k + _BATCH]]
            got = hit.any(axis=1)
            d2[rows[i : i + size][got]] = sq[k + hit[got].argmax(axis=1)]
            found[i : i + size] = got
        rows, cells = rows[~found], cells[~found]
    return d2


def _distances_to(source: np.ndarray, query: np.ndarray, spacing) -> np.ndarray:
    """Distance (mm) from each (3, m) ``query`` voxel to the nearest (3, n)
    ``source`` voxel: :func:`_near` where it finds one, else
    :func:`_pairwise` or, when the pairs would cost more than the
    transform, :func:`_transformed`."""
    d2 = _near(source, query, spacing)
    far = np.flatnonzero(d2 == np.inf)
    if far.size:
        query = query[:, far]
        volume = math.prod(_span(source, query)[1])
        fallback = _pairwise if source.shape[1] * far.size < _PAIRS_PER_VOXEL * volume else _transformed
        d2[far] = fallback(source, query, spacing)
    return np.sqrt(d2)


def _hd_stsd(a: Mask, b: Mask, parts_a: list[Box], parts_b: list[Box]) -> tuple[float, float]:
    """Symmetric Hausdorff and mean surface distance (mm) of two non-empty
    masks with their :func:`labench.grids.boxes`.

    The Hausdorff distance is the larger of the two directed worst cases;
    the mean runs over the distances of every A-surface voxel to B's
    surface and of every B-surface voxel to A's, in ``np.nonzero`` order.
    """
    pa, pb = surface_voxels(a, parts_a), surface_voxels(b, parts_b)
    a_to_b, b_to_a = _distances_to(pb, pa, a.spacing), _distances_to(pa, pb, a.spacing)
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

