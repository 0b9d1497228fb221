"""Per-case segmentation metrics.

Overlap scores (Dice, IoU, sensitivity, specificity) are exact voxel
counts; boundary distances (Hausdorff, symmetric mean surface distance)
are Euclidean distances in mm between surface voxel centers, weighted by
the grid spacing. A surface voxel is a foreground voxel with at least one
background 6-neighbor, where the grid border counts as background.

A case is scored inside the foreground box: the union of the prediction's
and the truth's bounding boxes (:func:`labench.grids.bbox`, found from axis
projections). Every voxel outside it is background in both masks, so the
overlap counts taken inside it equal full-grid counts; only TN comes from
the grid size. Diameters are box extents. A mask's extreme voxels are
surface voxels, so the box is also the union box of the two surfaces, and
the exact Euclidean feature transform of each surface (nearest surface
voxel per box voxel) runs on it loss-free: every source and query voxel
lies inside. Distances are formed only at the other surface's voxels, so
no distance map spans the box. The foreground fills under 1% of a
challenge grid, so the box is usually a small part of it; stray voxels
near opposite corners make it span the grid.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
from scipy import ndimage

from .errors import DegenerateTruth, EmptyMask, MalformedCsv
from .grids import CROSS6, Box, Mask, axis_index, bbox, check_same_geometry


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class CaseMetrics:
    """All per-case metric values for one prediction/truth pair.

    ``hd_mm`` and ``stsd_mm`` are None when the prediction is empty (no
    surface to measure against); the CSV form leaves those cells blank.
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


# Fixed serialization order for per-case rows.
CASE_CSV_COLUMNS = (
    "case_id",
    "dice",
    "iou",
    "sensitivity",
    "specificity",
    "hd_mm",
    "stsd_mm",
    "diameter_err_pct",
    "volume_err_pct",
)


def surface_voxels(m: Mask) -> np.ndarray:
    """Boolean array marking boundary voxels of the mask."""
    out = np.zeros(m.dims, dtype=bool)
    box = bbox(m.bits)
    if box is not None:
        # erosion only changes voxels near the mask, so work on the bounding
        # box; everything beyond it is background either way
        inside = m.bits[box]
        interior = ndimage.binary_erosion(inside, structure=CROSS6, border_value=0)
        out[box] = inside & ~interior
    return out


def _crops(a: Mask, b: Mask) -> tuple[Box | None, Box | None, np.ndarray, np.ndarray]:
    """Each mask's foreground box (None when empty), and both masks cropped
    to the union of the two boxes.

    Every voxel outside the union box is background in both masks, so
    overlap counts and surfaces taken on the crops equal those of the
    grid. With both masks empty the crops are empty.
    """
    box_a, box_b = bbox(a.bits), bbox(b.bits)
    if box_a is None or box_b is None:
        union = box_a or box_b or (slice(0, 0),) * 3
    else:
        union = tuple(
            slice(min(p.start, q.start), max(p.stop, q.stop)) for p, q in zip(box_a, box_b)
        )
    return box_a, box_b, a.bits[union], b.bits[union]


def _confusion(pred: np.ndarray, truth: np.ndarray, nvox: int) -> ConfusionCounts:
    """Counts from the two crops of :func:`_crops`; TN from the grid size."""
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return ConfusionCounts(tp=tp, tn=nvox - tp - fp - fn, fp=fp, fn=fn)


def confusion_counts(pred: Mask, truth: Mask) -> ConfusionCounts:
    check_same_geometry(pred, truth)
    _, _, p, t = _crops(pred, truth)
    return _confusion(p, t, pred.nvox)


def dice(a: Mask, b: Mask) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|); 1.0 when both masks are empty."""
    c = confusion_counts(a, b)
    denom = 2 * c.tp + c.fp + c.fn
    return 2.0 * c.tp / denom if denom else 1.0


def iou(a: Mask, b: Mask) -> float:
    """Jaccard index |A∩B| / |A∪B|; 1.0 when both masks are empty."""
    c = confusion_counts(a, b)
    union = c.tp + c.fp + c.fn
    return c.tp / union if union else 1.0


def _rates(counts: ConfusionCounts) -> tuple[float, float]:
    if counts.tp + counts.fn == 0 or counts.tn + counts.fp == 0:
        raise DegenerateTruth("truth must contain both foreground and background voxels")
    return counts.tp / (counts.tp + counts.fn), counts.tn / (counts.tn + counts.fp)


def sensitivity_specificity(pred: Mask, truth: Mask) -> tuple[float, float, ConfusionCounts]:
    """True-positive and true-negative rates of the prediction vs truth."""
    counts = confusion_counts(pred, truth)
    return (*_rates(counts), counts)


def _distances_to(surface: np.ndarray, query: np.ndarray, spacing) -> np.ndarray:
    """Distance (mm) from each ``query`` voxel, in C order, to the nearest
    ``surface`` voxel. Only the feature transform spans the box; distances
    are formed at the query voxels with the float operations of
    ``distance_transform_edt`` in its order, so they equal its map bit for bit.
    """
    ft = ndimage.distance_transform_edt(
        ~surface, sampling=spacing, return_distances=False, return_indices=True
    )
    at = np.nonzero(query)
    d = (ft[(slice(None), *at)] - np.stack(at)).astype(np.float64)
    for ax, s in enumerate(spacing):
        d[ax] *= s
    np.multiply(d, d, d)
    return np.sqrt(np.add.reduce(d, axis=0))


def _surface_distance_fields(a: np.ndarray, b: np.ndarray, spacing) -> tuple[np.ndarray, ...]:
    """Distances (mm) from each A-surface voxel to B's surface and vice versa.

    ``a`` and ``b`` are two masks cropped to their union foreground box
    (:func:`_crops`), which is also the union box of their surfaces: a
    mask's extreme voxels are surface voxels. Returns (dists of surf(A)
    points to surf(B), dists of surf(B) points to surf(A)), each a flat
    float array.
    """
    sa = surface_voxels(Mask(a, spacing))
    sb = surface_voxels(Mask(b, spacing))
    return _distances_to(sb, sa, spacing), _distances_to(sa, sb, spacing)


def _hd_stsd(a: np.ndarray, b: np.ndarray, spacing) -> tuple[float, float]:
    """Symmetric Hausdorff and mean surface distance from one pair of fields."""
    d_a_to_b, d_b_to_a = _surface_distance_fields(a, b, spacing)
    hd = float(max(d_a_to_b.max(), d_b_to_a.max()))
    return hd, float((d_a_to_b.sum() + d_b_to_a.sum()) / (d_a_to_b.size + d_b_to_a.size))


def hausdorff_mm(a: Mask, b: Mask, mode: str = "symmetric") -> float:
    """Worst-case surface-to-surface distance in mm.

    ``directed`` is the max over b's surface of the min distance to a's
    surface; ``symmetric`` (the reporting default) is the max of the two
    directed values.
    """
    check_same_geometry(a, b)
    if mode not in ("directed", "symmetric"):
        raise ValueError(f"mode must be 'directed' or 'symmetric', got {mode!r}")
    if a.is_empty or b.is_empty:
        raise EmptyMask("Hausdorff distance requires two non-empty masks")
    _, _, ca, cb = _crops(a, b)
    if mode == "directed":
        sa = surface_voxels(Mask(ca, a.spacing))
        sb = surface_voxels(Mask(cb, a.spacing))
        return float(_distances_to(sa, sb, a.spacing).max())
    return _hd_stsd(ca, cb, a.spacing)[0]


def stsd_mm(a: Mask, b: Mask) -> float:
    """Mean symmetric surface-to-surface distance in mm."""
    check_same_geometry(a, b)
    if a.is_empty or b.is_empty:
        raise EmptyMask("surface distance requires two non-empty masks")
    _, _, ca, cb = _crops(a, b)
    return _hd_stsd(ca, cb, a.spacing)[1]


def _extent_mm(box: Box, ax: int, spacing) -> float:
    return float(box[ax].stop - box[ax].start) * spacing[ax]


def la_diameter_mm(m: Mask, axis: int | str = "x") -> float:
    """Foreground extent along one axis in mm, (max - min + 1) * spacing.

    The anterior-posterior diameter corresponds to the x axis in the
    challenge orientation; other datasets can select a different axis.
    """
    ax = axis_index(axis)
    box = bbox(m.bits)
    if box is None:
        raise EmptyMask("diameter of an empty mask is undefined")
    return _extent_mm(box, ax, m.spacing)


def la_volume_cm3(m: Mask) -> float:
    """Foreground volume in cubic centimeters."""
    sx, sy, sz = m.spacing
    return m.count * sx * sy * sz / 1000.0


def evaluate_case(pred: Mask, truth: Mask, diameter_axis: int | str = "x") -> CaseMetrics:
    """Compute every technical and biological metric for one case.

    The truth must have both foreground and background voxels. An empty
    prediction is legal: its surface distances are absent (None), its
    diameter and volume are 0 and the percent errors are 100.
    """
    check_same_geometry(pred, truth)
    ax = axis_index(diameter_axis)
    box_p, box_t, p, t = _crops(pred, truth)
    counts = _confusion(p, t, pred.nvox)
    sens, spec = _rates(counts)
    dice_v = 2.0 * counts.tp / (2 * counts.tp + counts.fp + counts.fn)
    iou_v = counts.tp / (counts.tp + counts.fp + counts.fn)

    if box_p is None:
        hd = stsd = None
        diameter_pred = 0.0
    else:
        hd, stsd = _hd_stsd(p, t, pred.spacing)
        diameter_pred = _extent_mm(box_p, ax, pred.spacing)

    diameter_true = _extent_mm(box_t, ax, truth.spacing)
    volume_pred = la_volume_cm3(pred)
    volume_true = la_volume_cm3(truth)

    return CaseMetrics(
        dice=dice_v,
        iou=iou_v,
        sensitivity=sens,
        specificity=spec,
        hd_mm=hd,
        stsd_mm=stsd,
        diameter_pred_mm=diameter_pred,
        diameter_true_mm=diameter_true,
        diameter_err_pct=100.0 * abs(diameter_pred - diameter_true) / diameter_true,
        volume_pred_cm3=volume_pred,
        volume_true_cm3=volume_true,
        volume_err_pct=100.0 * abs(volume_pred - volume_true) / volume_true,
    )


def dice_profile_z(pred: Mask, truth: Mask) -> list[tuple[int, float | None]]:
    """Slice-by-slice 2D Dice along z.

    Returns (z, dice) per slice with 0-based z; slices where both masks
    are empty have no defined value and carry None.
    """
    check_same_geometry(pred, truth)
    inter = np.count_nonzero(pred.bits & truth.bits, axis=(0, 1))
    np_ = np.count_nonzero(pred.bits, axis=(0, 1))
    nt = np.count_nonzero(truth.bits, axis=(0, 1))
    profile: list[tuple[int, float | None]] = []
    for z in range(pred.dims[2]):
        denom = int(np_[z] + nt[z])
        profile.append((z, 2.0 * int(inter[z]) / denom if denom else None))
    return profile


# --- serialization --------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".6g")


def case_csv_rows(cases: dict[str, CaseMetrics]) -> str:
    """Render per-case metrics as CSV text, rows sorted by case id."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CASE_CSV_COLUMNS)
    for case_id in sorted(cases):
        c = cases[case_id]
        writer.writerow(
            [case_id] + [_fmt(getattr(c, col)) for col in CASE_CSV_COLUMNS[1:]]
        )
    return buf.getvalue()


def case_json_obj(cases: dict[str, CaseMetrics]) -> list[dict]:
    """Per-case metrics as JSON-ready records, sorted by case id."""
    out = []
    for case_id in sorted(cases):
        rec: dict = {"case_id": case_id}
        for f in dataclass_fields(CaseMetrics):
            rec[f.name] = getattr(cases[case_id], f.name)
        out.append(rec)
    return out


def read_case_csv(
    path, columns, key: str = "case_id", nullable=("hd_mm", "stsd_mm")
) -> dict[str, dict[str, float | None]]:
    """Read the numeric ``columns`` of a per-case CSV into {row[key]: {column: value}}.

    Blank cells of the ``nullable`` columns read as None; by default these
    are the surface distances, which an empty prediction leaves blank. A
    missing column, a non-numeric cell or any other blank cell raises
    MalformedCsv naming the file and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in (key, *columns):
            if column not in (reader.fieldnames or ()):
                raise MalformedCsv(f"{path} has no {column!r} column")
        return {
            row[key]: {c: _number(path, row[key], c, row[c], c in nullable) for c in columns}
            for row in reader
        }


def _number(path, row_id: str, column: str, text: str | None, nullable: bool) -> float | None:
    if text in ("", None):
        if nullable:
            return None
        raise MalformedCsv(f"{path} row {row_id!r} has a blank {column!r} cell")
    try:
        return float(text)
    except ValueError:
        raise MalformedCsv(f"{path} column {column!r} holds non-numeric {text!r}") from None
