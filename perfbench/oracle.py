"""Benchmark-side NRRD I/O, input derivation and reference answers (oracles).

Nothing here imports ``labench``: the checks that grade the program's
outputs must not share code with it. Distances use a k-d tree over
surface-voxel centres instead of a distance transform, and the quality
statistics use a taxicab chamfer transform instead of iterated dilation.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

_NRRD_TYPES = {
    "unsigned char": np.uint8,
    "unsigned short": np.uint16,
    "float": np.float32,
}


@dataclass(frozen=True)
class Grid:
    data: np.ndarray
    spacing: tuple[float, float, float]
    encoding: str


def read_nrrd(path) -> Grid:
    """Read the attached-header NRRD files the program writes."""
    blob = Path(path).read_bytes()
    end = blob.index(b"\n\n")
    lines = blob[:end].decode("ascii").split("\n")
    if not lines[0].startswith("NRRD000"):
        raise ValueError(f"{path}: not an NRRD file")
    fields = dict(line.split(": ", 1) for line in lines[1:] if not line.startswith("#"))
    sizes = tuple(int(s) for s in fields["sizes"].split())
    spacing = tuple(float(s) for s in fields["spacings"].split())
    payload = blob[end + 2 :]
    if fields["encoding"] == "gzip":
        payload = gzip.decompress(payload)
    dtype = np.dtype(_NRRD_TYPES[fields["type"]]).newbyteorder("<")
    data = np.frombuffer(payload, dtype=dtype).reshape(sizes, order="F")
    return Grid(data, spacing, fields["encoding"])


def write_mask(bits: np.ndarray, spacing, path, encoding: str) -> None:
    """Write a 0/1 unsigned-char NRRD; gzip output carries a fixed mtime."""
    header = (
        "NRRD0004\ntype: unsigned char\ndimension: 3\n"
        "sizes: {} {} {}\n".format(*bits.shape)
        + "spacings: {!r} {!r} {!r}\n".format(*spacing)
        + f"encoding: {encoding}\n\n"
    ).encode("ascii")
    payload = bits.astype(np.uint8).tobytes(order="F")
    if encoding == "gzip":
        payload = gzip.compress(payload, compresslevel=6, mtime=0)
    Path(path).write_bytes(header + payload)


# --- prediction teams -----------------------------------------------------------


def shifted(bits: np.ndarray, shift) -> np.ndarray:
    """Translate by whole voxels, filling with background (no wrap-around)."""
    out = np.zeros_like(bits)
    src, dst = [], []
    for s, n in zip(shift, bits.shape):
        s = int(s)
        src.append(slice(max(0, -s), n - max(0, s)))
        dst.append(slice(max(0, s), n - max(0, -s)))
    out[tuple(dst)] = bits[tuple(src)]
    return out


def _small_shift(rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
    """Per-axis shift with |component| <= hi and largest |component| >= lo."""
    while True:
        shift = rng.integers(-hi, hi + 1, size=3)
        if np.abs(shift).max() >= lo:
            return shift


def eroded(bits: np.ndarray) -> np.ndarray:
    """Strip the 6-connected surface layer; the grid border is background."""
    p = np.pad(bits, 1)
    core = p[1:-1, 1:-1, 1:-1].copy()
    for axis in range(3):
        for step in (0, 2):
            sl = [slice(1, -1)] * 3
            sl[axis] = slice(step, step + bits.shape[axis])
            core &= p[tuple(sl)]
    return core


def make_teams(truth: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The three prediction teams the workloads score.

    tight: the truth moved by 1-3 voxels. loose: another small move, then
    one surface layer trimmed off. stray: tight plus two 3-voxel cubes
    near opposite grid corners, so the union surface box spans most of
    the grid while the foreground stays tiny.
    """
    tight = shifted(truth, _small_shift(rng, 1, 3))
    loose_shift = _small_shift(rng, 2, 3)
    loose = eroded(shifted(truth, loose_shift))
    stray = tight.copy()
    dims = np.asarray(truth.shape)
    near = rng.integers(1, 3, size=3)
    far = dims - 4 - rng.integers(0, 2, size=3)
    for corner in (near, far):
        stray[tuple(slice(int(c), int(c) + 3) for c in corner)] = True
    return {"tight": tight, "loose": loose, "stray": stray}


# --- reference metrics ------------------------------------------------------------


def surface(bits: np.ndarray) -> np.ndarray:
    """Foreground voxels with a background 6-neighbour (border is background)."""
    return bits & ~eroded(bits)


def box_share(*masks: np.ndarray) -> float:
    """Share of the grid inside the bounding box of the union of masks."""
    union = np.logical_or.reduce(masks)
    if not union.any():
        return 0.0
    extent = 1
    for axis in range(3):
        occupied = np.flatnonzero(union.any(axis=tuple(a for a in range(3) if a != axis)))
        extent *= int(occupied[-1] - occupied[0] + 1)
    return extent / union.size


def _diameter_mm(bits: np.ndarray, spacing) -> float:
    occupied = np.flatnonzero(bits.any(axis=(1, 2)))
    return float(occupied[-1] - occupied[0] + 1) * spacing[0]


def case_metrics(pred: np.ndarray, truth: np.ndarray, spacing) -> dict[str, float]:
    """Every column of the program's per-case CSV, from our own counts."""
    tp = int(np.count_nonzero(pred & truth))
    n_pred, n_truth = int(np.count_nonzero(pred)), int(np.count_nonzero(truth))
    fp, fn = n_pred - tp, n_truth - tp
    tn = truth.size - tp - fp - fn
    spacing = np.asarray(spacing, dtype=np.float64)
    pa = np.argwhere(surface(pred)) * spacing
    pb = np.argwhere(surface(truth)) * spacing
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    voxel_cm3 = float(np.prod(spacing)) / 1000.0
    vol_p, vol_t = n_pred * voxel_cm3, n_truth * voxel_cm3
    dia_p, dia_t = _diameter_mm(pred, spacing), _diameter_mm(truth, spacing)
    return {
        "dice": 2.0 * tp / (2 * tp + fp + fn),
        "iou": tp / (tp + fp + fn),
        "sensitivity": tp / (tp + fn),
        "specificity": tn / (tn + fp),
        "hd_mm": float(max(d_ab.max(), d_ba.max())),
        "stsd_mm": float((d_ab.sum() + d_ba.sum()) / (d_ab.size + d_ba.size)),
        "diameter_err_pct": 100.0 * abs(dia_p - dia_t) / dia_t,
        "volume_err_pct": 100.0 * abs(vol_p - vol_t) / vol_t,
    }


def dice(a: np.ndarray, b: np.ndarray) -> float:
    return 2.0 * int(np.count_nonzero(a & b)) / (int(np.count_nonzero(a)) + int(np.count_nonzero(b)))


def quality(scan: np.ndarray, truth: np.ndarray, margin: int = 3) -> dict[str, float | str]:
    """The documented SNR/CR/HET definitions and the band rule."""
    fg_region = ndimage.distance_transform_cdt(~truth, metric="taxicab") <= margin
    bg_region = ~fg_region
    inner = tuple(slice(margin, n - margin) for n in truth.shape)
    edge = np.ones_like(bg_region)
    edge[inner] = False
    bg_region &= ~edge
    data = scan.astype(np.float64)
    fg, bg = data[fg_region], data[bg_region]
    mu_fg, mu_bg = float(fg.mean()), float(bg.mean())
    snr = float(bg.std()) / (mu_fg - mu_bg)
    band = "high" if snr < 1.0 else ("medium" if snr <= 3.0 else "low")
    return {"snr": snr, "cr": mu_fg / mu_bg, "het": float(fg.std()) / mu_fg, "band": band}


def same_at_6_digits(text: str, value: float) -> bool:
    """A CSV cell printed with 6 significant digits matches a reference value."""
    if text == format(value, ".6g"):
        return True
    printed = float(text)
    return abs(printed - value) <= 5e-6 * abs(value) + 1e-12


def n_components_26(bits: np.ndarray) -> int:
    return int(ndimage.label(bits, structure=np.ones((3, 3, 3), dtype=bool))[1])
