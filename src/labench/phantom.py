"""Synthetic atrium-like scan and ground-truth generation.

A phantom is an ellipsoidal body with tubular vein sleeves attached,
truncated below a valve plane; the mask is the voxelization of that solid
(a voxel is foreground iff its center lies inside) and the scan draws
Gaussian intensities per region. Everything is a pure function of
(spec, seed): identical specs produce bit-identical grids, which is what
makes the phantoms usable as oracles for the quality, metric and pipeline
modules.

Voxel centers sit at ((i + 0.5) * spacing) in mm from the volume corner;
all geometric fields are physical mm.

The work follows the foreground, which fills about 1 % of a challenge
grid. The ellipsoid is evaluated only on its own box (center +-
semi-axes), each tube only on its segment's box grown by the radius, and
the valve plane only on the box of the solid it truncates. The scan is an
x-fastest float32 grid, so the NRRD writer stores it without a copy; its
background is drawn in x-slabs straight into that grid, then the
foreground over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GeometryOutOfBounds, InfeasibleTier
from .grids import Box, Mask, Volume, bbox
from .quality import BANDS, DEFAULT_MARGIN, foreground_region

DEFAULT_DIMS = (576, 576, 88)
DEFAULT_SPACING = (0.625, 0.625, 0.625)

_SLAB_VOXELS = 1 << 21  # voxels per float64 noise slab in _draw


@dataclass(frozen=True)
class Tube:
    """Cylindrical vein sleeve: axis from the attachment point along
    ``direction`` for ``length_mm``, radius ``radius_mm``."""

    attach_mm: tuple[float, float, float]
    direction: tuple[float, float, float]
    radius_mm: float
    length_mm: float

    def unit_direction(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=np.float64)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise ValueError("tube direction must be non-zero")
        return d / norm


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = DEFAULT_DIMS
    spacing: tuple[float, float, float] = DEFAULT_SPACING
    center_mm: tuple[float, float, float] | None = None  # None: volume center
    semi_axes_mm: tuple[float, float, float] = (30.0, 24.0, 18.0)
    tubes: tuple[Tube, ...] = ()
    # (normal, offset): keep voxels with normal . p >= offset; None disables
    valve_plane: tuple[tuple[float, float, float], float] | None = None
    mu_fg: float = 600.0
    sigma_fg: float = 40.0
    mu_bg: float = 200.0
    sigma_bg: float = 60.0
    seed: int = 0
    allow_clip: bool = False

    def resolved_center(self) -> tuple[float, float, float]:
        if self.center_mm is not None:
            return self.center_mm
        return tuple(n * s / 2.0 for n, s in zip(self.dims, self.spacing))


def default_phantom_spec(dims=DEFAULT_DIMS, spacing=DEFAULT_SPACING, **overrides) -> PhantomSpec:
    """Challenge-scale phantom: ellipsoidal body, four vein sleeves on the
    upper half, valve-plane truncation near the bottom. ``overrides`` are
    :class:`PhantomSpec` fields.

    Without an explicit ``semi_axes_mm`` the body is scaled from the
    challenge-volume default so the whole assembly fits any grid extent.
    """
    if "semi_axes_mm" not in overrides:
        default_extent = tuple(n * s for n, s in zip(DEFAULT_DIMS, DEFAULT_SPACING))
        extent = tuple(n * s for n, s in zip(dims, spacing))
        scale = min(e / d for e, d in zip(extent, default_extent))
        overrides["semi_axes_mm"] = tuple(a * scale for a in (30.0, 24.0, 18.0))
    base = PhantomSpec(dims=dims, spacing=spacing, **overrides)
    cx, cy, cz = base.resolved_center()
    a, b, c = base.semi_axes_mm
    directions = [
        (0.75, 0.55, 0.37),
        (-0.75, 0.55, 0.37),
        (0.75, -0.55, 0.37),
        (-0.75, -0.55, 0.37),
    ]
    tubes = []
    for d in directions:
        u = np.asarray(d) / np.linalg.norm(d)
        # ellipsoid support distance along u; attach slightly inside for overlap
        reach = 1.0 / math.sqrt((u[0] / a) ** 2 + (u[1] / b) ** 2 + (u[2] / c) ** 2)
        attach = (cx + 0.9 * reach * u[0], cy + 0.9 * reach * u[1], cz + 0.9 * reach * u[2])
        tubes.append(
            Tube(attach_mm=attach, direction=d, radius_mm=0.16 * min(a, b, c), length_mm=0.5 * c)
        )
    valve = ((0.0, 0.0, 1.0), cz - 0.8 * c)
    return replace(base, tubes=tuple(tubes), valve_plane=valve)


def _mm_boxes(spec: PhantomSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (lo, hi) mm corners of the box of each primitive: the ellipsoid's
    center +- semi-axes, then each tube's segment box grown by its radius."""
    center = np.asarray(spec.resolved_center(), dtype=np.float64)
    boxes = [(center - spec.semi_axes_mm, center + spec.semi_axes_mm)]
    for tube in spec.tubes:
        start = np.asarray(tube.attach_mm, dtype=np.float64)
        end = start + tube.length_mm * tube.unit_direction()
        boxes.append(
            (np.minimum(start, end) - tube.radius_mm, np.maximum(start, end) + tube.radius_mm)
        )
    return boxes


def _check_geometry(spec: PhantomSpec) -> None:
    """ValueError for a non-positive semi-axis, tube radius or length;
    GeometryOutOfBounds for a primitive box outside the grid, unless
    ``spec.allow_clip``."""
    if min(spec.semi_axes_mm) <= 0:
        raise ValueError(f"semi-axes must be positive, got {spec.semi_axes_mm!r}")
    for tube in spec.tubes:
        if tube.radius_mm <= 0 or tube.length_mm <= 0:
            raise ValueError("tube radius and length must be positive")
    if spec.allow_clip:
        return
    extent = tuple(n * s for n, s in zip(spec.dims, spec.spacing))
    for box in _mm_boxes(spec):
        for lo, hi, limit in zip(*box, extent):
            if lo < 0.0 or hi > limit:
                raise GeometryOutOfBounds(
                    f"phantom geometry [{lo:.1f}, {hi:.1f}] mm exceeds volume extent "
                    f"{limit:.1f} mm (set allow_clip=True to clip)"
                )


def _index_box(spec: PhantomSpec, lo_mm, hi_mm) -> Box:
    """Slices of the voxels whose centers ``(i + 0.5) * s`` lie in the mm
    box, grown by one voxel per side against rounding and clipped to the
    grid (a negative stop would count from the end of the axis)."""
    return tuple(
        slice(
            int(np.clip(np.ceil(lo / s - 0.5) - 1, 0, n)),
            int(np.clip(np.floor(hi / s - 0.5) + 2, 0, n)),
        )
        for lo, hi, n, s in zip(lo_mm, hi_mm, spec.dims, spec.spacing)
    )


def _voxelize(spec: PhantomSpec) -> np.ndarray:
    """The mask bits of a spec, after the geometry checks.

    Each primitive is evaluated only on its own box, with the float64
    expressions of a whole-grid evaluation on slices of the same center
    vectors, so every bit equals the whole-grid one."""
    _check_geometry(spec)
    nx, ny, nz = spec.dims
    sx, sy, sz = spec.spacing
    xs = (np.arange(nx, dtype=np.float64) + 0.5) * sx
    ys = (np.arange(ny, dtype=np.float64) + 0.5) * sy
    zs = (np.arange(nz, dtype=np.float64) + 0.5) * sz
    # x-fastest, as NRRD stores it, so a write copies no transpose
    solid = np.zeros(spec.dims, dtype=bool, order="F")
    body_box, *tube_boxes = (_index_box(spec, lo, hi) for lo, hi in _mm_boxes(spec))

    cx, cy, cz = spec.resolved_center()
    a, b, c = spec.semi_axes_mm
    bx, by, bz = body_box
    q = (
        (((xs[bx] - cx) / a) ** 2)[:, None, None]
        + (((ys[by] - cy) / b) ** 2)[None, :, None]
        + (((zs[bz] - cz) / c) ** 2)[None, None, :]
    )
    solid[body_box] = q <= 1.0

    for tube, box in zip(spec.tubes, tube_boxes):
        u = tube.unit_direction()
        ax, ay, az = tube.attach_mm
        bx, by, bz = box
        dx = (xs[bx] - ax)[:, None, None]
        dy = (ys[by] - ay)[None, :, None]
        dz = (zs[bz] - az)[None, None, :]
        t = dx * u[0] + dy * u[1] + dz * u[2]
        r2 = dx**2 + dy**2 + dz**2 - t**2
        solid[box] |= (t >= 0.0) & (t <= tube.length_mm) & (r2 <= tube.radius_mm**2)

    # the plane only clears set voxels, so the solid's box holds all it changes
    box = bbox(solid) if spec.valve_plane is not None else None
    if box is not None:
        (px, py, pz), offset = spec.valve_plane
        bx, by, bz = box
        plane = px * xs[bx][:, None, None] + py * ys[by][None, :, None] + pz * zs[bz][None, None, :]
        solid[box] &= plane >= offset
    return solid


def _draw(spec: PhantomSpec, bits: np.ndarray) -> tuple[Volume, Mask]:
    """Scan intensities for the voxelized spec, from ``spec.seed``.

    The background is drawn in x-slabs of at most ``_SLAB_VOXELS`` straight
    into an x-fastest float32 grid; the generator consumes its stream
    sample by sample, so the slabs equal one whole-grid draw, and the cast
    on assignment rounds as ``astype(np.float32)`` does."""
    rng = np.random.default_rng(spec.seed)
    nx, ny, nz = spec.dims
    data = np.empty(spec.dims, dtype=np.float32, order="F")
    step = max(1, _SLAB_VOXELS // (ny * nz))
    for x0 in range(0, nx, step):
        slab = data[x0 : x0 + step]
        slab[...] = rng.normal(spec.mu_bg, spec.sigma_bg, size=slab.shape)
    n_fg = int(np.count_nonzero(bits))
    if n_fg:
        data[bits] = rng.normal(spec.mu_fg, spec.sigma_fg, size=n_fg)
    return Volume(data, spec.spacing), Mask(bits, spec.spacing)


def generate(spec: PhantomSpec) -> tuple[Volume, Mask]:
    """Deterministic (scan, truth mask) pair from a phantom spec."""
    return _draw(spec, _voxelize(spec))


# --- quality-tier cohorts -----------------------------------------------------

# snr targets comfortably inside each band (bands split at 1 and 3)
TIER_SNR_TARGETS = {"high": 0.5, "medium": 2.0, "low": 4.0}
DEFAULT_TIER_FRACTIONS = (0.15, 0.70, 0.15)  # high, medium, low

# uniform jitter half-widths of each cohort member: the semi-axes and mu_fg
# scale by 1 +- a fraction, the center moves by +- mm per axis
_JITTER_SEMI_AXES_FRAC = 0.10
_JITTER_CENTER_MM = 2.0
_JITTER_INTENSITY_FRAC = 0.05


def tier_counts(n: int, fractions=DEFAULT_TIER_FRACTIONS) -> tuple[int, int, int]:
    """Largest-remainder apportionment of n members over the three tiers."""
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    if len(fractions) != 3 or not all(f >= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(
            f"tier fractions must be 3 non-negative values summing to 1, got {fractions!r}"
        )
    raw = [f * n for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    order = sorted(range(3), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for k in range(n - sum(counts)):
        counts[order[k % 3]] += 1
    return tuple(counts)


def cohort_tiers(n: int, fractions=DEFAULT_TIER_FRACTIONS) -> list[str]:
    """The tier of each of n members: the :func:`tier_counts` of each
    band in high, medium, low order."""
    return [tier for tier, k in zip(BANDS, tier_counts(n, fractions)) for _ in range(k)]


def _jittered_spec(base: PhantomSpec, member_seed: int) -> PhantomSpec:
    """Jitter geometry and intensity by the ``_JITTER_*`` half-widths; tubes
    and the valve plane follow the body so attachment (and therefore mask
    connectivity) is preserved."""
    rng = np.random.default_rng((member_seed, 0xC0F0))
    old_center = np.asarray(base.resolved_center())
    old_axes = np.asarray(base.semi_axes_mm)
    ratios = 1.0 + rng.uniform(-_JITTER_SEMI_AXES_FRAC, _JITTER_SEMI_AXES_FRAC, size=3)
    shift = rng.uniform(-_JITTER_CENTER_MM, _JITTER_CENTER_MM, size=3)
    new_center = old_center + shift
    new_axes = old_axes * ratios
    mu_fg = base.mu_fg * (1.0 + rng.uniform(-_JITTER_INTENSITY_FRAC, _JITTER_INTENSITY_FRAC))

    tubes = []
    for tube in base.tubes:
        rel = (np.asarray(tube.attach_mm) - old_center) * ratios
        tubes.append(replace(tube, attach_mm=tuple(new_center + rel)))
    valve = base.valve_plane
    if valve is not None:
        normal, offset = valve
        valve = (normal, offset + float(np.dot(np.asarray(normal), shift)))
    return replace(
        base,
        center_mm=tuple(new_center),
        semi_axes_mm=tuple(new_axes),
        tubes=tuple(tubes),
        valve_plane=valve,
        mu_fg=mu_fg,
        seed=member_seed,
    )


def cohort_member(base: PhantomSpec, seed: int, tier: str) -> tuple[Volume, Mask]:
    """One cohort member: ``base`` jittered with ``seed``, its noise level
    chosen so that :func:`labench.quality.assess_quality` at its default
    margin, ``quality.DEFAULT_MARGIN``, lands in ``tier``."""
    spec = _jittered_spec(base, seed)
    if spec.mu_fg <= spec.mu_bg:
        raise InfeasibleTier("mu_fg must exceed mu_bg to target any quality band")
    bits = _voxelize(spec)
    if not bits.any():
        raise GeometryOutOfBounds(f"cohort member with seed {seed} has an empty mask")
    # the dilated foreground's rim of background scales the measured contrast by w
    _, region = foreground_region(bits, DEFAULT_MARGIN)
    w = np.count_nonzero(bits) / np.count_nonzero(region)
    sigma_bg = TIER_SNR_TARGETS[tier] * w * (spec.mu_fg - spec.mu_bg)
    return _draw(replace(spec, sigma_bg=sigma_bg), bits)


def check_cohort(base: PhantomSpec, n: int, seed: int = 0) -> None:
    """Raise what :func:`generate_cohort` would raise for the geometry of
    its n members, without voxelizing any of them."""
    for i in range(n):
        _check_geometry(_jittered_spec(base, seed + i))


def generate_cohort(
    base: PhantomSpec, n: int, seed: int = 0, tier_fractions=DEFAULT_TIER_FRACTIONS
) -> list[tuple[Volume, Mask, str]]:
    """Deterministic cohort with a declared quality-band mix: member i is
    :func:`cohort_member` with seed ``seed + i`` and the i-th entry of
    :func:`cohort_tiers`."""
    return [
        (*cohort_member(base, seed + i, tier), tier)
        for i, tier in enumerate(cohort_tiers(n, tier_fractions))
    ]
