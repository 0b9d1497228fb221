import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from labench.errors import GeometryOutOfBounds, InfeasibleTier
from labench import phantom
from labench.phantom import (
    PhantomSpec,
    Tube,
    _draw,
    _jittered_spec,
    _voxelize,
    cohort_member,
    default_phantom_spec,
    generate,
    generate_cohort,
    tier_counts,
)
from labench.quality import assess_quality
from oracles import full_grid_voxelize, one_shot_draw, two_pass_cohort

DESK_DIMS = (72, 72, 48)
DESK_SPACING = (1.0, 1.0, 1.0)


def _desk_spec(**overrides):
    return default_phantom_spec(dims=DESK_DIMS, spacing=DESK_SPACING, **overrides)


def test_sphere_voxel_count_matches_analytic_volume():
    r = 14.0
    spec = PhantomSpec(
        dims=(64, 64, 64),
        spacing=(1.0, 1.0, 1.0),
        semi_axes_mm=(r, r, r),
        tubes=(),
        valve_plane=None,
        sigma_fg=0.0,
        sigma_bg=0.0,
    )
    _, mask = generate(spec)
    analytic = 4.0 / 3.0 * math.pi * r**3
    assert mask.count == pytest.approx(analytic, rel=0.02)


def test_noiseless_phantom_quality():
    spec = _desk_spec(sigma_fg=0.0, sigma_bg=0.0)
    volume, mask = generate(spec)
    report = assess_quality(volume, mask, margin=0)
    assert report.snr == 0.0
    assert report.het == 0.0
    assert report.band == "high"


def test_generation_is_deterministic():
    spec = _desk_spec(seed=99)
    v1, m1 = generate(spec)
    v2, m2 = generate(spec)
    assert v1 == v2 and m1 == m2
    assert v1.data.tobytes() == v2.data.tobytes()


def test_different_seeds_differ():
    v1, _ = generate(_desk_spec(seed=1))
    v2, _ = generate(_desk_spec(seed=2))
    assert v1 != v2


def test_mask_is_26_connected():
    _, mask = generate(_desk_spec(sigma_fg=0.0, sigma_bg=0.0))
    _, n = ndimage.label(mask.bits, structure=np.ones((3, 3, 3)))
    assert n == 1


def test_valve_plane_truncation_reduces_volume():
    spec_open = _desk_spec()
    spec_open = replace(spec_open, valve_plane=None)
    _, m_open = generate(spec_open)
    _, m_cut = generate(_desk_spec())
    assert 0 < m_cut.count <= m_open.count


def test_out_of_bounds_geometry_rejected():
    spec = PhantomSpec(
        dims=(32, 32, 32),
        spacing=(1.0, 1.0, 1.0),
        semi_axes_mm=(30.0, 10.0, 10.0),
        tubes=(),
        valve_plane=None,
    )
    with pytest.raises(GeometryOutOfBounds):
        generate(spec)
    clipped = replace(spec, allow_clip=True)
    _, mask = generate(clipped)
    assert mask.count > 0


def test_tube_validation():
    bad = PhantomSpec(
        dims=(32, 32, 32),
        spacing=(1.0, 1.0, 1.0),
        semi_axes_mm=(8.0, 8.0, 8.0),
        tubes=(Tube((16.0, 16.0, 16.0), (0.0, 0.0, 0.0), 2.0, 5.0),),
    )
    with pytest.raises(ValueError):
        generate(bad)


def test_tier_counts_rounding():
    assert tier_counts(20) == (3, 14, 3)
    assert tier_counts(1) == (0, 1, 0)
    assert tier_counts(7) == (1, 5, 1)
    assert sum(tier_counts(13)) == 13
    with pytest.raises(ValueError):
        tier_counts(0)
    with pytest.raises(ValueError):
        tier_counts(5, (0.5, 0.2, 0.2))


def test_tier_counts_rejects_a_nan_fraction():
    # nan passes a `< 0` test and makes the sum check false
    with pytest.raises(ValueError, match="tier fractions must be 3 non-negative values"):
        tier_counts(3, (0.5, float("nan"), 0.5))


def test_cohort_single_member_equals_direct_generation():
    base = _desk_spec()
    members = generate_cohort(base, 1, seed=5)
    assert len(members) == 1
    again = generate_cohort(base, 1, seed=5)
    assert members[0][0] == again[0][0]
    assert members[0][1] == again[0][1]
    assert members[0][2] == "medium"


def test_cohort_members_land_in_declared_bands():
    base = _desk_spec()
    members = generate_cohort(base, 8, seed=21)
    for i, (volume, mask, tier) in enumerate(members):
        assert mask.count > 0
        report = assess_quality(volume, mask)
        assert report.band == tier, f"member {i}: snr {report.snr:.3f} not in {tier}"


def test_cohort_tier_mix():
    members = generate_cohort(_desk_spec(), 20, seed=3)
    tiers = [t for _, _, t in members]
    assert tiers.count("high") == 3
    assert tiers.count("medium") == 14
    assert tiers.count("low") == 3


def test_cohort_masks_connected():
    members = generate_cohort(_desk_spec(), 4, seed=17)
    for _, mask, _ in members:
        _, n = ndimage.label(mask.bits, structure=np.ones((3, 3, 3)))
        assert n == 1


def test_cohort_equals_two_pass_composition():
    base = _desk_spec()
    fractions = (0.34, 0.33, 0.33)
    members = generate_cohort(base, 3, seed=4, tier_fractions=fractions)
    expected = two_pass_cohort(base, 3, seed=4, tier_fractions=fractions)
    assert [t for _, _, t in members] == ["high", "medium", "low"]
    for (v, m, t), (ev, em, et) in zip(members, expected):
        assert t == et
        assert v.data.tobytes() == ev.data.tobytes()
        assert m.bits.tobytes() == em.bits.tobytes()


def test_infeasible_tier():
    base = _desk_spec(mu_fg=100.0, mu_bg=200.0)
    with pytest.raises(InfeasibleTier):
        generate_cohort(base, 2, seed=0)


def test_variation_jitters_geometry():
    base = _desk_spec()
    members = generate_cohort(base, 3, seed=9)
    counts = {m.count for _, m, _ in members}
    assert len(counts) == 3  # all three geometries differ


# --- boxed voxelization and slab draw against the whole-grid oracles ------------------

# attached inside the body, leaving the grid on the high x side
_TUBE_OUT_HIGH = Tube((30.0, 20.0, 14.0), (1.0, 0.2, 0.1), 3.0, 20.0)
# wholly below the grid origin: its box clips to nothing
_TUBE_BELOW = Tube((-20.0, -18.0, -12.0), (-1.0, 0.0, -0.3), 2.0, 6.0)
# from inside the grid across the low x and y faces
_TUBE_OUT_LOW = Tube((8.0, 8.0, 14.0), (-1.0, -1.0, 0.0), 2.5, 15.0)

_ORACLE_BASES = {
    "anisotropic": default_phantom_spec(dims=(48, 40, 30), spacing=(0.9, 1.1, 1.6)),
    "no-tubes": replace(_desk_spec(), tubes=()),
    "no-valve": replace(_desk_spec(), valve_plane=None),
    "clipped": PhantomSpec(
        dims=(40, 40, 30),
        spacing=(1.0, 1.0, 1.0),
        semi_axes_mm=(14.0, 11.0, 9.0),
        tubes=(_TUBE_OUT_HIGH, _TUBE_BELOW, _TUBE_OUT_LOW),
        valve_plane=((0.1, 0.0, 1.0), 9.0),
        allow_clip=True,
    ),
    "one-slab": _desk_spec(),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(_ORACLE_BASES))
def test_voxelize_and_draw_equal_the_whole_grid_oracles(name, seed):
    spec = _jittered_spec(_ORACLE_BASES[name], seed)
    bits = _voxelize(spec)
    expected = full_grid_voxelize(spec)
    assert bits.any()
    assert bits.tobytes() == expected.tobytes()
    volume, mask = _draw(spec, bits)
    want, _ = one_shot_draw(spec, expected)
    assert volume.data.tobytes() == want.data.tobytes()
    assert mask.bits.tobytes() == expected.tobytes()


def test_slab_draw_with_a_remainder_equals_the_one_shot_draw(monkeypatch):
    spec = _jittered_spec(_ORACLE_BASES["anisotropic"], 3)
    ny, nz = spec.dims[1:]
    # 5 x-rows per slab over 48 rows: nine full slabs and one of 3 rows
    monkeypatch.setattr(phantom, "_SLAB_VOXELS", 5 * ny * nz + ny)
    bits = _voxelize(spec)
    volume, _ = _draw(spec, bits)
    want, _ = one_shot_draw(spec, bits)
    assert volume.data.tobytes() == want.data.tobytes()
    assert volume.data.flags.f_contiguous


def test_cohort_member_memory_is_bounded_by_the_scan():
    # the float32 scan and the mask span the grid; the noise slab and the
    # voxelization stay smaller than the grid
    base = default_phantom_spec(dims=(256, 256, 64), spacing=(1.0, 1.0, 1.0))
    nvox = 256 * 256 * 64
    assert nvox > phantom._SLAB_VOXELS
    tracemalloc.start()
    try:
        _, mask = cohort_member(base, 7, "high")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * nvox
    assert mask.bits.flags.f_contiguous  # written without a transposing copy
