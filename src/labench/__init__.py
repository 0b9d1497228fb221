"""Benchmarking toolkit for left-atrium segmentation of 3D LGE-MRI volumes.

Subsystems: NRRD volume I/O and grid types (:mod:`grids`, :mod:`nrrd_io`),
scan quality scoring (:mod:`quality`), per-case segmentation metrics
(:mod:`metrics`), pre- and post-processing operators (:mod:`preprocess`,
:mod:`postprocess`), the localize/crop/segment/pad pipeline with its
geometry experiments (:mod:`pipeline`), cross-team statistics and
leaderboards (:mod:`stats`), and a synthetic phantom generator for
desk-scale verification (:mod:`phantom`). The ``labench`` executable in
:mod:`cli` fronts all of it.
"""

from .errors import LabenchError
from .grids import Mask, Volume, VoxelIndex, downsample
from .metrics import (
    CaseMetrics,
    ConfusionCounts,
    dice,
    dice_profile_z,
    evaluate_case,
    hausdorff_mm,
    iou,
    la_diameter_mm,
    la_volume_cm3,
    sensitivity_specificity,
    stsd_mm,
)
from .nrrd_io import read_nrrd, write_nrrd
from .phantom import CohortVariation, PhantomSpec, Tube, default_phantom_spec, generate, generate_cohort
from .pipeline import (
    RoiBox,
    crop,
    crop_box,
    localize_oracle,
    localize_threshold,
    offset_sweep,
    patch_size_sweep,
    run_pipeline,
    uncrop,
)
from .preprocess import (
    AugmentationSpec,
    apply_augmentation,
    augment,
    clahe_slicewise,
    normalize_intensity,
)
from .postprocess import StructuringElement, dilate, erode, largest_component, smooth_surface
from .quality import QualityReport, assess_quality, quality_distribution
from .stats import (
    Leaderboard,
    TeamResult,
    aggregate,
    build_leaderboard,
    compare_groups,
    correlate,
    leaderboard_from_summary,
    welch_ttest,
)

__version__ = "0.1.0"
