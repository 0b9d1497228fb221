"""Benchmarking toolkit for left-atrium segmentation of 3D LGE-MRI volumes.

Subsystems: NRRD volume I/O and grid types (:mod:`grids`, :mod:`nrrd_io`),
scan quality scoring (:mod:`quality`), per-case scoring by the one scorer
:func:`metrics.evaluate_case` (:mod:`metrics`), pre- and post-processing
operators (:mod:`preprocess`, :mod:`postprocess`), the localize/crop/segment
pipeline with its geometry experiments (:mod:`pipeline`), cross-team
statistics and leaderboards (:mod:`stats`), and a synthetic phantom
generator for desk-scale verification (:mod:`phantom`). The ``labench``
executable in :mod:`cli` fronts all of it.

The package itself imports none of these modules, so ``import labench``
loads no numpy; import names from the module that defines them, e.g.
``from labench.metrics import evaluate_case``.

Two defaults live here because the CLI parser shows them for every
command, ``rank`` included, which loads no numpy:
:data:`DEFAULT_ROI_SIZE`, the pipeline's crop in voxels, and
:data:`DEFAULT_MARGIN`, the quality foreground's dilation margin in
voxels (also ``quality.DEFAULT_MARGIN``).
"""

__version__ = "0.1.0"

# the pipeline's crop: the winning challenge pipelines' 240x160x96 voxels,
# 150x100x60 mm at 0.625 mm
DEFAULT_ROI_SIZE = (240, 160, 96)

# voxels the quality foreground is dilated by around the cavity mask
DEFAULT_MARGIN = 3
