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
"""

__version__ = "0.1.0"
