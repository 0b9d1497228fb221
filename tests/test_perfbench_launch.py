"""The tracing launcher in ``perfbench/`` wraps ``labench`` functions by
name; run it around the commands it traces so a renamed function fails
here, not only in a traced benchmark run."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from labench.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _launch(tmp_path, name, *labench_args):
    spans = tmp_path / f"{name}.json"
    env = dict(os.environ, PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans), "team", "case_000", "--",
         *map(str, labench_args)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return {span[0] for span in json.loads(spans.read_text())}


def test_launcher_traces_synth_pipeline_and_postprocess(tmp_path):
    cohort = tmp_path / "cohort"
    names = _launch(
        tmp_path, "synth", "synth", "--out-dir", cohort, "--count", "3",
        "--dims", "24,24,24", "--spacing", "1.0", "--tier-fractions", "0.34,0.33,0.33",
    )
    assert "cli.synth" in names
    names = _launch(
        tmp_path, "pipeline", "pipeline", "--scan", cohort / "case_000.nrrd",
        "--truth", cohort / "case_000_label.nrrd", "--roi", "16,16,16",
        "--downsample-factor", "2", "--out", tmp_path / "pred.nrrd",
    )
    assert {"cli.pipeline", "pipeline.localize_threshold", "pipeline.segment"} <= names
    # without --truth, the only mask this run reads is the external prediction
    names = _launch(
        tmp_path, "external", "pipeline", "--scan", cohort / "case_000.nrrd",
        "--segmenter", "external", "--prediction", cohort / "case_000_label.nrrd",
        "--roi", "16,16,16", "--downsample-factor", "2", "--out", tmp_path / "ext.nrrd",
    )
    assert {"cli.pipeline", "nrrd_io.read_volume", "nrrd_io.read_mask"} <= names
    names = _launch(
        tmp_path, "postprocess", "postprocess", tmp_path / "pred.nrrd",
        "--ops", "largest:26", "smooth:1", "--out", tmp_path / "clean.nrrd",
    )
    assert {"cli.postprocess", "postprocess.largest_component", "postprocess.smooth_surface"} <= names


def test_launcher_traces_evaluate_quality_and_rank(tmp_path):
    # the scoring layers are wrapped where the CLI looks them up, so a
    # command that calls them by another name loses its spans here
    cohort = tmp_path / "cohort"
    assert main([
        "synth", "--out-dir", str(cohort), "--count", "2", "--dims", "24,24,24", "--spacing", "1.0",
        "--tier-fractions", "0.5,0.5,0.0",
    ]) == 0
    names = _launch(tmp_path, "evaluate", "evaluate", cohort, cohort, "--out", tmp_path / "m.csv", "--jobs", "1")
    assert {"cli.evaluate", "metrics.evaluate_case.team", "metrics.surface_voxels"} <= names
    names = _launch(
        tmp_path, "quality", "quality", "--scans", cohort, "--masks", cohort,
        "--out", tmp_path / "q.csv", "--jobs", "1",
    )
    assert {"cli.quality", "quality.assess_quality"} <= names
    names = _launch(tmp_path, "rank", "rank", "--metrics", tmp_path / "m.csv", "--out-dir", tmp_path / "board")
    assert {"cli.rank", "stats.build_leaderboard"} <= names
