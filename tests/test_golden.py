"""Byte-for-byte outputs of the CLI on a fixed tiny cohort.

``tests/data/golden`` holds what the commands below wrote: text outputs
verbatim, NRRD files as SHA-256 digests in ``nrrd.sha256``, and each
command's exit code and stderr in ``streams.json``. The test reruns the
commands and compares every byte. An intended output change regenerates
the files with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from labench.cli import main
from labench.grids import Mask
from labench.nrrd_io import read_nrrd, write_nrrd

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

AUGMENT = [
    {"kind": "rotate", "angle_deg": 10.0},
    {"kind": "elastic", "magnitude": 1.5, "grid_size": 3, "seed": 4},
    {"kind": "flip", "flip_axis": "y"},
]


def _predictions(root: Path) -> None:
    """Two teams' masks for the cohort: ``shift`` moves each truth one voxel
    along x; ``slab`` drops the lower z half and leaves case_001 empty."""
    for case in ("case_000", "case_001", "case_002"):
        truth = read_nrrd(root / "cohort" / f"{case}_label.nrrd", as_mask=True)
        for team in ("shift", "slab"):
            (root / team).mkdir(exist_ok=True)
            if team == "shift":
                bits = np.roll(truth.bits, 1, axis=0)
            else:
                bits = truth.bits.copy()
                bits[:, :, : truth.dims[2] // 2] = False
                if case == "case_001":
                    bits[...] = False
            write_nrrd(Mask(bits, truth.spacing), root / team / f"{case}.nrrd")


def _commands(root: Path) -> list[tuple[str, list[str]]]:
    def p(*parts):
        return str(root.joinpath(*parts))

    return [
        ("synth", ["synth", "--out-dir", p("cohort"), "--count", "3", "--dims", "24,24,16",
                   "--spacing", "1.0", "--tier-fractions", "0.34,0.33,0.33", "--seed", "5"]),
        ("evaluate-shift", ["evaluate", p("shift"), p("cohort"), "--out", p("shift.csv")]),
        ("evaluate-slab", ["evaluate", p("slab"), p("cohort"), "--out", p("slab.csv")]),
        ("evaluate-slab-json", ["evaluate", p("slab"), p("cohort"), "--out", p("slab.json"),
                                "--format", "json"]),
        ("quality", ["quality", "--scans", p("cohort"), "--masks", p("cohort"),
                     "--out", p("quality.csv")]),
        ("rank-quality", ["rank", "--metrics", p("shift.csv"), p("slab.csv"),
                          "--attributes", p("attributes.csv"), "--quality", p("quality.csv"),
                          "--out-dir", p("board")]),
        ("rank-summary", ["rank", "--summary", str(DATA / "published_rankings.csv"),
                          "--out-dir", p("summary")]),
        ("preprocess-augment", ["preprocess", p("cohort", "case_000.nrrd"), "--out", p("aug.nrrd"),
                                "--augment", p("augment.json"),
                                "--mask", p("cohort", "case_000_label.nrrd"),
                                "--mask-out", p("aug_label.nrrd"), "--seed", "5"]),
        ("preprocess-downsample-normalize", ["preprocess", p("cohort", "case_001.nrrd"),
                                             "--out", p("small.nrrd"), "--downsample", "2,2,1",
                                             "--normalize"]),
        ("preprocess-clahe", ["preprocess", p("cohort", "case_002.nrrd"), "--out", p("clahe.nrrd"),
                              "--clahe", "3,3,2.0", "--encoding", "gzip"]),
        *_pipeline_commands(p),
        ("pipeline-external", ["pipeline", "--scan", p("cohort", "case_000.nrrd"),
                               "--segmenter", "external",
                               "--prediction", p("shift", "case_000.nrrd"), *ROI,
                               "--downsample-factor", "2",
                               "--out", p("pipe", "threshold-external.nrrd")]),
        ("postprocess", ["postprocess", p("pipe", "threshold-threshold.nrrd"),
                         "--out", p("post.nrrd"), "--encoding", "gzip", "--ops", "largest:6",
                         "close:cube:1", "open", "smooth:2", "dilate", "erode"]),
        ("postprocess-wide", ["postprocess", p("pipe", "threshold-threshold.nrrd"),
                              "--out", p("post-wide.nrrd"), "--ops", "dilate:cube:3",
                              "close:cross:2", "open:cube:2", "erode:cross:3", "smooth:1"]),
        *_offset_commands(p),
        ("patch-size", ["experiment", "patch-size", "--truth", p("cohort", "case_000_label.nrrd"),
                        "--sizes", "24x24,16x16,10x8,3x2", "--z-extent", "10", "--out", p("sizes.csv")]),
    ]


ROI = ["--roi", "16,14,10"]


def _pipeline_commands(p) -> list[tuple[str, list[str]]]:
    """Every localizer with the threshold and oracle segmenters, on case_001."""
    return [
        (f"pipeline-{loc}-{seg}",
         ["pipeline", "--scan", p("cohort", "case_001.nrrd"),
          "--truth", p("cohort", "case_001_label.nrrd"), "--localizer", loc, "--segmenter", seg,
          *ROI, "--downsample-factor", "2", "--out", p("pipe", f"{loc}-{seg}.nrrd")])
        for loc in ("threshold", "oracle", "fixed")
        for seg in ("threshold", "oracle")
    ]


def _offset_commands(p) -> list[tuple[str, list[str]]]:
    """Offset curves of both segmenters along x and z, in both table formats."""
    return [
        (f"offset-{seg}-{axis}-{fmt}",
         ["experiment", "offset", "--scan", p("cohort", "case_002.nrrd"),
          "--truth", p("cohort", "case_002_label.nrrd"), "--segmenter", seg, "--axis", axis,
          "--offsets", "0,50,100,150,200", *ROI, "--out", p("offset", f"{seg}-{axis}.{fmt}"),
          "--format", fmt])
        for seg in ("oracle", "threshold")
        for axis in ("x", "z")
        for fmt in ("csv", "json")
    ]


def run_all(root: Path) -> dict[str, tuple[int, str]]:
    """Run every command in ``root``; return each one's exit code and stderr."""
    (root / "augment.json").write_text(json.dumps(AUGMENT))
    (root / "attributes.csv").write_text("team_id,shape\nshift,moved\nslab,cut\n")
    (root / "pipe").mkdir()
    (root / "offset").mkdir()
    streams = {}
    for name, argv in _commands(root):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        streams[name] = (code, err.getvalue().replace(str(root), "<tmp>"))
        if name == "synth":
            _predictions(root)
    return streams


def outputs(root: Path) -> tuple[dict[str, bytes], dict[str, str]]:
    """The text outputs by relative path, and SHA-256 digests of the NRRD files."""
    skip = {"augment.json", "attributes.csv"}
    text, digests = {}, {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_dir() or rel in skip:
            continue
        if path.suffix == ".nrrd":
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            text[rel] = path.read_bytes()
    return text, digests


def _read_digests() -> dict[str, str]:
    lines = (GOLDEN / "nrrd.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_cli_outputs_match_golden_bytes(tmp_path):
    streams = run_all(tmp_path)
    text, digests = outputs(tmp_path)
    expected_streams = json.loads((GOLDEN / "streams.json").read_text())
    assert {name: list(value) for name, value in streams.items()} == expected_streams
    expected_text = sorted(
        p.relative_to(GOLDEN / "files").as_posix() for p in (GOLDEN / "files").rglob("*") if p.is_file()
    )
    assert sorted(text) == expected_text
    for rel, content in text.items():
        assert content == (GOLDEN / "files" / rel).read_bytes(), rel
    assert digests == _read_digests()


def _regenerate(root: Path) -> None:
    streams = run_all(root)
    text, digests = outputs(root)
    shutil.rmtree(GOLDEN / "files", ignore_errors=True)
    for rel, content in text.items():
        target = GOLDEN / "files" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    (GOLDEN / "nrrd.sha256").write_text("".join(f"{d}  {rel}\n" for rel, d in digests.items()))
    (GOLDEN / "streams.json").write_text(
        json.dumps({name: list(value) for name, value in streams.items()}, indent=2) + "\n"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
