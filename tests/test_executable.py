"""The ``labench`` executable, run as a child process.

``python -m labench.cli`` and the ``labench`` script end through
``labench.cli.run``, which leaves with ``os._exit`` once ``main`` returns.
These tests check its exit codes, that its stderr lines and written files
are complete, and that they match an in-process ``main`` call.
"""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import labench
from labench import cli
from labench.grids import Mask, Volume
from labench.nrrd_io import write_nrrd

SRC = Path(labench.__file__).resolve().parents[1]


def _labench(*argv, stderr=subprocess.PIPE) -> subprocess.CompletedProcess:
    # pool workers inherit the output pipes, so one that outlived the command
    # would keep them open and this call would end in TimeoutExpired
    return subprocess.run(
        [sys.executable, "-m", "labench.cli", *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=stderr,
        timeout=120,
    )


def _blob(dims=(20, 20, 12), lo=(6, 6, 3), hi=(14, 14, 9)):
    bits = np.zeros(dims, dtype=bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return bits


def _evaluate_dirs(tmp_path, n=3):
    preds, truths = tmp_path / "preds", tmp_path / "truths"
    preds.mkdir()
    truths.mkdir()
    for i in range(n):
        write_nrrd(Mask(_blob(lo=(6 + i, 6, 3))), preds / f"c{i}.nrrd")
        write_nrrd(Mask(_blob()), truths / f"c{i}_label.nrrd")
    return preds, truths


def _scan_pair(directory, n=1):
    directory.mkdir()
    bits = _blob()
    rng = np.random.default_rng(2)
    for i in range(n):
        data = rng.normal(100, 10, size=bits.shape)
        data[bits] = rng.normal(300 + 50 * i, 10, size=int(bits.sum()))
        write_nrrd(Volume(data.astype(np.float32)), directory / f"s{i}.nrrd")
        write_nrrd(Mask(bits), directory / f"s{i}_label.nrrd")
    return directory


# --- exit codes ------------------------------------------------------------------


def test_missing_input_directory_exits_1(tmp_path):
    result = _labench("evaluate", tmp_path / "none", tmp_path, "--out", tmp_path / "e.csv")
    assert result.returncode == 1
    assert result.stderr.decode() == (
        f"labench: error: prediction directory {str(tmp_path / 'none')!r} is not a directory\n"
    )
    assert not (tmp_path / "e.csv").exists()


def test_gzip_mask_of_impossible_size_exits_1_without_a_traceback(tmp_path):
    # sizes implying 10**20 bytes are named before anything is inflated
    path = tmp_path / "huge.nrrd"
    header = "NRRD0004\ntype: unsigned char\ndimension: 3\nsizes: 100000000000000000000 1 1\nencoding: gzip\n\n"
    path.write_bytes(header.encode() + gzip.compress(bytes(8)))
    result = _labench("postprocess", path, "--ops", "largest", "--out", tmp_path / "out.nrrd")
    assert result.returncode == 1
    assert result.stderr.decode() == (
        "labench: error: DimensionMismatch: header implies 100000000000000000000 payload bytes,"
        " more than a file can hold\n"
    )
    assert not (tmp_path / "out.nrrd").exists()


def test_unpaired_case_exits_2_after_writing_the_paired_ones(tmp_path):
    preds, truths = _evaluate_dirs(tmp_path, n=2)
    (truths / "c1_label.nrrd").unlink()
    out = tmp_path / "e.csv"
    result = _labench("evaluate", preds, truths, "--out", out)
    assert result.returncode == 2
    assert result.stderr.decode() == "labench: unpaired case: c1\n"
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["case_id", "c0"]


# --- complete outputs, equal to an in-process call --------------------------------


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_writes_what_main_writes(tmp_path, jobs):
    preds, truths = _evaluate_dirs(tmp_path)
    child, here = tmp_path / "child.csv", tmp_path / "here.csv"
    result = _labench("evaluate", preds, truths, "--out", child, "--jobs", jobs)
    assert (result.returncode, result.stderr) == (0, b"")
    assert cli.main(["evaluate", str(preds), str(truths), "--out", str(here), "--jobs", "1"]) == 0
    assert child.read_bytes() == here.read_bytes()


def test_postprocess_gzip_writes_what_main_writes(tmp_path):
    mask = tmp_path / "in.nrrd"
    bits = _blob()
    bits[0, 0, 0] = True  # a stray voxel for largest to drop
    write_nrrd(Mask(bits), mask)
    ops = ["--ops", "largest:26", "smooth:1", "--encoding", "gzip"]
    child, here = tmp_path / "child.nrrd", tmp_path / "here.nrrd"
    result = _labench("postprocess", mask, "--out", child, *ops)
    assert (result.returncode, result.stderr) == (0, b"")
    assert cli.main(["postprocess", str(mask), "--out", str(here), *ops]) == 0
    assert child.read_bytes() == here.read_bytes()


def _pipeline_argv(tmp_path, out):
    cases = _scan_pair(tmp_path / "cases")
    return [
        "pipeline", "--scan", cases / "s0.nrrd", "--truth", cases / "s0_label.nrrd",
        "--localizer", "oracle", "--segmenter", "oracle", "--roi", "16,16,10",
        "--out", out,
    ]


def _quality_argv(tmp_path, out):
    cases = _scan_pair(tmp_path / "cases", n=2)
    return ["quality", "--scans", cases, "--masks", cases, "--out", out]


@pytest.mark.parametrize(
    "build, line",
    [(_pipeline_argv, "labench: dice vs truth: "), (_quality_argv, "labench: band distribution: ")],
    ids=["pipeline", "quality"],
)
def test_stderr_line_is_complete_in_a_file(tmp_path, capsys, build, line):
    argv = [str(a) for a in build(tmp_path, tmp_path / "child.out")]
    with open(tmp_path / "err.txt", "wb") as err:
        result = _labench(*argv, stderr=err)
    assert result.returncode == 0
    here = [*argv[:-1], str(tmp_path / "here.out")]
    assert cli.main(here) == 0
    expected = capsys.readouterr().err
    assert expected.startswith(line) and expected.count("\n") == 1
    assert (tmp_path / "err.txt").read_text() == expected
    assert (tmp_path / "child.out").read_bytes() == (tmp_path / "here.out").read_bytes()


# --- the entry point ------------------------------------------------------------------


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["labench"] == "labench.cli:run"


class _Stream:
    def __init__(self, name, events):
        self.name, self.events = name, events

    def flush(self):
        self.events.append(self.name)


def _record(monkeypatch, main):
    events = []
    monkeypatch.setattr(cli, "main", lambda: main(events))
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("_exit", code)))
    return events


def test_run_flushes_both_streams_then_exits_with_the_code_of_main(monkeypatch):
    events = _record(monkeypatch, lambda events: events.append("main") or 2)
    cli.run()
    assert events == ["main", "stdout", "stderr", ("_exit", 2)]


@pytest.mark.parametrize("exc", [SystemExit(1), RuntimeError("boom")], ids=["SystemExit", "error"])
def test_run_leaves_a_raised_exit_to_the_interpreter(monkeypatch, exc):
    def main(events):
        raise exc

    events = _record(monkeypatch, main)
    with pytest.raises(type(exc)):
        cli.run()
    assert events == []
