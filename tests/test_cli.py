import concurrent.futures
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import labench
from labench import phantom, pipeline
from labench.cli import _build_parser, main
from labench.grids import Mask, Volume
from labench.nrrd_io import read_nrrd, write_nrrd


def _write_pair(directory, case_id, bits, spacing=(1.0, 1.0, 1.0), scan=None):
    directory.mkdir(parents=True, exist_ok=True)
    if scan is not None:
        write_nrrd(Volume(scan, spacing), directory / f"{case_id}.nrrd")
    write_nrrd(Mask(bits, spacing), directory / f"{case_id}_label.nrrd")


def _blob(dims=(20, 20, 12), lo=(6, 6, 3), hi=(14, 14, 9)):
    bits = np.zeros(dims, dtype=bool)
    bits[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return bits


# --- usage behavior ------------------------------------------------------------


def test_no_arguments_prints_usage_and_exits_nonzero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "labench: error: the following arguments are required: command\n"
    assert list(tmp_path.iterdir()) == []  # filesystem untouched


def test_missing_required_args_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])
    assert exc.value.code == 1
    assert list(tmp_path.iterdir()) == []


def test_experiment_without_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "labench: error: the following arguments are required: experiment\n"


def test_unknown_flag_exits_1(capsys):
    # argparse's usage errors are the one error line of every other failure
    for argv, message in (
        (["synth", "--out-dir", "x", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"labench: error: {message}")


# minimal argv per subcommand, and the shared options each one reads
_BASE_ARGV = {
    "evaluate": ["evaluate", "p", "t", "--out", "o"],
    "rank": ["rank", "--out-dir", "o"],
    "quality": ["quality", "--scans", "s", "--masks", "m", "--out", "o"],
    "preprocess": ["preprocess", "in", "--out", "o"],
    "postprocess": ["postprocess", "in", "--out", "o", "--ops", "largest"],
    "pipeline": ["pipeline", "--scan", "s", "--out", "o"],
    "offset": ["experiment", "offset", "--scan", "s", "--truth", "t", "--out", "o"],
    "patch-size": ["experiment", "patch-size", "--truth", "t", "--out", "o"],
    "synth": ["synth", "--out-dir", "o"],
}
_READS = {
    "evaluate": ("format", "jobs"),
    "quality": ("format", "jobs"),
    "preprocess": ("seed", "encoding"),
    "postprocess": ("encoding",),
    "pipeline": ("encoding",),
    "offset": ("format",),
    "patch-size": ("format",),
    "synth": ("seed", "jobs", "encoding"),
}
_VALUES = {"seed": ("9", 9), "format": ("json", "json"), "jobs": ("2", 2), "encoding": ("gzip", "gzip")}
_ALL = [(cmd, opt) for cmd in _BASE_ARGV for opt in _VALUES]


@pytest.mark.parametrize(
    "command, option", [c for c in _ALL if c[1] not in _READS.get(c[0], ())]
)
def test_unread_shared_option_is_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_BASE_ARGV[command] + [f"--{option}", _VALUES[option][0]])
    assert exc.value.code == 1
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [c for c in _ALL if c[1] in _READS.get(c[0], ())])
def test_read_shared_option_is_accepted(command, option):
    text, value = _VALUES[option]
    args = _build_parser().parse_args(_BASE_ARGV[command] + [f"--{option}", text])
    assert getattr(args, option) == value


@pytest.mark.parametrize(
    "argv,value",
    [
        (["synth", "--dims", "4,4,q"], "'4,4,q'"),
        (["synth", "--tier-fractions", "0.5,0.5"], "--tier-fractions: needs 3 numbers >= 0 summing to 1, got '0.5,0.5'"),
        (["synth", "--count", "0"], "--count: needs an integer >= 1, got '0'"),
        (["synth", "--spacing", "1,1"], "'1,1'"),
        (["synth", "--spacing", "0"], "--spacing: needs 1 or 3 numbers > 0, got '0'"),
        (["synth", "--spacing", "1,-1,1"], "--spacing: needs 1 or 3 numbers > 0, got '1,-1,1'"),
        (["synth", "--spacing", "1,abc"], "--spacing: needs 1 or 3 numbers > 0, got '1,abc'\n"),
        (
            ["synth", "--tier-fractions", "0.3,x,0.7"],
            "--tier-fractions: needs 3 numbers >= 0 summing to 1, got '0.3,x,0.7'\n",
        ),
        (["synth", "--dims", "32,32,0"], "--dims: needs 3 integers >= 1, got '32,32,0'"),
        (["synth", "--dims", "8,8,4", "--spacing", "0.1"], "GeometryOutOfBounds: phantom geometry"),
        (["preprocess", "{scan}", "--clahe", "8,8"], "'8,8'"),
        (
            ["preprocess", "{missing}", "--clahe", "8,8,x"],
            "--clahe: needs tiles >= 1 and a finite clip limit > 1, e.g. 8,8,3.0, got '8,8,x'",
        ),
        (["preprocess", "{missing}", "--augment", "{missing}"], "--augment needs --mask"),
        (["postprocess", "{mask}", "--ops", "dilate:ball"], "'ball'"),
        (["postprocess", "{missing}", "--ops", "smooth:1", "largest:x"], "--ops: entry 'largest:x'"),
        (
            ["postprocess", "{missing}", "--ops", "smooth:0"],
            "--ops: entry 'smooth:0': iterations must be >= 1, got 0",
        ),
        (
            ["postprocess", "{missing}", "--ops", "largest:5"],
            "--ops: entry 'largest:5': connectivity must be 6 or 26, got 5",
        ),
        (
            ["postprocess", "{missing}", "--ops", "largest:26:9"],
            "--ops: entry 'largest:26:9': got 2 values after 'largest', which reads at most 1",
        ),
        (
            ["postprocess", "{missing}", "--ops", "smooth:1:2"],
            "--ops: entry 'smooth:1:2': got 2 values after 'smooth', which reads at most 1",
        ),
        (
            ["postprocess", "{missing}", "--ops", "dilate:cube:1:7"],
            "--ops: entry 'dilate:cube:1:7': got 3 values after 'dilate', which reads at most 2",
        ),
        (["pipeline", "--scan", "{scan}", "--roi", "0,20,12"], "--roi: needs 3 integers >= 1, got '0,20,12'"),
        (
            ["pipeline", "--scan", "{missing}", "--roi", "1,x,3"],
            "--roi: needs 3 integers >= 1, got '1,x,3'",
        ),
        (["pipeline", "--scan", "{missing}", "--segmenter", "oracle"], "--segmenter oracle needs --truth"),
        (["pipeline", "--scan", "{missing}", "--localizer", "oracle"], "--localizer oracle needs --truth"),
        (
            ["pipeline", "--scan", "{missing}", "--segmenter", "external"],
            "--segmenter external needs --prediction",
        ),
        (
            ["experiment", "patch-size", "--truth", "{missing}", "--sizes", "24x24,10x"],
            "--sizes: needs XxY sizes >= 1, got '24x24,10x'",
        ),
        # positive sizes and factors are checked before any input is read
        (
            ["pipeline", "--scan", "{missing}", "--roi", "0,20,12"],
            "--roi: needs 3 integers >= 1, got '0,20,12'",
        ),
        (
            ["experiment", "offset", "--scan", "{missing}", "--truth", "{missing}", "--roi", "8,-1,8"],
            "--roi: needs 3 integers >= 1, got '8,-1,8'",
        ),
        (
            ["preprocess", "{missing}", "--downsample", "2,0,2"],
            "--downsample: needs 3 integers >= 1, got '2,0,2'",
        ),
        (
            ["pipeline", "--scan", "{missing}", "--downsample-factor", "0"],
            "--downsample-factor: needs an integer >= 1, got '0'",
        ),
        (
            ["experiment", "patch-size", "--truth", "{missing}", "--sizes", "24x24,0x24"],
            "--sizes: needs XxY sizes >= 1, got '24x24,0x24'",
        ),
        (
            ["experiment", "patch-size", "--truth", "{missing}", "--z-extent", "-3"],
            "--z-extent: needs an integer >= 1, got '-3'",
        ),
        # a prediction that only the external segmenter reads
        (
            ["pipeline", "--scan", "{missing}", "--prediction", "{missing}"],
            "--prediction is read only by --segmenter external, got --segmenter threshold",
        ),
        (
            ["pipeline", "--scan", "{missing}", "--truth", "{missing}", "--segmenter", "oracle",
             "--prediction", "{mask}"],
            "--prediction is read only by --segmenter external, got --segmenter oracle",
        ),
        (["experiment", "offset", "--scan", "{scan}", "--truth", "{mask}", "--offsets", "0,x"], "--offsets: needs finite numbers >= 0, got '0,x'"),
        (
            ["experiment", "offset", "--scan", "{missing}", "--truth", "{missing}", "--offsets", "0,inf"],
            "--offsets: needs finite numbers >= 0, got '0,inf'",
        ),
        (
            ["experiment", "offset", "--scan", "{missing}", "--truth", "{missing}", "--offsets", "0,abc"],
            "--offsets: needs finite numbers >= 0, got '0,abc'",
        ),
        # an output whose directory is missing is named before any input is
        # read: {corrupt} would fail the read, and evaluate and quality would
        # otherwise score every case first
        (
            ["evaluate", "{dir}", "{dir}", "--out", "{nodir}/e.csv"],
            "--out '{nodir}/e.csv': '{nodir}' is not a directory",
        ),
        (
            ["evaluate", "{dir}", "{dir}", "--out", "{mask}/e.csv"],
            "--out '{mask}/e.csv': '{mask}' is not a directory",
        ),
        (
            ["quality", "--scans", "{dir}", "--masks", "{dir}", "--out", "{nodir}/q.csv"],
            "--out '{nodir}/q.csv': '{nodir}' is not a directory",
        ),
        # an output that is a directory is named before any case is scored
        (
            ["quality", "--scans", "{dir}", "--masks", "{dir}", "--out", "{dir}"],
            "--out '{dir}' is a directory",
        ),
        (
            ["experiment", "offset", "--scan", "{corrupt}", "--truth", "{corrupt}", "--out", "{nodir}/o.csv"],
            "--out '{nodir}/o.csv': '{nodir}' is not a directory",
        ),
        (
            ["experiment", "patch-size", "--truth", "{corrupt}", "--out", "{nodir}/p.csv"],
            "--out '{nodir}/p.csv': '{nodir}' is not a directory",
        ),
        (
            ["preprocess", "{corrupt}", "--clahe", "2,2,3.0", "--out", "{nodir}/v.nrrd"],
            "--out '{nodir}/v.nrrd': '{nodir}' is not a directory",
        ),
        (
            ["preprocess", "{corrupt}", "--mask", "{corrupt}", "--mask-out", "{nodir}/m.nrrd"],
            "--mask-out '{nodir}/m.nrrd': '{nodir}' is not a directory",
        ),
        (
            ["postprocess", "{corrupt}", "--ops", "largest", "--out", "{nodir}/m.nrrd"],
            "--out '{nodir}/m.nrrd': '{nodir}' is not a directory",
        ),
        (
            ["pipeline", "--scan", "{corrupt}", "--out", "{nodir}/m.nrrd"],
            "--out '{nodir}/m.nrrd': '{nodir}' is not a directory",
        ),
        # an output directory that names a file is named before any input is read
        (["rank", "--metrics", "{missing}", "--out-dir", "{mask}"], "--out-dir '{mask}' is not a directory"),
        (
            ["rank", "--metrics", "{missing}", "--out-dir", "{mask}/board"],
            "--out-dir '{mask}/board': '{mask}' is not a directory",
        ),
        (["synth", "--dims", "16,16,8", "--out-dir", "{mask}"], "--out-dir '{mask}' is not a directory"),
        # each value is named before any read, whether the input exists or not
        (
            ["preprocess", "{scan}", "--clahe", "0,0,3"],
            "--clahe: needs tiles >= 1 and a finite clip limit > 1, e.g. 8,8,3.0, got '0,0,3'",
        ),
        (
            ["preprocess", "{missing}", "--clahe", "8,8,nan"],
            "--clahe: needs tiles >= 1 and a finite clip limit > 1, e.g. 8,8,3.0, got '8,8,nan'",
        ),
        (
            ["preprocess", "{missing}", "--clahe", "8,8,1"],
            "--clahe: needs tiles >= 1 and a finite clip limit > 1, e.g. 8,8,3.0, got '8,8,1'",
        ),
        (["synth", "--seed", "-5"], "--seed: needs an integer >= 0, got '-5'"),
        (
            ["synth", "--tier-fractions", "0.5,0.4,0.2"],
            "--tier-fractions: needs 3 numbers >= 0 summing to 1, got '0.5,0.4,0.2'",
        ),
        (["evaluate", "{dir}", "{dir}", "--jobs", "0"], "--jobs: needs an integer >= 1, got '0'"),
        (
            ["quality", "--scans", "{missing}", "--masks", "{missing}", "--jobs", "-3"],
            "--jobs: needs an integer >= 1, got '-3'",
        ),
        (["synth", "--jobs", "0"], "--jobs: needs an integer >= 1, got '0'"),
    ],
    ids=[
        "dims", "tier-fractions", "count", "spacing", "spacing-zero", "spacing-negative",
        "spacing-text", "tier-fractions-text",
        "dims-zero", "dims-jitter-leaves-grid",
        "clahe", "clahe-clip", "augment-without-mask-before-read", "ops-kind", "ops-connectivity", "ops-smooth", "ops-largest",
        "ops-largest-extra", "ops-smooth-extra", "ops-dilate-extra", "roi",
        "roi-text-before-read", "segmenter-oracle-before-read", "localizer-oracle-before-read",
        "segmenter-external-before-read", "sizes-before-read",
        "roi-zero-before-read", "offset-roi-negative-before-read", "preprocess-downsample-before-read",
        "downsample-factor-before-read",
        "sizes-zero-before-read", "z-extent-before-read",
        "prediction-without-external", "prediction-with-oracle",
        "offsets", "offsets-inf-before-read", "offsets-text-before-read",
        "evaluate-out", "evaluate-out-under-file", "quality-out", "quality-out-is-dir",
        "offset-out", "patch-size-out",
        "preprocess-out", "preprocess-mask-out", "postprocess-out", "pipeline-out",
        "rank-out-dir-is-file", "rank-out-dir-under-file", "synth-out-dir-is-file",
        "clahe-tiles-with-input", "clahe-nan-before-read", "clahe-clip-one-before-read", "synth-seed-negative", "tier-fractions-sum",
        "evaluate-jobs-zero", "quality-jobs-negative-before-read", "synth-jobs-zero",
    ],
)
def test_malformed_values_exit_1_naming_the_value(tmp_path, capsys, argv, value):
    _write_pair(tmp_path, "c", _blob(), scan=np.where(_blob(), 600.0, 200.0).astype(np.float32))
    # a malformed value is named before the input is read, so a missing input goes unseen
    (tmp_path / "corrupt.nrrd").write_bytes(b"NRRD0004\ntype: unsigned char\n")  # truncated
    paths = {
        "dir": tmp_path,
        "scan": tmp_path / "c.nrrd",
        "mask": tmp_path / "c_label.nrrd",
        "missing": tmp_path / "none.nrrd",
        "corrupt": tmp_path / "corrupt.nrrd",
        "nodir": tmp_path / "nodir",
    }
    argv = [a.format(**paths) for a in argv]
    value = value.format(**paths)
    out = "--out-dir" if argv[0] in ("rank", "synth") else "--out"
    if out not in argv:
        argv += [out, str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("labench: error: ") and value in err
    assert "Traceback" not in err
    assert err.count("\n") == 1  # one error line
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command", ["evaluate", "quality", "synth"])
def test_jobs_default_from_environment(command, monkeypatch, capsys):
    monkeypatch.setenv("LABENCH_JOBS", "3")
    assert _build_parser().parse_args(_BASE_ARGV[command]).jobs == 3
    # a bad value is named as --jobs's, unless --jobs overrides it
    for bad in ("abc", "0"):
        monkeypatch.setenv("LABENCH_JOBS", bad)
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(_BASE_ARGV[command])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err == f"labench: error: argument --jobs: needs an integer >= 1, got {bad!r}\n"
        assert _build_parser().parse_args(_BASE_ARGV[command] + ["--jobs", "2"]).jobs == 2


# malformed forms of each kind of option value; none of them is valid
_TEXT = st.sampled_from(("", "abc", "nan", "inf", "-inf"))
_NEGATIVE = st.integers(max_value=-1).map(str)
_INT = _TEXT | _NEGATIVE | st.sampled_from(("2.5", "1,2"))
_POSITIVE = _INT | st.just("0")
# malformed for every kind but the integers >= 0 and --offsets
_COMMON = _TEXT | _NEGATIVE | st.just("0")


def _common_or(*forms):
    return _COMMON | st.sampled_from(forms)


_TRIPLE = _common_or("4,4", "4,4,4,4", "4,0,4", "4,x,4")
# per command: an argv whose inputs are missing, and its value options
_FUZZ = {
    "evaluate": (["evaluate", "{missing}", "{missing}", "--out", "{out}"], {"--format": _COMMON, "--jobs": _POSITIVE}),
    "quality": (
        ["quality", "--scans", "{missing}", "--masks", "{missing}", "--out", "{out}"],
        {"--margin": _INT, "--format": _COMMON, "--jobs": _POSITIVE},
    ),
    "preprocess": (
        ["preprocess", "{missing}", "--out", "{out}"],
        {
            "--downsample": _TRIPLE,
            "--clahe": _common_or("8,8", "0,0,3", "8,0,3", "8,8,nan", "8,8,1", "8,8,3,1"),
            "--seed": _INT,
            "--encoding": _COMMON,
        },
    ),
    "postprocess": (
        ["postprocess", "{missing}", "--out", "{out}", "--ops", "largest"],
        {
            "--ops": _common_or("smooth:0", "largest:5", "dilate:ball", "erode:cube:0", "open:cross:1:2"),
            "--encoding": _COMMON,
        },
    ),
    "pipeline": (
        ["pipeline", "--scan", "{missing}", "--out", "{out}"],
        {
            "--roi": _TRIPLE,
            "--downsample-factor": _POSITIVE,
            "--localizer": _COMMON,
            "--segmenter": _COMMON,
            "--encoding": _COMMON,
        },
    ),
    "offset": (
        ["experiment", "offset", "--scan", "{missing}", "--truth", "{missing}", "--out", "{out}"],
        {
            "--offsets": _TEXT | _NEGATIVE | st.sampled_from(("0,nan", "5,-1", "0,,5")),
            "--roi": _TRIPLE,
            "--segmenter": _COMMON,
            "--axis": _COMMON,
            "--format": _COMMON,
        },
    ),
    "patch-size": (
        ["experiment", "patch-size", "--truth", "{missing}", "--out", "{out}"],
        {"--sizes": _common_or("24x24,10x", "24x24,0x24", "24x24x24"), "--z-extent": _POSITIVE, "--format": _COMMON},
    ),
    # an out-dir under a file: a valid value would fail on the path, before any run
    "synth": (
        ["synth", "--out-dir", "{file}/out"],
        {
            "--count": _POSITIVE,
            "--dims": _TRIPLE,
            "--spacing": _common_or("1,1", "1,0,1"),
            "--tier-fractions": _common_or("0.5,0.5", "0.5,0.6,0.1", "1,0,0,0"),
            "--seed": _INT,
            "--jobs": _POSITIVE,
            "--encoding": _COMMON,
        },
    ),
}


@pytest.mark.parametrize("command", sorted(_FUZZ))
@given(data=st.data())
def test_fuzz_malformed_value_is_named_before_any_path(command, data):
    argv, values = _FUZZ[command]
    option = data.draw(st.sampled_from(sorted(values)))
    value = data.draw(values[option])
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "file").write_text("")
        paths = {"missing": f"{root}/missing", "out": f"{root}/out", "file": f"{root}/file"}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([a.format(**paths) for a in argv] + [f"{option}={value}"])
            except SystemExit as exc:
                code = exc.code
        assert code == 1
        (line,) = err.getvalue().splitlines()
        assert line.startswith(f"labench: error: argument {option}: ")
        assert "Traceback" not in err.getvalue() and "ValueError" not in err.getvalue()
        assert os.listdir(root) == ["file"]


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**30),
    st.floats(),
    st.sampled_from(["x", "y", "z", "w", "", "2"]),
    st.lists(st.integers(0, 3), max_size=2),
)


@given(
    kind=st.sampled_from(["rotate", "elastic", "perspective-scale", "flip", "shear"]),
    entry=st.dictionaries(
        st.sampled_from(["seed", "angle_deg", "magnitude", "grid_size", "scale", "flip_axis"]),
        _JSON_VALUES,
        max_size=3,
    ),
)
def test_fuzz_augment_entry_is_applied_or_named(kind, entry):
    # any JSON value in any field: the transform runs, or the entry is an
    # InvalidSpec on one line; nothing else escapes
    with tempfile.TemporaryDirectory() as root:
        bits = _blob(dims=(8, 8, 6), lo=(2, 2, 1), hi=(6, 6, 5))
        write_nrrd(Volume(np.where(bits, 200, 50).astype(np.uint8)), f"{root}/v.nrrd")
        write_nrrd(Mask(bits), f"{root}/m.nrrd")
        Path(root, "cfg.json").write_text(json.dumps([{"kind": kind, **entry}]))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an extreme transform may overflow a cast
            code = main([
                "preprocess", f"{root}/v.nrrd", "--out", f"{root}/o.nrrd",
                "--augment", f"{root}/cfg.json", "--mask", f"{root}/m.nrrd",
            ])
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 1
            (line,) = err.getvalue().splitlines()
            assert line.startswith("labench: error: InvalidSpec: ")


def test_a_value_error_inside_a_command_escapes_main(monkeypatch, tmp_path, capsys):
    # main prints a LabenchError, an input the library rejects; a bare
    # ValueError from a command is a bug, so it keeps its traceback
    from labench import cli

    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "cmd_rank", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["rank", "--summary", str(tmp_path / "s.csv"), "--out-dir", str(tmp_path / "board")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_bug_inside_a_case_escapes_main(monkeypatch, tmp_path, capsys, jobs):
    # a failed case is an input the library rejects; any other exception in
    # a case's worker is a bug, so it escapes, from a --jobs pool too (its
    # threads call the patched module function)
    from labench import cli

    def broken(pred, truth):
        raise IndexError("a bug")

    monkeypatch.setattr(cli, "evaluate_case", broken)
    preds, truths = tmp_path / "preds", tmp_path / "truths"
    for i in range(2):
        _write_pair(preds, f"case_{i}", _blob())
        _write_pair(truths, f"case_{i}", _blob())
    with pytest.raises(IndexError, match="a bug"):
        main(["evaluate", str(preds), str(truths), "--out", str(tmp_path / "m.csv"), "--jobs", jobs])
    assert "failed case" not in capsys.readouterr().err


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(labench.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )


def test_cli_import_does_not_load_scipy_stats():
    # scipy is imported inside the functions that call it, so a CLI start loads
    # none of it (scipy.ndimage alone adds 0.15-0.35 s); synth, quality and
    # rank never call it, evaluate only for surfaces far apart, postprocess
    # for morphology and boxes it cannot prove one component, pipeline always
    code = "import labench.cli, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("option", [["--clahe", "2,2,3.0"], ["--normalize"]])
def test_preprocess_intensity_commands_load_no_scipy_ndimage(tmp_path, option):
    scan, out = tmp_path / "scan.nrrd", tmp_path / "out.nrrd"
    write_nrrd(Volume(np.arange(16 * 16 * 4, dtype=np.float32).reshape(16, 16, 4)), scan)
    argv = ["preprocess", str(scan), *option, "--out", str(out)]
    code = (
        "import sys, labench.cli\n"
        f"assert labench.cli.main({argv!r}) == 0\n"
        "assert 'scipy.ndimage' not in sys.modules"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    assert out.is_file()


def _two_quality_cases(directory):
    bits = _blob()
    for i in range(2):
        data = np.where(bits, 300.0 + 50 * i, 100.0).astype(np.float32)
        _write_pair(directory, f"s{i}", bits, scan=data)


@pytest.mark.parametrize(
    "command, jobs",
    [("synth", "1"), ("synth", "2"), ("quality", "1"), ("quality", "2"),
     ("evaluate", "1"), ("evaluate", "2"), pytest.param("rank", None, id="rank")],  # rank has no --jobs
)
def test_synth_and_quality_load_no_scipy(tmp_path, command, jobs):
    # so do rank, and evaluate on surfaces within the near search's reach
    if command == "synth":
        argv = ["synth", "--out-dir", str(tmp_path / "out"), "--count", "2", "--dims", "40,40,28",
                "--spacing", "1.0"]
    elif command == "quality":
        _two_quality_cases(tmp_path / "cases")
        cases = str(tmp_path / "cases")
        argv = ["quality", "--scans", cases, "--masks", cases, "--out", str(tmp_path / "q.csv")]
    elif command == "evaluate":
        for i in range(2):
            _write_pair(tmp_path / "truth", f"c{i}", _blob())
            _write_pair(tmp_path / "pred", f"c{i}", np.roll(_blob(), i + 1, axis=i))
        argv = ["evaluate", str(tmp_path / "pred"), str(tmp_path / "truth"), "--out", str(tmp_path / "e.csv")]
    else:
        argv = _import_set_argv("rank", tmp_path)
        (tmp_path / "attrs.csv").write_text("team_id,cnn_count\nalpha,double\nbeta,single\n")
        (tmp_path / "quality.csv").write_text(
            "scan_id,snr,cr,het,band\nc0,0.5,2.0,0.2,high\nc1,2.0,2.0,0.2,medium\n"
        )
        argv += ["--quality", str(tmp_path / "quality.csv"), "--attributes", str(tmp_path / "attrs.csv")]
    if jobs is not None:
        argv += ["--jobs", jobs]
    code = (
        "import sys, labench.cli\n"
        f"assert labench.cli.main({argv!r}) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_evaluate_loads_scipy_only_where_the_transform_runs(tmp_path):
    # predictions of thresholded noise beside the truth: most of their
    # surface lies beyond the near search's reach, so the feature transform
    # measures it. The one process loads scipy.ndimage for it at --jobs 1
    # and on --jobs 2's threads, and the table is the same
    rng = np.random.default_rng(5)
    for i in range(2):
        pred = np.zeros((32, 28, 20), dtype=bool)
        pred[12:30, 2:26, 2:18] = rng.random((18, 24, 16)) < 0.3
        _write_pair(tmp_path / "truth", f"c{i}", _blob((32, 28, 20), (4, 6, 4), (14, 22, 16)))
        _write_pair(tmp_path / "pred", f"c{i}", pred)
    for jobs in ("1", "2"):
        argv = ["evaluate", str(tmp_path / "pred"), str(tmp_path / "truth"),
                "--out", str(tmp_path / f"e{jobs}.csv"), "--jobs", jobs]
        code = (
            "import sys, labench.cli\n"
            f"assert labench.cli.main({argv!r}) == 0\n"
            "assert 'scipy.ndimage' in sys.modules"
        )
        result = _run_python(code)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()


def test_postprocess_of_a_compact_mask_loads_no_scipy(tmp_path):
    # the blob's box is proven one component and the corner cubes' boxes hold
    # too few voxels to look at, so nothing is labelled; smoothing counts by numpy
    bits = _blob((32, 30, 20), (8, 8, 5), (20, 20, 15))
    bits[1:4, 1:4, 1:4] = bits[-4:-1, -4:-1, -4:-1] = True
    _write_pair(tmp_path, "c", bits)
    out = tmp_path / "out.nrrd"
    argv = ["postprocess", str(tmp_path / "c_label.nrrd"), "--ops", "largest:26", "smooth:1", "--out", str(out)]
    code = (
        "import sys, labench.cli\n"
        f"assert labench.cli.main({argv!r}) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "assert not loaded, loaded"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    cleaned = read_nrrd(out, as_mask=True).bits
    assert cleaned.any() and not (cleaned & ~_blob((32, 30, 20), (8, 8, 5), (20, 20, 15))).any()


@pytest.mark.parametrize("command", ["dilate", "pipeline"])
def test_morphology_and_pipeline_still_load_scipy_ndimage(tmp_path, command):
    # dilation is scipy's; the pipeline's threshold segmenter closes its mask
    # with scipy, and labels the speckle that noise leaves after Otsu
    bits = _blob((32, 30, 20), (8, 8, 5), (20, 20, 15))
    scan = np.random.default_rng(4).normal(100.0, 60.0, bits.shape) + 200.0 * bits
    _write_pair(tmp_path, "c", bits, scan=scan.astype(np.float32))
    out = str(tmp_path / "out.nrrd")
    if command == "dilate":
        argv = ["postprocess", str(tmp_path / "c_label.nrrd"), "--ops", "dilate", "--out", out]
    else:
        argv = ["pipeline", "--scan", str(tmp_path / "c.nrrd"), "--roi", "24,24,16", "--out", out]
    code = (
        "import sys, labench.cli\n"
        f"assert labench.cli.main({argv!r}) == 0\n"
        "assert 'scipy.ndimage' in sys.modules"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


# rank loads the CLI alone; every other command also loads the modules it runs
_RANK_MODULES = {"labench", "labench.cli", "labench.errors", "labench.stats"}


def _import_set_argv(command, tmp_path):
    """An argv that runs ``command`` to exit 0 on small inputs under ``tmp_path``."""
    cases = tmp_path / "cases"
    _two_quality_cases(cases)
    scan, mask = str(cases / "s1.nrrd"), str(cases / "s1_label.nrrd")
    if command == "rank":
        for team, dices in (("alpha", (0.95, 0.93)), ("beta", (0.85, 0.86))):
            rows = "".join(f"c{i},{d},{d / (2 - d)},0.9,0.99,8.0,1.0\n" for i, d in enumerate(dices))
            (tmp_path / f"{team}.csv").write_text(_METRICS_HEADER + rows)
        teams = [str(tmp_path / "alpha.csv"), str(tmp_path / "beta.csv")]
        return ["rank", "--metrics", *teams, "--out-dir", str(tmp_path / "board")]
    out = str(tmp_path / "out")
    return {
        "evaluate": ["evaluate", str(cases), str(cases), "--out", out, "--jobs", "1"],
        "quality": ["quality", "--scans", str(cases), "--masks", str(cases), "--out", out, "--jobs", "1"],
        "preprocess": ["preprocess", scan, "--clahe", "2,2,3.0", "--out", out],
        "postprocess": ["postprocess", mask, "--ops", "largest", "--out", out],
        "pipeline": ["pipeline", "--scan", scan, "--roi", "16,16,8", "--out", out],
        "synth": ["synth", "--out-dir", out, "--count", "2", "--dims", "40,40,28", "--spacing", "1.0",
                  "--jobs", "1"],
    }[command]


@pytest.mark.parametrize(
    "command, own, pool_free",
    [
        ("evaluate", ("grids", "metrics", "nrrd_io"), True),
        ("quality", ("grids", "nrrd_io", "quality"), True),
        ("rank", (), True),
        ("preprocess", ("grids", "nrrd_io", "preprocess"), True),
        ("postprocess", ("grids", "nrrd_io", "postprocess"), False),
        ("pipeline", ("grids", "metrics", "nrrd_io", "pipeline", "postprocess"), False),
        ("synth", ("grids", "nrrd_io", "phantom", "quality"), True),
    ],
    ids=["evaluate", "quality", "rank", "preprocess", "postprocess", "pipeline", "synth"],
)
def test_each_command_imports_only_its_own_modules(tmp_path, command, own, pool_free):
    # a command is one process, so every module it loads and never runs is
    # start-up time on each call; without a pool there is no concurrent.futures
    argv = _import_set_argv(command, tmp_path)
    want = sorted(_RANK_MODULES | {f"labench.{m}" for m in own})
    code = (
        "import sys, labench.cli\n"
        f"assert labench.cli.main({argv!r}) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'labench')\n"
        f"assert loaded == {want!r}, loaded\n"
    )
    if pool_free:
        code += "assert 'concurrent.futures' not in sys.modules\n"
    if command == "rank":
        code += "assert 'numpy' not in sys.modules\n"
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_traced_names_load_no_numpy_and_keep_a_wrapper(tmp_path):
    # a bare import, and reading a traced name on the module as the tracer's
    # install() and monkeypatch do, load no numpy; a wrapper set before main
    # is the function the command calls
    cases = tmp_path / "cases"
    _two_quality_cases(cases)
    argv = ["evaluate", str(cases), str(cases), "--out", str(tmp_path / "m.csv")]
    code = (
        "import sys, labench.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "read = cli.read_nrrd\n"
        "assert 'numpy' not in sys.modules\n"
        "paths = []\n"
        "cli.read_nrrd = lambda path, as_mask: paths.append(path) or read(path, as_mask)\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert len(paths) == 4, paths\n"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def _jobs_inputs(command, root):
    """The argv of ``command`` over five cases, up to its output path, for a
    --jobs comparison. evaluate and quality get one input the library
    rejects and one unpaired id beside four good cases."""
    if command == "synth":
        return ["synth", "--count", "5", "--dims", "40,40,28", "--spacing", "1.0", "--out-dir"]
    left, right = root / "left", root / "right"
    left.mkdir(parents=True)
    for i in range(5):
        bits = _blob(lo=(4 + i % 3, 5, 3), hi=(13, 14 - i % 2, 9))
        _write_pair(right, f"c{i}", bits)
        if command == "evaluate":
            write_nrrd(Mask(np.roll(bits, i, axis=i % 3)), left / f"c{i}.nrrd")
        else:
            scan = np.where(bits, 300.0 + 40 * i, 100.0 + 5 * i).astype(np.float32)
            write_nrrd(Volume(scan), left / f"c{i}.nrrd")
    (left / "c2.nrrd").write_bytes(b"NRRD0004\ntype: unsigned char\n")  # truncated: a failed case
    write_nrrd(Volume(np.ones((8, 8, 4), dtype=np.float32)), left / "only_left.nrrd")
    if command == "evaluate":
        return ["evaluate", str(left), str(right), "--out"]
    return ["quality", "--scans", str(left), "--masks", str(right), "--out"]


@pytest.mark.parametrize("command", ["evaluate", "quality", "synth"])
def test_threaded_jobs_write_the_jobs_1_bytes(tmp_path, capsys, command):
    # more cases than threads, switching threads often: the files, the
    # stderr lines and the exit code are those of --jobs 1
    argv = _jobs_inputs(command, tmp_path / "in")
    runs, interval = {}, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"out{jobs}"
            code = main([*argv, str(out), "--jobs", jobs])
            files = sorted(out.rglob("*")) if out.is_dir() else [out]
            runs[jobs] = code, capsys.readouterr().err, {f.relative_to(out): f.read_bytes() for f in files}
    finally:
        sys.setswitchinterval(interval)
    expected_code = 0 if command == "synth" else 2
    assert runs["1"][0] == expected_code
    assert len(runs["1"][2]) == (11 if command == "synth" else 1)  # 5 scans, 5 masks, manifest
    if command != "synth":
        assert ": unpaired " in runs["1"][1] and ": only_left\n" in runs["1"][1]
        assert ": failed " in runs["1"][1] and ": c2: " in runs["1"][1]
    assert runs["2"] == runs["1"]
    assert runs["3"] == runs["1"]


def test_jobs_n_runs_n_cases_at_once_and_joins_them(tmp_path, monkeypatch):
    # the first two cases wait for each other, so a serial runner breaks the
    # barrier instead of hanging; run() may call os._exit only once every
    # worker thread has ended
    from labench import cli

    lock, barrier = threading.Lock(), threading.Barrier(2, timeout=10)
    state = {"calls": 0, "running": 0, "peak": 0}
    real = cli.evaluate_case

    def counting(pred, truth):
        with lock:
            state["calls"] += 1
            first_two = state["calls"] <= 2
            state["running"] += 1
            state["peak"] = max(state["peak"], state["running"])
        try:
            if first_two:
                barrier.wait()
            return real(pred, truth)
        finally:
            with lock:
                state["running"] -= 1

    monkeypatch.setattr(cli, "evaluate_case", counting)
    preds, truths = tmp_path / "preds", tmp_path / "truths"
    for i in range(4):
        _write_pair(preds, f"case_{i}", _blob(lo=(4, 4, 2), hi=(13, 13, 9 - i)))
        _write_pair(truths, f"case_{i}", _blob(lo=(4, 4, 2), hi=(13, 13, 9)))
    assert main(["evaluate", str(preds), str(truths), "--out", str(tmp_path / "m.csv"), "--jobs", "2"]) == 0
    assert state["calls"] == 4
    assert state["peak"] == 2
    assert threading.active_count() == 1


def test_package_import_loads_no_module():
    code = (
        "import sys, labench\n"
        "loaded = [m for m in sys.modules if m.startswith('labench.') or m == 'numpy']\n"
        "assert not loaded, loaded\n"
        "assert labench.__version__"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


# --- evaluate --------------------------------------------------------------------


def test_evaluate_self_is_all_ones(tmp_path, capsys):
    masks = tmp_path / "masks"
    for i in range(3):
        _write_pair(masks, f"case_{i}", _blob(lo=(5 + i, 6, 3), hi=(13 + i, 14, 9)))
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", str(masks), str(masks), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert all(row["dice"] == "1" for row in rows)
    assert all(row["hd_mm"] == "0" for row in rows)


def test_evaluate_reports_unpaired_and_exits_2(tmp_path, capsys):
    preds = tmp_path / "preds"
    truths = tmp_path / "truths"
    bits = _blob()
    preds.mkdir()
    write_nrrd(Mask(bits), preds / "a.nrrd")
    write_nrrd(Mask(bits), preds / "only_pred.nrrd")
    _write_pair(truths, "a", bits)
    _write_pair(truths, "only_truth", bits)
    out = tmp_path / "m.csv"
    assert main(["evaluate", str(preds), str(truths), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "only_pred" in err and "only_truth" in err
    rows = list(csv.DictReader(out.open()))
    assert [r["case_id"] for r in rows] == ["a"]


def test_evaluate_corrupt_file_skipped_named_exit_2(tmp_path, capsys):
    preds = tmp_path / "preds"
    truths = tmp_path / "truths"
    preds.mkdir()
    for i in range(10):
        bits = _blob(lo=(4, 4, 2), hi=(12 + (i % 3), 12, 8))
        write_nrrd(Mask(bits), preds / f"case_{i}.nrrd")
        _write_pair(truths, f"case_{i}", bits)
    (preds / "case_3.nrrd").write_bytes(b"NRRD0004\ntype: unsigned char\n")  # truncated
    out = tmp_path / "m.csv"
    assert main(["evaluate", str(preds), str(truths), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "case_3" in err
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    assert "case_3" not in {r["case_id"] for r in rows}


def test_evaluate_json_format(tmp_path):
    masks = tmp_path / "masks"
    _write_pair(masks, "case_0", _blob())
    out = tmp_path / "m.json"
    assert main(["evaluate", str(masks), str(masks), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["case_id"] == "case_0"
    assert payload[0]["dice"] == 1.0


def test_evaluate_deterministic_across_jobs(tmp_path):
    preds = tmp_path / "preds"
    truths = tmp_path / "truths"
    preds.mkdir()
    rng = np.random.default_rng(5)
    for i in range(6):
        truth = _blob(lo=(4, 4, 2), hi=(13, 13, 9))
        noisy = truth ^ (rng.random(truth.shape) < 0.01)
        if not noisy.any():
            noisy = truth
        write_nrrd(Mask(noisy), preds / f"case_{i}.nrrd")
        _write_pair(truths, f"case_{i}", truth)
    out1 = tmp_path / "m1.csv"
    out8 = tmp_path / "m8.csv"
    assert main(["evaluate", str(preds), str(truths), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["evaluate", str(preds), str(truths), "--out", str(out8), "--jobs", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize("jobs, workers", [("64", 3), ("2", 2)])
def test_pool_workers_are_capped_at_the_task_count(tmp_path, monkeypatch, jobs, workers):
    made = []

    class RecordingPool:
        # records max_workers and maps on the calling thread: no worker starts
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    preds, truths = tmp_path / "preds", tmp_path / "truths"
    for i in range(3):
        _write_pair(preds, f"case_{i}", _blob(lo=(4, 4, 2), hi=(13, 13, 9 - i)))
        _write_pair(truths, f"case_{i}", _blob(lo=(4, 4, 2), hi=(13, 13, 9)))
    out_1, out_n = tmp_path / "m1.csv", tmp_path / "mn.csv"
    assert main(["evaluate", str(preds), str(truths), "--out", str(out_1), "--jobs", "1"]) == 0
    assert main(["evaluate", str(preds), str(truths), "--out", str(out_n), "--jobs", jobs]) == 0
    assert made == [workers]
    assert out_1.read_bytes() == out_n.read_bytes()


# --- quality ----------------------------------------------------------------------


def test_quality_command(tmp_path, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    bits = _blob()
    rng = np.random.default_rng(0)
    data = rng.normal(100, 10, size=bits.shape)
    data[bits] = rng.normal(300, 10, size=int(bits.sum()))
    write_nrrd(Volume(data.astype(np.float32)), scans / "s1.nrrd")
    write_nrrd(Mask(bits), scans / "s1_label.nrrd")
    out = tmp_path / "q.csv"
    assert main(["quality", "--scans", str(scans), "--masks", str(scans), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["scan_id"] == "s1"
    assert rows[0]["band"] in ("high", "medium", "low")


def _quality_inputs(tmp_path):
    # s0, s1 pair cleanly; s2's mask is not binary; s3 has no mask; s4 has no
    # scan, only a label file in the scan directory, which is not a scan
    scans, masks = tmp_path / "scans", tmp_path / "masks"
    scans.mkdir()
    masks.mkdir()
    rng = np.random.default_rng(1)
    bits = _blob()
    for i in range(4):
        data = rng.normal(100, 10, size=bits.shape)
        data[bits] = rng.normal(300 + 50 * i, 10, size=int(bits.sum()))
        write_nrrd(Volume(data.astype(np.float32)), scans / f"s{i}.nrrd")
    for i in (0, 1, 4):
        write_nrrd(Mask(bits), masks / f"s{i}_label.nrrd")
    write_nrrd(Volume(np.where(bits, 2, 0).astype(np.uint8)), masks / "s2_label.nrrd")
    write_nrrd(Mask(bits), scans / "s4_label.nrrd")
    return ["--scans", str(scans), "--masks", str(masks)]


def test_quality_unpaired_and_failed_scans_exit_2(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["quality", *_quality_inputs(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "labench: unpaired scan: s3" in err
    assert "labench: unpaired scan: s4" in err
    assert [line for line in err if line.startswith("labench: failed scan:")] == [
        f"labench: failed scan: s2: NotBinaryMask: {tmp_path / 'masks' / 's2_label.nrrd'} "
        "is not a binary mask"
    ]
    assert [r["scan_id"] for r in csv.DictReader(out.open())] == ["s0", "s1"]


def test_quality_names_a_scan_holding_nan(tmp_path, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    bits = _blob()
    data = np.where(bits, 300.0, 100.0).astype(np.float32)
    data[10, 10, 6] = np.nan
    write_nrrd(Volume(data), scans / "s1.nrrd")
    write_nrrd(Mask(bits), scans / "s1_label.nrrd")
    out = tmp_path / "q.csv"
    assert main(["quality", "--scans", str(scans), "--masks", str(scans), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("labench: failed scan: s1: NonFiniteIntensity: ")
    assert out.read_text() == "scan_id,snr,cr,het,band\n"


def test_quality_negative_margin_exits_1_before_reading(tmp_path, capsys):
    out = tmp_path / "q.csv"
    argv = ["quality", *_quality_inputs(tmp_path), "--out", str(out), "--margin", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err == "labench: error: argument --margin: needs an integer >= 0, got '-1'\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_quality_deterministic_across_jobs(tmp_path, capsys, fmt):
    inputs = _quality_inputs(tmp_path)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"q{jobs}.{fmt}"
        code = main(["quality", *inputs, "--out", str(out), "--format", fmt, "--jobs", jobs])
        outputs.append((code, out.read_bytes(), capsys.readouterr().err))
    assert outputs[0][0] == 2
    assert outputs[0] == outputs[1]


# --- preprocess / postprocess -------------------------------------------------------


def test_preprocess_normalize_and_downsample(tmp_path):
    data = np.arange(8 * 8 * 4, dtype=np.uint16).reshape(8, 8, 4)
    src = tmp_path / "v.nrrd"
    write_nrrd(Volume(data, (1.0, 1.0, 1.0)), src)
    out = tmp_path / "out.nrrd"
    assert main(["preprocess", str(src), "--out", str(out), "--downsample", "2,2,1", "--normalize"]) == 0
    v = read_nrrd(out, as_mask=False)
    assert v.dims == (4, 4, 4)
    assert v.spacing == (2.0, 2.0, 1.0)
    assert float(v.data.min()) == 0.0 and float(v.data.max()) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("option", [["--clahe", "2,2,3.0"], ["--normalize"]])
def test_preprocess_non_finite_intensities_exit_1_without_output(tmp_path, capsys, option, bad):
    data = np.arange(16 * 16 * 4, dtype=np.float32).reshape(16, 16, 4)
    data[3, 5, 2] = bad
    write_nrrd(Volume(data), tmp_path / "v.nrrd")
    out = tmp_path / "out.nrrd"
    assert main(["preprocess", str(tmp_path / "v.nrrd"), *option, "--out", str(out)]) == 1
    assert "labench: error: NonFiniteIntensity:" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_augment_round_trip(tmp_path):
    bits = _blob()
    data = np.where(bits, 200, 50).astype(np.uint8)
    write_nrrd(Volume(data), tmp_path / "v.nrrd")
    write_nrrd(Mask(bits), tmp_path / "m.nrrd")
    cfg = tmp_path / "aug.json"
    cfg.write_text(json.dumps([{"kind": "flip", "flip_axis": "x"}]))
    assert main([
        "preprocess", str(tmp_path / "v.nrrd"), "--out", str(tmp_path / "va.nrrd"),
        "--augment", str(cfg), "--mask", str(tmp_path / "m.nrrd"),
        "--mask-out", str(tmp_path / "ma.nrrd"),
    ]) == 0
    flipped = read_nrrd(tmp_path / "ma.nrrd", as_mask=True)
    assert flipped.count == int(bits.sum())
    assert np.array_equal(np.flip(flipped.bits, axis=0), bits)


@pytest.mark.parametrize(
    "text",
    [
        '[{"kind": "rotate", "angle_deg": "x"}]',
        '[{"kind": "rotate", "angle_deg": null}]',
        '[{"kind": "rotate", "angle_deg": true}]',
        '[{"kind": "perspective-scale", "scale": "2"}]',
        '[{"kind": "elastic", "grid_size": 2.5}]',
        '[{"kind": "elastic", "seed": "a"}]',
        '[{"kind": ["rotate"]}]',
        '[{"kind": "elastic", "magnitude": -1.0}]',
        '[{"kind": "elastic", "seed": -5}]',
        '[{"kind": "elastic", "magnitude": 1.0, "grid_size": 100}]',
        "not json",
        b"\xff\xfe[]",
    ],
    ids=[
        "angle-text", "angle-null", "angle-bool", "scale-text", "grid-size-float", "seed-text",
        "kind-list", "magnitude-negative", "seed-negative", "grid-size-above-voxels", "not-json", "not-utf8",
    ],
)
def test_preprocess_bad_augment_config_is_invalid_spec(tmp_path, capsys, text):
    # a synth case, as the command reads it
    assert main(["synth", "--out-dir", str(tmp_path), "--dims", "24,24,16", "--spacing", "1"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "out.nrrd"
    argv = ["preprocess", str(tmp_path / "case_000.nrrd"), "--out", str(out), "--augment", str(cfg)]
    assert main(argv + ["--mask", str(tmp_path / "case_000_label.nrrd")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("labench: error: InvalidSpec: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "mask_dims, extra, message",
    [
        ((20, 20, 12), ["--downsample", "2,2,1"], "--downsample cannot resample a --mask"),
        ((20, 20, 10), [], "GeometryMismatch: grids disagree: dims (20, 20, 12) vs (20, 20, 10)"),
        (None, [], "--mask-out needs --mask"),
    ],
    ids=["mask-with-downsample", "mask-of-other-geometry", "mask-out-without-mask"],
)
def test_preprocess_rejects_a_mask_it_cannot_carry(tmp_path, capsys, mask_dims, extra, message):
    write_nrrd(Volume(np.where(_blob(), 200, 50).astype(np.uint8)), tmp_path / "v.nrrd")
    argv = ["preprocess", str(tmp_path / "v.nrrd"), "--out", str(tmp_path / "out.nrrd"), *extra]
    if mask_dims is not None:
        write_nrrd(Mask(_blob(dims=mask_dims)), tmp_path / "m.nrrd")
        argv += ["--mask", str(tmp_path / "m.nrrd")]
    assert main(argv + ["--mask-out", str(tmp_path / "m_out.nrrd")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.nrrd").exists() and not (tmp_path / "m_out.nrrd").exists()


def test_postprocess_chain(tmp_path):
    bits = _blob()
    bits[0, 0, 0] = True  # small satellite component
    write_nrrd(Mask(bits), tmp_path / "m.nrrd")
    out = tmp_path / "clean.nrrd"
    assert main([
        "postprocess", str(tmp_path / "m.nrrd"), "--out", str(out),
        "--ops", "largest:26", "smooth:1",
    ]) == 0
    cleaned = read_nrrd(out, as_mask=True)
    assert not cleaned.bits[0, 0, 0]
    assert cleaned.count > 0


def test_postprocess_rejects_a_probability_map(tmp_path, capsys):
    probability = np.where(_blob(), 0.9, 0.3).astype(np.float32)
    write_nrrd(Volume(probability), tmp_path / "p.nrrd")
    out = tmp_path / "clean.nrrd"
    assert main(["postprocess", str(tmp_path / "p.nrrd"), "--out", str(out), "--ops", "largest"]) == 1
    err = capsys.readouterr().err
    assert err == f"labench: error: NotBinaryMask: {tmp_path / 'p.nrrd'} is not a binary mask\n"
    assert not out.exists()


# --- pipeline / experiment -----------------------------------------------------------


def _scan_with_truth(tmp_path):
    bits = _blob(dims=(32, 32, 20), lo=(10, 10, 6), hi=(22, 22, 14))
    data = np.where(bits, 500.0, 20.0).astype(np.float32)
    write_nrrd(Volume(data), tmp_path / "scan.nrrd")
    write_nrrd(Mask(bits), tmp_path / "scan_label.nrrd")
    return bits


def test_pipeline_command_oracle_exact(tmp_path, capsys):
    bits = _scan_with_truth(tmp_path)
    out = tmp_path / "pred.nrrd"
    assert main([
        "pipeline", "--scan", str(tmp_path / "scan.nrrd"),
        "--truth", str(tmp_path / "scan_label.nrrd"),
        "--localizer", "oracle", "--segmenter", "oracle",
        "--roi", "20,20,12", "--out", str(out),
    ]) == 0
    pred = read_nrrd(out, as_mask=True)
    assert np.array_equal(pred.bits, bits)


def test_pipeline_external_segmenter(tmp_path):
    bits = _scan_with_truth(tmp_path)
    ext = tmp_path / "ext"
    ext.mkdir()
    write_nrrd(Mask(bits), ext / "scan.nrrd")
    out = tmp_path / "pred.nrrd"
    assert main([
        "pipeline", "--scan", str(tmp_path / "scan.nrrd"),
        "--localizer", "threshold", "--segmenter", "external",
        "--prediction", str(ext / "scan.nrrd"),
        "--roi", "24,24,16", "--out", str(out),
    ]) == 0
    pred = read_nrrd(out, as_mask=True)
    assert np.array_equal(pred.bits, bits)


@pytest.mark.parametrize("grid", ["truth", "external"])
def test_pipeline_rejects_a_mask_of_other_geometry(tmp_path, capsys, grid):
    _scan_with_truth(tmp_path)
    small = tmp_path / "small"
    small.mkdir()
    write_nrrd(Mask(_blob(dims=(12, 12, 8), lo=(2, 2, 2), hi=(8, 8, 6))), small / "scan.nrrd")
    out = tmp_path / "pred.nrrd"
    argv = ["pipeline", "--scan", str(tmp_path / "scan.nrrd"), "--roi", "24,24,16", "--out", str(out)]
    if grid == "truth":
        argv += ["--truth", str(small / "scan.nrrd")]
    else:
        argv += ["--segmenter", "external", "--prediction", str(small / "scan.nrrd")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("labench: error: GeometryMismatch: grids disagree: dims (32, 32, 20) vs (12, 12, 8)")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--out", "{out}"],
        ["pipeline", "--localizer", "oracle", "--truth", "{truth}", "--out", "{out}"],
        ["experiment", "offset", "--truth", "{truth}", "--segmenter", "threshold", "--roi", "20,20,12", "--out", "{out}"],
    ],
    ids=["pipeline", "pipeline-threshold-segmenter", "offset-threshold-segmenter"],
)
def test_threshold_stages_name_a_non_finite_scan(tmp_path, capsys, argv):
    bits = _scan_with_truth(tmp_path)
    data = np.where(bits, 500.0, 20.0).astype(np.float32)
    data[16, 16, 10] = np.nan
    write_nrrd(Volume(data), tmp_path / "scan.nrrd")
    paths = {"truth": tmp_path / "scan_label.nrrd", "out": tmp_path / "out"}
    argv = [a.format(**paths) for a in argv] + ["--scan", str(tmp_path / "scan.nrrd")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("labench: error: NonFiniteIntensity: ")
    assert not (tmp_path / "out").exists()


def test_experiment_offset_csv(tmp_path):
    _scan_with_truth(tmp_path)
    out = tmp_path / "curve.csv"
    assert main([
        "experiment", "offset", "--scan", str(tmp_path / "scan.nrrd"),
        "--truth", str(tmp_path / "scan_label.nrrd"),
        "--offsets", "0,100,200", "--roi", "20,20,12", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["offset_pct"] for r in rows] == ["0", "100", "200"]
    assert float(rows[0]["dice"]) == 1.0
    assert float(rows[1]["dice"]) == 1.0
    assert float(rows[2]["dice"]) < 1.0


def test_experiment_offset_names_a_roi_too_small_for_the_truth(tmp_path, capsys):
    # the truth spans 12 voxels along x, so no 8-voxel box holds it
    _scan_with_truth(tmp_path)
    out = tmp_path / "curve.csv"
    assert main([
        "experiment", "offset", "--scan", str(tmp_path / "scan.nrrd"),
        "--truth", str(tmp_path / "scan_label.nrrd"), "--roi", "8,20,12", "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err == "labench: error: RoiTooSmall: roi size (8, 20, 12) cannot hold the mask along axis 0\n"
    assert not out.exists()


@pytest.mark.parametrize("offsets", ["0,inf", "0,nan", "0,-5"])
def test_experiment_offset_rejects_bad_offsets_before_any_run(tmp_path, capsys, monkeypatch, offsets):
    _scan_with_truth(tmp_path)
    runs = []
    monkeypatch.setattr(pipeline, "run_pipeline", lambda *args: runs.append(args))
    out = tmp_path / "curve.csv"
    with pytest.raises(SystemExit) as exc:
        main([
            "experiment", "offset", "--scan", str(tmp_path / "scan.nrrd"),
            "--truth", str(tmp_path / "scan_label.nrrd"),
            "--offsets", offsets, "--roi", "20,20,12", "--out", str(out),
        ])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"labench: error: argument --offsets: needs finite numbers >= 0, got {offsets!r}\n"
    assert runs == []
    assert not out.exists()


def test_experiment_patch_size_csv(tmp_path):
    _scan_with_truth(tmp_path)
    out = tmp_path / "sizes.csv"
    assert main([
        "experiment", "patch-size", "--truth", str(tmp_path / "scan_label.nrrd"),
        "--sizes", "28x28,24x24,16x16", "--z-extent", "12", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.open()))
    bg = [float(r["background_pct"]) for r in rows]
    assert bg[0] > bg[1] > bg[2]


# --- synth / rank ---------------------------------------------------------------------


def test_synth_writes_cohort_and_manifest(tmp_path):
    out_dir = tmp_path / "cohort"
    assert main([
        "synth", "--out-dir", str(out_dir), "--count", "4",
        "--dims", "40,40,28", "--spacing", "1.0", "--seed", "3",
    ]) == 0
    manifest = list(csv.DictReader((out_dir / "manifest.csv").open()))
    assert len(manifest) == 4
    for row in manifest:
        assert (out_dir / f"{row['id']}.nrrd").exists()
        assert (out_dir / f"{row['id']}_label.nrrd").exists()
    grid = read_nrrd(out_dir / f"{manifest[0]['id']}.nrrd", as_mask=False)
    assert grid.dims == (40, 40, 28)


def test_synth_cases_are_the_cohort_members(tmp_path):
    out_dir = tmp_path / "cohort"
    argv = ["synth", "--out-dir", str(out_dir), "--count", "3", "--dims", "32,32,24"]
    assert main(argv + ["--spacing", "1.0", "--seed", "5", "--tier-fractions", "0.34,0.33,0.33"]) == 0
    base = phantom.default_phantom_spec(dims=(32, 32, 24), spacing=(1.0, 1.0, 1.0))
    members = phantom.generate_cohort(base, 3, seed=5, tier_fractions=(0.34, 0.33, 0.33))
    manifest = list(csv.DictReader((out_dir / "manifest.csv").open()))
    for row, (volume, mask, tier) in zip(manifest, members):
        assert row["tier"] == tier
        assert read_nrrd(out_dir / f"{row['id']}.nrrd", as_mask=False) == volume
        assert read_nrrd(out_dir / f"{row['id']}_label.nrrd", as_mask=True) == mask


def test_synth_deterministic_across_runs_and_jobs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir, jobs in ((a, "1"), (b, "4")):
        assert main([
            "synth", "--out-dir", str(out_dir), "--count", "3",
            "--dims", "32,32,24", "--spacing", "1.0", "--seed", "11",
            "--jobs", jobs, "--encoding", "gzip",
        ]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_rank_summary_golden_ordering(tmp_path):
    fixture = __file__.rsplit("/", 1)[0] + "/data/published_rankings.csv"
    out_dir = tmp_path / "board"
    assert main(["rank", "--summary", fixture, "--out-dir", str(out_dir)]) == 0
    rows = list(csv.DictReader((out_dir / "leaderboard.csv").open()))
    assert rows[0]["team_id"] == "xia"
    assert rows[1]["team_id"] == "huang"
    assert rows[2]["team_id"] == "bian"
    assert {rows[3]["team_id"], rows[4]["team_id"]} == {"yang", "vesal"}
    report = json.loads((out_dir / "report.json").read_text())
    assert report["leaderboard"][0]["team_id"] == "xia"


def test_leaderboard_csv_shape(tmp_path):
    for team, dices in (("a", (0.9, 0.92)), ("b", (0.8, 0.82))):
        rows = "".join(f"c{i},{d},0.8,0.9,0.99,8,1\n" for i, d in enumerate(dices))
        (tmp_path / f"{team}.csv").write_text(_METRICS_HEADER + rows)
    out_dir = tmp_path / "board"
    teams = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    assert main(["rank", "--metrics", *teams, "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "leaderboard.csv").read_text().split("\n")
    assert lines[0].startswith("team_id,dice_mean,dice_std,iou_mean")
    assert lines[0].endswith(",stsd_mm_mean,stsd_mm_std,p_value")
    assert len(lines) == 4 and lines[3] == ""
    assert lines[1].startswith("a,0.91,0.0141421,")


def test_rank_per_case_with_attributes_and_quality(tmp_path):
    # two teams over the same three cases, plus attributes and quality csv
    def write_metrics(path, dices):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["case_id", "dice", "iou", "sensitivity", "specificity",
                 "hd_mm", "stsd_mm", "diameter_err_pct", "volume_err_pct"]
            )
            for i, d in enumerate(dices):
                w.writerow([f"case_{i}", d, d / (2 - d), 0.9, 0.99, 8.0, 1.0, 2.0, 3.0])

    write_metrics(tmp_path / "alpha.csv", [0.95, 0.94, 0.93])
    write_metrics(tmp_path / "beta.csv", [0.85, 0.86, 0.84])
    with open(tmp_path / "attrs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["team_id", "cnn_count"])
        w.writerow(["alpha", "double"])
        w.writerow(["beta", "single"])
    with open(tmp_path / "quality.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scan_id", "snr", "cr", "het", "band"])
        for i, snr in enumerate([0.5, 2.0, 4.0]):
            w.writerow([f"case_{i}", snr, 2.0, 0.2, "medium"])

    out_dir = tmp_path / "board"
    assert main([
        "rank", "--metrics", str(tmp_path / "alpha.csv"), str(tmp_path / "beta.csv"),
        "--attributes", str(tmp_path / "attrs.csv"),
        "--quality", str(tmp_path / "quality.csv"),
        "--out-dir", str(out_dir),
    ]) == 0
    rows = list(csv.DictReader((out_dir / "leaderboard.csv").open()))
    assert [r["team_id"] for r in rows] == ["alpha", "beta"]
    report = json.loads((out_dir / "report.json").read_text())
    assert report["group_comparisons"][0]["attribute"] == "cnn_count"
    assert report["group_comparisons"][0]["groups"]["double"]["teams"] == 1
    assert report["quality_correlation"]["n"] == 3


_METRICS_HEADER = "case_id,dice,iou,sensitivity,specificity,hd_mm,stsd_mm\n"


@pytest.mark.parametrize(
    "table_text, quality_text, bad_file, column, case_id",
    [
        pytest.param(
            "case_id,dice,sensitivity,specificity,hd_mm,stsd_mm\nc0,0.9,0.9,0.99,8,1\n",
            None, "team.csv", "iou", None, id="missing-column",
        ),
        pytest.param(
            _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0.9,n/a,0.9,0.99,8,1\n",
            None, "team.csv", "iou", None, id="non-numeric-cell",
        ),
        pytest.param(
            _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,,0.7,0.9,0.99,8,1\n",
            None, "team.csv", "dice", "c1", id="blank-dice-cell",
        ),
        pytest.param(
            _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0.8,0.7,0.9,0.99,8,1\n",
            "id,snr,cr,het,band\nc0,0.5,2,0.2,high\n", "quality.csv", "scan_id",
            None, id="quality-without-scan-id",
        ),
        pytest.param(
            "team_id,dice_mean,dice_std\nalpha,0.9,0.1\nbeta,x,0.1\n",
            None, "summary.csv", "dice_mean", None, id="summary-non-numeric-cell",
        ),
        pytest.param(
            _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0.8,0.7,0.9,0.99,inf,1\n",
            None, "team.csv", "hd_mm", "c1", id="inf-cell",
        ),
        pytest.param(
            _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\n",
            "scan_id,snr,cr,het,band\nc0,NaN,2,0.2,high\n", "quality.csv", "snr",
            "c0", id="quality-nan-cell",
        ),
        pytest.param(
            "team_id,dice_mean,dice_std\nalpha,0.9,0.1\nbeta,0.8,-inf\n",
            None, "summary.csv", "dice_std", "beta", id="summary-inf-cell",
        ),
    ],
)
def test_rank_malformed_csv_named_error(
    tmp_path, capsys, table_text, quality_text, bad_file, column, case_id
):
    # the table is a --summary when the bad file is summary.csv, else a --metrics file
    option, table = ("--summary", "summary.csv") if bad_file == "summary.csv" else ("--metrics", "team.csv")
    (tmp_path / table).write_text(table_text)
    argv = ["rank", option, str(tmp_path / table), "--out-dir", str(tmp_path / "board")]
    if quality_text is not None:
        (tmp_path / "quality.csv").write_text(quality_text)
        argv += ["--quality", str(tmp_path / "quality.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("labench: error: MalformedCsv: ")
    assert str(tmp_path / bad_file) in err and repr(column) in err
    if case_id is not None:
        assert repr(case_id) in err
    assert not (tmp_path / "board").exists()


@pytest.mark.parametrize("option", ["--metrics", "--quality", "--attributes", "--summary"])
def test_rank_names_a_table_that_is_not_utf8(tmp_path, capsys, option):
    (tmp_path / "team.csv").write_text(_METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0.8,0.7,0.9,0.99,8,1\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"team_id,case_id,scan_id,snr,dice_mean\n\xff\xfe,1,1,1,1\n")
    argv = ["rank", option, str(bad), "--out-dir", str(tmp_path / "board")]
    if option in ("--quality", "--attributes"):
        argv += ["--metrics", str(tmp_path / "team.csv")]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"labench: error: MalformedCsv: {bad} is not UTF-8 CSV text: ")
    assert not (tmp_path / "board").exists()


_TWO_CASES = _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0.8,0.7,0.9,0.99,8,1\n"


@pytest.mark.parametrize(
    "option, name, text, key, repeated",
    [
        ("--metrics", "team.csv", _TWO_CASES + "c1,0.7,0.6,0.9,0.99,8,1\n", "case_id", "c1"),
        (
            "--quality", "quality.csv",
            "scan_id,snr,cr,het,band\nc0,0.5,2,0.2,high\nc1,2,2,0.2,medium\nc0,4,2,0.2,low\n",
            "scan_id", "c0",
        ),
        ("--attributes", "attributes.csv", "team_id,dim\nteam,2D\nteam,3D\n", "team_id", "team"),
        ("--summary", "summary.csv", "team_id,dice_mean\na,0.9\nb,0.85\na,0.8\n", "team_id", "a"),
    ],
    ids=["metrics", "quality", "attributes", "summary"],
)
def test_rank_rejects_a_repeated_id(tmp_path, capsys, option, name, text, key, repeated):
    # a repeated row would otherwise replace the one before it, or rank twice
    (tmp_path / "team.csv").write_text(_TWO_CASES)
    (tmp_path / name).write_text(text)
    argv = ["rank", option, str(tmp_path / name), "--out-dir", str(tmp_path / "board")]
    if option in ("--quality", "--attributes"):
        argv += ["--metrics", str(tmp_path / "team.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"labench: error: MalformedCsv: {tmp_path / name} has two rows with {key!r} {repeated!r}\n"
    )
    assert not (tmp_path / "board").exists()


@pytest.mark.parametrize("order", ["abc", "cba"])
def test_rank_rejects_a_nan_cell_in_either_file_order(tmp_path, capsys, order):
    for team, dices in (("a", ("0.9", "0.92")), ("b", ("0.85", "nan")), ("c", ("0.8", "0.82"))):
        rows = "".join(f"c{i},{d},0.8,0.9,0.99,8,1\n" for i, d in enumerate(dices))
        (tmp_path / f"{team}.csv").write_text(_METRICS_HEADER + rows)
    out_dir = tmp_path / "board"
    teams = [str(tmp_path / f"{team}.csv") for team in order]
    assert main(["rank", "--metrics", *teams, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"labench: error: MalformedCsv: {tmp_path / 'b.csv'} row 'c1' 'dice' cell 'nan' "
        "is not a finite number\n"
    )
    assert not out_dir.exists()


def test_rank_rejects_two_metrics_files_with_one_team_id(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "t.csv").write_text(_METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\n")
    first, second = str(tmp_path / "a" / "t.csv"), str(tmp_path / "b" / "t.csv")
    out_dir = tmp_path / "board"
    assert main(["rank", "--metrics", first, second, "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"labench: error: team id 't' names two metrics files: {first!r} and {second!r}\n"
    )
    assert not out_dir.exists()


def test_rank_accepts_blank_surface_distances(tmp_path):
    # an empty prediction has no surface, so evaluate leaves hd_mm and stsd_mm blank
    (tmp_path / "team.csv").write_text(
        _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0,0,0,1,,\n"
    )
    out_dir = tmp_path / "board"
    assert main(["rank", "--metrics", str(tmp_path / "team.csv"), "--out-dir", str(out_dir)]) == 0
    (row,) = csv.DictReader((out_dir / "leaderboard.csv").open())
    assert row["dice_mean"] == "0.45" and row["hd_mm_mean"] == "8"


@pytest.mark.parametrize("option", ["--summary", "--attributes"])
def test_rank_table_without_team_id_is_malformed_csv(tmp_path, capsys, option):
    (tmp_path / "team.csv").write_text(_METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\n")
    (tmp_path / "bad.csv").write_text("team,dice_mean\nalpha,0.9\n")
    argv = ["rank", option, str(tmp_path / "bad.csv"), "--out-dir", str(tmp_path / "board")]
    if option == "--attributes":
        argv += ["--metrics", str(tmp_path / "team.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"labench: error: MalformedCsv: {tmp_path / 'bad.csv'} has no 'team_id' column\n"
    assert not (tmp_path / "board").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "rank needs --metrics files or --summary"),
        (["--metrics", "absent.csv"], "'absent.csv' is not a file"),
        (
            ["--summary", "s.csv", "--metrics", "none.csv", "--quality", "none2.csv"],
            "--summary excludes --metrics, --attributes and --quality",
        ),
    ],
    ids=["no-metrics", "missing-file", "summary-with-metrics"],
)
def test_rejected_rank_creates_no_output_directory(tmp_path, capsys, monkeypatch, extra, message):
    monkeypatch.chdir(tmp_path)
    argv = ["rank", "--out-dir", "board", *extra]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "board").exists()
