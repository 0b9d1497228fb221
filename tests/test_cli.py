import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import labench
from labench import phantom
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
    assert main([]) == 1
    assert list(tmp_path.iterdir()) == []  # filesystem untouched


def test_missing_required_args_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])
    assert exc.value.code == 1
    assert list(tmp_path.iterdir()) == []


def test_experiment_without_subcommand_exits_1():
    assert main(["experiment"]) == 1


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out-dir", "x", "--bogus"])
    assert exc.value.code == 1


# minimal argv per subcommand, and the shared options each one reads
_BASE_ARGV = {
    "evaluate": ["evaluate", "p", "t", "--out", "o"],
    "rank": ["rank", "--out-dir", "o"],
    "quality": ["quality", "--scans", "s", "--masks", "m", "--out", "o"],
    "preprocess": ["preprocess", "in", "--out", "o"],
    "postprocess": ["postprocess", "in", "--out", "o", "--ops", "largest"],
    "pipeline": ["pipeline", "--scan", "s", "--out", "o"],
    "offset": ["experiment", "offset", "--scan", "s", "--truth", "t", "--out", "o"],
    "patch-size": ["experiment", "patch-size", "--scan", "s", "--truth", "t", "--out", "o"],
    "synth": ["synth", "--out-dir", "o"],
}
_READS = {
    "evaluate": ("format", "jobs"),
    "quality": ("format", "jobs"),
    "preprocess": ("seed",),
    "offset": ("format",),
    "patch-size": ("format",),
    "synth": ("seed", "jobs"),
}
_VALUES = {"seed": ("9", 9), "format": ("json", "json"), "jobs": ("2", 2)}
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
        (["synth", "--tier-fractions", "0.5,0.5"], "(0.5, 0.5)"),
        (["synth", "--count", "0"], "got 0"),
        (["synth", "--spacing", "1,1"], "'1,1'"),
        (["synth", "--spacing", "0"], "NonPositiveSpacing: spacing must be"),
        (["synth", "--spacing", "1,-1,1"], "(1.0, -1.0, 1.0)"),
        (["preprocess", "{scan}", "--clahe", "8,8"], "'8,8'"),
        (["postprocess", "{mask}", "--ops", "dilate:ball"], "'ball'"),
        (["postprocess", "{mask}", "--ops", "smooth:0"], "got 0"),
        (["experiment", "offset", "--scan", "{scan}", "--truth", "{mask}", "--offsets", "0,x"], "'x'"),
    ],
    ids=[
        "dims", "tier-fractions", "count", "spacing", "spacing-zero", "spacing-negative",
        "clahe", "ops-kind", "ops-smooth", "offsets",
    ],
)
def test_malformed_values_exit_1_naming_the_value(tmp_path, capsys, argv, value):
    _write_pair(tmp_path, "c", _blob(), scan=np.where(_blob(), 600.0, 200.0).astype(np.float32))
    paths = {"scan": tmp_path / "c.nrrd", "mask": tmp_path / "c_label.nrrd"}
    argv = [a.format(**paths) for a in argv]
    out = "--out-dir" if argv[0] == "synth" else "--out"
    try:
        code = main(argv + [out, str(tmp_path / "out")])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("labench: error: ") and value in err
    assert "Traceback" not in err
    if argv[0] == "synth":
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "quality", "synth"])
def test_jobs_default_from_environment(command, monkeypatch):
    monkeypatch.setenv("LABENCH_JOBS", "3")
    assert _build_parser().parse_args(_BASE_ARGV[command]).jobs == 3


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats would add most of a second to every CLI start
    src = str(Path(labench.__file__).resolve().parents[1])
    code = "import labench.cli, sys; assert 'scipy.stats' not in sys.modules"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
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


def test_quality_negative_margin_exits_1_before_reading(tmp_path, capsys):
    out = tmp_path / "q.csv"
    argv = ["quality", *_quality_inputs(tmp_path), "--out", str(out), "--margin", "-1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "labench: error: --margin must be non-negative, got -1\n"
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
    flipped = read_nrrd(tmp_path / "ma.nrrd")
    assert flipped.count == int(bits.sum())
    assert np.array_equal(np.flip(flipped.bits, axis=0), bits)


def test_postprocess_chain(tmp_path):
    bits = _blob()
    bits[0, 0, 0] = True  # small satellite component
    write_nrrd(Mask(bits), tmp_path / "m.nrrd")
    out = tmp_path / "clean.nrrd"
    assert main([
        "postprocess", str(tmp_path / "m.nrrd"), "--out", str(out),
        "--ops", "largest:26", "smooth:1",
    ]) == 0
    cleaned = read_nrrd(out)
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
    pred = read_nrrd(out)
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
        "--pred-dir", str(ext), "--case-id", "scan",
        "--roi", "24,24,16", "--out", str(out),
    ]) == 0
    pred = read_nrrd(out)
    assert np.array_equal(pred.bits, bits)


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


def test_experiment_patch_size_csv(tmp_path):
    _scan_with_truth(tmp_path)
    out = tmp_path / "sizes.csv"
    assert main([
        "experiment", "patch-size", "--scan", str(tmp_path / "scan.nrrd"),
        "--truth", str(tmp_path / "scan_label.nrrd"),
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
    "metrics_text, quality_text, bad_file, column, case_id",
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
    ],
)
def test_rank_malformed_csv_named_error(
    tmp_path, capsys, metrics_text, quality_text, bad_file, column, case_id
):
    (tmp_path / "team.csv").write_text(metrics_text)
    argv = ["rank", "--metrics", str(tmp_path / "team.csv"), "--out-dir", str(tmp_path / "board")]
    if quality_text is not None:
        (tmp_path / "quality.csv").write_text(quality_text)
        argv += ["--quality", str(tmp_path / "quality.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("labench: error: MalformedCsv: ")
    assert str(tmp_path / bad_file) in err and repr(column) in err
    if case_id is not None:
        assert repr(case_id) in err


def test_rank_accepts_blank_surface_distances(tmp_path):
    # an empty prediction has no surface, so evaluate leaves hd_mm and stsd_mm blank
    (tmp_path / "team.csv").write_text(
        _METRICS_HEADER + "c0,0.9,0.8,0.9,0.99,8,1\nc1,0,0,0,1,,\n"
    )
    out_dir = tmp_path / "board"
    assert main(["rank", "--metrics", str(tmp_path / "team.csv"), "--out-dir", str(out_dir)]) == 0
    (row,) = csv.DictReader((out_dir / "leaderboard.csv").open())
    assert row["dice_mean"] == "0.45" and row["hd_mm_mean"] == "8"
