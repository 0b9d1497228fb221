"""Command-line interface.

One executable, eight subcommands: evaluate, rank, quality, preprocess,
postprocess, pipeline, experiment {offset|patch-size}, synth. Exit codes:
0 success, 1 usage or input error, 2 partial failure (some cases failed
or were unpaired; the rest were processed and written).

A subcommand takes only the shared options it reads: ``--jobs`` (worker
processes; ``LABENCH_JOBS`` sets the default) on evaluate, quality and
synth; ``--format csv|json`` on evaluate, quality and both experiments;
``--seed`` on preprocess (augmentation) and synth.

Every table (per-case metrics, scan quality, leaderboard, experiment
curves, the synth manifest) goes through :func:`_write_table`. Its CSV
form has a header row and ``\n`` line ends, prints floats with 6
significant digits and leaves absent values blank; its JSON form
(``--format json``) is a list of records indented by 2, with floats at
full precision and absent values ``null``. ``report.json`` is written by
:func:`_write_json` with the same indent. Per-case, per-scan and
manifest rows are sorted by id, leaderboard rows by rank, and gzip
payloads carry a fixed mtime, so identical inputs and seeds give
byte-identical files regardless of ``--jobs``.

A mask input must hold only 0 and 1; ``read_nrrd(as_mask=True)`` raises
NotBinaryMask for any other value.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import phantom, pipeline, postprocess, preprocess
from .errors import DegeneratePartition, DegenerateSample, LabenchError, MalformedCsv
from .grids import Volume, checked_spacing, downsample
from .metrics import CaseMetrics, dice, evaluate_case
from .nrrd_io import read_nrrd, write_nrrd
from .quality import assess_quality, quality_distribution
from .stats import (
    LEADERBOARD_METRICS,
    TeamResult,
    build_leaderboard,
    compare_groups,
    correlate,
    leaderboard_from_summary,
)

# per-case CSV columns; the JSON form holds every CaseMetrics field
CASE_CSV_COLUMNS = (
    "case_id",
    "dice",
    "iou",
    "sensitivity",
    "specificity",
    "hd_mm",
    "stsd_mm",
    "diameter_err_pct",
    "volume_err_pct",
)

LEADERBOARD_COLUMNS = (
    "team_id",
    *(f"{m}_{s}" for m in LEADERBOARD_METRICS for s in ("mean", "std")),
    "p_value",
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve
    # for partial failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("LABENCH_JOBS", "1")))
    except ValueError:
        return 1


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared options named (seed, format, jobs) that a subcommand reads."""
    specs = {
        "seed": dict(type=int, default=0, help="global random seed"),
        "format": dict(choices=("csv", "json"), default="csv", help="tabular output format"),
        "jobs": dict(
            type=int, default=_default_jobs(), help="worker processes (env LABENCH_JOBS)"
        ),
    }
    for name in names:
        parser.add_argument(f"--{name}", **specs[name])


def _parse_ints(text: str, n: int, name: str) -> tuple[int, ...]:
    parts = [p for p in text.replace("x", ",").split(",") if p]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        values = ()
    if len(values) != n:
        raise SystemExit(_fail(f"{name} needs {n} comma-separated integers, got {text!r}"))
    return values


def _fail(message: str) -> int:
    sys.stderr.write(f"labench: error: {message}\n")
    return 1


def _require_dir(path: str, name: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise SystemExit(_fail(f"{name} {path!r} is not a directory"))
    return p


def _require_file(path: str, name: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise SystemExit(_fail(f"{name} {path!r} is not a file"))
    return p


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _write_table(path, header, rows, fmt: str) -> None:
    """Write ``rows`` under ``header`` in the table format of the module docstring."""
    if fmt == "json":
        _write_json(path, [dict(zip(header, row)) for row in rows])
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".6g") if isinstance(v, float) else v for v in row])


def read_case_csv(
    path, columns, key: str = "case_id", nullable=("hd_mm", "stsd_mm")
) -> dict[str, dict[str, float | None]]:
    """Read the numeric ``columns`` of a per-case CSV into {row[key]: {column: value}}.

    Blank cells of the ``nullable`` columns read as None; by default these
    are the surface distances, which an empty prediction leaves blank. A
    missing column, a non-numeric cell or any other blank cell raises
    MalformedCsv naming the file and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in (key, *columns):
            if column not in (reader.fieldnames or ()):
                raise MalformedCsv(f"{path} has no {column!r} column")
        return {
            row[key]: {c: _number(path, row[key], c, row[c], c in nullable) for c in columns}
            for row in reader
        }


def _number(path, row_id: str, column: str, text: str | None, nullable: bool) -> float | None:
    if text in ("", None):
        if nullable:
            return None
        raise MalformedCsv(f"{path} row {row_id!r} has a blank {column!r} cell")
    try:
        return float(text)
    except ValueError:
        raise MalformedCsv(f"{path} column {column!r} holds non-numeric {text!r}") from None


# --- paired batches (evaluate, quality) ----------------------------------------


def _case_id_of(path: Path) -> str:
    stem = path.stem
    return stem[:-6] if stem.endswith("_label") else stem


def _index_dir(directory: Path, labels: bool = True) -> dict[str, Path]:
    """Map case ids to files; ``<id>_label.nrrd`` wins over ``<id>.nrrd``
    when both exist (the plain file is then a scan, not a mask). Without
    ``labels`` the label files are left out, so a mask is never taken as
    a scan."""
    plain: dict[str, Path] = {}
    label: dict[str, Path] = {}
    for path in sorted(directory.glob("*.nrrd")):
        target = label if path.stem.endswith("_label") else plain
        target.setdefault(_case_id_of(path), path)
    return {**plain, **label} if labels else plain


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _catching(worker, task):
    """Run one paired task; a failure becomes its ``Type: message`` text."""
    try:
        return task[0], worker(task), None
    except Exception as exc:  # report per-item failures, keep going
        return task[0], None, f"{type(exc).__name__}: {exc}"


def _run_paired(noun: str, worker, lefts, rights, jobs: int, write, *extra) -> int:
    """Run ``worker((id, left_path, right_path, *extra))`` for every id both
    indexes share and pass the results by id to ``write``. Then report the
    ids found on one side only and the failed ones on stderr; exit 2 if
    there were any."""
    tasks = [(i, str(lefts[i]), str(rights[i]), *extra) for i in sorted(set(lefts) & set(rights))]
    results, failures = {}, []
    for item_id, value, error in _run_tasks(functools.partial(_catching, worker), tasks, jobs):
        if error is None:
            results[item_id] = value
        else:
            failures.append(f"{item_id}: {error}")
    write(results)
    unpaired = sorted(set(lefts) ^ set(rights))
    for item_id in unpaired:
        sys.stderr.write(f"labench: unpaired {noun}: {item_id}\n")
    for failure in sorted(failures):
        sys.stderr.write(f"labench: failed {noun}: {failure}\n")
    return 2 if unpaired or failures else 0


# --- evaluate -------------------------------------------------------------------


def _evaluate_one(task):
    _, pred_path, truth_path = task
    return evaluate_case(read_nrrd(pred_path, as_mask=True), read_nrrd(truth_path, as_mask=True))


def cmd_evaluate(args) -> int:
    preds = _index_dir(_require_dir(args.pred_dir, "prediction directory"))
    truths = _index_dir(_require_dir(args.truth_dir, "truth directory"))

    def write(cases):
        if args.format == "json":
            columns = tuple(f.name for f in fields(CaseMetrics))
        else:
            columns = CASE_CSV_COLUMNS[1:]
        rows = [(cid, *(getattr(c, col) for col in columns)) for cid, c in sorted(cases.items())]
        _write_table(args.out, ("case_id", *columns), rows, args.format)

    return _run_paired("case", _evaluate_one, preds, truths, args.jobs, write)


# --- rank --------------------------------------------------------------------


def _read_attributes(path: Path) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "team_id" not in reader.fieldnames:
            raise SystemExit(_fail(f"attributes file {path} needs a team_id column"))
        return {row["team_id"]: {k: v for k, v in row.items() if k != "team_id"} for row in reader}


def cmd_rank(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.summary:
        with open(_require_file(args.summary, "summary"), newline="") as fh:
            board = leaderboard_from_summary(csv.DictReader(fh))
        _write_leaderboard(out_dir, board)
        _write_report(out_dir, "published-summary ingest", board)
        return 0

    if not args.metrics:
        raise SystemExit(_fail("rank needs --metrics files or --summary"))
    attr_map: dict[str, dict[str, str]] = {}
    if args.attributes:
        attr_map = _read_attributes(_require_file(args.attributes, "attributes"))

    teams = []
    for metrics_path in args.metrics:
        path = _require_file(metrics_path, "metrics file")
        rows = read_case_csv(path, LEADERBOARD_METRICS)
        teams.append(TeamResult(path.stem, rows, attr_map.get(path.stem, {})))

    board = build_leaderboard(teams)
    _write_leaderboard(out_dir, board)

    comparisons = []
    attribute_names = sorted({name for attrs in attr_map.values() for name in attrs})
    for attribute in attribute_names:
        try:
            comp = compare_groups(teams, attribute, metric="dice")
        except DegeneratePartition:
            continue
        comparisons.append(
            {
                "attribute": comp.attribute,
                "metric": comp.metric,
                "groups": {
                    value: {"teams": n, "mean": mean} for value, (n, mean) in comp.groups.items()
                },
                "p_value": comp.p_value,
            }
        )

    quality_corr = None
    if args.quality:
        quality_rows = _read_quality_csv(_require_file(args.quality, "quality csv"))
        quality_corr = _quality_dice_correlation(teams, quality_rows)

    _write_report(
        out_dir,
        "per-case metrics",
        board,
        group_comparisons=comparisons,
        quality_correlation=quality_corr,
    )
    return 0


def _write_leaderboard(out_dir: Path, board) -> None:
    rows = []
    for row in board.rows:
        stats = [s for m in LEADERBOARD_METRICS for s in (row.means[m], row.stds[m])]
        rows.append((row.team_id, *stats, row.p_value))
    _write_table(out_dir / "leaderboard.csv", LEADERBOARD_COLUMNS, rows, "csv")


def _write_report(out_dir: Path, source: str, board, **sections) -> None:
    """Write report.json: run metadata, the ranked leaderboard, then ``sections``."""
    metadata = {
        "source": source,
        "hd_mode": "symmetric",
        "ranking": "mean dice desc; ties by mean stsd asc, then team id",
        "p_value": "two-tailed Welch t-test, team per-case dice vs pooled other teams",
    }
    leaderboard = [
        {
            "rank": rank,
            "team_id": row.team_id,
            "means": row.means,
            "stds": row.stds,
            "p_value": row.p_value,
        }
        for rank, row in enumerate(board.rows, start=1)
    ]
    report = {"metadata": metadata, "leaderboard": leaderboard, **sections}
    _write_json(out_dir / "report.json", report)


def _read_quality_csv(path: Path) -> dict[str, float]:
    rows = read_case_csv(path, ("snr",), key="scan_id", nullable=("snr",))
    return {scan_id: row["snr"] for scan_id, row in rows.items() if row["snr"] is not None}


def _quality_dice_correlation(teams, snr_by_case: dict[str, float]):
    case_ids = sorted(set(teams[0].cases) & set(snr_by_case))
    if len(case_ids) < 2:
        return None
    mean_dice = [
        sum(team.cases[cid]["dice"] for team in teams) / len(teams) for cid in case_ids
    ]
    snr = [snr_by_case[cid] for cid in case_ids]
    try:
        r = correlate(snr, mean_dice)
    except (DegenerateSample, LabenchError):
        return None
    return {"against": "snr", "metric": "mean dice", "pearson_r": r, "n": len(case_ids)}


# --- quality ------------------------------------------------------------------


def _quality_one(task):
    _, scan_path, mask_path, margin = task
    scan = read_nrrd(scan_path, as_mask=False)
    return assess_quality(scan, read_nrrd(mask_path, as_mask=True), margin=margin)


def cmd_quality(args) -> int:
    if args.margin < 0:
        return _fail(f"--margin must be non-negative, got {args.margin}")
    scans = _index_dir(_require_dir(args.scans, "scan directory"), labels=False)
    masks = _index_dir(_require_dir(args.masks, "mask directory"))

    def write(reports):
        rows = [(sid, r.snr, r.cr, r.het, r.band) for sid, r in sorted(reports.items())]
        _write_table(args.out, ("scan_id", "snr", "cr", "het", "band"), rows, args.format)
        if reports:
            dist = quality_distribution(reports.values()).items()
            summary = ", ".join(f"{band}: {cnt} ({frac:.0%})" for band, (cnt, frac) in dist)
            sys.stderr.write(f"labench: band distribution: {summary}\n")

    return _run_paired("scan", _quality_one, scans, masks, args.jobs, write, args.margin)


# --- preprocess -----------------------------------------------------------------


def cmd_preprocess(args) -> int:
    volume = read_nrrd(_require_file(args.input, "input volume"), as_mask=False)
    if not isinstance(volume, Volume):
        raise SystemExit(_fail("preprocess expects a grayscale volume"))
    mask = None
    if args.mask:
        mask = read_nrrd(_require_file(args.mask, "mask"), as_mask=True)

    if args.downsample:
        factor = _parse_ints(args.downsample, 3, "--downsample")
        volume = downsample(volume, factor)
    if args.normalize:
        volume = preprocess.normalize_intensity(volume)
    if args.clahe:
        if args.clahe.count(",") != 2:
            raise SystemExit(_fail(f"--clahe needs tiles and a clip limit, e.g. 8,8,3.0, got {args.clahe!r}"))
        tx, ty, clip = args.clahe.split(",")
        volume = preprocess.clahe_slicewise(volume, (int(tx), int(ty)), float(clip))
    if args.augment:
        if mask is None:
            raise SystemExit(_fail("--augment needs --mask (transforms apply to both)"))
        specs = preprocess.load_augmentation_specs(_require_file(args.augment, "augment config"))
        volume, mask = preprocess.augment(volume, mask, specs, args.seed + args.variant)

    write_nrrd(volume, args.out, encoding=args.encoding)
    if mask is not None and args.mask_out:
        write_nrrd(mask, args.mask_out, encoding=args.encoding)
    return 0


# --- postprocess ----------------------------------------------------------------


def _parse_op(text: str):
    parts = text.split(":")
    name = parts[0]
    if name == "largest":
        connectivity = int(parts[1]) if len(parts) > 1 else 26
        return lambda m: postprocess.largest_component(m, connectivity)
    if name in ("dilate", "erode", "close", "open"):
        kind = parts[1] if len(parts) > 1 else "cross"
        radius = int(parts[2]) if len(parts) > 2 else 1
        se = postprocess.StructuringElement(kind, radius)
        fn = {
            "dilate": postprocess.dilate,
            "erode": postprocess.erode,
            "close": postprocess.close_mask,
            "open": postprocess.open_mask,
        }[name]
        return lambda m: fn(m, se)
    if name == "smooth":
        iterations = int(parts[1]) if len(parts) > 1 else 1
        return lambda m: postprocess.smooth_surface(m, iterations)
    raise SystemExit(_fail(f"unknown postprocess op {text!r}"))


def cmd_postprocess(args) -> int:
    mask = read_nrrd(_require_file(args.input, "input mask"), as_mask=True)
    for op_text in args.ops:
        mask = _parse_op(op_text)(mask)
    write_nrrd(mask, args.out, encoding=args.encoding)
    return 0


# --- pipeline --------------------------------------------------------------------


def _build_localizer(args, truth):
    if args.localizer == "oracle":
        if truth is None:
            raise SystemExit(_fail("--localizer oracle needs --truth"))
        return pipeline.OracleLocalizer(truth)
    if args.localizer == "fixed":
        return pipeline.FixedCenterLocalizer()
    return pipeline.ThresholdLocalizer(args.downsample_factor)


def _build_segmenter(args, truth):
    if args.segmenter == "oracle":
        if truth is None:
            raise SystemExit(_fail("--segmenter oracle needs --truth"))
        return pipeline.OracleSegmenter(truth)
    if args.segmenter == "external":
        if not args.pred_dir or not args.case_id:
            raise SystemExit(_fail("--segmenter external needs --pred-dir and --case-id"))
        return pipeline.ExternalPredictionSegmenter(args.pred_dir, args.case_id)
    return pipeline.ThresholdSegmenter()


def cmd_pipeline(args) -> int:
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True) if args.truth else None
    roi = _parse_ints(args.roi, 3, "--roi")
    localizer = _build_localizer(args, truth)
    segmenter = _build_segmenter(args, truth)
    predicted = pipeline.run_pipeline(scan, localizer, segmenter, roi)
    write_nrrd(predicted, args.out, encoding=args.encoding)
    if truth is not None:
        sys.stderr.write(f"labench: dice vs truth: {dice(predicted, truth):.6g}\n")
    return 0


# --- experiment --------------------------------------------------------------------


def cmd_experiment_offset(args) -> int:
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    segmenter = (
        pipeline.OracleSegmenter(truth)
        if args.segmenter == "oracle"
        else pipeline.ThresholdSegmenter()
    )
    offsets = [float(p) for p in args.offsets.split(",")]
    roi = _parse_ints(args.roi, 3, "--roi")
    curve = pipeline.offset_sweep(scan, truth, segmenter, roi, offsets, axis=args.axis)
    _write_table(args.out, ("offset_pct", "dice"), curve, args.format)
    return 0


def cmd_experiment_patch_size(args) -> int:
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    sizes = [_parse_ints(s, 2, "--sizes entry") for s in args.sizes.split(",")]
    rows = pipeline.patch_size_sweep(scan, truth, sizes, z_extent=args.z_extent)
    _write_table(
        args.out,
        ("size_x", "size_y", "background_pct", "containment_pct"),
        rows,
        args.format,
    )
    return 0


# --- synth -------------------------------------------------------------------------


def _synth_one(task):
    base, i, tier, seed, out_dir, encoding, digits = task
    volume, mask = phantom.cohort_member(base, seed + i, tier)
    case_id = f"case_{i:0{digits}d}"
    write_nrrd(volume, Path(out_dir) / f"{case_id}.nrrd", encoding=encoding)
    write_nrrd(mask, Path(out_dir) / f"{case_id}_label.nrrd", encoding=encoding)
    return case_id, tier, seed + i


def cmd_synth(args) -> int:
    dims = _parse_ints(args.dims, 3, "--dims")
    spacing = tuple(float(s) for s in args.spacing.split(","))
    if len(spacing) == 1:
        spacing = spacing * 3
    if len(spacing) != 3:
        raise SystemExit(_fail(f"--spacing needs 1 or 3 comma-separated numbers, got {args.spacing!r}"))
    spacing = checked_spacing(spacing)
    fractions = tuple(float(f) for f in args.tier_fractions.split(","))
    base = phantom.default_phantom_spec(dims=dims, spacing=spacing)

    tiers = phantom.cohort_tiers(args.count, fractions)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digits = max(3, len(str(args.count - 1)))
    tasks = [
        (base, i, tier, args.seed, str(out_dir), args.encoding, digits)
        for i, tier in enumerate(tiers)
    ]
    results = _run_tasks(_synth_one, tasks, args.jobs)

    _write_table(out_dir / "manifest.csv", ("id", "tier", "seed"), sorted(results), "csv")
    return 0


# --- parser ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="labench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("evaluate", parents=[], help="score prediction masks against truths")
    p.add_argument("pred_dir", help="directory of <id>.nrrd prediction masks")
    p.add_argument("truth_dir", help="directory of <id>_label.nrrd (or <id>.nrrd) truths")
    p.add_argument("--out", required=True, help="per-case metrics file")
    _add_options(p, "format", "jobs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="build a leaderboard from per-team metrics files")
    p.add_argument("--metrics", nargs="*", default=[], help="per-team metrics CSVs (team id = stem)")
    p.add_argument("--attributes", help="CSV mapping team_id to method attributes")
    p.add_argument("--quality", help="per-scan quality CSV for the quality/dice correlation")
    p.add_argument("--summary", help="rank a pre-aggregated per-team summary CSV instead")
    p.add_argument("--out-dir", required=True, help="directory for leaderboard.csv + report.json")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("quality", help="assess per-scan SNR/CR/HET quality")
    p.add_argument("--scans", required=True, help="directory of scan volumes")
    p.add_argument("--masks", required=True, help="directory of cavity masks")
    p.add_argument("--out", required=True, help="per-scan quality file")
    p.add_argument("--margin", type=int, default=3, help="foreground dilation margin (voxels)")
    _add_options(p, "format", "jobs")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("preprocess", help="downsample / normalize / CLAHE / augment a volume")
    p.add_argument("input", help="input volume (.nrrd)")
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", help="per-axis integer factors, e.g. 2,2,1")
    p.add_argument("--normalize", action="store_true", help="rescale intensities to [0,1]")
    p.add_argument("--clahe", help="tiles and clip limit, e.g. 8,8,3.0")
    p.add_argument("--augment", help="JSON augmentation config")
    p.add_argument("--mask", help="mask transformed alongside the volume")
    p.add_argument("--mask-out", help="where to write the transformed mask")
    p.add_argument("--variant", type=int, default=0, help="augmentation variant index")
    p.add_argument("--encoding", choices=("raw", "gzip"), default="raw")
    _add_options(p, "seed")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("postprocess", help="chain mask clean-up operators")
    p.add_argument("input", help="input mask (.nrrd)")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--ops",
        nargs="+",
        required=True,
        help="operators in order: largest[:conn], dilate|erode|close|open[:cross|cube[:r]], smooth[:iters]",
    )
    p.add_argument("--encoding", choices=("raw", "gzip"), default="raw")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("pipeline", help="run localize-crop-segment-pad on one scan")
    p.add_argument("--scan", required=True)
    p.add_argument("--truth", help="truth mask (oracle components, dice report)")
    p.add_argument("--localizer", choices=("threshold", "oracle", "fixed"), default="threshold")
    p.add_argument("--segmenter", choices=("threshold", "oracle", "external"), default="threshold")
    p.add_argument("--pred-dir", help="external predictions directory")
    p.add_argument("--case-id", help="case id for the external adapter")
    p.add_argument("--roi", default="240,160,96", help="ROI size, default 240,160,96")
    p.add_argument("--downsample-factor", type=int, default=4)
    p.add_argument("--out", required=True, help="output mask (.nrrd)")
    p.add_argument("--encoding", choices=("raw", "gzip"), default="raw")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("experiment", help="pipeline geometry sweeps")
    exp_sub = p.add_subparsers(dest="experiment")

    pe = exp_sub.add_parser("offset", help="dice vs crop-center displacement")
    pe.add_argument("--scan", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--segmenter", choices=("oracle", "threshold"), default="oracle")
    pe.add_argument("--offsets", default="0,25,50,75,100,125,150", help="percent offsets")
    pe.add_argument("--axis", choices=("x", "y", "z"), default="x")
    pe.add_argument("--roi", default="240,160,96")
    pe.add_argument("--out", required=True)
    _add_options(pe, "format")
    pe.set_defaults(func=cmd_experiment_offset)

    pp = exp_sub.add_parser("patch-size", help="background share vs patch size")
    pp.add_argument("--scan", required=True)
    pp.add_argument("--truth", required=True)
    pp.add_argument("--sizes", default="400x400,360x360,320x320,280x280,240x160")
    pp.add_argument("--z-extent", type=int, default=96)
    pp.add_argument("--out", required=True)
    _add_options(pp, "format")
    pp.set_defaults(func=cmd_experiment_patch_size)

    p = sub.add_parser("synth", help="write a synthetic phantom cohort")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dims", default="576,576,88")
    p.add_argument("--spacing", default="0.625")
    p.add_argument("--tier-fractions", default="0.15,0.70,0.15")
    p.add_argument("--encoding", choices=("raw", "gzip"), default="raw")
    _add_options(p, "seed", "jobs")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    if args.command == "experiment" and getattr(args, "experiment", None) is None:
        sys.stderr.write("usage: labench experiment {offset,patch-size} ...\n")
        return 1
    try:
        return args.func(args)
    except (LabenchError, ValueError) as exc:  # a rejected argument value
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
