"""Command-line interface.

One executable, eight subcommands: evaluate, rank, quality, preprocess,
postprocess, pipeline, experiment {offset|patch-size}, synth. Exit codes:
0 success, 1 usage or input error, 2 partial failure (some cases failed
or were unpaired; the rest were processed and written).

A subcommand takes only the shared options it reads: ``--jobs`` (worker
processes; ``LABENCH_JOBS`` sets the default) on evaluate, quality and
synth; ``--format csv|json`` on evaluate, quality and both experiments;
``--seed`` on preprocess (augmentation) and synth; ``--encoding raw|gzip``
(NRRD payload of written files) on preprocess, postprocess, pipeline and
synth.

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

Imports: each subcommand imports only its own modules. Every call is a
process of its own, so a module it loads and never runs is start-up time
paid on each call, and at desk-scale grids start-up is most of a
command's time. This module loads what every command shares: the
grids, NRRD I/O, metrics, quality and statistics functions it names at
module level (``read_nrrd``, ``evaluate_case``, ``assess_quality``,
``build_leaderboard`` and the rest, looked up at call time so that a
tracer can wrap them). ``phantom``, ``pipeline``, ``postprocess`` and
``preprocess`` are imported inside the commands that run them, scipy
inside the functions that call it, and ``concurrent.futures`` only when
a ``--jobs`` pool starts. The package ``labench`` itself imports nothing.

Process exit: the executable (``python -m labench.cli`` and the
``labench`` script) is :func:`run`. When :func:`main` returns, it
flushes stdout and stderr and ends the process with ``os._exit``, which
skips the interpreter's teardown: freeing every module and object, about
0.1 s in a process that loaded scipy. Nothing is lost, because by then
every file written is closed (each write is a ``with open(...)`` block
or ``Path.write_text``), every ``--jobs`` pool has joined its workers
(the ``with ProcessPoolExecutor`` block), and labench registers no
``atexit`` handler. A ``SystemExit`` or an exception from :func:`main`
exits through the interpreter as usual. In-process callers use
:func:`main`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DegeneratePartition, LabenchError, MalformedCsv
from .grids import DEFAULT_ROI_SIZE, check_same_geometry, checked_spacing, downsample
from .metrics import CaseMetrics, dice, evaluate_case
from .nrrd_io import read_nrrd, write_nrrd
from .quality import DEFAULT_MARGIN, assess_quality, quality_distribution
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
    """Add the shared options named (seed, format, jobs, encoding) that a subcommand reads."""
    specs = {
        "seed": dict(type=int, default=0, help="global random seed"),
        "format": dict(choices=("csv", "json"), default="csv", help="tabular output format"),
        "encoding": dict(choices=("raw", "gzip"), default="raw", help="NRRD payload encoding"),
        "jobs": dict(
            type=int, default=_default_jobs(), help="worker processes (env LABENCH_JOBS)"
        ),
    }
    for name in names:
        parser.add_argument(f"--{name}", **specs[name])


def _parse_ints(text: str, n: int, name: str) -> tuple[int, ...]:
    """The ``n`` comma- or x-separated positive integers of option ``name``
    (each is a size or a factor)."""
    parts = [p for p in text.replace("x", ",").split(",") if p]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        values = ()
    if len(values) != n:
        raise SystemExit(_fail(f"{name} needs {n} comma-separated integers, got {text!r}"))
    if min(values) < 1:
        raise SystemExit(_fail(f"{name} needs {n} positive integers, got {text!r}"))
    return values


def _require_positive(value: int, name: str) -> None:
    if value < 1:
        raise SystemExit(_fail(f"{name} must be >= 1, got {value}"))


def _parse_floats(text: str, name: str, minimum: float = -math.inf) -> tuple[float, ...]:
    """The comma-separated numbers of option ``name``; ValueError naming the
    first entry that is not a finite number >= ``minimum``."""
    values = []
    for part in text.split(","):
        try:
            value = float(part)
        except ValueError:
            value = math.nan  # fails the check below like inf does
        if not (math.isfinite(value) and value >= minimum):
            bound = f" >= {minimum:g}" if minimum > -math.inf else ""
            raise ValueError(f"{name} entry {part!r} is not a finite number{bound}")
        values.append(value)
    return tuple(values)


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


def _require_out_dir(path: str, name: str) -> None:
    """Exit 1 unless the directory that output ``path`` goes into exists and
    ``path`` is not itself a directory. Commands call it with their input
    checks, so a run is not thrown away at its last step."""
    if Path(path).is_dir():
        raise SystemExit(_fail(f"{name} {path!r} is a directory"))
    _require_dir(str(Path(path).parent), f"{name} {path!r}:")


def _require_dir_or_new(path: str, name: str) -> Path:
    """Exit 1 unless the nearest of output directory ``path`` and its
    parents that exists is a directory, so that ``path`` can be made."""
    p = Path(path)
    existing = next(q for q in (p, *p.parents) if q.exists())
    if not existing.is_dir():
        where = "" if existing == p else f": {str(existing)!r}"
        raise SystemExit(_fail(f"{name} {path!r}{where} is not a directory"))
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
    missing column, a non-numeric or non-finite cell or any other blank cell
    raises MalformedCsv naming the file and the column; a repeated ``key``
    value raises it naming the file and the id.
    """
    return {
        row[key]: {c: _number(path, row[key], c, row[c], c in nullable) for c in columns}
        for row in _read_rows(path, key, columns)
    }


def _read_rows(path, key: str, columns=()) -> list[dict[str, str]]:
    """The rows of a CSV file, one per ``key`` value; MalformedCsv naming
    the file and the column if ``key`` or one of ``columns`` is missing, or
    naming the file and the id if two rows share a ``key`` value."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in (key, *columns):
            if column not in (reader.fieldnames or ()):
                raise MalformedCsv(f"{path} has no {column!r} column")
        rows = list(reader)
    seen = set()
    for row in rows:
        if row[key] in seen:
            raise MalformedCsv(f"{path} has two rows with {key!r} {row[key]!r}")
        seen.add(row[key])
    return rows


def _number(path, row_id: str, column: str, text: str | None, nullable: bool) -> float | None:
    if text in ("", None) and nullable:
        return None
    try:
        value = float(text)
    except (TypeError, ValueError):  # a blank or non-numeric cell
        value = math.nan
    if not math.isfinite(value):
        raise MalformedCsv(f"{path} row {row_id!r} {column!r} cell {text!r} is not a finite number")
    return value


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
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
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
    _require_out_dir(args.out, "--out")

    def write(cases):
        if args.format == "json":
            columns = tuple(f.name for f in fields(CaseMetrics))
        else:
            columns = CASE_CSV_COLUMNS[1:]
        rows = [(cid, *(getattr(c, col) for col in columns)) for cid, c in sorted(cases.items())]
        _write_table(args.out, ("case_id", *columns), rows, args.format)

    if args.jobs > 1:
        # the workers fork from this process: one import here serves them all
        import scipy.ndimage  # noqa: F401
    return _run_paired("case", _evaluate_one, preds, truths, args.jobs, write)


# --- rank --------------------------------------------------------------------


def _read_attributes(path: Path) -> dict[str, dict[str, str]]:
    return {
        row["team_id"]: {k: v for k, v in row.items() if k != "team_id"}
        for row in _read_rows(path, "team_id")
    }


def cmd_rank(args) -> int:
    # every input is read and checked before the output directory exists
    out_dir = _require_dir_or_new(args.out_dir, "--out-dir")
    if args.summary:
        # every cell may be blank, and a column left out reads as blank
        path = _require_file(args.summary, "summary")
        rows = [
            {"team_id": row["team_id"]}
            | {c: _number(path, row["team_id"], c, row.get(c), True) for c in LEADERBOARD_COLUMNS[1:]}
            for row in _read_rows(path, "team_id")
        ]
        board = leaderboard_from_summary(rows)
        return _write_rank(out_dir, "published-summary ingest", board)

    if not args.metrics:
        raise SystemExit(_fail("rank needs --metrics files or --summary"))
    stems = [Path(p).stem for p in args.metrics]
    for i, team_id in enumerate(stems):
        if team_id in stems[:i]:
            first = args.metrics[stems.index(team_id)]
            return _fail(f"team id {team_id!r} names two metrics files: {first!r} and {args.metrics[i]!r}")
    attr_map: dict[str, dict[str, str]] = {}
    if args.attributes:
        attr_map = _read_attributes(_require_file(args.attributes, "attributes"))

    teams = []
    for metrics_path in args.metrics:
        path = _require_file(metrics_path, "metrics file")
        rows = read_case_csv(path, LEADERBOARD_METRICS)
        teams.append(TeamResult(path.stem, rows, attr_map.get(path.stem, {})))
    board = build_leaderboard(teams)

    quality_corr = None
    if args.quality:
        quality_rows = _read_quality_csv(_require_file(args.quality, "quality csv"))
        quality_corr = _quality_dice_correlation(teams, quality_rows)

    comparisons = []
    attribute_names = sorted({name for attrs in attr_map.values() for name in attrs})
    for attribute in attribute_names:
        try:
            comp = compare_groups(teams, attribute)
        except DegeneratePartition:
            continue
        comparisons.append(
            {
                "attribute": comp.attribute,
                "metric": "dice",
                "groups": {
                    value: {"teams": n, "mean": mean} for value, (n, mean) in comp.groups.items()
                },
                "p_value": comp.p_value,
            }
        )

    return _write_rank(
        out_dir,
        "per-case metrics",
        board,
        group_comparisons=comparisons,
        quality_correlation=quality_corr,
    )


def _write_rank(out_dir: Path, source: str, board, **sections) -> int:
    """Create ``out_dir`` and write leaderboard.csv and report.json into it:
    run metadata, the ranked leaderboard rows ``board``, then ``sections``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for row in board:
        stats = [s for m in LEADERBOARD_METRICS for s in (row.means[m], row.stds[m])]
        rows.append((row.team_id, *stats, row.p_value))
    _write_table(out_dir / "leaderboard.csv", LEADERBOARD_COLUMNS, rows, "csv")
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
        for rank, row in enumerate(board, start=1)
    ]
    report = {"metadata": metadata, "leaderboard": leaderboard, **sections}
    _write_json(out_dir / "report.json", report)
    return 0


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
    except LabenchError:
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
    _require_out_dir(args.out, "--out")

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
    from . import preprocess

    if args.mask_out and not args.mask:
        return _fail("--mask-out needs --mask")
    if args.mask and args.downsample:
        return _fail("--downsample cannot resample a --mask; leave one of them out")
    factor = _parse_ints(args.downsample, 3, "--downsample") if args.downsample else None
    try:
        tx, ty, clip = args.clahe.split(",") if args.clahe else (0, 0, 0)
        clahe = (int(tx), int(ty)), float(clip)
    except ValueError:
        return _fail(f"--clahe needs tiles and a clip limit, e.g. 8,8,3.0, got {args.clahe!r}")
    _require_out_dir(args.out, "--out")
    if args.mask_out:
        _require_out_dir(args.mask_out, "--mask-out")
    volume = read_nrrd(_require_file(args.input, "input volume"), as_mask=False)
    mask = None
    if args.mask:
        mask = read_nrrd(_require_file(args.mask, "mask"), as_mask=True)
        check_same_geometry(volume, mask)

    if factor:
        volume = downsample(volume, factor)
    if args.normalize:
        volume = preprocess.normalize_intensity(volume)
    if args.clahe:
        volume = preprocess.clahe_slicewise(volume, *clahe)
    if args.augment:
        if mask is None:
            raise SystemExit(_fail("--augment needs --mask (transforms apply to both)"))
        specs = preprocess.load_augmentation_specs(_require_file(args.augment, "augment config"))
        volume, mask = preprocess.augment(volume, mask, specs, args.seed)

    write_nrrd(volume, args.out, encoding=args.encoding)
    if mask is not None and args.mask_out:
        write_nrrd(mask, args.mask_out, encoding=args.encoding)
    return 0


# --- postprocess ----------------------------------------------------------------


# the most ':'-separated values each postprocess operator reads after its name
_OP_VALUES = {"largest": 1, "dilate": 2, "erode": 2, "close": 2, "open": 2, "smooth": 1}


def _parse_op(text: str):
    from . import postprocess

    name, *values = text.split(":")
    if name not in _OP_VALUES:
        raise SystemExit(_fail(f"unknown postprocess op {text!r}"))
    try:
        most = _OP_VALUES[name]
        if len(values) > most:
            raise ValueError(f"got {len(values)} values after {name!r}, which reads at most {most}")
        if name == "largest":
            connectivity = int(values[0]) if values else 26
            if connectivity not in (6, 26):
                raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
            return lambda m: postprocess.largest_component(m, connectivity)
        if name in ("dilate", "erode", "close", "open"):
            kind = values[0] if values else "cross"
            radius = int(values[1]) if len(values) > 1 else 1
            se = postprocess.StructuringElement(kind, radius)
            fn = {
                "dilate": postprocess.dilate,
                "erode": postprocess.erode,
                "close": postprocess.close_mask,
                "open": postprocess.open_mask,
            }[name]
            return lambda m: fn(m, se)
        # smooth
        iterations = int(values[0]) if values else 1
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        return lambda m: postprocess.smooth_surface(m, iterations)
    except ValueError as exc:
        raise SystemExit(_fail(f"--ops entry {text!r}: {exc}"))


def cmd_postprocess(args) -> int:
    ops = [_parse_op(text) for text in args.ops]
    _require_out_dir(args.out, "--out")
    mask = read_nrrd(_require_file(args.input, "input mask"), as_mask=True)
    for op in ops:
        mask = op(mask)
    write_nrrd(mask, args.out, encoding=args.encoding)
    return 0


# --- pipeline --------------------------------------------------------------------


def _build_segmenter(args, scan, truth):
    """The segmenter that ``--segmenter`` names; the options it needs were
    checked before any input was read."""
    from . import pipeline

    if args.segmenter == "oracle":
        return pipeline.MaskSegmenter(truth)
    if args.segmenter == "external":
        prediction = read_nrrd(_require_file(args.prediction, "external prediction"), as_mask=True)
        check_same_geometry(scan, prediction)
        return pipeline.MaskSegmenter(prediction)
    return pipeline.ThresholdSegmenter()


def _center(args, scan, truth):
    """The crop center that ``--localizer`` names."""
    from . import pipeline

    if args.localizer == "oracle":
        return pipeline.localize_oracle(truth)
    if args.localizer == "fixed":
        return tuple(n // 2 for n in scan.dims)
    return pipeline.localize_threshold(scan, args.downsample_factor)


def cmd_pipeline(args) -> int:
    from . import pipeline

    roi = _parse_ints(args.roi, 3, "--roi")
    _require_positive(args.downsample_factor, "--downsample-factor")
    for option, choice in (("--localizer", args.localizer), ("--segmenter", args.segmenter)):
        if choice == "oracle" and not args.truth:
            return _fail(f"{option} oracle needs --truth")
    if args.segmenter == "external" and not args.prediction:
        return _fail("--segmenter external needs --prediction")
    if args.prediction and args.segmenter != "external":
        return _fail(f"--prediction is read only by --segmenter external, got --segmenter {args.segmenter}")
    _require_out_dir(args.out, "--out")
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True) if args.truth else None
    if truth is not None:
        check_same_geometry(scan, truth)
    segmenter = _build_segmenter(args, scan, truth)
    predicted = pipeline.run_pipeline(scan, _center(args, scan, truth), segmenter, roi)
    write_nrrd(predicted, args.out, encoding=args.encoding)
    if truth is not None:
        sys.stderr.write(f"labench: dice vs truth: {dice(predicted, truth):.6g}\n")
    return 0


# --- experiment --------------------------------------------------------------------


def cmd_experiment_offset(args) -> int:
    from . import pipeline

    offsets = _parse_floats(args.offsets, "--offsets", minimum=0.0)
    roi = _parse_ints(args.roi, 3, "--roi")
    _require_out_dir(args.out, "--out")
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    segmenter = _build_segmenter(args, scan, truth)
    curve = pipeline.offset_sweep(scan, truth, segmenter, roi, offsets, axis=args.axis)
    _write_table(args.out, ("offset_pct", "dice"), curve, args.format)
    return 0


def cmd_experiment_patch_size(args) -> int:
    from . import pipeline

    sizes = [_parse_ints(s, 2, "--sizes entry") for s in args.sizes.split(",")]
    _require_positive(args.z_extent, "--z-extent")
    _require_out_dir(args.out, "--out")
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    rows = pipeline.patch_size_sweep(truth, sizes, z_extent=args.z_extent)
    _write_table(
        args.out,
        ("size_x", "size_y", "background_pct", "containment_pct"),
        rows,
        args.format,
    )
    return 0


# --- synth -------------------------------------------------------------------------


def _synth_one(task):
    from . import phantom

    base, i, tier, seed, out_dir, encoding, digits = task
    volume, mask = phantom.cohort_member(base, seed + i, tier)
    case_id = f"case_{i:0{digits}d}"
    write_nrrd(volume, Path(out_dir) / f"{case_id}.nrrd", encoding=encoding)
    write_nrrd(mask, Path(out_dir) / f"{case_id}_label.nrrd", encoding=encoding)
    return case_id, tier, seed + i


def cmd_synth(args) -> int:
    from . import phantom

    dims = _parse_ints(args.dims, 3, "--dims")
    spacing = _parse_floats(args.spacing, "--spacing")
    if len(spacing) == 1:
        spacing = spacing * 3
    if len(spacing) != 3:
        raise SystemExit(_fail(f"--spacing needs 1 or 3 comma-separated numbers, got {args.spacing!r}"))
    spacing = checked_spacing(spacing)
    fractions = _parse_floats(args.tier_fractions, "--tier-fractions")
    base = phantom.default_phantom_spec(dims=dims, spacing=spacing)

    tiers = phantom.cohort_tiers(args.count, fractions)
    out_dir = _require_dir_or_new(args.out_dir, "--out-dir")
    phantom.check_cohort(base, args.count, seed=args.seed)
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
    roi_default = ",".join(map(str, DEFAULT_ROI_SIZE))
    roi_help = f"ROI size in voxels; the default {roi_default} covers 150x100x60 mm at 0.625 mm"

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
    p.add_argument(
        "--margin", type=int, default=DEFAULT_MARGIN, help="foreground dilation margin (voxels)"
    )
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
    _add_options(p, "seed", "encoding")
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
    _add_options(p, "encoding")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("pipeline", help="run localize-crop-segment-pad on one scan")
    p.add_argument("--scan", required=True)
    p.add_argument("--truth", help="truth mask (oracle components, dice report)")
    p.add_argument("--localizer", choices=("threshold", "oracle", "fixed"), default="threshold")
    p.add_argument("--segmenter", choices=("threshold", "oracle", "external"), default="threshold")
    p.add_argument("--prediction", help="the scan's mask that --segmenter external reads (.nrrd)")
    p.add_argument("--roi", default=roi_default, help=roi_help)
    p.add_argument("--downsample-factor", type=int, default=4)
    p.add_argument("--out", required=True, help="output mask (.nrrd)")
    _add_options(p, "encoding")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("experiment", help="pipeline geometry sweeps")
    exp_sub = p.add_subparsers(dest="experiment")

    pe = exp_sub.add_parser("offset", help="dice vs crop-center displacement")
    pe.add_argument("--scan", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--segmenter", choices=("oracle", "threshold"), default="oracle")
    pe.add_argument("--offsets", default="0,25,50,75,100,125,150", help="percent offsets")
    pe.add_argument("--axis", choices=("x", "y", "z"), default="x")
    pe.add_argument("--roi", default=roi_default, help=roi_help)
    pe.add_argument("--out", required=True)
    _add_options(pe, "format")
    pe.set_defaults(func=cmd_experiment_offset)

    pp = exp_sub.add_parser("patch-size", help="background share vs patch size")
    pp.add_argument("--truth", required=True)
    pp.add_argument("--sizes", default="400x400,360x360,320x320,280x280,240x160")
    pp.add_argument("--z-extent", type=int, default=DEFAULT_ROI_SIZE[2])
    pp.add_argument("--out", required=True)
    _add_options(pp, "format")
    pp.set_defaults(func=cmd_experiment_patch_size)

    p = sub.add_parser("synth", help="write a synthetic phantom cohort")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dims", default="576,576,88")
    p.add_argument("--spacing", default="0.625")
    p.add_argument("--tier-fractions", default="0.15,0.70,0.15")
    _add_options(p, "seed", "jobs", "encoding")
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


def run() -> None:
    """The ``labench`` executable: :func:`main` on ``sys.argv``, then end
    the process at once with its exit code (see "Process exit" above)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
