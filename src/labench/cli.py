"""Command-line interface.

One executable, eight subcommands: evaluate, rank, quality, preprocess,
postprocess, pipeline, experiment {offset|patch-size}, synth. Exit codes:
0 success, 1 usage or input error, 2 partial failure (some cases failed
or were unpaired; the rest were processed and written).

A subcommand takes only the shared options it reads: ``--jobs`` (worker
processes; ``LABENCH_JOBS``, an integer >= 1, is the default and is
checked only when ``--jobs`` is not given) on evaluate, quality and
synth; ``--format csv|json`` on evaluate, quality and both experiments;
``--seed`` on preprocess (augmentation) and synth; ``--encoding raw|gzip``
(NRRD payload of written files) on preprocess, postprocess, pipeline and
synth.

Checks run in this order, and the first that fails ends the run: each
option value, by its argparse ``type`` in ``parse_args``; the rules that
join options (:data:`_RULES`); the input and output paths; then the
reads. Every failure, argparse's usage errors included, is one line
``labench: error: <message>`` on stderr with exit code 1. An input that
the library rejects raises a :class:`LabenchError`, which :func:`main`
prints as ``<Type>: <message>``; any other exception, a bare
``ValueError`` included, is a bug and escapes with its traceback. Per
case, evaluate and quality keep the same rule: a LabenchError is a ``failed
case`` or ``failed scan`` line and exit 2; any other exception escapes,
from a ``--jobs`` pool too.

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
command's time. At module level this module imports only ``errors`` and
``stats``, so ``rank``, which reads and writes only CSV and JSON, loads
no numpy. Every numpy-backed name is imported inside the function that
uses it, scipy inside the functions that call it, and
``concurrent.futures`` only when a ``--jobs`` pool starts. The commands
reach four library functions through functions of this module with the
same names and parameters (:func:`read_nrrd`, :func:`write_nrrd`,
:func:`evaluate_case`, :func:`assess_quality`), each of which imports
its library function when called. They are here for the tracer in
``perfbench/launch.py``, which wraps them by name on this module, and
they go with the name swapping when it records spans instead.

``synth``, ``quality`` and ``rank`` load no scipy at all. The others
load ``scipy.ndimage`` only where it does real work: ``evaluate`` in a
process that measures many surface voxels far from the other surface
with its feature transform; ``preprocess`` for its affine and elastic
augmentations; ``postprocess`` for dilation, erosion, opening and
closing, and for ``largest`` on a box it cannot prove one component
(speckle, or an island inside another's box), so ``largest`` and
``smooth`` on a compact mask load none; ``pipeline`` always, since its
threshold segmenter closes with scipy.

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

from . import DEFAULT_MARGIN, DEFAULT_ROI_SIZE
from .errors import DegeneratePartition, LabenchError, MalformedCsv
from .stats import (
    LEADERBOARD_METRICS,
    TeamResult,
    build_leaderboard,
    compare_groups,
    correlate,
    leaderboard_from_summary,
)


# the library functions the commands call, looked up here by the tracer (see "Imports")
def read_nrrd(path, as_mask: bool):
    from . import nrrd_io

    return nrrd_io.read_nrrd(path, as_mask)


def write_nrrd(grid, path, encoding: str = "raw") -> None:
    from . import nrrd_io

    nrrd_io.write_nrrd(grid, path, encoding)


def evaluate_case(pred, truth):
    from . import metrics

    return metrics.evaluate_case(pred, truth)


def assess_quality(scan, la, margin: int = DEFAULT_MARGIN):
    from . import quality

    return quality.assess_quality(scan, la, margin)


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
    # usage problems exit 1 (argparse defaults to 2, which we reserve for
    # partial failures) with the one error line of every other failure
    def error(self, message):
        raise SystemExit(_fail(message))


def _add_options(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared options named (seed, format, jobs, encoding) that a subcommand reads."""
    specs = {
        "seed": dict(type=_non_negative, default=0, help="global random seed"),
        "format": dict(choices=("csv", "json"), default="csv", help="tabular output format"),
        "encoding": dict(choices=("raw", "gzip"), default="raw", help="NRRD payload encoding"),
        "jobs": dict(
            type=_positive,
            default=os.environ.get("LABENCH_JOBS", "1"),
            help="worker processes (env LABENCH_JOBS)",
        ),
    }
    for name in names:
        parser.add_argument(f"--{name}", **specs[name])


# --- option values: each converter raises the ArgumentTypeError that argparse
# reports as "argument --name: <message>"


def _type(what: str):
    """Make ``parse`` an argparse type: its ValueError or LabenchError
    becomes an error that names ``what`` the option needs and the text."""

    def wrap(parse):
        def convert(text: str):
            try:
                return parse(text)
            except (ValueError, LabenchError):
                raise argparse.ArgumentTypeError(f"needs {what}, got {text!r}") from None

        return convert

    return wrap


def _numbers(text: str, kind, minimum, counts=None) -> tuple:
    """The comma-separated numbers of ``text`` (integers also split on x, as
    in 24x24); ValueError unless each is a finite ``kind`` >= ``minimum`` and
    their count is one of ``counts``."""
    values = tuple(kind(p) for p in (text.replace("x", ",") if kind is int else text).split(","))
    # the comparisons reject nan and inf, and never turn a large int into a float
    if (counts and len(values) not in counts) or not all(minimum <= v < math.inf for v in values):
        raise ValueError(text)
    return values


_triple = _type("3 integers >= 1")(lambda text: _numbers(text, int, 1, (3,)))
_positive = _type("an integer >= 1")(lambda text: _numbers(text, int, 1, (1,))[0])
_non_negative = _type("an integer >= 0")(lambda text: _numbers(text, int, 0, (1,))[0])
_offsets = _type("finite numbers >= 0")(lambda text: _numbers(text, float, 0.0))
_sizes = _type("XxY sizes >= 1")(lambda text: [_numbers(entry, int, 1, (2,)) for entry in text.split(",")])


@_type("1 or 3 numbers > 0")
def _spacing(text: str) -> tuple[float, float, float]:
    from .grids import checked_spacing

    values = _numbers(text, float, -math.inf, (1, 3))
    return checked_spacing(values * (3 // len(values)))


@_type("3 numbers >= 0 summing to 1")
def _tier_fractions(text: str) -> tuple[float, ...]:
    values = _numbers(text, float, 0.0, (3,))
    if abs(sum(values) - 1.0) > 1e-9:  # phantom.tier_counts's tolerance
        raise ValueError(text)
    return values


@_type("tiles >= 1 and a finite clip limit > 1, e.g. 8,8,3.0")
def _clahe(text: str) -> tuple[tuple[int, ...], float]:
    tx, ty, clip = text.split(",")
    tiles, clip_limit = _numbers(f"{tx},{ty}", int, 1, (2,)), float(clip)
    if not (math.isfinite(clip_limit) and clip_limit > 1.0):
        raise ValueError(text)
    return tiles, clip_limit


# --- option rules: per command, (broken(args), message) pairs for the options
# that go together, checked after parsing and before any path or input

_RULES = {
    "rank": (
        (lambda a: not (a.metrics or a.summary), "rank needs --metrics files or --summary"),
        (lambda a: a.summary and (a.metrics or a.attributes or a.quality),
         "--summary excludes --metrics, --attributes and --quality"),
    ),
    "preprocess": (
        (lambda a: a.mask_out and not a.mask, "--mask-out needs --mask"),
        (lambda a: a.augment and not a.mask, "--augment needs --mask (transforms apply to both)"),
        (lambda a: a.mask and a.downsample, "--downsample cannot resample a --mask; leave one of them out"),
    ),
    "pipeline": (
        (lambda a: a.localizer == "oracle" and not a.truth, "--localizer oracle needs --truth"),
        (lambda a: a.segmenter == "oracle" and not a.truth, "--segmenter oracle needs --truth"),
        (lambda a: a.segmenter == "external" and not a.prediction, "--segmenter external needs --prediction"),
        (lambda a: a.prediction and a.segmenter != "external",
         "--prediction is read only by --segmenter external, got --segmenter {segmenter}"),
    ),
}


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
    the file if it is not UTF-8 CSV text, naming the file and the column if
    ``key`` or one of ``columns`` is missing, or naming the file and the id
    if two rows share a ``key`` value."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for column in (key, *columns):
                if column not in (reader.fieldnames or ()):
                    raise MalformedCsv(f"{path} has no {column!r} column")
            rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedCsv(f"{path} is not UTF-8 CSV text: {exc}") from None
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
    """Run one paired task; a LabenchError becomes its ``Type: message`` text."""
    try:
        return task[0], worker(task), None
    except LabenchError as exc:  # an input the library rejects: report it, keep going
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
        from .metrics import CaseMetrics

        if args.format == "json":
            columns = tuple(f.name for f in fields(CaseMetrics))
        else:
            columns = CASE_CSV_COLUMNS[1:]
        rows = [(cid, *(getattr(c, col) for col in columns)) for cid, c in sorted(cases.items())]
        _write_table(args.out, ("case_id", *columns), rows, args.format)

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
    scans = _index_dir(_require_dir(args.scans, "scan directory"), labels=False)
    masks = _index_dir(_require_dir(args.masks, "mask directory"))
    _require_out_dir(args.out, "--out")

    def write(reports):
        from .quality import quality_distribution

        rows = [(sid, r.snr, r.cr, r.het, r.band) for sid, r in sorted(reports.items())]
        _write_table(args.out, ("scan_id", "snr", "cr", "het", "band"), rows, args.format)
        if reports:
            dist = quality_distribution(reports.values()).items()
            summary = ", ".join(f"{band}: {cnt} ({frac:.0%})" for band, (cnt, frac) in dist)
            sys.stderr.write(f"labench: band distribution: {summary}\n")

    return _run_paired("scan", _quality_one, scans, masks, args.jobs, write, args.margin)


# --- preprocess -----------------------------------------------------------------


def cmd_preprocess(args) -> int:
    from . import grids, preprocess

    _require_out_dir(args.out, "--out")
    if args.mask_out:
        _require_out_dir(args.mask_out, "--mask-out")
    augment = _require_file(args.augment, "augment config") if args.augment else None
    volume = read_nrrd(_require_file(args.input, "input volume"), as_mask=False)
    mask = None
    if args.mask:
        mask = read_nrrd(_require_file(args.mask, "mask"), as_mask=True)
        grids.check_same_geometry(volume, mask)

    if args.downsample:
        volume = grids.downsample(volume, args.downsample)
    if args.normalize:
        volume = preprocess.normalize_intensity(volume)
    if args.clahe:
        volume = preprocess.clahe_slicewise(volume, *args.clahe)
    if augment:
        specs = preprocess.load_augmentation_specs(augment)
        volume, mask = preprocess.augment(volume, mask, specs, args.seed)

    write_nrrd(volume, args.out, encoding=args.encoding)
    if args.mask_out:  # which needs --mask
        write_nrrd(mask, args.mask_out, encoding=args.encoding)
    return 0


# --- postprocess ----------------------------------------------------------------


# each postprocess operator: its function in postprocess, and the defaults
# of the ':'-separated values it reads after its name
_OPS = {
    "largest": ("largest_component", (26,)),
    "smooth": ("smooth_surface", (1,)),
    "dilate": ("dilate", ("cross", 1)),
    "erode": ("erode", ("cross", 1)),
    "close": ("close_mask", ("cross", 1)),
    "open": ("open_mask", ("cross", 1)),
}


def _op(text: str):
    """One ``--ops`` entry as the mask operator it names."""
    from . import postprocess

    name, *values = text.split(":")
    if name not in _OPS:
        raise argparse.ArgumentTypeError(f"unknown operator {text!r}")
    fn, defaults = _OPS[name]
    try:
        if len(values) > len(defaults):
            raise ValueError(f"got {len(values)} values after {name!r}, which reads at most {len(defaults)}")
        params = [type(d)(v) for d, v in zip(defaults, values)] + list(defaults[len(values) :])
        if name == "largest" and params[0] not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {params[0]}")
        if name == "smooth" and params[0] < 1:
            raise ValueError(f"iterations must be >= 1, got {params[0]}")
        if name not in ("largest", "smooth"):
            params = [postprocess.StructuringElement(*params)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"entry {text!r}: {exc}") from None
    return lambda m: getattr(postprocess, fn)(m, *params)


def cmd_postprocess(args) -> int:
    _require_out_dir(args.out, "--out")
    mask = read_nrrd(_require_file(args.input, "input mask"), as_mask=True)
    for op in args.ops:
        mask = op(mask)
    write_nrrd(mask, args.out, encoding=args.encoding)
    return 0


# --- pipeline --------------------------------------------------------------------


def _build_segmenter(args, scan, truth):
    """The segmenter that ``--segmenter`` names; the options it needs were
    checked before any input was read."""
    from . import pipeline
    from .grids import check_same_geometry

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
    from .grids import check_same_geometry
    from .metrics import dice

    _require_out_dir(args.out, "--out")
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True) if args.truth else None
    if truth is not None:
        check_same_geometry(scan, truth)
    segmenter = _build_segmenter(args, scan, truth)
    predicted = pipeline.run_pipeline(scan, _center(args, scan, truth), segmenter, args.roi)
    write_nrrd(predicted, args.out, encoding=args.encoding)
    if truth is not None:
        sys.stderr.write(f"labench: dice vs truth: {dice(predicted, truth):.6g}\n")
    return 0


# --- experiment --------------------------------------------------------------------


def cmd_experiment_offset(args) -> int:
    from . import pipeline

    _require_out_dir(args.out, "--out")
    scan = read_nrrd(_require_file(args.scan, "scan"), as_mask=False)
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    segmenter = _build_segmenter(args, scan, truth)
    curve = pipeline.offset_sweep(scan, truth, segmenter, args.roi, args.offsets, axis=args.axis)
    _write_table(args.out, ("offset_pct", "dice"), curve, args.format)
    return 0


def cmd_experiment_patch_size(args) -> int:
    from . import pipeline

    _require_out_dir(args.out, "--out")
    truth = read_nrrd(_require_file(args.truth, "truth"), as_mask=True)
    rows = pipeline.patch_size_sweep(truth, args.sizes, z_extent=args.z_extent)
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

    out_dir = _require_dir_or_new(args.out_dir, "--out-dir")
    base = phantom.default_phantom_spec(dims=args.dims, spacing=args.spacing)
    tiers = phantom.cohort_tiers(args.count, args.tier_fractions)
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
    sub = parser.add_subparsers(dest="command", required=True)
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
        "--margin", type=_non_negative, default=DEFAULT_MARGIN, help="foreground dilation margin (voxels)"
    )
    _add_options(p, "format", "jobs")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("preprocess", help="downsample / normalize / CLAHE / augment a volume")
    p.add_argument("input", help="input volume (.nrrd)")
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", type=_triple, help="per-axis integer factors, e.g. 2,2,1")
    p.add_argument("--normalize", action="store_true", help="rescale intensities to [0,1]")
    p.add_argument("--clahe", type=_clahe, help="tiles and clip limit, e.g. 8,8,3.0")
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
        type=_op,
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
    p.add_argument("--roi", type=_triple, default=roi_default, help=roi_help)
    p.add_argument("--downsample-factor", type=_positive, default=4)
    p.add_argument("--out", required=True, help="output mask (.nrrd)")
    _add_options(p, "encoding")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("experiment", help="pipeline geometry sweeps")
    exp_sub = p.add_subparsers(dest="experiment", required=True)

    pe = exp_sub.add_parser("offset", help="dice vs crop-center displacement")
    pe.add_argument("--scan", required=True)
    pe.add_argument("--truth", required=True)
    pe.add_argument("--segmenter", choices=("oracle", "threshold"), default="oracle")
    pe.add_argument(
        "--offsets", type=_offsets, default="0,25,50,75,100,125,150", help="percent offsets"
    )
    pe.add_argument("--axis", choices=("x", "y", "z"), default="x")
    pe.add_argument("--roi", type=_triple, default=roi_default, help=roi_help)
    pe.add_argument("--out", required=True)
    _add_options(pe, "format")
    pe.set_defaults(func=cmd_experiment_offset)

    pp = exp_sub.add_parser("patch-size", help="background share vs patch size")
    pp.add_argument("--truth", required=True)
    pp.add_argument("--sizes", type=_sizes, default="400x400,360x360,320x320,280x280,240x160")
    pp.add_argument("--z-extent", type=_positive, default=DEFAULT_ROI_SIZE[2])
    pp.add_argument("--out", required=True)
    _add_options(pp, "format")
    pp.set_defaults(func=cmd_experiment_patch_size)

    p = sub.add_parser("synth", help="write a synthetic phantom cohort")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=_positive, default=1)
    p.add_argument("--dims", type=_triple, default="576,576,88")
    p.add_argument("--spacing", type=_spacing, default="0.625")
    p.add_argument("--tier-fractions", type=_tier_fractions, default="0.15,0.70,0.15")
    _add_options(p, "seed", "jobs", "encoding")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for broken, message in _RULES.get(args.command, ()):
        if broken(args):
            return _fail(message.format_map(vars(args)))
    try:
        return args.func(args)
    except LabenchError as exc:  # an input the library rejects; anything else is a bug
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
