"""Benchmark of the ``labench`` command line on challenge-geometry phantoms.

usage: python3 perfbench/run.py --workload {score,cleanup} --seed N
                                --seconds S --trace {0,1}

Run it from the root of a source checkout. Each CLI call is a separate
``python3 -m labench.cli`` process with ``PYTHONPATH=src``, run one at a
time; its wall time and peak RSS (``os.wait4``, which includes its pool
workers) are recorded. In an untraced run each measured call, and each
set-up, is bracketed by a fixed reference process, and throughput and
set-up time are reported relative to it, which cancels the host's speed
drift. Inputs are generated from ``--seed`` in set-up:
a three-case cohort written by ``labench synth`` (one case per quality
tier) and prediction teams derived from the truths with numpy. The
benchmark refuses inputs that lost the property their workload needs,
then repeats ``--jobs 1`` rounds over the cohort for about ``--seconds``,
on ``score`` with one ``--jobs 2`` pass after the first full pass, checks the
outputs against references computed without ``labench``, and prints one
JSON result as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs every measured call twice,
untraced and then through ``perfbench/launch.py``, and reports per-layer
self times. Scratch files live under ``.perfbench/`` in the checkout; a JSON
record of each run, with provenance and spans, stays in
``.perfbench/results/``.

See perfbench/README.md for why each workload exists and what each
metric means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402  (benchmark-local module)

ROOT = HERE.parent

TIERS = ("high", "medium", "low")
TIER_FRACTIONS = "0.34,0.33,0.33"  # one case per tier for a three-case cohort
CASES = 3
CALL_TIMEOUT_S = 120.0
FG_SHARE_MAX = 0.01
SMALL_BOX_MAX = 0.25
STRAY_BOX_MIN = 0.5
# physical ROI and localizer block of the pipeline defaults (240,160,96 voxels
# and factor 4 at 0.625 mm), kept in mm when the grid is coarser
ROI_MM = (150.0, 100.0, 60.0)
LOCALIZER_BLOCK_MM = 2.5
# Fixed reference process, independent of labench: interpreter start, the
# numpy import every CLI call also pays, and a sort.
# The host's CPU speed drifts by up to 2x within seconds, so throughput is
# also reported in units of this process's wall time, measured next to each
# call; a --jobs 2 call is measured against two reference processes at once.
REFERENCE = "import numpy\nnumpy.sort(numpy.random.default_rng(0).random(200_000))\n"
# The reference's median wall time on the 2-CPU VM the benchmark was tuned
# on; setup_s is reported in seconds at that speed.
REFERENCE_NOMINAL_S = 0.25
# input generations per untraced run; setup_s is their median
SETUP_REPS = 3


@dataclass(frozen=True)
class Scale:
    """Grid of the generated cohort.

    The default keeps the challenge field of view (360 x 360 x 55 mm) at
    twice the challenge voxel size, 1/8 of the 576x576x88 voxels, so that
    one run, three set-ups included, takes under a minute on 2 CPUs.
    """

    dims: tuple[int, int, int] = (288, 288, 44)
    spacing: float = 1.25

    @property
    def roi(self) -> str:
        return ",".join(str(max(1, round(mm / self.spacing))) for mm in ROI_MM)

    @property
    def localizer_factor(self) -> str:
        return str(max(1, round(LOCALIZER_BLOCK_MM / self.spacing)))


class Refused(Exception):
    """A generated input lost the property its workload was chosen for."""


@dataclass
class Call:
    step: str  # command, plus the team for evaluate
    phase: str  # setup, jobs1, jobs2, traced or check
    wall_s: float
    rss_mb: float
    rc: int
    stderr: str
    spans: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # reference walls just before and after


@dataclass
class Inputs:
    dir: Path
    cohort: Path
    cases: list[str]
    tiers: dict[str, str]
    truths: dict[str, np.ndarray]
    teams: dict[str, dict[str, np.ndarray]]

    def team_dir(self, team: str) -> Path:
        return self.dir / team

    def case_dir(self, case: str, what: str) -> Path:
        """One-case directory of a team or of the truth, for per-case evaluate."""
        return self.dir / "by_case" / case / what


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_tree(directory: Path, relative_to: Path) -> dict[str, str]:
    return {
        str(p.relative_to(relative_to)): sha256_file(p)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class Run:
    """One benchmark run: its scratch directory, CLI calls and checks."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool, scale: Scale):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.scale = scale
        self.work = root / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
        self.calls: list[Call] = []
        self.pairs: list[tuple[Call, Call]] = []  # (untraced, traced) runs of one call
        self.rounds = 0
        self.pass_steps: dict[str, Counter[str]] = {}  # phase -> calls of each step in one pass
        self.setup_walls: list[float] = []
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # --jobs is the only parallelism: idle BLAS threads would spin on
        # the second CPU during import and compete with --jobs 2 workers
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("LABENCH_JOBS", None)

    # --- CLI calls -------------------------------------------------------------

    def spawn(self, cmd: list[str]) -> tuple[float, int, float, str]:
        """Run a child to completion: wall seconds, exit code, peak RSS in
        MB (its waited-for children included) and standard error."""
        with open(self.work / "stderr.txt", "w+b") as err:
            self.env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", errors="replace")
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr

    def reference(self, processes: int) -> float:
        """Wall time of ``processes`` reference processes started together."""
        start = time.perf_counter()
        procs = [
            subprocess.Popen([sys.executable, "-c", REFERENCE], env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(processes)
        ]
        codes = [proc.wait(CALL_TIMEOUT_S) for proc in procs]
        if any(codes):
            raise RuntimeError(f"reference process failed with exit codes {codes}")
        return time.perf_counter() - start

    def cli(self, argv, phase: str, tag: str = "-", case: str = "-") -> Call:
        """Run one CLI command to completion. The set-up of a traced run goes
        through the tracing launcher. A ``jobs1`` call of a traced run runs
        twice, untraced and then traced; the pair gives the tracing overhead
        and the traced call is returned, so its outputs are the ones checked."""
        argv = [str(a) for a in argv]
        if self.trace and phase == "jobs1":
            plain = self.cli(argv, "untraced", tag, case)
            traced = self.cli(argv, "traced", tag, case)
            self.pairs.append((plain, traced))
            self.check(f"traced:{traced.step}:same exit code", plain.rc == traced.rc)
            return traced
        spans_path = self.work / f"spans-{len(self.calls)}.json"
        if phase == "traced" or (phase == "setup" and self.trace):
            cmd = [sys.executable, str(HERE / "launch.py"), str(spans_path), tag, case, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "labench.cli", *argv]
        refs = []
        if phase in ("jobs1", "jobs2"):
            refs.append(self.reference(2 if phase == "jobs2" else 1))
            previous = self.calls[-1] if self.calls else None
            if previous is not None and previous.phase == phase:
                previous.refs.append(refs[0])
        wall, rc, rss_mb, stderr = self.spawn(cmd)
        step = argv[0] if tag == "-" else f"{argv[0]}:{tag}"
        call = Call(step, phase, wall, rss_mb, rc, stderr, refs=refs)
        if spans_path.exists():
            call.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        self.calls.append(call)
        return call

    def case_ops(self, call: Call, done: int, expected: int) -> None:
        """Count case operations of one call: attempted, and failed or missing."""
        self.attempted += expected
        self.failed += expected - (done if call.rc in (0, 2) else 0)

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    # --- inputs -------------------------------------------------------------------

    def synth_argv(self, out_dir: Path, jobs: int) -> list:
        dims = ",".join(str(n) for n in self.scale.dims)
        return [
            "synth", "--out-dir", out_dir, "--count", CASES, "--tier-fractions", TIER_FRACTIONS,
            "--dims", dims, "--spacing", self.scale.spacing, "--seed", self.seed, "--jobs", jobs,
        ]

    def make_inputs(self, dest: Path, teams: dict[str, str], per_case: bool) -> Inputs:
        """Synthesize the cohort, then derive and write the prediction teams
        named in ``teams`` (team -> NRRD encoding); ``per_case`` also lays
        each case's truth and teams out in one-case directories."""
        cohort = dest / "cohort"
        call = self.cli(self.synth_argv(cohort, 1), "setup")
        if call.rc != 0:
            raise RuntimeError(f"set-up synth failed: {call.stderr.strip()}")
        with open(cohort / "manifest.csv", newline="") as fh:
            tiers = {row["id"]: row["tier"] for row in csv.DictReader(fh)}
        inputs = Inputs(dest, cohort, sorted(tiers), tiers, {}, {team: {} for team in teams})
        rng = np.random.default_rng((self.seed, 0x7EA5))
        for case in inputs.cases:
            truth = oracle.read_nrrd(cohort / f"{case}_label.nrrd")
            inputs.truths[case] = truth.data.astype(bool)
            made = oracle.make_teams(inputs.truths[case], rng)
            for team, encoding in teams.items():
                inputs.team_dir(team).mkdir(exist_ok=True)
                path = inputs.team_dir(team) / f"{case}.nrrd"
                oracle.write_mask(made[team], truth.spacing, path, encoding)
                inputs.teams[team][case] = made[team]
                if per_case:
                    inputs.case_dir(case, team).mkdir(parents=True)
                    shutil.copyfile(path, inputs.case_dir(case, team) / path.name)
            if per_case:
                inputs.case_dir(case, "truth").mkdir(parents=True)
                shutil.copyfile(cohort / f"{case}_label.nrrd", inputs.case_dir(case, "truth") / f"{case}_label.nrrd")
        return inputs

    def setup(self, teams: dict[str, str], per_case: bool = False) -> tuple[Inputs, list[float], list[dict]]:
        """Generate the inputs ``SETUP_REPS`` times (once when tracing), timing
        each; the last generation is the one the workload uses. Returns the
        inputs, each generation's wall time in reference units (the mean of
        the reference runs before and after it; none when tracing) and the
        cohort's file hashes of each generation."""
        reps = 1 if self.trace else SETUP_REPS
        times, refs, cohort_hashes = [], [], []
        dest = self.work / "inputs"
        for _ in range(reps):
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            if not self.trace:
                refs.append(self.reference(1))
            start = time.perf_counter()
            inputs = self.make_inputs(dest, teams, per_case)
            times.append(time.perf_counter() - start)
            cohort_hashes.append(hash_tree(inputs.cohort, inputs.cohort))
        self.setup_walls = times
        if not self.trace:
            refs.append(self.reference(1))
            times = [t / statistics.fmean(refs[i : i + 2]) for i, t in enumerate(times)]
        self.guard(inputs)
        return inputs, times, cohort_hashes

    def guard(self, inputs: Inputs) -> None:
        if sorted(inputs.tiers.values()) != sorted(TIERS):
            raise Refused(f"cohort tiers {sorted(inputs.tiers.values())} do not cover {TIERS}")
        for case, truth in inputs.truths.items():
            if truth.mean() > FG_SHARE_MAX:
                raise Refused(f"{case}: truth foreground share {truth.mean():.4f} above 1%")
            for team, preds in inputs.teams.items():
                pred = preds[case]
                share = oracle.box_share(pred, truth)
                if team == "stray":
                    if share < STRAY_BOX_MIN:
                        raise Refused(f"{case}: stray surface box share {share:.3f} below {STRAY_BOX_MIN}")
                elif pred.mean() > FG_SHARE_MAX or share > SMALL_BOX_MAX:
                    raise Refused(
                        f"{case}: {team} foreground share {pred.mean():.4f} or surface box "
                        f"share {share:.3f} is not small"
                    )

    # --- measurement ---------------------------------------------------------------

    def measure(self, seconds: float, one_round, rounds_per_pass: int, jobs2_pass=None) -> None:
        """Run --jobs 1 rounds for about ``seconds``.

        Round ``n`` is part ``n % rounds_per_pass`` of pass
        ``n // rounds_per_pass`` and writes into ``out/<pass>``. The first
        pass always completes; an untraced run then makes the ``jobs2_pass``,
        if any, into ``out/jobs2``. No later round starts that would end
        after ``seconds``.
        """
        start, spent = time.perf_counter(), 0.0
        for n in itertools.count():
            if n >= rounds_per_pass and time.perf_counter() - start + spent / n > seconds:
                break
            began = time.perf_counter()
            one_round(self.work / "out" / str(n // rounds_per_pass), n % rounds_per_pass)
            spent += time.perf_counter() - began
            if n + 1 == rounds_per_pass:
                self.pass_steps["jobs1"] = Counter(c.step for c in self.calls if c.phase == "jobs1")
                if jobs2_pass and not self.trace:
                    jobs2_pass(self.work / "out" / "jobs2")
                    self.pass_steps["jobs2"] = Counter(c.step for c in self.calls if c.phase == "jobs2")
        self.rounds = n

    def later_rounds(self, rounds_per_pass: int) -> list[tuple[Path, int]]:
        """(output directory, part) of every round after the first pass."""
        return [(self.work / "out" / str(n // rounds_per_pass), n % rounds_per_pass)
                for n in range(rounds_per_pass, self.rounds)]

    def pass_wall(self, phase: str, per_reference: bool = False) -> float:
        """Wall time of one pass of ``phase``: the sum over its steps of the
        median call wall time, times the step's calls per pass. Medians
        keep a stalled process start from moving the result.

        ``per_reference`` first divides each call's wall time by the mean
        of the reference runs just before and after it (after only when the
        next call is of the same phase), which cancels the host's speed
        drift; the result is in
        reference times, not seconds.
        """
        walls: dict[str, list[float]] = {}
        for call in self.calls:
            if call.phase == phase:
                wall = call.wall_s
                if per_reference:
                    wall /= statistics.fmean(call.refs)
                walls.setdefault(call.step, []).append(wall)
        return sum(statistics.median(walls[step]) * k for step, k in self.pass_steps[phase].items())


# --- workloads ---------------------------------------------------------------------


def read_rows(path: Path, key: str) -> dict[str, dict[str, str]]:
    if not path.is_file():
        return {}
    with open(path, newline="") as fh:
        return {row[key]: row for row in csv.DictReader(fh)}


def check_case_rows(run: Run, label: str, rows: dict, preds: dict, inputs: Inputs) -> None:
    spacing = (run.scale.spacing,) * 3
    for case in inputs.cases:
        row = rows.get(case)
        if row is None:
            run.check(f"{label}:{case}:present", False)
            continue
        want = oracle.case_metrics(preds[case], inputs.truths[case], spacing)
        bad = [col for col, value in want.items() if not oracle.same_at_6_digits(row[col], value)]
        run.check(f"{label}:{case}:{','.join(bad) or 'ok'}", not bad)


def digest(path: Path):
    if path.is_dir():
        return hash_tree(path, path)
    return sha256_file(path) if path.is_file() else None


def check_same_bytes(run: Run, label: str, first: Path, second: Path) -> None:
    want = digest(first)
    run.check(label, want is not None and want == digest(second))


def check_quality(run: Run, path: Path, inputs: Inputs, own: dict[str, dict]) -> None:
    rows = read_rows(path, "scan_id")
    for case in inputs.cases:
        want, row = own[case], rows.get(case)
        ok = (
            row is not None
            and row["band"] == inputs.tiers[case] == want["band"]
            and all(oracle.same_at_6_digits(row[k], want[k]) for k in ("snr", "cr", "het"))
        )
        run.check(f"quality:{case}", ok)


def check_cohort(run: Run, inputs: Inputs, cohort_hashes: list[dict]) -> tuple[dict, dict]:
    """Check what ``synth`` wrote in set-up; return the scans and our own
    quality figures for them."""
    for i, hashes in enumerate(cohort_hashes[1:], start=1):
        run.check(f"synth:setup{i}:bytes", hashes == cohort_hashes[0])
    run.check("synth:manifest tiers", [inputs.tiers[c] for c in inputs.cases] == list(TIERS))
    scans, own = {}, {}
    for case in inputs.cases:
        grid = oracle.read_nrrd(inputs.cohort / f"{case}.nrrd")
        scans[case] = grid.data
        own[case] = oracle.quality(grid.data, inputs.truths[case])
        run.check(f"synth:{case}:band", own[case]["band"] == inputs.tiers[case])
        run.check(
            f"synth:{case}:geometry",
            grid.data.shape == run.scale.dims and grid.spacing == (run.scale.spacing,) * 3
            and grid.data.dtype == np.float32 and bool(np.isfinite(grid.data).all()),
        )
    return scans, own


def workload_score(run: Run, seconds: float) -> dict:
    inputs, setup_times, cohort_hashes = run.setup({"tight": "raw", "loose": "raw"})
    n = len(inputs.cases)

    def evaluate(team, out, phase, jobs):
        call = run.cli(
            ["evaluate", inputs.team_dir(team), inputs.cohort, "--out", out / f"{team}.csv", "--jobs", jobs],
            phase, tag=team,
        )
        run.case_ops(call, len(read_rows(out / f"{team}.csv", "case_id")), n)

    def quality(out, phase, jobs):
        call = run.cli(
            ["quality", "--scans", inputs.cohort, "--masks", inputs.cohort, "--out", out / "quality.csv",
             "--jobs", jobs],
            phase,
        )
        run.case_ops(call, len(read_rows(out / "quality.csv", "scan_id")), n)

    def one_pass(out: Path, _part: int) -> None:
        out.mkdir(parents=True)
        evaluate("tight", out, "jobs1", 1)
        evaluate("loose", out, "jobs1", 1)
        quality(out, "jobs1", 1)
        call = run.cli(
            ["rank", "--metrics", out / "tight.csv", out / "loose.csv", "--quality", out / "quality.csv",
             "--out-dir", out / "rank"],
            "jobs1",
        )
        teams = read_rows(out / "rank" / "leaderboard.csv", "team_id")
        run.case_ops(call, 1 if len(teams) == 2 else 0, 1)

    def jobs2_pass(out: Path) -> None:
        out.mkdir(parents=True)
        evaluate("tight", out, "jobs2", 2)
        evaluate("loose", out, "jobs2", 2)
        quality(out, "jobs2", 2)

    run.measure(seconds, one_pass, 1, jobs2_pass)

    # checks, outside the timed region
    first, jobs2 = run.work / "out" / "0", run.work / "out" / "jobs2"
    for team in ("tight", "loose"):
        check_case_rows(run, team, read_rows(first / f"{team}.csv", "case_id"), inputs.teams[team], inputs)
    _, own_quality = check_cohort(run, inputs, cohort_hashes)
    check_quality(run, first / "quality.csv", inputs, own_quality)
    synth2 = run.work / "synth_jobs2"
    run.case_ops(run.cli(run.synth_argv(synth2, 2), "check"), n, n)
    run.check("synth:jobs2:bytes", hash_tree(synth2, synth2) == cohort_hashes[0])
    spacing = (run.scale.spacing,) * 3
    order = []
    for team in ("tight", "loose"):
        rows = [oracle.case_metrics(inputs.teams[team][c], inputs.truths[c], spacing) for c in inputs.cases]
        order.append((-statistics.fmean(r["dice"] for r in rows), statistics.fmean(r["stsd_mm"] for r in rows), team))
    board = read_rows(first / "rank" / "leaderboard.csv", "team_id")
    run.check("rank:order", list(board) == [team for *_, team in sorted(order)])
    later = [other for other, _ in run.later_rounds(1)] + ([] if run.trace else [jobs2])
    for other in later:
        for name in ["tight.csv", "loose.csv", "quality.csv"] + (["rank"] if other != jobs2 else []):
            check_same_bytes(run, f"{other.name}/{name}", first / name, other / name)
    box = max(oracle.box_share(inputs.teams[t][c], inputs.truths[c]) for t in ("tight", "loose") for c in inputs.cases)
    return {"inputs": inputs, "setup": setup_times, "box_share": box, "outputs": [first, *later]}


def workload_cleanup(run: Run, seconds: float) -> dict:
    inputs, setup_times, cohort_hashes = run.setup({"stray": "gzip"}, per_case=True)
    n = len(inputs.cases)
    pipeline_stderr: dict[Path, str] = {}

    def one_case(out: Path, part: int) -> None:
        """The per-case chain of one case: a round is a case, a pass the cohort."""
        case = inputs.cases[part]
        scan = inputs.cohort / f"{case}.nrrd"
        clean = out / "clean" / case
        truth_dir = inputs.case_dir(case, "truth")
        for directory in (out / "pre", out / "pipe", clean):
            directory.mkdir(parents=True, exist_ok=True)
        steps = [
            ["preprocess", scan, "--clahe", "8,8,3.0", "--out", out / "pre" / f"{case}.nrrd"],
            ["pipeline", "--scan", scan, "--truth", truth_dir / f"{case}_label.nrrd", "--roi", run.scale.roi,
             "--downsample-factor", run.scale.localizer_factor,
             "--out", out / "pipe" / f"{case}.nrrd", "--encoding", "gzip"],
            ["postprocess", inputs.case_dir(case, "stray") / f"{case}.nrrd", "--ops", "largest:26", "smooth:1",
             "--out", clean / f"{case}.nrrd", "--encoding", "gzip"],
        ]
        for argv in steps:
            call = run.cli(argv, "jobs1", case=case)
            run.case_ops(call, 1 if call.rc == 0 else 0, 1)
            if argv[0] == "pipeline":
                pipeline_stderr[out / case] = call.stderr
        for tag, pred_dir in (("stray", inputs.case_dir(case, "stray")), ("clean", clean)):
            csv_path = out / f"{tag}_{case}.csv"
            call = run.cli(["evaluate", pred_dir, truth_dir, "--out", csv_path, "--jobs", 1],
                           "jobs1", tag=tag, case=case)
            run.case_ops(call, len(read_rows(csv_path, "case_id")), 1)

    run.measure(seconds, one_case, n)

    first = run.work / "out" / "0"
    spacing = (run.scale.spacing,) * 3
    cleaned, dices = {}, []
    scans, _ = check_cohort(run, inputs, cohort_hashes)
    for case in inputs.cases:
        clean = oracle.read_nrrd(first / "clean" / case / f"{case}.nrrd")
        cleaned[case] = clean.data.astype(bool)
        run.check(f"clean:{case}:gzip, one component, islands gone",
                  clean.encoding == "gzip" and oracle.n_components_26(cleaned[case]) == 1
                  and oracle.box_share(cleaned[case], inputs.truths[case]) <= SMALL_BOX_MAX)
        pipe = oracle.read_nrrd(first / "pipe" / f"{case}.nrrd")
        dice = oracle.dice(pipe.data.astype(bool), inputs.truths[case])
        dices.append(dice)
        reported = pipeline_stderr.get(first / case, "").rpartition("dice vs truth: ")[2].strip()
        run.check(f"pipeline:{case}:dice", pipe.encoding == "gzip" and bool(reported)
                  and oracle.same_at_6_digits(reported, dice))
        pre = oracle.read_nrrd(first / "pre" / f"{case}.nrrd")
        src = scans[case]
        run.check(
            f"preprocess:{case}:slice ranges",
            pre.data.shape == src.shape and pre.spacing == spacing
            and bool((pre.data.min(axis=(0, 1)) >= src.min(axis=(0, 1))).all())
            and bool((pre.data.max(axis=(0, 1)) <= src.max(axis=(0, 1))).all()),
        )
    for tag, preds in (("stray", inputs.teams["stray"]), ("clean", cleaned)):
        rows = {c: read_rows(first / f"{tag}_{c}.csv", "case_id").get(c) for c in inputs.cases}
        check_case_rows(run, tag, {c: r for c, r in rows.items() if r}, preds, inputs)
    later = run.later_rounds(n)
    for other, part in later:
        case = inputs.cases[part]
        names = [f"pre/{case}.nrrd", f"pipe/{case}.nrrd", f"clean/{case}/{case}.nrrd",
                 f"stray_{case}.csv", f"clean_{case}.csv"]
        for name in names:
            check_same_bytes(run, f"{other.name}/{name}", first / name, other / name)
    box = max(oracle.box_share(m, inputs.truths[c])
              for team in (inputs.teams["stray"], cleaned) for c, m in team.items())
    return {"inputs": inputs, "setup": setup_times, "box_share": box,
            "outputs": [first, *sorted({other for other, _ in later})], "pipeline_dice": statistics.fmean(dices)}


WORKLOADS = {"score": workload_score, "cleanup": workload_cleanup}


# --- metrics -----------------------------------------------------------------------

COMMANDS = ("evaluate", "quality", "rank", "synth", "preprocess", "pipeline", "postprocess")
TIME_LAYERS = (
    ("cli.import",)
    + tuple(f"cli.{c}" for c in COMMANDS)
    + (
        "nrrd_io.read_mask", "nrrd_io.read_volume", "nrrd_io.read_mask_gzip",
        "nrrd_io.write_volume", "nrrd_io.write_mask", "nrrd_io.write_mask_gzip",
        "phantom.generate_cohort", "phantom.generate",
        "metrics.evaluate_case.tight", "metrics.evaluate_case.loose",
        "metrics.evaluate_case.stray", "metrics.evaluate_case.clean", "metrics.surface_voxels",
        "quality.assess_quality", "stats.build_leaderboard",
        "grids.downsample", "pipeline.localize_threshold", "pipeline.segment", "pipeline.run_pipeline",
        "postprocess.largest_component", "postprocess.smooth_surface", "postprocess.close_mask",
        "preprocess.clahe_slicewise",
    )
)


def self_times(spans: list) -> list[tuple[str, float, int | None]]:
    """(name, self seconds, bytes) per span: duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _case, _bytes in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[0], (s[2] - s[1] - child[i]) / 1e9, s[5]) for i, s in enumerate(spans)]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(run: Run, result: dict) -> tuple[dict, dict]:
    """Per-layer metrics and, beside each, how many calls it summarizes.
    A layer the workload leaves idle reads 0 with 0 calls."""
    by_name: dict[str, list[float]] = {}
    read_bytes, write_bytes = [], []
    for call in run.calls:
        for name, seconds, nbytes in self_times(call.spans):
            by_name.setdefault(name, []).append(seconds)
            if nbytes is not None:
                (read_bytes if name.startswith("nrrd_io.read") else write_bytes).append(nbytes)
    metrics, counts = {}, {}
    for name in TIME_LAYERS:
        metrics[f"{name}_s"] = (median_or_zero(by_name.get(name, [])), "s")
        counts[f"{name}_s"] = len(by_name.get(name, []))
    for command in COMMANDS:
        rss = [c.rss_mb for c in run.calls if c.step.split(":")[0] == command]
        metrics[f"cli.{command}_rss_mb"] = (median_or_zero(rss), "MB")
        counts[f"cli.{command}_rss_mb"] = len(rss)
    metrics["nrrd_io.bytes_read"] = (statistics.fmean(read_bytes) if read_bytes else 0.0, "bytes")
    metrics["nrrd_io.bytes_written"] = (statistics.fmean(write_bytes) if write_bytes else 0.0, "bytes")
    counts["nrrd_io.bytes_read"], counts["nrrd_io.bytes_written"] = len(read_bytes), len(write_bytes)
    truths = result["inputs"].truths.values()
    metrics["phantom.fg_share"] = (statistics.fmean(float(t.mean()) for t in truths), "ratio")
    metrics["metrics.surface_box_share"] = (result["box_share"], "ratio")
    metrics["pipeline.dice"] = (result.get("pipeline_dice", 0.0), "ratio")

    # every span is a named layer, so the self times of a traced call sum to
    # the durations of its root spans (import and command)
    overhead = [traced.wall_s - plain.wall_s for plain, traced in run.pairs]
    share = [sum(s[2] - s[1] for s in traced.spans if s[3] is None) / 1e9 / plain.wall_s
             for plain, traced in run.pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["trace.layer_share"] = (statistics.median(share), "ratio")
    counts["trace.overhead_s"] = counts["trace.layer_share"] = len(run.pairs)
    return metrics, counts


def end_to_end(run: Run, result: dict) -> dict:
    n = len(result["inputs"].cases)
    passed = sum(ok for _, ok in run.checks)
    return {
        "setup_s": (statistics.median(result["setup"]) * REFERENCE_NOMINAL_S, "s"),
        "cases_per_ref": (n / run.pass_wall("jobs1", per_reference=True), "cases/ref"),
        # set-up and measured calls; not the untimed synth --jobs 2 of the checks
        "peak_rss_mb": (max(c.rss_mb for c in run.calls if c.phase != "check"), "MB"),
        "correct_frac": (passed / len(run.checks), "ratio"),
    }


# --- provenance --------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(run: Run, result: dict) -> dict:
    inputs = result["inputs"]
    src = run.root / "src"
    tree = hashlib.sha256()
    for path, file_digest in hash_tree(src, src).items():
        if "__pycache__" not in path:
            tree.update(f"{path}\0{file_digest}\n".encode())
    files = hash_tree(inputs.dir, run.work)
    for out in result["outputs"]:
        files.update(hash_tree(out, run.work))
    return {
        "git_sha": git_sha(run.root),
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": run.seed,
        "dims": list(run.scale.dims),
        "spacing_mm": run.scale.spacing,
        "fg_counts": {case: int(t.sum()) for case, t in inputs.truths.items()},
        "sha256": files,
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = Scale()) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record)."""
    run = Run(ROOT, workload, seed, trace, scale)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        result = WORKLOADS[workload](run, seconds)
        if trace:
            metrics, counts = per_layer(run, result)
        else:
            metrics, counts = end_to_end(run, result), {}
        steps: dict[str, int] = Counter(f"{c.phase}/{c.step}" for c in run.calls)
        record = {
            "workload": workload,
            "trace": trace,
            "rounds": run.rounds,
            "samples": dict(sorted(steps.items())),
            "failed_frac": run.failed / max(run.attempted, 1),
            "setup_wall_s": run.setup_walls,
            # the --jobs 2 throughput spreads too widely across runs on a
            # shared 2-CPU host to carry a bound; it is reported here only
            "cases_per_s": None if trace else {
                phase: len(result["inputs"].cases) / run.pass_wall(phase) for phase in run.pass_steps
            },
            "cases_per_ref_jobs2": (
                len(result["inputs"].cases) / run.pass_wall("jobs2", per_reference=True)
                if "jobs2" in run.pass_steps else None
            ),
            "pipeline_dice": result.get("pipeline_dice"),
            "failed_checks": [label for label, ok in run.checks if not ok],
            "layer_calls": counts,
            "provenance": provenance(run, result),
        }
        line = {
            "correct": not record["failed_checks"] and run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        record["result"] = line
        record["cli_calls"] = [{k: v for k, v in vars(c).items() if k != "stderr"} for c in run.calls]
        return line, record
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "labench" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no labench sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    try:
        line, record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        sys.stderr.write(f"perfbench: refusing to run: {exc}\n")
        return 3
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    keys = ("workload", "rounds", "samples", "setup_wall_s", "cases_per_s", "cases_per_ref_jobs2", "failed_frac",
            "pipeline_dice", "failed_checks", "layer_calls")
    summary = {k: record[k] for k in keys}
    summary["record"] = str((results / name).relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
