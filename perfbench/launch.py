"""Run one ``labench`` command with timing spans around its layers.

usage: python3 perfbench/launch.py SPANS_JSON TAG CASE_ID -- LABENCH_ARGS...

The launcher imports ``labench.cli``, replaces the public functions the
CLI reaches (where the CLI or the calling module looks them up) with
wrappers that record a span, calls ``labench.cli.main``, and writes the
spans to SPANS_JSON when the command ends. Spans stay in memory until
then. TAG names the prediction team for ``metrics.evaluate_case`` spans;
CASE_ID labels spans of single-case commands. PERFBENCH_SPAWN_NS holds
the parent's ``time.monotonic_ns()`` at spawn, so the ``cli.import`` span
covers interpreter start plus import.

A span is ``[name, start_ns, end_ns, parent_index, case_id, bytes]``.
Pool workers started by ``--jobs N`` inherit the wrappers but record
nothing; traced runs use ``--jobs 1``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_NOW = time.monotonic_ns


class Tracer:
    def __init__(self, default_case: str | None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = default_case
        self.pid = os.getpid()

    def record(self, name: str, start: int, end: int) -> None:
        self.spans.append([name, start, end, None, self.case, None])

    def wrap(self, fn, name, name_after=None, nbytes=None):
        """Span around ``fn``. ``name_after(result, args, kwargs, pre)`` may
        rename the span once the call returns; ``nbytes`` gives the file
        size it read or wrote."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            pre = nbytes[0](args, kwargs) if nbytes else None
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, _NOW(), None, parent, self.case, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _NOW()
                self.stack.pop()
            if name_after:
                span[0] = name_after(result, args, kwargs, pre)
            if nbytes:
                span[5] = nbytes[1](args, kwargs, pre)
            return result

        return traced

    def case_scope(self, fn, case_of):
        """Label spans inside a per-case worker with that worker's case id."""

        @functools.wraps(fn)
        def scoped(task):
            saved, self.case = self.case, case_of(task)
            try:
                return fn(task)
            finally:
                self.case = saved

        return scoped


def _path_arg(args, kwargs, position):
    return str(kwargs.get("path", args[position] if len(args) > position else ""))


def _encoding_of_file(path: str) -> str:
    with open(path, "rb") as fh:
        head = fh.read(512)
    return "gzip" if b"\nencoding: gz" in head else "raw"


def install(tracer: Tracer, tag: str) -> None:
    from labench import cli, grids, metrics, phantom, pipeline, postprocess, preprocess
    from labench.grids import Mask

    def read_name(result, args, kwargs, pre):
        kind = "mask" if isinstance(result, Mask) else "volume"
        return f"nrrd_io.read_{kind}" + ("_gzip" if pre[1] == "gzip" else "")

    def read_pre(args, kwargs):
        path = _path_arg(args, kwargs, 0)
        return os.path.getsize(path), _encoding_of_file(path)

    def write_name(result, args, kwargs, pre):
        kind = "mask" if isinstance(args[0], Mask) else "volume"
        encoding = kwargs.get("encoding", args[2] if len(args) > 2 else "raw")
        return f"nrrd_io.write_{kind}" + ("_gzip" if encoding == "gzip" else "")

    cli.read_nrrd = tracer.wrap(
        cli.read_nrrd, "nrrd_io.read", read_name, (read_pre, lambda a, k, pre: pre[0])
    )
    cli.write_nrrd = tracer.wrap(
        cli.write_nrrd,
        "nrrd_io.write",
        write_name,
        (lambda a, k: None, lambda a, k, pre: os.path.getsize(_path_arg(a, k, 1))),
    )
    for command in ("evaluate", "quality", "rank", "synth", "preprocess", "pipeline", "postprocess"):
        attr = f"cmd_{command}"
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), f"cli.{command}"))
    cli._evaluate_one = tracer.case_scope(cli._evaluate_one, lambda task: task[0])
    cli._quality_one = tracer.case_scope(cli._quality_one, lambda task: task[0])
    cli._synth_one = tracer.case_scope(cli._synth_one, lambda task: f"case_{task[1]:0{task[6]}d}")

    cli.evaluate_case = tracer.wrap(cli.evaluate_case, f"metrics.evaluate_case.{tag}")
    metrics.surface_voxels = tracer.wrap(metrics.surface_voxels, "metrics.surface_voxels")
    cli.assess_quality = tracer.wrap(cli.assess_quality, "quality.assess_quality")
    cli.build_leaderboard = tracer.wrap(cli.build_leaderboard, "stats.build_leaderboard")

    phantom.generate_cohort = tracer.wrap(phantom.generate_cohort, "phantom.generate_cohort")
    phantom.generate = tracer.wrap(phantom.generate, "phantom.generate")

    grids.downsample = cli.downsample = tracer.wrap(grids.downsample, "grids.downsample")
    pipeline.localize_threshold = tracer.wrap(pipeline.localize_threshold, "pipeline.localize_threshold")
    pipeline.ThresholdSegmenter.__call__ = tracer.wrap(
        pipeline.ThresholdSegmenter.__call__, "pipeline.segment"
    )
    pipeline.run_pipeline = tracer.wrap(pipeline.run_pipeline, "pipeline.run_pipeline")
    for name in ("largest_component", "smooth_surface", "close_mask"):
        wrapped = tracer.wrap(getattr(postprocess, name), f"postprocess.{name}")
        setattr(postprocess, name, wrapped)
        if hasattr(pipeline, name):
            setattr(pipeline, name, wrapped)
    preprocess.clahe_slicewise = tracer.wrap(preprocess.clahe_slicewise, "preprocess.clahe_slicewise")


def main(argv: list[str]) -> int:
    spans_path, tag, case_id, dashdash, *labench_args = argv
    if dashdash != "--":
        sys.stderr.write(__doc__.splitlines()[2] + "\n")
        return 1
    tracer = Tracer(case_id if case_id != "-" else None)
    spawn = int(os.environ["PERFBENCH_SPAWN_NS"])
    import labench.cli

    tracer.record("cli.import", spawn, _NOW())
    install(tracer, tag)
    try:
        return labench.cli.main(labench_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
