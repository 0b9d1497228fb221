"""Exercise the whole benchmark on a 48^3 grid in about 75 s.

usage: python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, one --jobs 1 pass
each (plus, untraced, three set-ups and score's --jobs 2 pass), on a
three-case cohort (one case per quality tier, which the input guards
require) at 48x48x48 voxels. It exits non-zero unless every output check
passes, no case operation fails, and each result reports exactly the
metrics that BENCHMARK.json declares. Needs only the standard library,
numpy and scipy.
"""

from __future__ import annotations

import json
import sys

import run

SMALL = run.Scale(dims=(48, 48, 48), spacing=1.25)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in sorted(run.WORKLOADS):
        for trace in (False, True):
            line, record = run.execute(workload, seed=7, seconds=0, trace=trace, scale=SMALL)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{label}: failed checks {record['failed_checks']}, failed ops {line['failed']}")
            print(f"{label}: {line['attempted']} case operations, {len(record['failed_checks'])} failed checks")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
