#!/usr/bin/env python3
"""signedlap benchmark: the CLI driven in-process on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 50 --trace 0

Workloads are ``cli-corpus`` and ``ensemble`` (see ``corpus.py``).  With ``--trace 0`` the run sends the workload's requests
in passes for ``--seconds`` with tracing off, keeps each request's fastest
pass and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it sends every request once untraced and once traced, and
reports the per-layer metrics plus the tracing overhead.  Either way every
output is checked after timing.

The program is imported from ``src/`` of the same checkout.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the corpus digest, the sample count behind each metric and,
for a measured run, the p50 and p90 latency, latency per subcommand and
ensemble throughput.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "signedlap" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'signedlap'})", file=sys.stderr)
        return 2
    units = _units(spec, bool(args.trace))
    sys.path.insert(0, str(SRC))
    import corpus  # these need src/ on the path
    import harness

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            result = harness.trace(args.workload, args.seed, workdir)
        else:
            result = harness.measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC.name}", file=sys.stderr)
        return 2
    for pos, kind, reason in result["failures"]:
        print(f"perfbench: request {pos} ({kind}): {reason}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": result["passes"],
        "wall_s": result.get("wall_s"),
        "corpus_sha256": corpus.digest(args.workload, args.seed),
        "samples": result["samples"],
        "details": result.get("details"),
        "error_rate": result["failed"] / result["attempted"],
        "environment": harness.environment(),
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
