"""Closed-loop, in-process client for the signedlap CLI.

One client sends one request at a time to ``signedlap.cli.main`` and waits
for it to return before sending the next (no think time).  Inputs and
outputs go through JSON files in a work directory; a request's latency is
the wall time of the ``main`` call, which covers argument parsing, reading
the input, the computation and writing the output.  A measured run sends
the workload's requests in passes, each pass in a new order, and keeps
each request's fastest pass: other tenants of the machine slow it down by
up to about 1.7 times for seconds to minutes at a time, and a request's
best of many passes spread over the run moves much less with that than
its median or mean.  The program keeps no state between calls, so a later
pass redoes all of the work of the first.  Checks run after the timed loop.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy

import signedlap.cli
from signedlap import _kernels

import checks
import corpus
import tracing
from corpus import Request

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15  # fresh-interpreter imports timed in a measured run
MIN_PASSES = 2  # a measured run's passes, however long one takes

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import signedlap.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    request: Request
    code: int
    latency: float  # seconds
    stdout: str
    stderr: str
    files: dict[str, bytes]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Client:
    """Writes request inputs into ``workdir`` and runs them through the CLI."""

    def __init__(self, workdir: Path, threads: int):
        self.workdir = workdir
        self.threads = threads

    def _paths(self, pos: int, req: Request):
        base = self.workdir / f"r{pos}"
        if req.kind == "ensemble":
            csv_path = Path(f"{base}.csv")
            return {"csv": csv_path, "summary": Path(f"{base}.summary.json")}, csv_path
        out = Path(f"{base}.out.json")
        return {"output": out}, out

    def prepare(self, requests: list[Request]) -> list[list[str]]:
        """Write every input file and return the argument vectors."""
        argvs = []
        for pos, req in enumerate(requests):
            inp = self.workdir / f"r{pos}.in.json"
            inp.write_text(json.dumps(req.doc), encoding="utf-8")
            _, out = self._paths(pos, req)
            argv = [req.kind, "--input", str(inp), "--output", str(out), *req.options]
            if req.kind == "ensemble":
                argv += ["--threads", str(self.threads if req.threaded else 1)]
            argvs.append(argv)
        return argvs

    def run_one(self, pos: int, req: Request, argv: list[str]) -> Outcome:
        files, _ = self._paths(pos, req)
        for path in files.values():
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        # Each CLI call normally starts with a fresh heap; collect the
        # previous request's garbage here rather than inside this one.
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = signedlap.cli.main(argv)
        except Exception:  # a crash is a failed request, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
        data = {key: path.read_bytes() for key, path in files.items() if path.exists()}
        return Outcome(req, code, latency, out.getvalue(), err.getvalue(), data)

    def run_all(self, requests: list[Request]) -> list[Outcome]:
        argvs = self.prepare(requests)
        return [self.run_one(pos, req, argv) for pos, (req, argv) in enumerate(zip(requests, argvs))]


def import_seconds() -> float:
    """Import time of ``signedlap.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.backend(),
        "commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def _warm_up(client: Client):
    """One untimed pass over every subcommand on tiny inputs, so lazy
    set-up (LAPACK, first allocations) happens before timing."""
    client.run_all(corpus.warm_up_requests())


def _samples(req: Request) -> int:
    return len(req.doc["M"]) * req.doc["samples"]


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(outcomes: list[Outcome]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics (without setup_s and peak_rss_mb) and the sample
    count behind each.

    The typical latency is the geometric mean, which weighs a change by the
    same share in a cheap and in a dear request alike.  A median over a
    workload that mixes subcommands falls between two of them and jumps
    with the seed.
    """
    lat = [o.latency * 1e3 for o in outcomes]
    metrics = {
        "latency_gmean_ms": statistics.geometric_mean(lat),
        "requests_per_s": len(lat) / (sum(lat) / 1e3),
    }
    return metrics, {name: len(lat) for name in metrics}


def breakdown(outcomes: list[Outcome]) -> dict[str, float]:
    """Latency per subcommand and ensemble throughput per thread setting,
    keyed by metric name; 0 where the outcomes hold no such request."""
    out = {}
    for kind in corpus.GRAPH_KINDS:
        out[f"cli.{kind}.p50_ms"] = _p50([o.latency * 1e3 for o in outcomes if o.request.kind == kind])
    for name, threaded in (("samples_per_s", False), ("samples_per_s_threaded", True)):
        runs = [o for o in outcomes if o.request.kind == "ensemble" and o.request.threaded == threaded]
        seconds = sum(o.latency for o in runs)
        out[f"cli.ensemble.{name}"] = sum(_samples(o.request) for o in runs) / seconds if runs else 0.0
    return out


# A failure is (position in the request list, subcommand, reason).
Failure = tuple[int, str, str]


def _check(outcomes: list[Outcome], seed: int) -> list[Failure]:
    return [
        (pos, outcomes[pos].request.kind, reason)
        for pos, reason in checks.check_outcomes(outcomes, seed=seed)
    ]


def _failed_requests(failures: list[Failure]) -> int:
    return len({pos for pos, _, _ in failures})


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: passes over the workload's requests for about
    ``seconds``, with the set-up timings between them.

    Another pass starts only while it is expected, judged by the mean pass
    so far, to end within ``seconds``; the first MIN_PASSES always run.  A
    request's latency is its fastest pass.  Every pass must reproduce the
    first pass's outputs, which are checked after timing.

    The SETUP_REPEATS import timings are spread between the passes, so that
    their median, like the latencies, samples the machine over the whole
    run rather than over a few seconds of it.
    """
    import_seconds()  # unmeasured: compiles the bytecode the others find
    setup: list[float] = []
    client = Client(workdir, nproc())
    _warm_up(client)
    requests = corpus.requests(workload, seed)
    argvs = client.prepare(requests)
    order = random.Random(f"passes:{seed}")
    first: list[Outcome] = []
    best = [float("inf")] * len(requests)
    failures: list[Failure] = []
    passes = 0
    timed = 0.0
    while passes < MIN_PASSES or timed * (passes + 1) / passes < seconds:
        positions = list(range(len(requests)))
        order.shuffle(positions)
        outcomes = {}
        began = time.perf_counter()
        for pos in positions:
            outcomes[pos] = client.run_one(pos, requests[pos], argvs[pos])
        timed += time.perf_counter() - began
        for pos, o in outcomes.items():
            best[pos] = min(best[pos], o.latency)
            if first and not _same(first[pos], o):
                failures.append((pos, o.request.kind, f"pass {passes} output differs from the first pass"))
        if not first:
            first = [outcomes[pos] for pos in range(len(requests))]
        passes += 1
        while len(setup) < SETUP_REPEATS * min(1.0, timed / seconds):
            setup.append(import_seconds())
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = [replace(o, latency=b) for o, b in zip(first, best)]
    metrics, counts = end_to_end(fastest)
    metrics["setup_s"] = statistics.median(setup)
    counts["setup_s"] = len(setup)
    metrics["peak_rss_mb"] = peak_rss_mb
    counts["peak_rss_mb"] = 1
    lat = [o.latency * 1e3 for o in fastest]
    details = {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        # far above latency_gmean_ms if the program kept work between calls
        "first_pass_latency_gmean_ms": statistics.geometric_mean([o.latency * 1e3 for o in first]),
        **breakdown(fastest),
    }
    failures += _check(first, seed)
    return {
        "metrics": metrics,
        "samples": counts,
        "details": details,
        "attempted": len(requests),
        "failures": failures,
        "failed": _failed_requests(failures),
        "passes": passes,
        "wall_s": timed,
    }


def _same(a: Outcome, b: Outcome) -> bool:
    return (a.code, a.stdout, a.stderr, a.files) == (b.code, b.stdout, b.stderr, b.files)


def replay(client: Client, batches: list[list[Request]]):
    """Run every request of every batch untraced and then traced, back to
    back, so that drift in machine speed falls on both alike; returns both
    outcome lists, batch by batch, and the tracer holding the spans."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for c, requests in enumerate(batches):
        argvs = client.prepare(requests)
        plain.append([])
        traced.append([])
        for pos, (req, argv) in enumerate(zip(requests, argvs)):
            plain[-1].append(client.run_one(pos, req, argv))
            tracer.request = (c, pos)
            tracer.install()
            try:
                traced[-1].append(client.run_one(pos, req, argv))
            finally:
                tracer.uninstall()
    return plain, traced, tracer


def trace(workload: str, seed: int, workdir: Path) -> dict:
    """Traced run: each request untraced and then traced, ensemble requests
    also with one thread per core.

    Per-layer metrics come from the traced pass, latency per subcommand and
    ensemble throughput from the untraced one; the traced outputs must be
    byte-identical to the untraced ones, request by request.
    """
    client = Client(workdir, nproc())
    _warm_up(client)
    requests = corpus.requests(workload, seed)
    [plain], [traced], tracer = replay(client, [requests + corpus.threaded_copies(requests)])
    failures = _check(traced, seed)
    for pos, (a, b) in enumerate(zip(plain, traced)):
        if not _same(a, b):
            failures.append((pos, a.request.kind, "traced output differs from untraced"))
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(breakdown(plain))
    plain_s = sum(o.latency for o in plain)
    traced_s = sum(o.latency for o in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    return {
        "metrics": metrics,
        "samples": {"requests": len(traced), "spans": len(tracer.spans)},
        "attempted": len(traced),
        "failures": failures,
        "failed": _failed_requests(failures),
        "passes": 1,
    }
