"""Benchmark for the queryplan package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Workloads are ``solve``, ``guarantee`` and ``tightness`` (see
perfbench/README.md). Each run sets up its inputs from the seed, runs the
workload's jobs one at a time in whole passes until the next pass would end
past ``--seconds`` (at least three passes), checks every output, and prints
a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, timed with tracing
off. With ``--trace 1`` the run makes one untimed pass, then one traced
pass, and reports the per-layer metrics derived from the traced spans.
Timings are scaled to a reference host speed (see HostSpeed).
The package is imported from ``src/`` next to this directory; without it
the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# BLAS and OpenMP pools, pinned to one thread before numpy is imported: one
# job runs at a time, and a shared pool on a small host adds noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_PER_PASS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10

# Host speed drifts on a shared host: a fixed loop ran up to 1.7x slower for
# tens of seconds at a time, so whole runs read 35% apart. Every timing is
# therefore scaled to a reference speed: it is multiplied by REF_SECONDS over
# the time of a fixed numpy computation, measured (best of REF_PROBES) at
# most REF_EVERY_S before it. On a host where the reference takes REF_SECONDS,
# scaled and wall times agree.
REF_SECONDS = 1e-3
REF_EVERY_S = 0.1
REF_PROBES = 3

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("plan_cost_total", "cost"),
    ("cost_ratio_max", "ratio"),
    ("peak_rss_mb", "MB"),
)


def pin_threads() -> dict[str, str]:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package() -> None:
    """Puts the checkout's ``src/`` first on the path and imports from it."""
    src = ROOT / "src"
    if not (src / "queryplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    sys.path.insert(0, str(src))
    import queryplan

    if Path(queryplan.__file__).resolve().parent != (src / "queryplan").resolve():
        raise SystemExit(f"error: queryplan imported from {queryplan.__file__}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info(threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
    }


class HostSpeed:
    """Tracks the factor that scales wall seconds to reference seconds."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(-3.0, -0.1, 768).reshape(64, 3, 4)
        self._at = -math.inf
        self.scale = 1.0

    def _reference(self) -> float:
        """Times 25 tilted log-sum-exp reductions over a small fixed array:
        the kind of numpy work, and per-call overhead, the solvers do."""
        np, x = self._np, self._x
        start = perf_counter()
        for i in range(25):
            s = i / 25
            v = (1.0 - s) * x + s * x[::-1]
            top = v.max(axis=2)
            np.log(np.exp(v - top[:, :, None]).sum(axis=2)) + top
        return perf_counter() - start

    def refresh(self) -> float:
        if perf_counter() - self._at >= REF_EVERY_S:
            self.scale = REF_SECONDS / min(self._reference() for _ in range(REF_PROBES))
            self._at = perf_counter()
        return self.scale


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------


def plain_call(name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def span_call(tracer, parent: int | None, job: int | None, scale: float):
    """A ``call`` that records a span around each call it makes."""

    def call(name: str, fn, *args, **kwargs):
        span = tracer.start(name, parent, job, scale)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.stop(span)

    return call


def setup(workload, seed: int, call=plain_call) -> list:
    """Draws the pool, serializes it relabelled by ``seed`` as canonical
    JSON, and loads it back through the package's instance boundary."""
    from workloads import load_checked, serialize

    pool = workload.draw(workload.draws, call)
    return [call("instances.load", load_checked, t) for t in serialize(pool, seed)]


@dataclass
class Job:
    case: int
    ordinal: int
    name: str
    seconds: float
    scale: float = 1.0
    error: str | None = None
    failed: bool = False


@dataclass
class Pass:
    jobs: list[Job] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    wall: float = 0.0


def run_pass(workload, cases: list, speed: HostSpeed, tracer=None) -> Pass:
    """Runs every case's jobs once, in order. A job that raises out of its
    case is failed and ends the case; the jobs after it are not attempted."""
    from workloads import probe

    p = Pass()
    t0 = perf_counter()
    for ci, inst in enumerate(cases):
        ordinal = 0

        def call(name: str, fn, *args, **kwargs):
            nonlocal ordinal
            scale = speed.refresh()
            span = tracer.start(name, None, len(p.jobs), scale) if tracer else None
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                seconds = perf_counter() - start
                p.jobs.append(Job(ci, ordinal, name, seconds, scale, error))
                ordinal += 1
                if span is not None:
                    tracer.stop(span)
                    if error:
                        span.attrs["error"] = error
                    child = span_call(tracer, span.id, span.job, scale)
                    span.attrs.update(probe(name, args, kwargs, result, child))

        first = len(p.jobs)
        try:
            p.outputs.append(workload.run_case(inst, call))
        except Exception as exc:
            if len(p.jobs) > first and p.jobs[-1].error:
                p.jobs[-1].failed = True
            else:
                p.jobs.append(Job(ci, ordinal, "case", 0.0, 1.0, type(exc).__name__, True))
            p.outputs.append(None)
    p.wall = perf_counter() - t0
    return p


def check_pass(workload, cases: list, p: Pass) -> tuple[int, list[str], list[float]]:
    """Failed jobs (raised or wrong output), their messages, and ratios."""
    failed = sum(j.failed for j in p.jobs)
    messages = [f"case {j.case}: {j.name} raised {j.error}" for j in p.jobs if j.failed]
    ratios: list[float] = []
    for ci, (inst, out) in enumerate(zip(cases, p.outputs)):
        if out is None:
            continue
        fails, r = workload.check_case(inst, out)
        failed += len(fails)
        messages += [f"case {ci}: {job}: {msg}" for job, msg in fails.items()]
        ratios += r
    return failed, messages, ratios


def per_job_seconds(passes: list[Pass], scaled: bool) -> list[list[float]]:
    """Each job's latency in every pass, in job order, in reference seconds
    if ``scaled`` and in wall seconds otherwise."""
    per_job: dict[tuple[int, int], list[float]] = {}
    for p in passes:
        for j in p.jobs:
            t = j.seconds * j.scale if scaled else j.seconds
            per_job.setdefault((j.case, j.ordinal), []).append(t)
    return list(per_job.values())


def latency_summary(samples: list[list[float]]) -> dict:
    """Throughput, median and tail of the jobs' latencies.

    Throughput is jobs over the sum of per-job medians (over passes). The
    median and tail are taken over every sample of every pass. The tail is
    at the highest percentile that leaves TAIL_BEYOND of the pool's n jobs
    above it, 100 * (n - 1 - TAIL_BEYOND) / (n - 1).
    """
    import numpy as np

    n = len(samples)
    beyond = min(TAIL_BEYOND, n - 1)
    q = (n - 1 - beyond) / (n - 1) if n > 1 else 1.0
    pooled = [t for v in samples for t in v]
    return {
        "jobs_per_s": n / sum(statistics.median(v) for v in samples),
        "p50_s": statistics.median(pooled),
        "tail_s": float(np.quantile(pooled, q)),
        "tail_percentile": 100.0 * q,
        "tail_jobs_beyond": beyond,
        "jobs_sampled": n,
        "samples": len(pooled),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end run with tracing off."""
    speed = HostSpeed()
    setup_times: list[float] = []
    setup_scaled: list[float] = []
    passes: list[Pass] = []
    t0 = perf_counter()
    while True:
        for _ in range(SETUP_PER_PASS):
            scale = speed.refresh()
            t = perf_counter()
            cases = setup(workload, seed)
            setup_times.append(perf_counter() - t)
            setup_scaled.append(setup_times[-1] * scale)
        passes.append(run_pass(workload, cases, speed))
        elapsed = perf_counter() - t0
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            break

    failed, messages, ratios = 0, [], []
    for i, p in enumerate(passes):
        f, msg, r = check_pass(workload, cases, p)
        failed += f
        messages += msg
        if i == 0:
            ratios = r
    attempted = sum(len(p.jobs) for p in passes)
    lat = latency_summary(per_job_seconds(passes, scaled=True))
    wall_samples = per_job_seconds(passes, scaled=False)
    wall = latency_summary(wall_samples)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "jobs_per_s": lat["jobs_per_s"],
        "job_p50_ms": 1000.0 * lat["p50_s"],
        "job_tail_ms": 1000.0 * lat["tail_s"],
        "plan_cost_total": sum(
            c for out in passes[0].outputs if out is not None for c in out.plan_costs()
        ),
        "cost_ratio_max": max(ratios, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": metrics,
        "units": dict(END_TO_END),
        "details": {
            "passes": len(passes),
            "measured_s": elapsed,
            "pass_wall_s": [p.wall for p in passes],
            "setup_wall_s": setup_times,
            "setup_scaled_s": setup_scaled,
            "failed_frac": failed / attempted,
            "job_tail": lat,
            "wall": {"setup_s": statistics.median(setup_times), **wall},
            "scale": [[j.scale for j in p.jobs] for p in passes],
            "per_job_wall_s": wall_samples,
        },
    }


def trace(workload, seed: int, out_dir: Path) -> dict:
    """One untimed pass, then one traced pass; per-layer metrics from spans."""
    from tracing import DERIVED, PER_LAYER, Tracer, layer_metrics

    tracer = Tracer()
    speed = HostSpeed()
    scale = speed.refresh()
    root = tracer.start("setup", scale=scale)
    cases = setup(workload, seed, span_call(tracer, root.id, None, scale))
    tracer.stop(root)
    untraced = run_pass(workload, cases, speed)
    traced = run_pass(workload, cases, speed, tracer)
    metrics = layer_metrics(tracer.spans, traced.wall / untraced.wall)
    spans_path = out_dir / f"{workload.name}-seed{seed}-spans.json"
    tracer.write(spans_path)

    failed, messages = 0, []
    for p in (untraced, traced):
        f, msg, _ = check_pass(workload, cases, p)
        failed += f
        messages += msg
    attempted = len(untraced.jobs) + len(traced.jobs)
    return {
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": metrics,
        "units": dict(PER_LAYER),
        "details": {
            "untraced_wall_s": untraced.wall,
            "traced_wall_s": traced.wall,
            "failed_frac": failed / attempted,
            "derived": DERIVED,
            "spans": str(spans_path),
        },
    }


def report(name: str, seed: int, traced: bool, host: dict, res: dict) -> list[str]:
    lines = [
        f"workload {name}  seed {seed}  trace {int(traced)}",
        "host " + json.dumps(host, sort_keys=True),
    ]
    d = res["details"]
    for metric, unit in res["units"].items():
        note = d.get("derived", {}).get(metric, "") if traced else ""
        lines.append(f"  {metric:<40} {res['metrics'][metric]:>16.6g} {unit:<6} {note}".rstrip())
    lines.append(
        f"  {'failed_frac':<40} {d['failed_frac']:>16.6g} {'ratio':<6} "
        f"({res['failed']} of {res['attempted']} jobs)"
    )
    if traced:
        lines.append(
            f"  tracing overhead: traced pass {d['traced_wall_s']:.3f} s against "
            f"untraced pass {d['untraced_wall_s']:.3f} s; spans in {d['spans']}"
        )
    else:
        t = d["job_tail"]
        lines.append(
            f"  job_tail_ms is p{t['tail_percentile']:.1f} of {t['jobs_sampled']} "
            f"jobs ({t['tail_jobs_beyond']} beyond it), over {t['samples']} samples "
            f"from {d['passes']} passes in {d['measured_s']:.3f} s"
        )
        w = d["wall"]
        lines.append(
            f"  timings are scaled to reference speed; unscaled wall clock: "
            f"setup_s {w['setup_s']:.6g}, jobs_per_s {w['jobs_per_s']:.6g}, "
            f"job_p50_ms {1000 * w['p50_s']:.6g}, job_tail_ms {1000 * w['tail_s']:.6g}"
        )
    lines += [f"  FAILED {m}" for m in res["messages"]]
    return lines


def run(workload, seed: int, seconds: float, traced: bool, out_dir: Path, host: dict) -> dict:
    """Runs one workload, writes the full result under ``out_dir`` and
    prints the report and the result line."""
    res = trace(workload, seed, out_dir) if traced else measure(workload, seed, seconds)
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps({**line, "host": host, **res}, indent=2) + "\n")
    print("\n".join(report(workload.name, seed, traced, host, res)))
    print(json.dumps(line), flush=True)
    return line


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "guarantee", "tightness"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    import_package()
    from workloads import WORKLOADS

    host = host_info(threads)
    run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT_DIR, host)
    return 0


if __name__ == "__main__":
    sys.exit(main())
