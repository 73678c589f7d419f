#!/usr/bin/env python3
"""dbvsim benchmark: closed-loop workloads over the library's public entry points.

Usage (from the repository root):
    python3 perfbench/run.py --workload brm-dense --seed 1 --seconds 12 --trace 0

One process, one caller, operations back to back (jobs=1).  The workload's
operations run pass after pass, in a seed-shuffled order, until --seconds
have elapsed (a run stops early rather than overshoot by half); only whole
passes are measured, so every run times the same mix.  Each operation's
output is checked.  After each operation a fixed reference computation is
timed, and every timing is reported at the nominal host speed it implies
(see reference.py).  --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is the JSON result;
details go to .bench_out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("challenge-response", "brm-dense", "brm-sparse", "param-design")
#: Fresh processes timed for setup_s; their median is reported.
SETUP_RUNS = 5
#: A run stops before a pass that would take it past this multiple of --seconds.
OVERSHOOT = 1.5
#: Operations on each side of an operation whose reference times give its
#: host speed (see at_nominal_speed).
SPEED_WINDOW = 5


@dataclass
class Record:
    label: str
    seconds: float
    work: int
    master_seed: int
    traced: bool
    error: Optional[str] = None  # exception type, or why the output check failed
    raised: bool = False
    #: The failure matches the operation's known dbvsim defect.
    known_defect: bool = False
    #: Time of the host-speed reference run right after the operation.
    ref_seconds: float = 0.0


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(launch-to-ready seconds, reference seconds) of SETUP_RUNS fresh
    interpreters (see probe.py).  A probe's reference time is the median call
    of those it times after ``ready`` and of those this process times right
    after it ends, leaving out each side's first, warm-up calls."""
    runs = []
    skip = reference.SETUP_WARMUP_CALLS
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            probe_calls = proc.stdout.read().split()
        if line.strip() != "ready" or proc.returncode != 0 or not probe_calls:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        calls = [float(t) for t in probe_calls[skip:]]
        calls += reference.call_times(reference.SETUP_CALLS)[skip:]
        runs.append((ready - start, statistics.median(calls)))
    return runs


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cache_sizes() -> dict:
    """Per-level data/unified cache sizes of CPU 0 as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def provenance(args, wl, master_seeds: list[int]) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seeds": {"count": len(master_seeds), "first": master_seeds[:4],
                         "all_in": str(results_path(args).relative_to(ROOT))},
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "jobs": 1,
        "computed_array_bytes_per_trial": wl.computed_bytes,
    }


def results_path(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"


def run_op(op, master_seed: int, traced: bool, reported: set) -> Record:
    rec = Record(op.label, 0.0, op.work, master_seed, traced)
    start = time.perf_counter()
    try:
        out = op.run(master_seed)
    except Exception as exc:  # a failed operation is counted, not fatal
        rec.seconds = time.perf_counter() - start
        rec.error, rec.raised = type(exc).__name__, True
        if rec.error not in reported:
            reported.add(rec.error)
            traceback.print_exc(file=sys.stderr)
    else:
        rec.seconds = time.perf_counter() - start
        rec.error = op.check(out)
    rec.known_defect = rec.error is not None and op.is_known_defect(rec.error)
    rec.ref_seconds = reference.seconds()
    return rec


def measure(wl, args, tracer) -> list[Record]:
    """Whole passes until --seconds elapse, or until one more pass would end
    past OVERSHOOT * --seconds; with a tracer, odd passes are traced and at
    least one of each kind runs."""
    rng = np.random.default_rng(args.seed)
    reported: set = set()
    for op in wl.warmup:
        run_op(op, int(rng.integers(2**63)), False, reported)

    records: list[Record] = []
    start = time.perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        order = rng.permutation(len(wl.ops))
        seeds = rng.integers(2**63, size=len(wl.ops))
        if traced:
            tracer.install()
        try:
            for i, master_seed in zip(order, seeds):
                if traced:
                    tracer.op = len(records)
                records.append(run_op(wl.ops[i], int(master_seed), traced, reported))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        done = (elapsed >= args.seconds
                or elapsed * (passes + 1) / passes > OVERSHOOT * args.seconds)
        if done and (tracer is None or passes >= 2):
            return records


def at_nominal_speed(records: list[Record], exponent: float) -> list[float]:
    """Each operation's time at the nominal host speed.  The host's speed
    drifts within a run too, so each operation is scaled by the median
    reference time of the SPEED_WINDOW operations on either side of it."""
    refs = [r.ref_seconds for r in records]
    return [
        reference.at_nominal(
            r.seconds,
            statistics.median(refs[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]),
            exponent)
        for i, r in enumerate(records)
    ]


def rate_and_quantiles(ok: list[Record], seconds: list[float]) -> tuple[float, float, float]:
    """Work per second, and the median and p90 latency in ms."""
    ms = sorted(t * 1e3 for t in seconds)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    return sum(r.work for r in ok) / sum(seconds), statistics.median(ms), cuts[8]


def end_to_end(wl, records, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Timings scaled to the nominal host speed; raw values are printed too."""
    scaled = at_nominal_speed(records, wl.speed_exponent)
    ok = [(r, t) for r, t in zip(records, scaled) if r.error is None]
    if not ok:
        raise RuntimeError("no operation succeeded; nothing to time")
    ok_records = [r for r, _ in ok]
    rate, p50, p90 = rate_and_quantiles(ok_records, [t for _, t in ok])
    raw_rate, raw_p50, raw_p90 = rate_and_quantiles(ok_records, [r.seconds for r in ok_records])
    beyond = sum(t * 1e3 > p90 for _, t in ok)
    setup_raw = statistics.median(t for t, _ in setup)
    setup_s = statistics.median(reference.at_nominal(t, ref) for t, ref in setup)
    failed = len(records) - len(ok)
    metrics = {
        "work_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_unit = "trials_per_s" if wl.unit == "trials" else "points_per_s"
    lines = [
        f"host_speed {raw_rate / rate:.4g} x nominal  "
        "(timings below are at nominal speed; raw values in brackets)",
        f"{per_unit} {rate:.6g} {wl.unit}/s  [{raw_rate:.6g}]  (reported as work_per_s)",
        f"op_ms_p50 {p50:.6g} ms  [{raw_p50:.6g}]",
        f"op_ms_p90 {p90:.6g} ms  [{raw_p90:.6g}]  "
        f"({len(ok)} timed operations, {beyond} beyond p90)",
        f"setup_s {setup_s:.6g} s  [{setup_raw:.6g}]  (median of {len(setup)} fresh processes)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB",
        f"failed_op_share {failed / len(records):.6g} fraction  "
        f"({failed} failed of {len(records)} attempted)",
    ]
    return metrics, lines


def per_layer(wl, tracer, records) -> tuple[dict, list[str]]:
    import tracer as tracing

    traced = [r for r in records if r.traced]
    traced_s = sum(r.seconds for r in traced)
    # Passes alternate and hold the same operations, so per-operation time
    # at nominal host speed compares.
    scaled = at_nominal_speed(records, wl.speed_exponent)
    on = statistics.fmean(t for r, t in zip(records, scaled) if r.traced)
    off = statistics.fmean(t for r, t in zip(records, scaled) if not r.traced)
    overhead = on / off - 1.0
    metrics = {}
    lines = [f"{'span':44s} {'calls':>9s} {'self_s':>10s} {'self_share':>10s}"]
    for name in tracing.span_names():
        calls = tracer.calls.get(name, 0)
        self_s = tracer.self_ns.get(name, 0) / 1e9
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_share"] = (self_s / traced_s, "fraction")
        lines.append(f"{name:44s} {calls:9d} {self_s:10.4f} {self_s / traced_s:10.4f}")
    for name, value in tracer.counters().items():
        unit = "ratio" if name.endswith(("_over_n", "_share")) else "count"
        metrics[name] = (value, unit)
        lines.append(f"{name} {value:.6g} {unit}")
    metrics["trace.overhead_share"] = (overhead, "fraction")
    lines.append(f"trace.overhead_share {overhead:.4g} fraction  "
                 f"(traced {traced_s:.3f} s over {len(traced)} operations)")
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "dbvsim" / "__init__.py").is_file():
        print(f"error: no dbvsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = measure_setup(args.workload) if args.trace == 0 else []

    import workloads

    # Batches are sized for timing, not for resolving eps; silence that advice.
    logging.getLogger("dbvsim.montecarlo").setLevel(logging.ERROR)
    wl = workloads.build(args.workload)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(bind_in=(workloads,))
    records = measure(wl, args, tracer)

    if args.trace:
        metrics, lines = per_layer(wl, tracer, records)
    else:
        metrics, lines = end_to_end(wl, records, setup)
    failures: dict[str, int] = {}
    for r in records:
        if r.error is not None:
            key = f"{r.label}: {r.error}" + ("  (known defect)" if r.known_defect else "")
            failures[key] = failures.get(key, 0) + 1
    prov = provenance(args, wl, [r.master_seed for r in records])

    OUT.mkdir(exist_ok=True)
    detail = {
        "provenance": prov,
        "setup_s_runs": setup,
        "failures": failures,
        "operations": [vars(r) for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_path(args).write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in lines:
        print("  " + line)
    for key, count in sorted(failures.items()):
        print(f"  failed {count}x {key}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    # A failure that is not a known defect, raised or a failed check, is a
    # wrong result; known defects count as failed operations only.
    correct = not any(r.error is not None and not r.known_defect for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
