#!/usr/bin/env python3
"""Seeded benchmark of mobinc: one workload per run, closed loop.

    python3 bench/run.py --workload enum_random --seed 1 --seconds 25 --trace 0

The run builds the workload's inputs from --seed, then runs passes of the
workload one after another until --seconds are used, checking every output.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics,
taken from a traced run of the same workload, and the spans are written to
bench/out/.  --jobs (at most os.cpu_count()) sets the worker count of the
pooled reduction check.  Times are at reference speed (see speed.py).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
WORKLOADS = ("enum_random", "reduction_exhaustive", "sweep_bounds", "apps_cli")
SETUP_REPS = 5
LAYERS = ("field", "incidence", "pivot", "energy", "applications",
          "generators", "sweep", "io", "cli", "bench")


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=min(2, os.cpu_count() or 1),
                    help="worker processes for the pooled reduction check")
    return ap.parse_args(argv)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_workloads():
    """Import the program and the workloads afresh; return the module."""
    for name in list(sys.modules):
        if name == "workloads" or name == "mobinc" or name.startswith("mobinc."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(name, seed, jobs, workdir):
    """Import and build inputs SETUP_REPS times; keep the last, time them all.

    Returns the workload, its state, and per repetition the interval it
    took and its per-layer set-up seconds.
    """
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        mod = _import_workloads()
        workload = mod.make_workloads(ROOT)[name]
        path = FIXTURES / f"{name}.json"
        fixtures = json.loads(path.read_text()) if path.exists() else {}
        state, layer_times = workload.setup(seed, workdir, jobs, fixtures)
        reps.append((start, time.perf_counter(), layer_times))
    return workload, state, reps


def run_phase(workload, state, tr, budget):
    """Closed loop: whole passes, one after another, within the budget.

    Returns, per pass, (start, end, CPU seconds of this process and its
    waited-for children), and the outcomes of every task.
    """
    passes, outcomes = [], []
    undo = workload.instrument(tr) if tr.enabled else (lambda: None)
    try:
        begin = time.perf_counter()
        while True:
            tr.pass_index = len(passes)
            gc.collect()  # every pass starts from the same heap state
            cpu0 = os.times()
            start = time.perf_counter()
            outcomes.extend(workload.run_pass(state, tr))
            end = time.perf_counter()
            cpu1 = os.times()
            passes.append((start, end, sum(cpu1[:4]) - sum(cpu0[:4])))
            typical = statistics.median(e - s for s, e, _ in passes)
            if end - begin + typical > budget:
                break
    finally:
        undo()
    return passes, outcomes


class Pass:
    """One pass's wall and CPU time, net of the sampler, at reference speed."""

    def __init__(self, sampler, start, end, cpu):
        self.factor = sampler.factor(start, end)
        self.raw_s = end - start - sampler.spent(start, end)
        self.wall_s = self.raw_s * self.factor
        self.cpu_s = (cpu - sampler.spent_cpu(start, end)) * self.factor


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def per_pass_layer_self(spans, pause) -> dict:
    by_pass: dict = {}
    for sp in spans:
        by_pass.setdefault(sp.pass_index, []).append(sp)
    sums = [tracing.layer_self_times(group, pause) for group in by_pass.values()]
    return {layer: statistics.median(s.get(layer, 0.0) for s in sums)
            if sums else 0.0 for layer in LAYERS}


def check_tally(outcomes) -> dict:
    tally: dict = {}
    for out in outcomes:
        for check, result in out.checks.items():
            tally.setdefault(check, {}).setdefault(result, 0)
            tally[check][result] += 1
        if out.error is not None:
            tally.setdefault("raised", {}).setdefault("fail", 0)
            tally["raised"]["fail"] += 1
    return tally


def main(argv=None) -> int:
    args = _parse_args(argv)
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        return _fail(f"--jobs must be between 1 and os.cpu_count() = {cpus}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    for needed in ("src/mobinc/__init__.py", "corpus/baselines.json",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return _fail(f"{needed} is missing; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir = OUT / f"work-{run_id}"
    workdir.mkdir(parents=True, exist_ok=True)
    tr = tracing.Tracer(run_id) if args.trace else None
    try:
        with SpeedSampler() as sampler:
            workload, state, reps = set_up(
                args.workload, args.seed, args.jobs, workdir)
            budget = args.seconds / 2 if tr else args.seconds
            raw_passes, outcomes = run_phase(
                workload, state, tracing.NullTracer(), budget)
            if tr:
                raw_traced, traced_outcomes = run_phase(
                    workload, state, tr, budget)
                outcomes += traced_outcomes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [Pass(sampler, *p) for p in raw_passes]
    failed = sum(1 for out in outcomes if out.failed)
    wall_s = statistics.median(p.wall_s for p in untraced)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": args.jobs,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "passes": len(untraced),
        "checks": check_tally(outcomes),
    }
    if tr:
        traced = [Pass(sampler, *p) for p in raw_traced]
        tracing.settle(tr.spans, sampler.spent,
                       {i: p.factor for i, p in enumerate(traced)})
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        computed = workload.layer_metrics(tr.spans, state)
        for key in reps[0][2]:
            computed[key] = statistics.median(
                layers[key] * sampler.factor(start, end)
                for start, end, layers in reps)
        traced_wall = statistics.median(p.wall_s for p in traced)
        layer_self = per_pass_layer_self(tr.spans, sampler.spent)
        computed.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        computed.update({
            "run.cpu_s": statistics.median(p.cpu_s for p in untraced),
            "run.raw_wall_s": statistics.median(p.raw_s for p in untraced),
            "run.speed_factor": statistics.median(p.factor for p in untraced),
            "trace.overhead_ratio": traced_wall / wall_s,
            "fail_ratio": failed / len(outcomes),
        })
        unknown = set(computed) - set(values)
        if unknown:
            return _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(computed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        top = statistics.median(tracing.per_pass_top_level(tr.spans))
        summary = {
            "wall_s": wall_s,
            "traced_wall_s": traced_wall,
            "trace.overhead_ratio": traced_wall / wall_s,
            "layer_self_s": layer_self,
            "top_level_s": top,
            "outside_spans_s": traced_wall - top,
        }
        meta["traced_passes"] = len(traced)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{run_id}.json"
        tracing.write_trace(trace_path, meta, tr.spans, summary)
        print(f"bench: spans written to {trace_path}; per pass, top-level "
              f"spans {top:.3f} s of traced wall {traced_wall:.3f} s, untraced "
              f"wall {wall_s:.3f} s", file=sys.stderr)
    else:
        setup_s = statistics.median(
            (end - start - sampler.spent(start, end)) * sampler.factor(start, end)
            for start, end, _ in reps)
        values = {"wall_s": wall_s, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
