#!/usr/bin/env python3
"""Regenerate the stored expected outputs in bench/fixtures/.

    python3 bench/make_fixtures.py 0 19        # seeds 0..19, every workload

Runs one untraced pass of each fixture-bearing workload per seed and
stores what the program printed or returned (counts and SHA-256 digests).
A seed is stored only when every check that needs no fixture passed on it.
Fixtures pin the current outputs: regenerate them only after a change that
is meant to alter the program's output, and commit the result.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def observe(workload, seed: int, workdir: Path) -> dict:
    state, _ = workload.setup(seed, workdir, 1, {})
    outcomes = workload.run_pass(state, tracing.NullTracer())
    bad = [out.task for out in outcomes if out.failed]
    if bad:
        raise SystemExit(f"{workload.name} seed {seed}: {bad} failed; not stored")
    return {out.task: out.observed for out in outcomes
            if out.task in workload.fixture_tasks}


def main(argv) -> int:
    first, last = (int(v) for v in argv[1:3])
    workdir = HERE / "out" / "fixture-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.make_workloads(ROOT).values():
            if not workload.fixture_tasks:
                continue
            path = HERE / "fixtures" / f"{workload.name}.json"
            stored = json.loads(path.read_text()) if path.exists() else {}
            for seed in range(first, last + 1):
                stored[str(seed)] = observe(workload, seed, workdir)
                print(f"{workload.name} seed {seed} stored", file=sys.stderr)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
