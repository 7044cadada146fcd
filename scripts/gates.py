#!/usr/bin/env python3
"""Every CI gate of mobinc, offline, in one table:

    python3 scripts/gates.py

Each gate writes its inputs to a scratch directory, runs `python -m mobinc.cli`
under PYTHONPATH=src (or the benchmark) and checks exit codes, stdout and stderr.
Every gate runs, even after one fails.  Each prints one line with its wall time;
a failing one also prints why and the last lines of its commands' stdout and
stderr.  The exit code is 1 if any gate failed.  The script takes no arguments.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import chain, islice, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# python -c program: the CLI on its arguments, with every worker it starts
# counted on stderr after the CLI's own output.
COUNTING_CLI = """import sys
from mobinc import cli, field
built, Process = [], field.Process
field.Process = lambda *args, **kwargs: built.append(1) or Process(*args, **kwargs)
code = cli.main(sys.argv[1:])
print(len(built), file=sys.stderr)
sys.exit(code)"""

# python -c program: the CLI on its arguments, with 1/2 and 1/3 swapped in
# the inverse table of every FieldContext it builds.
SWAPPED_CLI = """import sys
from mobinc import cli, field
init = field.FieldContext.__init__
def swapped(self, p):
    init(self, p)
    self._inv[2], self._inv[3] = self._inv[3], self._inv[2]
field.FieldContext.__init__ = swapped
sys.exit(cli.main(sys.argv[1:]))"""

# The worker processes --jobs 2 starts once the serial budget is spent.
JOBS2_WORKERS = min(2, os.cpu_count() or 1) - 1


class GateFailed(Exception):
    """A check of a gate does not hold."""


class Run:
    """One gate's run: its scratch directory and what its commands printed."""

    def __init__(self, tmp: str):
        self.tmp, self.log = Path(tmp), []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise GateFailed(what)

    def run(self, *argv, code=0, timeout=None, env=None) -> tuple[str, str]:
        """Run argv in the repo root, check its exit code, return stdout and stderr."""
        argv = [str(arg) for arg in argv]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        out, err = (s.decode(errors="surrogateescape") for s in (proc.stdout, proc.stderr))
        self.log.append((argv, out, err))
        self.check(proc.returncode == code, f"exit {proc.returncode}, expected {code}")
        return out, err

    def cli(self, *args, **kwargs) -> tuple[str, str]:
        env = dict(os.environ, PYTHONPATH="src")
        return self.run(sys.executable, "-m", "mobinc.cli", *args, env=env, **kwargs)

    def cli_workers(self, *args, **kwargs) -> tuple[str, int]:
        """The CLI's stdout and the number of worker processes it started,
        counted by a wrapper around field.Process that prints it last on
        stderr."""
        env = dict(os.environ, PYTHONPATH="src")
        out, err = self.run(sys.executable, "-c", COUNTING_CLI, *args, env=env, **kwargs)
        return out, int(err.rsplit("\n", 2)[-2])

    def cli_swapped(self, *args, **kwargs) -> str:
        """The CLI's stdout under the swapped inverse table of SWAPPED_CLI."""
        env = dict(os.environ, PYTHONPATH="src")
        return self.run(sys.executable, "-c", SWAPPED_CLI, *args, env=env, **kwargs)[0]

    def file(self, lines) -> Path:
        """A new input file holding one line per item."""
        path = self.tmp / f"input{len(list(self.tmp.iterdir()))}"
        path.write_text("".join(f"{line}\n" for line in lines))
        return path

    def sample(self, p: int, n: int) -> Path:
        """n points of F_p^2 drawn without repeats from random.Random(p)."""
        return self.file(f"{v // p},{v % p}" for v in random.Random(p).sample(range(p * p), n))

    def grid(self, p: int) -> Path:
        return self.file(f"{x},{y}" for x in range(p) for y in range(p))

    def seq(self, last: int) -> Path:
        """The values 0 to last, as `seq 0 last` prints them."""
        return self.file(range(last + 1))

    def cfg(self, primes: int | str, bounds: str, generator: str, *params: str) -> Path:
        return self.file([f"primes = {primes}", f"bounds = {bounds}",
                          f"generator = {generator}", *params, "seed = 1"])

    def stdout_is(self, *args, expected: str, timeout=None) -> str:
        """Check stdout, trailing newlines aside, against expected; return stdout."""
        out = self.cli(*args, timeout=timeout)[0]
        text = out.rstrip("\n")
        self.check(text == expected, f"stdout {text!r}, expected {expected!r}")
        return out

    def refused(self, *args, timeout=10) -> str:
        """Check that the run exits 2 with one line on stderr; return it."""
        err = self.cli(*args, code=2, timeout=timeout)[1]
        self.check(err.count("\n") == 1, f"{err.count(chr(10))} stderr lines, expected 1")
        return err

    def listing(self, p: int, k: int, method: str, points: Path, timeout=10) -> int:
        """The number of maps rich-enum lists; --method both must end in MATCH."""
        out = self.cli("rich-enum", "-p", p, "-k", k, "--method", method,
                       "--points", points, timeout=timeout)[0]
        if method != "both":
            return out.count("\n")
        self.check(out.splitlines()[-1:] == ["MATCH"], "the listing does not end in MATCH")
        return out.count("\n") - 1

    def matches_beck(self, p: int, points: Path, method="both", timeout=10) -> None:
        """rich-enum -k 3 lists exactly beck's defined_count maps."""
        listed = self.listing(p, 3, method, points, timeout)
        defined = json.loads(self.cli("beck", "--json", "-p", p, "--points", points)[0])
        defined = defined["defined_count"]
        self.check(listed == defined, f"listed {listed}, beck defined_count {defined}")

    def sampled_reduction(self, p: int, samples: int, transforms: int) -> None:
        """verify-reduction on seeded pivots reports no fault, and its stdout does
        not depend on --jobs."""
        argv = ("verify-reduction", "-p", p, "--samples", samples, "--seed", 1, "--jobs")
        out = self.cli(*argv, 2)[0].rstrip("\n")
        first = out.split("\n")[0]
        self.check(f" transforms={transforms} " in first, f"transforms is not {transforms}")
        self.check(" violations=0 " in first, "violations is not 0")
        self.check(out.split("\n")[-1] == "OK", "the last line is not OK")
        self.stdout_is(*argv, 1, expected=out)

    def bench_passes(self, workload: str, seed: int) -> None:
        """A one-second benchmark run of the workload fails no operation."""
        out = self.run(sys.executable, "bench/run.py", "--workload", workload, "--seed", seed,
                       "--seconds", 1, "--trace", 0)[0]
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        self.check(not result["failed"], f"{workload} seed {seed}: {result}")


CORPUS = sorted(f"corpus/{c.name}" for c in ROOT.glob("corpus/*.cfg"))

WORKLOADS = ("enum_random", "reduction_exhaustive", "sweep_bounds", "apps_cli")

# Name, reason and checks of each gate, in the order CI runs them.
GATES = [
    ("Exhaustive reduction check at p = 31",
     "Correctness only: the report must match its closed form exactly, and --jobs 1, which "
     "starts no worker, must print the same bytes as --jobs 2.",
     lambda g: g.check(
         g.stdout_is("verify-reduction", "-p", 31, "--exhaustive", "--jobs", 2, expected=(
             "p=31 pivots=961 transforms=864900 triples=778410000 violations=0 "
             "line-collisions=0 det-mismatches=0\nOK"))
         == g.cli("verify-reduction", "-p", 31, "--exhaustive", "--jobs", 1)[0],
         "--jobs 1 and 2 print different bytes")),
    ("Exhaustive reduction check at p = 17 under the serial budget",
     "About 1.5-2.5 ms of rows, inside parallel_map's serial budget of 6 ms, so --jobs 2 "
     "mostly runs every row in the caller, and a slow run starts a worker for the rows "
     "left.  Either way --jobs 2 must print the bytes of --jobs 1.",
     lambda g: g.check(
         g.stdout_is("verify-reduction", "-p", 17, "--exhaustive", "--jobs", 2, expected=(
             "p=17 pivots=289 transforms=73984 triples=18939904 violations=0 "
             "line-collisions=0 det-mismatches=0\nOK"))
         == g.cli("verify-reduction", "-p", 17, "--exhaustive", "--jobs", 1)[0],
         "--jobs 1 and 2 print different bytes")),
    ("Exhaustive reduction check at p = 53",
     "The largest exhaustive check the CLI starts, whose rows are its widest batches, "
     "52^2 lanes compared once per u; about 0.25-0.4 s a run on two cores, interpreter start "
     "included, and about 0.1 s of rows, far over the serial budget, so --jobs 2 starts a "
     "worker.  --jobs 1, which starts none, must print the same bytes.",
     lambda g: (
         (pooled := g.cli_workers("verify-reduction", "-p", 53, "--exhaustive", "--jobs", 2,
                                  timeout=180)),
         g.check(pooled[0].rstrip("\n") == (
             "p=53 pivots=2809 transforms=7595536 triples=20538329344 violations=0 "
             "line-collisions=0 det-mismatches=0\nOK"), f"stdout {pooled[0]!r}"),
         g.check(pooled[1] == JOBS2_WORKERS,
                 f"--jobs 2 started {pooled[1]} workers, expected {JOBS2_WORKERS}"),
         g.check(pooled[0] == g.cli("verify-reduction", "-p", 53, "--exhaustive",
                                    "--jobs", 1, timeout=180)[0],
                 "--jobs 1 and 2 print different bytes"))),
    ("Exhaustive reduction check at p = 17 under a corrupted inverse table",
     "With 1/2 and 1/3 swapped in the inverse table the reduction fails, and no row's pivots "
     "agree on q2*gamma, so every batch is split per pivot and recounted entry by entry; at "
     "p = 17 that takes well under a second.  Both runs must exit 1 and report the same "
     "violations, those of the set reference, with --jobs 1 and with --jobs 2.",
     lambda g: (argv := ("verify-reduction", "-p", 17, "--exhaustive", "--jobs"),
                out := g.cli_swapped(*argv, 1, code=1),
                g.check(out.rstrip("\n") == (
                    "p=17 pivots=289 transforms=73984 triples=18939904 violations=874888 "
                    "line-collisions=0 det-mismatches=18496"), f"stdout {out!r}"),
                g.check(g.cli_swapped(*argv, 2, code=1) == out,
                        "--jobs 1 and 2 print different bytes"))),
    ("Sampled reduction check at p = 127",
     "Eight seeded pivots, each with its 126^2 curved maps: the row and per-pivot tables at a "
     "p well above the exhaustive gate's.  The pivots go to the workers in rows, so stdout "
     "must not depend on --jobs.",
     lambda g: g.sampled_reduction(127, 8, 127008)),
    ("Sampled reduction checks on both sides of the byte lanes",
     "Four seeded pivots at p = 251, the last prime whose rows run in 16-bit byte lanes, and "
     "four at p = 257, the first whose rows gather tuples; about 1 s and 3 s on one core.  "
     "Each must report no fault, and stdout must not depend on --jobs.",
     lambda g: [g.sampled_reduction(p, 4, 4 * (p - 1) ** 2) for p in (251, 257)]),
    ("Corpus sweeps give the same bytes with one and two workers",
     "The corpus sweeps take about 2-15 ms each, so --jobs 2 runs the shorter ones wholly "
     "in the caller, inside parallel_map's serial budget.  The added sweep's 8 cells take "
     "about 9-16 ms each, over the budget, so --jobs 2 must start a worker for the cells "
     "after the first.  stdout must not depend on --jobs.",
     lambda g: [(pooled := g.cli_workers("sweep", "--config", config, "--jobs", 2),
                 g.check(g.cli("sweep", "--config", config, "--jobs", 1)[0] == pooled[0],
                         f"{config}: --jobs 1 and 2 differ"),
                 g.check(config in CORPUS or pooled[1] == JOBS2_WORKERS,
                         f"--jobs 2 started {pooled[1]} workers, expected {JOBS2_WORKERS}"))
                for config in (*CORPUS, g.cfg("61,67", "thm1-rich", "random-points",
                                              "sizes = 80,100", "reps = 2", "k = 3"))]),
    ("Pivot equals group scan at p = 61 and p = 1009",
     "120 points at p = 61, and 54 points at p = 1009, which lie inside thm1-rich's hypothesis "
     "(|P| <= p^(15/26)); the p = 1009 scan takes about 0.5 s.  Each listing must end in MATCH, "
     "and beck's defined_count, which no map is built for, must equal the number of maps "
     "listed.",
     lambda g: [g.matches_beck(p, g.sample(p, n)) for p, n in ((61, 120), (1009, 54))]),
    ("Pivot listing at the 200-point limit",
     "200 points at p = 9973, the most the pivot limit admits, list about 1.3 million maps in "
     "about 3.5 s.  The listing must hold exactly beck's defined_count lines.",
     lambda g: g.matches_beck(9973, g.sample(9973, 200), "pivot", timeout=60)),
    ("Pivot listing on 200 random points at p = 31",
     "The first 178 pivots move more than p/2 points, so the walk counts their charts in "
     "big-int masks, and the last 22 count point pairs.  The listing must end in MATCH and "
     "hold exactly beck's defined_count maps (28774).",
     lambda g: g.matches_beck(31, g.sample(31, 200))),
    ("Pivot listing on 200 random points at p = 151",
     "The first 121 pivots move more than p/2 points and count their chart lines in big-int "
     "masks, the last 79 count point pairs; with all 200 points off the axis, every row of "
     "the group scan is counted in masks.  The listing must end in MATCH and hold exactly "
     "beck's defined_count maps; each side takes under a second.",
     lambda g: g.matches_beck(151, g.sample(151, 200))),
    ("Pivot listing on the full grid of F_13",
     "All 169 points: every row and column is full, and there are pivots with q2 = 0 and "
     "maps with a = 0.  Each of the 13*168 = 2184 maps has at least 12 points of the grid, "
     "and the 13*12 = 156 affine maps have 13.  Each run takes under half a second.",
     lambda g: (grid := g.grid(13),
                g.check(g.listing(13, 3, "both", grid) == 2184, "k = 3 lists not 2184 maps"),
                g.check(g.listing(13, 13, "pivot", grid) == 156, "k = 13 lists not 156 maps"))),
    ("Pivot listing above every richness on the full grid of F_13",
     "At k = 10^9 no map is rich.  No pivot of the grid moves k - 1 points, so the walk "
     "skips every pivot before it counts, and every row of the group scan needs more points "
     "than lie off the axis.  rich-enum --method both must print only MATCH, within seconds.",
     lambda g: g.check(g.listing(13, 10**9, "both", g.grid(13)) == 0, "a map is listed")),
    ("Incidences of the full grid of F_101",
     "All 10201 points against the 10100 affine maps x -> ax + b and the 10100 maps "
     "(x + b)/(x + d), d != b.  Each map has one point per abscissa but its pole, so "
     "I = 101 * 20200 - 10100.  Below p = 255 each of the 101 columns is counted for all "
     "maps at once in their graph tables: well under a second.",
     lambda g: g.stdout_is("incidence", "-p", 101, "--points", g.grid(101), "--transforms",
                           g.file(chain(
                               (f"{a},{b},0,1" for a in range(1, 101) for b in range(101)),
                               (f"1,{b},1,{d}" for b in range(101) for d in range(101) if d != b))),
                           expected="2030100", timeout=10)),
    ("Incidences of the full grids on both sides of the graph tables",
     "The full grid of F_251, the last prime whose count reads the maps' byte graph tables, "
     "and of F_257, the first whose count walks the abscissae per map, each against the 20p "
     "affine maps x -> ax + b, 1 <= a <= 20, and the 20(p - 1) maps (x + b)/(x + d), b < 20, "
     "d != b: about 2.6 million column tests, under count_incidences' limit.  Each affine map "
     "has p points of the grid and each other map p - 1, so I = p * 20p + (p - 1) * 20(p - 1).",
     lambda g: [g.stdout_is("incidence", "-p", p, "--points", g.grid(p), "--transforms",
                            g.file(chain(
                                (f"{a},{b},0,1" for a in range(1, 21) for b in range(p)),
                                (f"1,{b},1,{d}" for b in range(20) for d in range(p) if d != b))),
                            expected=str(20 * p * p + 20 * (p - 1) ** 2), timeout=30)
                for p in (251, 257)]),
    ("Equivalence count at the 60-element cap",
     "PGL(2, p) is sharply 3-transitive, so every ordered target triple of 60 elements keeps "
     "a 3-element pattern: 60*59*58 maps and C(60, 3) image sets.  The patterns 0..3 and "
     "0..4 in 0..59 run the pair walk at p = 251, the last prime whose count reads the "
     "pairs' byte graph tables, and at p = 257, the first that filters each pair in a "
     "comprehension; 0..3 has a stabilizer of order 4 and 0..4 one of order 2 at both "
     "primes.  Each run takes a fraction of a second.",
     lambda g: [g.stdout_is("equiv-count", "-p", 9973, "--a", g.seq(59), "--s", g.seq(2),
                            expected="map_count=205320 subset_count=34220", timeout=10),
                *(g.stdout_is("equiv-count", "-p", p, "--a", g.seq(59), "--s", g.seq(last),
                              expected=expected, timeout=10)
                  for p, last, expected in (
                      (251, 3, "map_count=48668 subset_count=12167"),
                      (257, 3, "map_count=46136 subset_count=11534"),
                      (251, 4, "map_count=11604 subset_count=5802"),
                      (257, 4, "map_count=10148 subset_count=5074")))]),
    ("Expander rational on both sides of a full value set",
     "The rational value set lies in F_p, and the loop stops once it is all of F_p.  At "
     "p = 1009, 30 values miss two residues and 40 fill the field; each run takes well under "
     "a second.",
     lambda g: [g.check(f" output_size={size} " in g.cli("expander", "rational", "-p", 1009,
                                                         "--a", g.seq(last), timeout=10)[0],
                        f"output_size is not {size}")
                for last, size in ((29, 1007), (39, 1009))]),
    ("Refusals return within seconds",
     "Every run is refused before its work starts.  The 200 points at p = 9973 define 1293471 "
     "maps: the thm3-energy row's incidence limit, which comes before its energy limit, "
     "refuses over 2*10^5 maps; a sweep of 10^9 reps is over the cap on the rows it holds; "
     "the group scan of 60 points at k = 1 would keep about 61 million maps; 61 values are "
     "over the expander rational and equiv-count caps, and 300 values at p = 99991 over the "
     "expander shift-invert cap; a cor-krich-lines row over 100000 random points or a "
     "1000 x 1000 grid is over the line-pair limit; a thm1-incidence row over 10^6 random "
     "points and a thm2-incidence row over a 1000 x 1000 grid are over the sweep's cap of "
     "2*10^5 points; the full grid of F_101 against 40000 maps needs 4040000 column tests, "
     "over the one incidence limit, count_incidences' 2000^2 column tests.  Each must exit 2 "
     "with one stderr line well inside 10 s.",
     lambda g: [g.refused(*argv) for argv in (
         ("sweep", "--config", g.cfg(9973, "thm3-energy", "transforms-defined-by", "n = 200",
                                     "na = 5"), "--jobs", 1),
         ("sweep", "--config", g.cfg(9973, "thm1-rich", "random-points", "reps = 1000000000"),
          "--jobs", 1),
         ("sweep", "--config", g.cfg(9973, "cor-krich-lines", "random-points", "n = 100000"),
          "--jobs", 1),
         ("sweep", "--config", g.cfg(9973, "cor-krich-lines", "ap", "na = 1000", "nb = 1000"),
          "--jobs", 1),
         ("sweep", "--config", g.cfg(9973, "thm1-incidence", "random-points", "n = 1000000"),
          "--jobs", 1),
         ("sweep", "--config", g.cfg(9973, "thm2-incidence", "ap", "na = 1000", "nb = 1000"),
          "--jobs", 1),
         ("rich-enum", "-p", 1009, "-k", 1, "--method", "brute", "--points", g.sample(1009, 60)),
         ("expander", "rational", "-p", 1009, "--a", g.seq(60)),
         ("expander", "shift-invert", "-p", 99991, "--a", g.seq(299)),
         ("equiv-count", "-p", 1009, "--a", g.seq(60), "--s", g.seq(3)),
         ("incidence", "-p", 101, "--points", g.grid(101), "--transforms",
          g.file(islice((f"1,{b},{c},{d}" for b, c, d in product(range(101), repeat=3)
                         if (d - b * c) % 101), 40000))),
     )]),
    ("A failing sweep names the same cell for any --jobs",
     "The ratio 2 has order 3 mod 7 and order 5 mod 31, so the cells at p = 7 and p = 31 "
     "cannot draw six terms.  Both runs must exit 2 with the same one stderr line, which "
     "names the lowest failing cell.",
     lambda g: (config := g.cfg("11,7,13,19,23,29,37,41,31", "thm2-rich", "gp", "na = 6",
                                "ratio = 2"),
                err := g.refused("sweep", "--config", config, "--jobs", 1),
                g.check(g.refused("sweep", "--config", config, "--jobs", 2) == err,
                        "--jobs 1 and 2 print different errors"),
                g.check(err.startswith("error: sweep cell p=7 "), "the error names no cell p=7"))),
    ("A sweep draws only what its rows read",
     "A lone thm1-rich row reads random points, not the 3000 x 3000 hyperbola-grid family of "
     "9*10^6 translates, which is never built.",
     lambda g: g.cli("sweep", "--config", g.cfg(9973, "thm1-rich", "hyperbola-grid",
                                                "na = 3000", "nb = 3000"),
                     "--jobs", 1, timeout=10)),
    ("Energy of the affine group of F_31",
     "The 930 maps x -> ax + b form a subgroup H, so E(H) = |H|^3; every member sends "
     "infinity to infinity.",
     lambda g: g.stdout_is("energy", "-p", 31, "--transforms",
                           g.file(f"{a},{b},0,1" for a in range(1, 31) for b in range(31)),
                           expected="size=930 energy=804357000")),
    ("Energy on both sides of the byte kernel",
     "The maps x -> +-x + b form a subgroup H, so E(H) = |H|^3; below p = 255 energy keys "
     "quotients by 4-byte rows, at p = 251 over all 252 points of the line, and above by "
     "integers.",
     lambda g: [g.stdout_is("energy", "-p", p, "--transforms",
                            g.file(f"{a},{b},0,1" for a in (1, p - 1) for b in range(p)),
                            expected=expected)
                for p, expected in ((251, "size=502 energy=126506008"),
                                    (257, "size=514 energy=135796744"))]),
    ("Benchmark smoke run",
     "One short seeded pass per workload, on seed 1 and on the held-out seed 17; the fixtures "
     "pin the stdout of the apps_cli invocations and the sweep JSONL, so output drift fails "
     "here on two input sets.",
     lambda g: [g.bench_passes(workload, seed) for seed in (1, 17) for workload in WORKLOADS]),
]


def _tail(text: str, lines: int = 20) -> str:
    return "".join(text.splitlines(keepends=True)[-lines:])


def main() -> int:
    failed = 0
    for name, why, checks in GATES:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            run = Run(tmp)
            try:
                checks(run)
                error = None
            except Exception as exc:  # report the gate, then run the next one
                error = str(exc) if isinstance(exc, GateFailed) else traceback.format_exc()
        print(f"{'FAIL' if error else 'PASS'} {name} ({time.perf_counter() - start:.2f} s)")
        if error:
            failed += 1
            print(f"  {error.rstrip()}\n  ({why})")
            for argv, out, err in run.log:
                print(f"  $ {' '.join(argv)}\n--- stdout\n{_tail(out)}--- stderr\n{_tail(err)}")
        sys.stdout.flush()
    print(f"{len(GATES) - failed} of {len(GATES)} gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
