"""Command-line front end.

Exit codes: 0 success, 2 bad input or failed validation (one-line diagnostic
on stderr), 1 internal consistency failure (enumeration mismatch, reduction
violation, or a tripped trivial-bound guard).

Every subcommand has one shape: `main` builds the field and loads the files,
the handler prints its record, and `main` prints any failure as one line.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from . import io as mio
from .applications import (
    EXPANDER_KINDS,
    RATIONAL,
    beck_statistics,
    expander_report,
    projective_equivalence_count,
    representation_counts,
    representation_report,
)
from .energy import energy, energy_report, refuse_energy_work
from .field import FieldContext, group_order
from .generators import RANDOM_POINTS, generate_instance
from .incidence import MAX_INCIDENCE_PAIRS, count_incidences, rich_transforms_brute
from .pivot import check_reduction, refuse_pivot_work, rich_transforms_pivot
from .sweep import SweepConfig, json_line, rows_to_csv, rows_to_jsonl, sweep

# The group scan of 200 points at p = 547, about 4 s: the largest one the
# CLI starts.  For m points off the axis y = 0 the scan takes about
# p*min(m(m-1)/2, p*m) steps, plus about 16 steps' worth of its own for each
# of its p + 1 rows: the rows set the time of scans of a few points at a
# large p (2 points at p = 200003 take 4.6 us a row, and one point pair in a
# row about 0.35 us).
MAX_BRUTE_WORK = 547 * (math.comb(200, 2) + 16)
# The most maps the pivot limit lets rich-enum list: C(200, 3) = 1313400.
MAX_BRUTE_LISTING = math.comb(200, 3)
# The exhaustive check at p = 53: the largest run the CLI starts.  743 is
# the largest prime p with p^3 <= 53^5, so one pivot fits up to p = 743.
MAX_REDUCTION_WORK = 53**5
# The rational value set of 60 values: about 3 s at a large prime.  The
# shift-invert set of 200 values, 1.5 to 3 s at p = 99991, fits at any p.
MAX_EXPANDER_WORK = 60**4
# equiv-count over 60 ground elements: 205320 target triples.  A 3-element
# pattern keeps every one, and the run takes about 0.5 s at p = 9973.
MAX_EQUIV_TARGETS = math.perm(60, 3)

# Each file flag and its loader in io, in load order.  The loader is looked
# up on io when it runs, so a wrapped loader is the one called.
_LOADERS = (("points", "load_points"), ("transforms", "load_transforms"),
            ("hyperbolas", "load_hyperbolas"), ("a", "load_scalars"),
            ("b", "load_scalars"), ("s", "load_scalars"))


def _emit_record(record: dict, as_json: bool = False) -> None:
    if as_json:
        print(json_line(record))
    else:
        parts = []
        for key, value in record.items():
            if isinstance(value, float):
                value = f"{value:.12g}"
            parts.append(f"{key}={value}")
        print(" ".join(parts))


def _cmd_incidence(args) -> int:
    # One column test per map and distinct abscissa.  From p = 257 on 2000^2
    # take about 1.2 s; below p = 255 the graph tables count the 251 columns
    # of the full grid of F_251 against 15936 maps (4*10^6 tests) in 0.07 s.
    maps, abscissae = len(args.transforms), len({x for x, _ in args.points.points})
    if maps * abscissae > MAX_INCIDENCE_PAIRS:
        raise ValueError(
            f"the incidences of {maps} maps and points at {abscissae} distinct "
            f"abscissae need {maps * abscissae} column tests, over the limit "
            f"2000^2 = {MAX_INCIDENCE_PAIRS}; give fewer points or maps"
        )
    print(count_incidences(args.points, args.transforms))
    return 0


def _cmd_rich_enum(args) -> int:
    n, p, k = len(args.points), args.ctx.p, args.k
    if args.method != "pivot":
        m = sum(1 for _, y in args.points.points if y)
        work = p * (min(m * (m - 1) // 2, p * m) + 16)
        if work > MAX_BRUTE_WORK:
            raise ValueError(
                f"the group scan of {n} points at p={p}, m={m} of them off the axis "
                f"y = 0, needs about p*(min(m(m-1)/2, p*m) + 16) = {work} steps, over "
                f"the limit 547*(C(200,2) + 16) = {MAX_BRUTE_WORK}; enumerate with "
                f"--method pivot"
            )
        # It keeps every map through k points: p(p-1) maps pass through one
        # point, p-1 through two and at most one through three.  It refuses
        # k < 1 itself.
        through = (n * p * (p - 1) if k == 1 else
                   math.comb(n, 2) * (p - 1) if k == 2 else math.comb(n, 3))
        listing = min(group_order(p), through)
        if k >= 1 and listing > MAX_BRUTE_LISTING:
            raise ValueError(
                f"the group scan of {n} points at p={p} and k={k} may list {listing} "
                f"maps, over the limit C(200,3) = {MAX_BRUTE_LISTING}; give fewer points"
            )
    if args.method != "brute":
        refuse_pivot_work(n)
    results = {}
    timings = {}
    # The pivot runs first.
    for method, enumerate_rich in (("pivot", rich_transforms_pivot),
                                   ("brute", rich_transforms_brute)):
        if args.method in (method, "both"):
            start = time.perf_counter()
            results[method] = enumerate_rich(args.points, args.k)
            timings[method] = (time.perf_counter() - start) * 1000.0
    mio.write_transforms(results["brute" if args.method == "brute" else "pivot"], sys.stdout)
    if args.method == "both":
        if results["pivot"] == results["brute"]:
            print("MATCH")
        else:
            print("MISMATCH")
            pivot, brute = set(results["pivot"].keys), set(results["brute"].keys)
            raise RuntimeError(f"mismatch: pivot-only={len(pivot - brute)} "
                               f"brute-only={len(brute - pivot)}")
    # After the match, so that a mismatch writes its one diagnostic line alone.
    for method, ms in sorted(timings.items()):
        print(f"timing {method}_ms={ms:.3f}", file=sys.stderr)
    return 0


def _cmd_energy(args) -> int:
    if (args.transforms is None) == (args.hyperbolas is None):
        raise ValueError("give exactly one of --transforms or --hyperbolas")
    family = args.transforms if args.hyperbolas is None else args.hyperbolas
    refuse_energy_work(len(family))
    if args.hyperbolas is not None:
        record = energy_report(args.hyperbolas, args.ctx)
    else:
        record = {"size": len(args.transforms), "energy": energy(args.transforms)}
    _emit_record(record, args.json)
    return 0


def _cmd_repr(args) -> int:
    if args.table:
        table = representation_counts(args.a, args.b)
        for lam in sorted(table):
            print(f"{lam},{table[lam]}")
        return 0
    record = representation_report(args.a, args.b)
    _emit_record(record, args.json)
    if args.strict and not record["hypothesis_ok"]:
        raise ValueError("hypothesis |A+B| <= sqrt(p) fails")
    return 0


def _cmd_beck(args) -> int:
    refuse_pivot_work(len(args.points))
    _emit_record(beck_statistics(args.points, args.constant), args.json)
    return 0


def _cmd_expander(args) -> int:
    n, p = len(args.a), args.ctx.p
    if args.kind == RATIONAL:
        work, steps, most = n**4, f"{n}^4", "at most 60 values"
    else:
        # Each value meets the inverse of each distinct difference.
        work = n * min(n * (n - 1), p - 1)
        steps, most = f"{n}*min({n}*{n - 1}, {p - 1})", "fewer values"
    if work > MAX_EXPANDER_WORK:
        raise ValueError(
            f"the {args.kind} value set of {n} values needs {steps} = {work} steps, "
            f"over the limit 60^4 = {MAX_EXPANDER_WORK}; give {most}"
        )
    _emit_record(expander_report(args.a, args.kind), args.json)
    return 0


def _cmd_equiv_count(args) -> int:
    n, targets = len(args.a), math.perm(len(args.a), 3)
    if targets > MAX_EQUIV_TARGETS:
        raise ValueError(
            f"equiv-count over {n} ground elements tries {targets} target "
            f"triples, over the limit 60*59*58 = {MAX_EQUIV_TARGETS}; give at most "
            f"60 ground elements"
        )
    _emit_record(projective_equivalence_count(args.a, args.s), args.json)
    return 0


def _cmd_verify_reduction(args) -> int:
    p = args.ctx.p
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    # Each pivot costs about p^3 steps.
    pivot_count = p * p if args.exhaustive else min(args.samples, p * p)
    if pivot_count * p**3 > MAX_REDUCTION_WORK:
        most = MAX_REDUCTION_WORK // p**3
        hint = (f"check at most {most} pivots at this p with --samples" if most
                else "one pivot at this p is already over the limit; --samples "
                     "checks run up to p = 743")
        raise ValueError(
            f"{pivot_count} pivots at p={p} need about {pivot_count * p**3:.2g} "
            f"steps, over the limit 53^5 = {MAX_REDUCTION_WORK}; {hint}"
        )
    pivots = None
    if not args.exhaustive:
        draw = generate_instance(RANDOM_POINTS, {"n": pivot_count}, args.seed, args.ctx)
        pivots = list(draw.points)
    report = check_reduction(args.ctx, pivots, jobs=args.jobs)
    _emit_record({name.replace("_", "-"): value
                  for name, value in report._asdict().items()})
    if not report.ok:
        raise RuntimeError("REDUCTION CHECK FAILED")
    print("OK")
    return 0


def _cmd_sweep(args) -> int:
    raw = mio.load_config(args.config)
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    config = SweepConfig.from_mapping(raw)
    rows = sweep(config, jobs=args.jobs)
    write_rows = rows_to_csv if args.format == "csv" else rows_to_jsonl
    sys.stdout.write(write_rows(rows, timing=args.timing))
    bad = sum(1 for row in rows if not row["hyp_ok"])
    if args.strict and bad:
        raise ValueError(f"{bad} rows violate their hypotheses")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first main call.  Handlers look
    up what they call as module globals when they run, not when it is built."""
    ap = _Parser(
        prog="mobinc",
        description="Exact Moebius-transformation incidence toolkit over F_p.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("-p", "--prime", type=int, required=True,
                         help="prime modulus")
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = add("incidence", _cmd_incidence,
              "count incidences between a point set and a transform set")
    cmd.add_argument("--points", required=True)
    cmd.add_argument("--transforms", required=True)

    cmd = add("rich-enum", _cmd_rich_enum,
              "enumerate k-rich transformations (pivot and/or brute)")
    cmd.add_argument("--points", required=True)
    cmd.add_argument("-k", type=int, required=True)
    cmd.add_argument("--method", choices=("pivot", "brute", "both"),
                     default="both")

    cmd = add("energy", _cmd_energy,
              "energy of a transform set or hyperbola-translate family")
    cmd.add_argument("--transforms")
    cmd.add_argument("--hyperbolas")
    cmd.add_argument("--json", action="store_true")

    cmd = add("repr", _cmd_repr,
              "representation counts of products, with the small-sumset report")
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--b", required=True)
    cmd.add_argument("--table", action="store_true",
                     help="print the raw lambda,count table instead")
    cmd.add_argument("--json", action="store_true")
    cmd.add_argument("--strict", action="store_true")

    cmd = add("beck", _cmd_beck,
              "rich-or-many dichotomy statistics of a point set")
    cmd.add_argument("--points", required=True)
    cmd.add_argument("--constant", type=float, default=1.0)
    cmd.add_argument("--json", action="store_true")

    cmd = add("expander", _cmd_expander, "expander value-set sizes")
    cmd.add_argument("kind", choices=EXPANDER_KINDS)
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--json", action="store_true")

    cmd = add("equiv-count", _cmd_equiv_count,
              "count subsets of a ground set projectively equivalent to a pattern")
    cmd.add_argument("--a", required=True, help="ground set file")
    cmd.add_argument("--s", required=True, help="pattern set file")
    cmd.add_argument("--json", action="store_true")

    cmd = add("verify-reduction", _cmd_verify_reduction,
              "check the pivot reduction preserves incidences")
    cmd.add_argument("--exhaustive", action="store_true",
                     help="check every pivot in F_p^2")
    cmd.add_argument("--samples", type=int, default=8,
                     help="number of sampled pivots when not exhaustive")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    cmd = sub.add_parser("sweep", help="run a configured bounds sweep")
    cmd.add_argument("--config", required=True)
    cmd.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    cmd.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    cmd.add_argument("--seed", type=int, default=None,
                     help="override the seed in the config file")
    cmd.add_argument("--timing", action="store_true",
                     help="append wall_ms to rows (not byte-reproducible)")
    cmd.add_argument("--strict", action="store_true")
    cmd.set_defaults(handler=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if "prime" in args:
            args.ctx = FieldContext(args.prime)
            for flag, loader in _LOADERS:
                if getattr(args, flag, None) is not None:
                    setattr(args, flag, getattr(mio, loader)(getattr(args, flag), args.ctx))
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
