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
import os
import sys
import time

from . import io as mio
from .applications import (EXPANDER_KINDS, beck_statistics, expander_report,
                           projective_equivalence_count, representation_counts,
                           representation_report)
from .energy import energy, energy_report
from .field import FieldContext
from .generators import RANDOM_POINTS, generate_instance
from .incidence import count_incidences, refuse_scan_work, rich_transforms_brute
from .pivot import check_reduction, refuse_reduction_work, rich_transforms_pivot
from .sweep import SweepConfig, json_line, rows_to_csv, rows_to_jsonl, sweep

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
    print(count_incidences(args.points, args.transforms))
    return 0


def _cmd_rich_enum(args) -> int:
    if args.method == "both":
        # The pivot runs first, so the scan is refused before it starts.
        refuse_scan_work(args.points, args.k)
    results, timings = {}, {}
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
    record = (energy_report(args.hyperbolas, args.ctx) if args.transforms is None
              else {"size": len(args.transforms), "energy": energy(args.transforms)})
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
    _emit_record(beck_statistics(args.points, args.constant), args.json)
    return 0


def _cmd_expander(args) -> int:
    _emit_record(expander_report(args.a, args.kind), args.json)
    return 0


def _cmd_equiv_count(args) -> int:
    _emit_record(projective_equivalence_count(args.a, args.s), args.json)
    return 0


def _cmd_verify_reduction(args) -> int:
    p = args.ctx.p
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    pivots = None
    if not args.exhaustive:
        n = min(args.samples, p * p)
        refuse_reduction_work(p, n)
        pivots = list(generate_instance(RANDOM_POINTS, {"n": n}, args.seed, args.ctx).points)
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
