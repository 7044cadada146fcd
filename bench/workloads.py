"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs passes; a pass is a fixed list of tasks, run one after another.
Every task returns an ``Outcome``: the result of each
correctness check ("pass", "fail" or "unchecked" when the check needs a
stored fixture this seed does not have), any exception it raised, and the
observed values that fixtures store.  Calls into the program are wrapped
in tracer spans named ``<module>.<function>``.

Every task builds a fresh ``FieldContext``, as every CLI invocation does,
so the group-tuple cache is filled inside the timed task.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import mobinc.cli as mcli
import mobinc.io as mio
from mobinc.field import FieldContext, group_order
from mobinc.generators import RANDOM_POINTS, generate_instance
from mobinc.incidence import PointSet, rich_transforms_brute
from mobinc.pivot import check_reduction, rich_transforms_pivot
from mobinc.sweep import SweepConfig, rows_to_jsonl, sweep

PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"


class Outcome(NamedTuple):
    task: str
    checks: dict
    error: Optional[str]
    observed: dict

    @property
    def failed(self) -> bool:
        return self.error is not None or FAIL in self.checks.values()


def derive(seed: int, *labels) -> int:
    """A 63-bit seed for one input, stable across platforms and versions."""
    blob = ":".join(map(str, (seed,) + labels)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def against(expected, observed) -> str:
    """Compare with a stored fixture; no fixture means unchecked."""
    if expected is None:
        return UNCHECKED
    return verdict(expected == observed)


def attempt(tr, task: str, fn) -> Outcome:
    """Run one task in a top-level span; an exception becomes a failure."""
    try:
        with tr.span("bench.task", task=task):
            checks, observed = fn()
    except Exception as exc:  # the benchmark must outlive any program defect
        traceback.print_exc(file=sys.stderr)
        return Outcome(task, {}, f"{type(exc).__name__}: {exc}", {})
    return Outcome(task, checks, None, observed)


def invoke_cli(tr, argv: list[str]) -> tuple[int, str]:
    """Run ``mobinc.cli.main`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.main", sub=argv[0]):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = mcli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments
                code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def listing(maps) -> str:
    return "".join(f"{f.a},{f.b},{f.c},{f.d}\n" for f in maps)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_pass(spans, value, pick=lambda sp: True) -> list[float]:
    """Sum ``value(span)`` over the picked spans of each pass."""
    sums: dict[int, float] = {}
    for sp in spans:
        sums.setdefault(sp.pass_index, 0.0)
        if pick(sp):
            sums[sp.pass_index] += value(sp)
    return [sums[i] for i in sorted(sums)]


def duration(sp) -> float:
    return sp.duration


def named(*names):
    return lambda sp: sp.name in names


def rate(spans, count_attr, pick) -> float:
    """Median over passes of (summed count) / (summed time) of the spans."""
    counts = per_pass(spans, lambda sp: sp.attrs.get(count_attr, 0), pick)
    times = per_pass(spans, duration, pick)
    return median_or_zero(c / t for c, t in zip(counts, times) if t > 0)


class Workload:
    name = ""
    fixture_tasks: tuple = ()

    def setup(self, seed: int, workdir: Path, jobs: int, fixtures: dict):
        """Build the inputs; return (state, per-layer set-up timings)."""
        raise NotImplementedError

    def run_pass(self, state, tr) -> list[Outcome]:
        """Run every task of one pass; return their outcomes in order."""
        raise NotImplementedError

    def layer_metrics(self, spans, state) -> dict:
        """This workload's per-layer metrics from the traced passes."""
        raise NotImplementedError

    def instrument(self, tr):
        """Extra spans for the traced run only; returns their undo."""
        return lambda: None


# --------------------------------------------------------------------------
# enum_random: pivot enumeration against the brute group scan


class EnumRandom(Workload):
    name = "enum_random"
    # (tag, p, n, k, group-tuple path of the brute scan).  Only p = 59 has
    # |PGL(2, p)| above the group-tuple cache limit, so its brute scan
    # streams the group instead of reading the cache.
    INSTANCES = (
        ("p31n62k3", 31, 62, 3, "cached"),
        ("p41n82k3", 41, 82, 3, "cached"),
        ("p43n86k4", 43, 86, 4, "cached"),
        ("p59n40k3", 59, 40, 3, "streamed"),
    )
    fixture_tasks = tuple(inst[0] for inst in INSTANCES)

    def setup(self, seed, workdir, jobs, fixtures):
        start = time.perf_counter()
        points = {}
        for tag, p, n, _, _ in self.INSTANCES:
            inst = generate_instance(
                RANDOM_POINTS, {"n": n}, derive(seed, self.name, tag),
                FieldContext(p),
            )
            points[tag] = inst.points.points
        points_s = time.perf_counter() - start
        state = {"points": points, "expected": fixtures.get(str(seed), {})}
        return state, {"generators.points_s": points_s}

    def run_pass(self, state, tr):
        return [self._task(state, tr, *inst) for inst in self.INSTANCES]

    def _task(self, state, tr, tag, p, n, k, path):
        def body():
            raw = state["points"][tag]
            with tr.span("field.FieldContext"):
                ctx = FieldContext(p)
            with tr.span("incidence.PointSet"):
                P = PointSet(raw, ctx)
            with tr.span("pivot.rich_transforms_pivot") as attrs:
                pivot = rich_transforms_pivot(P, k)
                attrs["maps"] = len(pivot)
            with tr.span("incidence.rich_transforms_brute", path=path,
                         pairs=group_order(p) * len(P)):
                brute = rich_transforms_brute(P, k)
            with tr.span("incidence.TransformSet.__eq__"):
                same = pivot == brute
            observed = {"count": len(pivot), "sha256": digest(listing(pivot))}
            checks = {
                "pivot_equals_brute": verdict(same),
                "listing_fixture": against(state["expected"].get(tag), observed),
            }
            return checks, observed

        return attempt(tr, tag, body)

    def layer_metrics(self, spans, state):
        pivot = named("pivot.rich_transforms_pivot")
        brute = named("incidence.rich_transforms_brute")
        return {
            "pivot.enum_s": median_or_zero(per_pass(spans, duration, pivot)),
            "pivot.maps_per_s": rate(spans, "maps", pivot),
            "incidence.brute_s.cached": median_or_zero(per_pass(
                spans, duration, lambda sp: brute(sp) and sp.attrs["path"] == "cached")),
            "incidence.brute_s.streamed": median_or_zero(per_pass(
                spans, duration, lambda sp: brute(sp) and sp.attrs["path"] == "streamed")),
            "incidence.brute_pairs_per_s": rate(spans, "pairs", brute),
            "incidence.compare_s": median_or_zero(per_pass(
                spans, duration, named("incidence.TransformSet.__eq__"))),
        }


# --------------------------------------------------------------------------
# reduction_exhaustive: the p^6 reduction check, serial and through the pool


def _report(rep) -> dict:
    """A ReductionReport under the key names that verify-reduction prints."""
    return {
        "pivots": rep.pivots,
        "transforms": rep.transforms,
        "triples": rep.triples,
        "violations": rep.violations,
        "line-collisions": rep.line_collisions,
        "det-mismatches": rep.det_mismatches,
    }


class ReductionExhaustive(Workload):
    name = "reduction_exhaustive"
    P = 17

    def setup(self, seed, workdir, jobs, fixtures):
        # The exhaustive check has no input but p, so the seed changes nothing.
        return {"jobs": jobs}, {}

    def expected(self) -> dict:
        p = self.P
        return {
            "pivots": p * p,
            "transforms": p * p * (p - 1) ** 2,
            "triples": p * p * (p - 1) ** 4,
            "violations": 0,
            "line-collisions": 0,
            "det-mismatches": 0,
        }

    def run_pass(self, state, tr):
        shared: dict = {}
        return [
            attempt(tr, "serial", lambda: self._serial(tr, shared)),
            attempt(tr, "cli_pool",
                    lambda: self._pool(tr, shared, state["jobs"])),
        ]

    def _serial(self, tr, shared):
        p = self.P
        with tr.span("field.FieldContext"):
            ctx = FieldContext(p)
        if tr.enabled:
            # One span per pivot gives the per-pivot time distribution.
            parts = []
            for q in [(q1, q2) for q1 in range(p) for q2 in range(p)]:
                with tr.span("pivot.check_reduction"):
                    parts.append(_report(check_reduction(ctx, [q])))
            report = {key: sum(part[key] for part in parts) for key in parts[0]}
        else:
            with tr.span("pivot.check_reduction"):
                report = _report(check_reduction(ctx))
        shared["serial"] = report
        return {"exact_identities": verdict(report == self.expected())}, report

    def _pool(self, tr, shared, jobs):
        code, out = invoke_cli(tr, ["verify-reduction", "-p", str(self.P),
                                    "--exhaustive", "--jobs", str(jobs)])
        lines = out.splitlines()
        report = {}
        if lines:
            for part in lines[0].split()[1:]:
                key, _, value = part.partition("=")
                report[key] = int(value)
        serial = shared.get("serial")
        checks = {
            "exit_code": verdict(code == 0),
            "exact_identities": verdict(
                report == self.expected() and lines[1:] == ["OK"]),
            "pool_equals_serial": (
                UNCHECKED if serial is None else verdict(serial == report)),
        }
        return checks, report

    def layer_metrics(self, spans, state):
        check = named("pivot.check_reduction")
        serial = median_or_zero(per_pass(spans, duration, check))
        pooled = median_or_zero(per_pass(spans, duration, named("cli.main")))
        pivot_ms = sorted(sp.duration * 1000.0 for sp in spans if check(sp))
        triples = self.expected()["triples"]
        return {
            "pivot.reduction_serial_s": serial,
            "pivot.reduction_triples_per_s": triples / serial if serial else 0.0,
            "pivot.reduction_pivot_ms.p50": median_or_zero(pivot_ms),
            "pivot.reduction_pivot_ms.p95": (
                statistics.quantiles(pivot_ms, n=20)[18]
                if len(pivot_ms) >= 2 else 0.0),
            "cli.reduction_pool_s": pooled,
            "cli.pool_efficiency": (
                serial / (state["jobs"] * pooled) if pooled else 0.0),
        }


# --------------------------------------------------------------------------
# sweep_bounds: many small structured instances through sweep()


BOUNDS = ("thm1-incidence", "thm1-rich", "thm2-incidence", "thm2-rich",
          "thm3-energy", "thm4-hyperbola", "cor-krich-lines")
CORPUS_CONFIGS = ("thm1_rich.cfg", "thm2_rich.cfg", "thm4_hyperbola.cfg")
# Row time by bound, summed into the layer that computes the row's LHS.
ROW_LAYERS = {
    "pivot.rich_rows_s": ("thm1-rich", "thm2-rich"),
    "pivot.lines_rows_s": ("cor-krich-lines",),
    "energy.energy_rows_s": ("thm3-energy",),
    "incidence.incidence_rows_s": (
        "thm1-incidence", "thm2-incidence", "thm4-hyperbola"),
}


class SweepBounds(Workload):
    name = "sweep_bounds"
    PRIMES, SIZES, REPS = (37, 41, 43), (5, 6, 7), 2
    fixture_tasks = ("emit",)

    def __init__(self, root: Path):
        self.corpus = root / "corpus"

    def setup(self, seed, workdir, jobs, fixtures):
        config = SweepConfig.from_mapping({
            "primes": ",".join(map(str, self.PRIMES)),
            "bounds": ",".join(BOUNDS),
            "generator": "ap",
            "sizes": ",".join(map(str, self.SIZES)),
            "reps": str(self.REPS),
            "nt": "150",
            "nh": "40",
            "seed": str(derive(seed, self.name)),
        })
        baselines = json.loads((self.corpus / "baselines.json").read_text())
        state = {
            "config": config,
            "baselines": baselines["sweep_max_ratio"],
            "expected": fixtures.get(str(seed), {}),
        }
        return state, {}

    def run_pass(self, state, tr):
        shared: dict = {}
        return [
            attempt(tr, "sweep", lambda: self._sweep(state, tr, shared)),
            attempt(tr, "emit", lambda: self._emit(state, tr, shared)),
            attempt(tr, "corpus", lambda: self._corpus(state, tr)),
        ]

    def _sweep(self, state, tr, shared):
        with tr.span("sweep.sweep") as attrs:
            rows = sweep(state["config"], jobs=1)
            attrs["rows"] = [(row["bound"], row["wall_ms"]) for row in rows]
        shared["rows"] = rows
        cells = len(self.PRIMES) * len(self.SIZES) * self.REPS
        ok = (len(rows) == cells * len(BOUNDS)
              and sorted({row["bound"] for row in rows}) == sorted(BOUNDS))
        return {"row_count": verdict(ok)}, {"rows": len(rows)}

    def _emit(self, state, tr, shared):
        rows = shared.get("rows")
        if rows is None:
            raise RuntimeError("the sweep task produced no rows")
        with tr.span("sweep.rows_to_jsonl"):
            text = rows_to_jsonl(rows)
        observed = {"bytes": len(text.encode()), "sha256": digest(text)}
        return {"jsonl_fixture": against(state["expected"].get("emit"),
                                         observed)}, observed

    def _corpus(self, state, tr):
        observed: dict = {}
        for name in CORPUS_CONFIGS:
            with tr.span("io.load_config"):
                raw = mio.load_config(self.corpus / name)
            with tr.span("sweep.SweepConfig.from_mapping"):
                config = SweepConfig.from_mapping(raw)
            with tr.span("sweep.sweep", role="corpus"):
                rows = sweep(config, jobs=1)
            for row in rows:
                bound = row["bound"]
                observed[bound] = max(observed.get(bound, 0.0), row["ratio"])
        stored = state["baselines"]
        ok = set(observed) == set(stored) and all(
            abs(observed[b] - stored[b]) <= 1e-9 for b in stored)
        return {"corpus_baselines": verdict(ok)}, observed

    def layer_metrics(self, spans, state):
        main = lambda sp: sp.name == "sweep.sweep" and "rows" in sp.attrs  # noqa: E731
        # Row wall_ms is timed inside sweep(); net and scale it like its span.
        row_ms = lambda sp: [  # noqa: E731
            (b, ms * sp.duration / (sp.end - sp.start))
            for b, ms in sp.attrs["rows"]]
        all_rows = sorted(ms for sp in spans if main(sp) for _, ms in row_ms(sp))
        out = {
            "sweep.call_s": median_or_zero(per_pass(spans, duration, main)),
            "sweep.row_ms.p50": median_or_zero(all_rows),
            "sweep.row_ms.p90": (statistics.quantiles(all_rows, n=10)[8]
                                 if len(all_rows) >= 2 else 0.0),
            "generators.build_s": median_or_zero(per_pass(
                spans, lambda sp: sp.duration - sum(
                    ms for _, ms in row_ms(sp)) / 1000.0, main)),
            "sweep.emit_s": median_or_zero(per_pass(
                spans, duration, named("sweep.rows_to_jsonl"))),
            "sweep.corpus_s": median_or_zero(per_pass(
                spans, duration, lambda sp: sp.name == "bench.task"
                and sp.attrs.get("task") == "corpus")),
        }
        for metric, bounds in ROW_LAYERS.items():
            out[metric] = median_or_zero(per_pass(
                spans,
                lambda sp, bounds=bounds: sum(
                    ms for b, ms in row_ms(sp) if b in bounds) / 1000.0,
                main))
        return out


# --------------------------------------------------------------------------
# apps_cli: every other subcommand in-process, on seeded input files


SUBCOMMANDS = ("incidence", "rich-enum", "energy", "repr", "beck",
               "expander", "equiv-count", "verify-reduction")
APPS_P = 101
RICH_P = 23


def _write(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def _random_points(rng, p, n):
    return [(v // p, v % p) for v in rng.sample(range(p * p), n)]


def _random_maps(rng, p, n):
    out = []
    while len(out) < n:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            out.append((a, b, c, d))
    return out


class AppsCli(Workload):
    name = "apps_cli"
    TASKS = ("incidence", "energy-maps", "energy-hyperbolas", "repr", "beck",
             "expander-shift-invert", "expander-rational", "equiv-count",
             "rich-enum-both", "rich-enum-pivot", "verify-reduction")
    fixture_tasks = TASKS

    def setup(self, seed, workdir, jobs, fixtures):
        rng = random.Random(derive(seed, self.name))
        p, d = APPS_P, workdir
        pts = lambda n: [f"{x},{y}" for x, y in _random_points(rng, p, n)]  # noqa: E731
        maps = lambda n: [",".join(map(str, m)) for m in _random_maps(rng, p, n)]  # noqa: E731
        scalars = lambda n: rng.sample(range(p), n)  # noqa: E731
        hx, hy = scalars(12), scalars(12)
        files = {
            "P500": _write(d / "points500.txt", pts(500)),
            "T2000": _write(d / "maps2000.txt", maps(2000)),
            "T300": _write(d / "maps300.txt", maps(300)),
            "H144": _write(d / "hyperbolas144.txt",
                           [f"{a},{b},1" for a in hx for b in hy]),
            "A20": _write(d / "a20.txt", scalars(20)),
            "B20": _write(d / "b20.txt", scalars(20)),
            "P45": _write(d / "points45.txt", pts(45)),
            "A30": _write(d / "a30.txt", scalars(30)),
            "S4": _write(d / "s4.txt", scalars(4)),
            "P40": _write(d / "points40_p23.txt", [
                f"{x},{y}" for x, y in _random_points(rng, RICH_P, 40)]),
        }
        q, f = str(APPS_P), files
        argv = {
            "incidence": ["incidence", "-p", q, "--points", f["P500"],
                          "--transforms", f["T2000"]],
            "energy-maps": ["energy", "-p", q, "--transforms", f["T300"]],
            "energy-hyperbolas": ["energy", "-p", q, "--hyperbolas", f["H144"]],
            "repr": ["repr", "-p", q, "--a", f["A20"], "--b", f["B20"]],
            "beck": ["beck", "-p", q, "--points", f["P45"]],
            "expander-shift-invert": ["expander", "shift-invert", "-p", q,
                                      "--a", f["A30"]],
            "expander-rational": ["expander", "rational", "-p", q,
                                  "--a", f["A30"]],
            "equiv-count": ["equiv-count", "-p", q, "--a", f["A30"],
                            "--s", f["S4"]],
            "rich-enum-both": ["rich-enum", "-p", str(RICH_P), "-k", "3",
                               "--points", f["P40"], "--method", "both"],
            "rich-enum-pivot": ["rich-enum", "-p", str(RICH_P), "-k", "3",
                                "--points", f["P40"], "--method", "pivot"],
            "verify-reduction": ["verify-reduction", "-p", str(RICH_P),
                                 "--samples", "8", "--jobs", "1", "--seed",
                                 str(derive(seed, self.name, "pivots") % 10**6)],
        }
        state = {"argv": argv, "expected": fixtures.get(str(seed), {})}
        return state, {}

    def run_pass(self, state, tr):
        shared: dict = {}
        return [attempt(tr, task, lambda task=task: self._task(
            state, tr, shared, task)) for task in self.TASKS]

    def instrument(self, tr):
        return wrap_cli_calls(tr)

    def _task(self, state, tr, shared, task):
        code, out = invoke_cli(tr, state["argv"][task])
        observed = {"exit": code, "stdout_sha256": digest(out)}
        checks = {
            "exit_code": verdict(code == 0),
            "stdout_fixture": against(state["expected"].get(task), observed),
        }
        if task == "rich-enum-both":
            matched = out.endswith("\nMATCH\n")
            checks["pivot_equals_brute"] = verdict(matched)
            if matched:
                shared["listing"] = out[: -len("MATCH\n")]
        elif task == "rich-enum-pivot":
            both = shared.get("listing")
            checks["pivot_listing_equals_both"] = (
                UNCHECKED if both is None else verdict(out == both))
        elif task == "verify-reduction":
            checks["reduction_ok"] = verdict(out.endswith("\nOK\n"))
        return checks, observed

    def layer_metrics(self, spans, state):
        out = {
            f"cli.{sub}_s": median_or_zero(per_pass(
                spans, duration, lambda sp, sub=sub: sp.name == "cli.main"
                and sp.attrs["sub"] == sub))
            for sub in SUBCOMMANDS
        }
        out["io.load_s"] = median_or_zero(per_pass(
            spans, duration, lambda sp: sp.name.startswith("io.load_")))
        out["energy.quotients_per_s"] = rate(
            spans, "quotients", named("energy.energy"))
        out["applications.beck_triples_per_s"] = rate(
            spans, "triples", named("applications.beck_statistics"))
        out["applications.equiv_targets_per_s"] = rate(
            spans, "targets", named("applications.projective_equivalence_count"))
        out["incidence.pairs_per_s"] = rate(
            spans, "pairs", named("incidence.count_incidences"))
        return out


# The program functions the CLI calls, wrapped during the traced apps_cli
# run so their time shows as spans of their own layer.  Each entry is
# (module, attribute, span name, work count from the call's arguments).
def _cli_wrap_targets():
    return (
        (mio, "load_points", "io.load_points", None),
        (mio, "load_transforms", "io.load_transforms", None),
        (mio, "load_hyperbolas", "io.load_hyperbolas", None),
        (mio, "load_scalars", "io.load_scalars", None),
        (mcli, "count_incidences", "incidence.count_incidences",
         lambda P, T: {"pairs": len(P) * len(T)}),
        (mcli, "energy", "energy.energy",
         lambda T: {"quotients": len(T) ** 2}),
        (mcli, "energy_report", "energy.energy_report", None),
        (mcli, "representation_report", "applications.representation_report",
         None),
        (mcli, "beck_statistics", "applications.beck_statistics",
         lambda P, *rest: {"triples": math.comb(len(P), 3)}),
        (mcli, "expander_report", "applications.expander_report", None),
        (mcli, "projective_equivalence_count",
         "applications.projective_equivalence_count",
         lambda A, S: {"targets": len(A) * (len(A) - 1) * (len(A) - 2)}),
        (mcli, "rich_transforms_pivot", "pivot.rich_transforms_pivot", None),
        (mcli, "rich_transforms_brute", "incidence.rich_transforms_brute", None),
        (mcli, "check_reduction", "pivot.check_reduction", None),
    )


def wrap_cli_calls(tr):
    """Wrap the CLI's calls into its layers in spans; return an undo."""
    saved = []
    for module, attr, span_name, work in _cli_wrap_targets():
        original = getattr(module, attr, None)
        if original is None:
            continue

        def wrapper(*args, _f=original, _name=span_name, _work=work, **kw):
            attrs = _work(*args, **kw) if _work else {}
            with tr.span(_name, **attrs):
                return _f(*args, **kw)

        saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def undo():
        for module, attr, original in saved:
            setattr(module, attr, original)

    return undo


def make_workloads(root: Path) -> dict:
    return {w.name: w for w in (EnumRandom(), ReductionExhaustive(),
                                SweepBounds(root), AppsCli())}
