"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
All expected values are either exact identities, frozen oracle outputs, or
stored first-run baselines (corpus/baselines.json); nothing is asserted
against an asymptotic constant.
"""

import json
import random
import time
from itertools import product
from math import comb
from pathlib import Path

from mobinc.applications import (
    expander_rational,
    expander_shift_invert,
    projective_equivalence_count,
    representation_counts,
)
from mobinc.energy import (
    HyperbolaTranslate,
    energy,
    energy_brute,
    energy_report,
)
from mobinc.field import FieldContext, group_order
from mobinc.incidence import PointSet, ScalarSet, rich_transforms_brute
from mobinc.io import load_config, load_hyperbolas
from mobinc.pivot import check_reduction, rich_counts, rich_transforms_pivot
from mobinc.sweep import SweepConfig, rows_to_csv, rows_to_jsonl, sweep

from reference import (
    MoebiusMap,
    enumerate_group,
    hyperbola_to_moebius,
    identity,
    keyed,
    lies_on,
    maps_of,
    projective_points,
    richness,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

REDUCTION_PRIMES = (5, 7, 11, 13)
_reduction_cache = {}


def _criterion(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{tag} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _reduction_reports():
    if not _reduction_cache:
        start = time.perf_counter()
        for p in REDUCTION_PRIMES:
            _reduction_cache[p] = check_reduction(FieldContext(p))
        _reduction_cache["elapsed"] = time.perf_counter() - start
    return _reduction_cache


def _random_points(ctx, n, rng):
    p = ctx.p
    return PointSet([(v // p, v % p) for v in rng.sample(range(p * p), n)], ctx)


def test_criterion_1_reduction_correctness():
    reports = _reduction_reports()
    violations = sum(reports[p].violations for p in REDUCTION_PRIMES)
    triples = sum(reports[p].triples for p in REDUCTION_PRIMES)
    elapsed = reports["elapsed"]
    _criterion(
        1,
        "incidence preservation, exhaustive p in {5,7,11,13}",
        violations == 0 and elapsed < 120.0,
        f"{triples} triples checked, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_2_injectivity_and_determinant():
    reports = _reduction_reports()
    collisions = sum(reports[p].line_collisions for p in REDUCTION_PRIMES)
    mismatches = sum(reports[p].det_mismatches for p in REDUCTION_PRIMES)
    transforms = sum(reports[p].transforms for p in REDUCTION_PRIMES)
    _criterion(
        2,
        "conjugation injectivity and determinant preservation",
        collisions == 0 and mismatches == 0,
        f"{transforms} conjugates, {collisions} collisions, "
        f"{mismatches} det mismatches",
    )


def test_criterion_3_enumeration_oracle_equivalence():
    rng = random.Random(20250811)
    contexts = {p: FieldContext(p) for p in (7, 11, 13)}
    start = time.perf_counter()
    mismatches = 0
    count_mismatches = 0
    for _ in range(200):
        p = rng.choice((7, 11, 13))
        ctx = contexts[p]
        n = rng.randint(5, 30)
        k = rng.choice((3, 4, 5))
        P = _random_points(ctx, n, rng)
        brute = rich_transforms_brute(P, k)
        if rich_transforms_pivot(P, k) != brute:
            mismatches += 1
        counts = [richness(f, P) for f in maps_of(brute)]
        tails = {r: sum(c >= r for c in counts) for r in range(k, max(counts, default=0) + 1)}
        if rich_counts(P, k) != tails:
            count_mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "pivot enumeration and counts equal brute scan on 200 seeded instances",
        mismatches == 0 and count_mismatches == 0 and elapsed < 60.0,
        f"{mismatches} set mismatches, {count_mismatches} count "
        f"mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_group_algebra_exhaustive_p5():
    ctx = FieldContext(5)
    start = time.perf_counter()
    forms = set()
    for a, b, c, d in product(range(5), repeat=4):
        if (a * d - b * c) % 5:
            forms.add(MoebiusMap(a, b, c, d, ctx).as_tuple())
    unique_ok = len(forms) == 120 == group_order(5)
    members = list(enumerate_group(ctx))
    domain = projective_points(ctx)
    ident = identity(ctx)
    hom_ok = all(
        (f * g)(x) == f(g(x))
        for f in members for g in members for x in domain
    )
    inverse_ok = all(
        f * f.inverse() == ident and f.inverse() * f == ident
        for f in members
    )
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "PGL(2,5) canonical forms, homomorphism, inverses",
        unique_ok and hom_ok and inverse_ok and elapsed < 5.0,
        f"{len(forms)} forms, {len(members) ** 2 * 6} evaluations, {elapsed:.2f}s",
    )


def test_criterion_5_energy_oracle():
    rng = random.Random(1312)
    contexts = {p: FieldContext(p) for p in (5, 7, 11, 13)}
    pools = {p: list(enumerate_group(ctx)) for p, ctx in contexts.items()}
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        p = rng.choice((5, 7, 11, 13))
        ctx = contexts[p]
        n = rng.randint(1, 25)
        T = keyed(rng.sample(pools[p], n), ctx)
        e = energy(T)
        if e != energy_brute(T) or not n * n <= e <= n**3:
            failures += 1
            continue
        for _ in range(5):
            g = rng.choice(pools[p])
            if energy(keyed([f * g for f in maps_of(T)], ctx)) != e:
                failures += 1
                break
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "energy equals quadruple oracle with bounds and invariance",
        failures == 0 and elapsed < 30.0,
        f"100 seeded sets, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_hyperbola_encoding():
    rng = random.Random(64)
    contexts = {p: FieldContext(p) for p in (7, 11, 13)}
    bad = 0
    for _ in range(100):
        p = rng.choice((7, 11, 13))
        ctx = contexts[p]
        a, b = rng.randrange(p), rng.randrange(p)
        eps = rng.choice((1, -1))
        raw_det = (a * (-b) - (eps - a * b)) % p
        if raw_det != (-eps) % p:
            bad += 1
            continue
        f = hyperbola_to_moebius(HyperbolaTranslate(a, b, eps), ctx)
        for x, y in product(range(p), repeat=2):
            if (((y - a) * (x - b) - eps) % p == 0) != lies_on((x, y), f):
                bad += 1
                break
    _criterion(
        6,
        "hyperbola translates encode exactly, determinant -eps",
        bad == 0,
        f"100 seeded translates, {bad} failures",
    )


def test_criterion_7_three_transitivity_counts():
    rng = random.Random(777)
    bad = 0
    checked = 0
    for p in (7, 11, 13):
        ctx = FieldContext(p)
        pattern = ScalarSet(rng.sample(range(p), 3), ctx)
        for n in (3, 4, 5, 6):
            for _ in range(2):
                ground = ScalarSet(rng.sample(range(p), n), ctx)
                result = projective_equivalence_count(ground, pattern)
                checked += 1
                if result["subset_count"] != comb(n, 3):
                    bad += 1
    _criterion(
        7,
        "three-element patterns embed C(|A|,3) ways",
        bad == 0,
        f"{checked} seeded (p, A) combinations",
    )


def test_criterion_8_application_identities():
    rng = random.Random(88)
    ctx101 = FieldContext(101)
    mass_ok = True
    for _ in range(100):
        A = ScalarSet(rng.sample(range(101), rng.randint(1, 15)), ctx101)
        B = ScalarSet(rng.sample(range(101), rng.randint(1, 15)), ctx101)
        table = representation_counts(A, B)
        if sum(table.values()) != len(A) * len(B):
            mass_ok = False
    ctx7, ctx5, ctx13 = FieldContext(7), FieldContext(5), FieldContext(13)
    expander_ok = (
        expander_shift_invert(ScalarSet([1, 2], ctx7)).values == (0, 1, 2, 3)
        and expander_shift_invert(ScalarSet([1, 2, 4], ctx7)).values == tuple(range(7))
        and len(expander_shift_invert(ScalarSet([1], ctx7))) == 0
        and expander_rational(ScalarSet([0, 1], ctx5)).values == (0, 1, 2, 3)
        and len(expander_rational(ScalarSet([0], ctx5))) == 0
        and expander_rational(ScalarSet([1, 2, 3], ctx13)).values == tuple(range(1, 13))
    )
    _criterion(
        8,
        "representation mass identity and frozen expander values",
        mass_ok and expander_ok,
        "100 seeded pairs, 6 expander cases",
    )


def test_criterion_9_ratio_regression():
    baselines = json.loads((CORPUS / "baselines.json").read_text())
    stored = baselines["sweep_max_ratio"]
    recomputed = {}
    for name in ("thm1_rich.cfg", "thm2_rich.cfg", "thm4_hyperbola.cfg"):
        config = SweepConfig.from_mapping(load_config(CORPUS / name))
        for row in sweep(config):
            recomputed[row["bound"]] = max(
                recomputed.get(row["bound"], 0.0), row["ratio"]
            )
    sweep_ok = set(recomputed) == set(stored) and all(
        abs(recomputed[bound] - stored[bound]) <= 1e-9 for bound in stored
    )
    energy_ceiling = baselines["hyperbola_energy_max_ratio"]
    energy_max = 0.0
    for path in sorted((CORPUS / "families").glob("p*_*.txt")):
        ctx = FieldContext(int(path.name.split("_")[0][1:]))
        energy_max = max(energy_max, energy_report(load_hyperbolas(path, ctx), ctx)["ratio"])
    energy_ok = energy_max <= energy_ceiling + 1e-9
    detail = ", ".join(
        f"{bound}={recomputed[bound]:.6f}" for bound in sorted(recomputed)
    )
    _criterion(
        9,
        "corpus ratios match stored baselines within 1e-9",
        sweep_ok and energy_ok,
        detail + f", energy={energy_max:.6f} (ceiling {energy_ceiling:.6f})",
    )


def test_criterion_10_sweep_determinism():
    config = SweepConfig.from_mapping(load_config(CORPUS / "thm1_rich.cfg"))
    rows_a = sweep(config)
    rows_b = sweep(config)
    rows_c = sweep(config, jobs=2)
    same = (
        rows_to_jsonl(rows_a) == rows_to_jsonl(rows_b) == rows_to_jsonl(rows_c)
        and rows_to_csv(rows_a) == rows_to_csv(rows_b)
    )
    _criterion(
        10,
        "identical configs produce byte-identical output",
        same,
        f"{len(rows_a)} rows, jsonl and csv, serial and parallel",
    )
