"""Sweep experiments: exact LHS values against bound shapes, row by row.

A sweep walks (prime, size, repetition) cells, builds a seeded instance per
cell, and emits one row per requested bound: the exact left-hand side, every
right-hand-side term, the ratio against the dominant term, hypothesis flags
and the dyadic-threshold diagnostic.  Identical configs produce identical
bytes; rows are sorted before emission, so the worker pool size never shows
in the output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .applications import cartesian_points
from .bounds import (
    BOUND_IDS,
    BoundSpec,
    COR_KRICH_LINES,
    THM1_INCIDENCE,
    THM1_RICH,
    THM2_INCIDENCE,
    THM2_RICH,
    THM3_ENERGY,
    THM4_HYPERBOLA,
    bound_rhs,
    dyadic_threshold,
    hypothesis_check,
)
from .energy import encode_family, energy, refuse_energy_work, translate_multiplicity
from .field import MAX_MODULUS, FieldContext, group_order, is_prime, parallel_map
from .generators import (
    CARTESIAN,
    DEFINED_BY,
    GIVES,
    HYPERBOLA_GRID,
    INSTANCE_KINDS,
    RANDOM_HYPERBOLAS,
    RANDOM_POINTS,
    RANDOM_SCALARS,
    RANDOM_TRANSFORMS,
    Instance,
    _as_int,
    derive_seed,
    generate_instance,
)
from .incidence import count_incidences, refuse_incidence_work
from .pivot import refuse_line_work, refuse_pivot_work, rich_counts, rich_lines

ROW_FIELDS = (
    "bound",
    "p",
    "size",
    "rep",
    "seed",
    "generator",
    "n_points",
    "n_a",
    "n_b",
    "n_transforms",
    "n_hyperbolas",
    "k",
    "m_stat",
    "energy",
    "lhs",
    "rhs_term1",
    "rhs_term2",
    "rhs_term3",
    "rhs_max",
    "rhs_sum",
    "ratio",
    "delta",
    "hyp_ok",
    "hyp_flags",
    "constant_dependent",
)

TIMING_FIELD = "wall_ms"

# A held row costs about 1.5 KB with its JSONL text, so this is about 150 MB.
MAX_SWEEP_ROWS = 10**5


@dataclass(frozen=True)
class SweepConfig:
    """Parsed flat key=value configuration; fixed seed means fixed output."""

    primes: tuple[int, ...]
    bounds: tuple[str, ...]
    generator: str
    seed: int
    reps: int = 1
    sizes: Optional[tuple[int, ...]] = None
    k: int = 3
    constant: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # an empty prime list is legal and yields an empty row stream
        for p in self.primes:
            # Bound first: trial division of a huge modulus would not finish.
            if p >= MAX_MODULUS:
                raise ValueError(f"sweep prime {p} exceeds the limit {MAX_MODULUS}")
            if not is_prime(p) or p < 5:
                raise ValueError(f"sweep primes must be primes >= 5, got {p}")
        for bound in self.bounds:
            if bound not in BOUND_IDS:
                raise ValueError(f"unknown bound identifier {bound!r}")
        if self.generator not in INSTANCE_KINDS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        rows = len(self.primes) * len(self.sizes or (None,)) * self.reps * len(self.bounds)
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(
                f"the sweep holds {rows} rows until it sorts them, over the limit "
                f"10^5 = {MAX_SWEEP_ROWS}; give fewer primes, sizes, reps or bounds"
            )
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0 < self.constant < math.inf:
            raise ValueError(f"constant must be positive and finite, got {self.constant}")
        if self.k < 3 and any(
            b in (THM1_RICH, THM2_RICH) for b in self.bounds
        ):
            raise ValueError("rich-transformation bounds need k >= 3")

    @classmethod
    def from_mapping(cls, raw: dict) -> "SweepConfig":
        known, params = {}, {}
        for key, value in raw.items():
            parse, expected = _TYPED_KEYS.get(key, _PARAMETER)
            try:
                (known if key in _TYPED_KEYS else params)[key] = parse(value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r} must be {expected}, got {value!r}"
                ) from None
        missing = {"primes", "bounds", "generator", "seed"} - known.keys()
        if missing:
            raise ValueError(f"config is missing keys: {sorted(missing)}")
        return cls(params=params, **known)


def _comma_list(convert):
    """A parser of a comma list, or of a list or single value, into a tuple."""
    def parse(value):
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        return tuple(map(convert, value if isinstance(value, (list, tuple)) else [value]))
    return parse


def _integer(value) -> int:
    """An int, or a string int() parses; 2.5 and True become text it refuses."""
    return int(str(value))


def _integers(value):
    """A generator parameter: one integer, or a list of two or more."""
    values = list(_comma_list(_integer)(value))
    if not values:
        raise ValueError(value)
    return values[0] if len(values) == 1 else values


# The typed config keys, their parsers and what a parser that can fail
# expects; every other key is a generator parameter.
_PARAMETER = (_integers, "an integer or a comma list of integers")
_TYPED_KEYS = {
    "primes": (_comma_list(_integer), "a comma list of integers"),
    "bounds": (_comma_list(str), None),
    "generator": (str, None),
    "seed": (_integer, "an integer"),
    "reps": (_integer, "an integer"),
    "sizes": (_comma_list(_integer), "a comma list of integers"),
    "k": (_integer, "an integer"),
    "constant": (float, "a number"),
}


def _resolved_sizes(config: SweepConfig, size: Optional[int]) -> dict:
    """A cell's generator parameters: n, na, nt and nh not given are the size
    (their defaults n 12, na 4, nt 8, nh 8 with no sizes), nb not given is na."""
    params = dict(config.params)
    for name, default in (("n", 12), ("na", 4), ("nt", 8), ("nh", 8)):
        if params.get(name) is None:
            params[name] = default if size is None else size
    if params.get("nb") is None:
        params["nb"] = params["na"]
    return params


# The most points, or maps, on one side: drawing 2*10^5 random points or
# maps at p = 9973 takes about 0.8 s, and 2*10^5 random hyperbolas 2.4 s.
MAX_INCIDENCE_MEMBERS = 2 * 10**5


def _refuse_incidence_draw(n_points: int, n_maps: int) -> None:
    """Refuse, before anything is drawn, an incidence row over the members cap
    or over count_incidences' limit, the planned points bounding the abscissae."""
    for n, side in ((n_points, "points"), (n_maps, "maps")):
        if n > MAX_INCIDENCE_MEMBERS:
            raise ValueError(
                f"an incidence count over {n} {side} is over the limit of "
                f"2*10^5 = {MAX_INCIDENCE_MEMBERS} {side}; give fewer {side}"
            )
    refuse_incidence_work(n_maps, n_points)


# The work limits of each row, in order, and the components whose planned
# sizes they read; the size of the scalars is their grid's, |A|*|B|.
_LIMITS = {
    THM1_INCIDENCE: ((_refuse_incidence_draw, "points", "transforms"),),
    THM1_RICH: ((refuse_pivot_work, "points"),),
    THM2_INCIDENCE: ((_refuse_incidence_draw, "scalars", "transforms"),),
    THM2_RICH: ((refuse_pivot_work, "scalars"),),
    THM3_ENERGY: ((_refuse_incidence_draw, "scalars", "transforms"),
                  (refuse_energy_work, "transforms")),
    THM4_HYPERBOLA: ((_refuse_incidence_draw, "scalars", "hyperbolas"),),
    COR_KRICH_LINES: ((refuse_line_work, "points"),),
}
# The components each row reads: exactly those its limits size.
_NEEDS = {bound: {name for _, *names in limits for name in names}
          for bound, limits in _LIMITS.items()}

# The seeded random fill-in of each component but the scalars, and its size key
_FILL_INS = {"points": (RANDOM_POINTS, "n"), "transforms": (RANDOM_TRANSFORMS, "nt"),
             "hyperbolas": (RANDOM_HYPERBOLAS, "nh")}
# need, Instance attribute and diagnostic name
_COMPONENTS = (
    ("points", "points", "point set"),
    ("scalars", "a", "scalar set A"),
    ("scalars", "b", "scalar set B"),
    ("transforms", "transforms", "transform set"),
    ("hyperbolas", "hyperbolas", "hyperbola family"),
)


def _build_instance(config: SweepConfig, ctx: FieldContext, size, rep):
    """One fully-populated instance for this sweep cell, and its grid.

    Plan, refuse, then draw.  After a negative size, the scalars are drawn:
    from the generator when it gives them, else from random-scalars when a
    row reads them.  Each row's limits, in bounds order, then refuse the
    planned sizes of what it reads.  Then the generator runs if a row reads
    what it gives; transforms-defined-by with no row reading maps draws its
    points as random-points does and builds no map.  Each component a row
    still reads is filled in by a seeded random generator under its own
    derived seed.  The grid A x B is built once and is the points when the
    generator gave none.  A needed component that came out empty is a
    ValueError.
    """
    params = _resolved_sizes(config, size)
    for key in ("n", "na", "nb", "nt", "nh"):
        value = params[key]
        if isinstance(value, int) and value < 0:
            raise ValueError(f"generator parameter {key!r} must be at least 0, got {value}")
    needed = {need for bound in config.bounds for need in _NEEDS[bound]}
    base_seed = derive_seed(config.seed, ctx.p, size, rep)
    gives = GIVES[config.generator]
    if "scalars" in gives:
        inst = generate_instance(config.generator, params, base_seed, ctx)
    elif "scalars" in needed:
        inst = generate_instance(RANDOM_SCALARS, params, derive_seed(base_seed, "scalars"), ctx)
    else:
        inst = Instance()
    sizes: dict = {}
    for bound in config.bounds:
        for limit, *names in _LIMITS[bound]:
            for name in names:
                if name not in sizes:
                    sizes[name] = _planned_size(name, config.generator, params, inst,
                                                base_seed, ctx)
            limit(*(sizes[name] for name in names))
    if "scalars" not in gives and needed.intersection(gives):
        kind = config.generator
        if kind == DEFINED_BY and "transforms" not in needed:
            kind = RANDOM_POINTS
        drawn = generate_instance(kind, params, base_seed, ctx)
        drawn.a, drawn.b = inst.a, inst.b
        inst = drawn
    grid = None if inst.a is None else cartesian_points(inst.a, inst.b)
    if inst.points is None:
        inst.points = grid
    for need, attr, label in _COMPONENTS:
        if need not in needed:
            continue
        # Only points, transforms and hyperbolas can still be missing here.
        if getattr(inst, attr) is None:
            kind, key = _FILL_INS[need]
            extra = generate_instance(kind, {key: params[key]}, derive_seed(base_seed, attr), ctx)
            setattr(inst, attr, getattr(extra, attr))
        if len(getattr(inst, attr)) == 0:
            raise ValueError(f"the {label} is empty")
    return inst, grid


def _planned_size(name, kind, params, scalars, seed, ctx) -> int:
    """The size a cell's component will have, before it is drawn: |A|*|B|
    for the scalars, and for the points when the kind gives none but there
    are scalars; the maps through three of the drawn points under
    transforms-defined-by; the family size under hyperbola-grid; else the
    resolved n, nt or nh."""
    if name == "scalars" or (name == "points" and scalars.a is not None
                             and "points" not in GIVES[kind]):
        return len(scalars.a) * len(scalars.b)
    if name == "transforms" and kind == DEFINED_BY:
        # The generator draws its points as random-points does and builds
        # every map through three of them; count those maps instead.
        refuse_pivot_work(_as_int("n", params["n"]))
        drawn = generate_instance(RANDOM_POINTS, params, seed, ctx)
        return rich_counts(drawn.points, 3).get(3, 0)
    if name == "hyperbolas" and kind == HYPERBOLA_GRID:
        return _grid_family_size(params, seed, ctx)
    key = _FILL_INS[name][1]
    return _as_int(key, params[key])


def _grid_family_size(params, seed, ctx) -> int:
    """The hyperbola-grid generator's family size: one translate per pair of
    the scalars a cartesian draw gives on the same parameters, at most p
    values each."""
    sides = generate_instance(CARTESIAN, params, seed, ctx)
    return len(sides.a) * len(sides.b)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _compute_row(bound, inst, grid, shared, config, ctx, size, rep):
    """One row of a cell: the bound's exact left-hand side against its RHS.

    The point side is P, or the grid for the bounds over scalars.  The
    left-hand side is the k-rich map count; the k-rich line count; or one
    incidence count, beside the energy or the multiplicity.  The rich and
    incidence counts are shared through the cell's dict shared, keyed by
    (k, the point tuple) and by (the point tuple, the map keys).
    """
    start = time.perf_counter()
    k = config.k
    row = dict.fromkeys(ROW_FIELDS)
    row.update(bound=bound, p=ctx.p, size=size, rep=rep, seed=config.seed,
               generator=config.generator)
    if "scalars" in _NEEDS[bound]:
        P = grid
        params = {"A": len(inst.a), "B": len(inst.b)}
        row.update(n_a=len(inst.a), n_b=len(inst.b))
    else:
        P = inst.points
        params = {"P": len(P)}
    row["n_points"] = len(P)
    if bound in (THM1_RICH, THM2_RICH):
        if (k, P.points) not in shared:
            shared[k, P.points] = rich_counts(P, k).get(k, 0)
        lhs = shared[k, P.points]
        _guard_rich(lhs, ctx.p)
        params["k"] = row["k"] = k
    elif bound == COR_KRICH_LINES:
        lhs = len(rich_lines(P, k))
        params["k"] = row["k"] = k
    else:
        if bound == THM4_HYPERBOLA:
            H = inst.hyperbolas
            T = encode_family(H, ctx)
            m = translate_multiplicity(H)
            params.update(H=len(H), M=m)
            row.update(n_hyperbolas=len(H), m_stat=m)
        else:
            T = inst.transforms
            params["T"] = row["n_transforms"] = len(T)
        if (P.points, T.keys) not in shared:
            shared[P.points, T.keys] = count_incidences(P, T)
        lhs = shared[P.points, T.keys]
        _guard_incidence(lhs, len(P), len(T), ctx.p)
        if bound == THM3_ENERGY:
            e = energy(T)
            if not len(T) ** 2 <= e <= len(T) ** 3:
                raise RuntimeError(f"energy {e} escaped [|T|^2, |T|^3]")
            params["E"] = row["energy"] = e
    row["lhs"] = lhs
    if bound in (THM1_INCIDENCE, THM1_RICH):
        # The incidence row splits at |T|, the rich row at its own count.
        row["delta"] = _round12(
            dyadic_threshold(len(P), params.get("T", max(1, lhs)))
        )
    spec = BoundSpec(bound, params)
    rhs = bound_rhs(spec)
    hyp = hypothesis_check(spec, ctx.p, config.constant)
    for i, term in enumerate(rhs.terms, 1):
        row[f"rhs_term{i}"] = _round12(term)
    row["rhs_max"] = _round12(rhs.max_term)
    row["rhs_sum"] = _round12(rhs.total)
    row["ratio"] = _round12(row["lhs"] / rhs.max_term)
    row["hyp_ok"] = hyp.ok
    row["hyp_flags"] = ";".join(
        f"{name}={int(value)}" for name, value in sorted(hyp.flags.items())
    )
    row["constant_dependent"] = ";".join(hyp.constant_dependent)
    row[TIMING_FIELD] = (time.perf_counter() - start) * 1000.0
    return row


def _guard_incidence(lhs, n_points, n_transforms, p):
    if lhs > min(n_points * n_transforms, p * n_transforms):
        raise RuntimeError(f"incidence count {lhs} escaped its trivial bound")


def _guard_rich(lhs, p):
    if lhs > group_order(p):
        raise RuntimeError(f"rich count {lhs} exceeds the group order")


def _sweep_unit(args):
    """The rows of one (p, size, rep) cell, in the config's bound order.

    The instance and grid are built once, each distinct point set is
    enumerated for k-rich maps once, and each distinct pair of point set and
    map set is counted for incidences once; a shared quantity is timed in
    the first row that needs it.  Nothing outlives the cell.  Every ValueError the
    cell raises, a refused size or a failed draw, is re-raised naming the cell.
    """
    config, p, size, rep = args
    ctx = FieldContext(p)
    shared: dict = {}
    try:
        inst, grid = _build_instance(config, ctx, size, rep)
        return [_compute_row(bound, inst, grid, shared, config, ctx, size, rep)
                for bound in config.bounds]
    except ValueError as exc:
        raise ValueError(f"sweep cell p={p} size={size} rep={rep} under generator "
                         f"{config.generator}: {exc}") from None


def sweep(config: SweepConfig, jobs: int = 1) -> list[dict]:
    """Run the sweep and return its rows, sorted deterministically."""
    sizes: tuple = config.sizes if config.sizes else (None,)
    units = [
        (config, p, size, rep)
        for p in config.primes
        for size in sizes
        for rep in range(config.reps)
    ]
    chunks = parallel_map(_sweep_unit, units, jobs)
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["bound"], r["p"], r["size"] or 0, r["rep"]))
    return rows


def _emit_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def json_line(record: dict) -> str:
    """One compact JSON object, its floats rounded to 12 significant digits."""
    rounded = {k: _round12(v) if isinstance(v, float) else v for k, v in record.items()}
    return json.dumps(rounded, separators=(",", ":"))


def rows_to_jsonl(rows: Iterable[dict], timing: bool = False) -> str:
    """One JSON object per row with a fixed key order."""
    fields = ROW_FIELDS + ((TIMING_FIELD,) if timing else ())
    return "".join(json_line({name: row.get(name) for name in fields}) + "\n" for row in rows)


def rows_to_csv(rows: Iterable[dict], timing: bool = False) -> str:
    """CSV with the fixed header; empty cells for absent values."""
    fields = ROW_FIELDS + ((TIMING_FIELD,) if timing else ())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_emit_value(row.get(name)) for name in fields])
    return buffer.getvalue()
