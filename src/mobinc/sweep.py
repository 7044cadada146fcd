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
from .errors import WorkLimitError
from .field import MAX_MODULUS, FieldContext, group_order, is_prime, parallel_map
from .generators import (
    AP,
    CARTESIAN,
    DEFINED_BY,
    GP,
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

_NEEDS = {
    THM1_INCIDENCE: ("points", "transforms"),
    THM1_RICH: ("points",),
    THM2_INCIDENCE: ("scalars", "transforms"),
    THM2_RICH: ("scalars",),
    THM3_ENERGY: ("scalars", "transforms"),
    THM4_HYPERBOLA: ("scalars", "hyperbolas"),
    COR_KRICH_LINES: ("points",),
}


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


# The rows whose left-hand side is count_incidences, the generators that give
# A and B or the points, and the resolved size keys.
_INCIDENCE_ROWS = (THM1_INCIDENCE, THM2_INCIDENCE, THM3_ENERGY, THM4_HYPERBOLA)
_SCALAR_KINDS = (RANDOM_SCALARS, AP, GP, CARTESIAN)
_POINT_KINDS = (RANDOM_POINTS, DEFINED_BY)
_SIZE_KEYS = ("n", "na", "nb", "nt", "nh")

# need, Instance attribute, diagnostic name, random fill-in and its size key
_COMPONENTS = (
    ("points", "points", "point set", RANDOM_POINTS, "n"),
    ("scalars", "a", "scalar set A", None, None),
    ("scalars", "b", "scalar set B", None, None),
    ("transforms", "transforms", "transform set", RANDOM_TRANSFORMS, "nt"),
    ("hyperbolas", "hyperbolas", "hyperbola family", RANDOM_HYPERBOLAS, "nh"),
)


def _build_instance(config: SweepConfig, ctx: FieldContext, size, rep):
    """One fully-populated instance for this sweep cell, and its grid.

    The scalars come first: from the configured generator when it gives
    them, else, when a bound needs them, from the seeded random-scalars
    generator.  Every generator that gives A also gives B, because nb is
    always resolved.  Then the configured generator runs if it has not, and
    any component a requested bound still needs is filled in by the
    matching seeded random generator.
    Each component has its own derived seed, so the order of the draws does
    not change the instance.  The grid A x B is built once, when there are
    scalars, and is the points when the generator gave none.  A needed
    component that came out empty is a ValueError naming the cell.

    Work is refused before it is drawn.  A negative size is refused first.
    Random points under a thm1-rich or cor-krich-lines row are refused on
    their size n, random transforms under a thm3-energy row on their size
    nt, and a grid that a rich or lines row counts on |A|*|B|.  An incidence
    row is refused on its point count (n or |A|*|B|) and its map count (nt,
    nh or the hyperbola grid's size) before any point, map or grid is
    built.  Under transforms-defined-by, the points are drawn and the maps
    through three of them counted, for the thm3-energy and incidence
    limits, before any map is built.
    """
    params = _resolved_sizes(config, size)
    cell = _cell(config, ctx.p, size, rep)
    for key in _SIZE_KEYS:
        value = params[key]
        if isinstance(value, int) and value < 0:
            raise ValueError(f"{cell}: generator parameter {key!r} must be at least 0, got {value}")
    needed = {need for bound in config.bounds for need in _NEEDS[bound]}
    base_seed = derive_seed(config.seed, ctx.p, size, rep)
    counted = [bound for bound in config.bounds if bound in _INCIDENCE_ROWS]
    as_points = config.generator not in _POINT_KINDS
    grid_size = None

    def refuse_incidences(maps, map_count):
        """Refuse each incidence row that counts these maps, on its points;
        map_count() gives their number."""
        rows = [bound for bound in counted if maps in _NEEDS[bound]]
        n_maps = map_count() if rows else 0
        for bound in rows:
            # thm1-incidence counts the grid when the generator gives no points.
            if "scalars" in _NEEDS[bound] or (grid_size is not None and as_points):
                n_points = grid_size
            else:
                n_points = _as_int("n", params["n"])
            refuse_incidence_work(n_points, n_maps)

    def draw(kind, kind_params, seed):
        if kind == RANDOM_POINTS and THM1_RICH in config.bounds:
            refuse_pivot_work(_as_int("n", params["n"]))
        if kind == RANDOM_POINTS and COR_KRICH_LINES in config.bounds:
            refuse_line_work(_as_int("n", params["n"]))
        if kind == RANDOM_TRANSFORMS and THM3_ENERGY in config.bounds:
            refuse_energy_work(_as_int("nt", params["nt"]))
        if kind == DEFINED_BY and "transforms" in needed:
            # The generator draws its points as random-points does and builds
            # every map through three of them; count those maps first.
            refuse_pivot_work(_as_int("n", params["n"]))
            drawn = generate_instance(RANDOM_POINTS, kind_params, seed, ctx)
            n_maps = rich_counts(drawn.points, 3).get(3, 0)
            if THM3_ENERGY in config.bounds:
                refuse_energy_work(n_maps)
            refuse_incidences("transforms", lambda: n_maps)
        return generate_instance(kind, kind_params, seed, ctx)

    scalar_kind = config.generator in _SCALAR_KINDS
    inst = draw(config.generator, params, base_seed) if scalar_kind else Instance()
    if "scalars" in needed and inst.a is None:
        extra = draw(RANDOM_SCALARS, params, derive_seed(base_seed, "scalars"))
        inst.a, inst.b = extra.a, extra.b
    if inst.a is not None:
        grid_size = len(inst.a) * len(inst.b)
        # thm2-rich counts the grid; thm1-rich and cor-krich-lines count it
        # as the points when the generator gives none.
        if THM2_RICH in config.bounds or (THM1_RICH in config.bounds and as_points):
            refuse_pivot_work(grid_size)
        if COR_KRICH_LINES in config.bounds and as_points:
            refuse_line_work(grid_size)
    if config.generator != DEFINED_BY:
        refuse_incidences("transforms", lambda: _as_int("nt", params["nt"]))
    if config.generator == HYPERBOLA_GRID:
        refuse_incidences("hyperbolas", lambda: _grid_family_size(params, base_seed, ctx))
    else:
        refuse_incidences("hyperbolas", lambda: _as_int("nh", params["nh"]))
    if not scalar_kind:
        drawn = draw(config.generator, params, base_seed)
        drawn.a, drawn.b = inst.a, inst.b
        inst = drawn
    grid = None if inst.a is None else cartesian_points(inst.a, inst.b)
    if inst.points is None:
        inst.points = grid
    for need, attr, label, kind, key in _COMPONENTS:
        if need not in needed:
            continue
        # Only points, transforms and hyperbolas can still be missing here.
        if getattr(inst, attr) is None:
            extra = draw(kind, {key: params[key]}, derive_seed(base_seed, attr))
            setattr(inst, attr, getattr(extra, attr))
        if len(getattr(inst, attr)) == 0:
            raise ValueError(f"{cell}: the {label} is empty")
    return inst, grid


def _grid_family_size(params, seed, ctx) -> int:
    """The hyperbola-grid generator's family size: one translate per pair of
    the scalars a cartesian draw gives on the same parameters, at most p
    values each."""
    sides = generate_instance(CARTESIAN, params, seed, ctx)
    return len(sides.a) * len(sides.b)


def _cell(config: SweepConfig, p, size, rep) -> str:
    return f"sweep cell p={p} size={size} rep={rep} under generator {config.generator}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _compute_row(bound, inst, grid, rich, config, ctx, size, rep):
    """One row of a cell: the bound's exact left-hand side against its RHS.

    The point side is P, or the grid for the bounds over scalars.  The
    left-hand side is the k-rich map count, shared through the cell's dict
    rich keyed by the point tuple; the k-rich line count; or one incidence
    count, beside the energy or the multiplicity.
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
        if P.points not in rich:
            rich[P.points] = rich_counts(P, k).get(k, 0)
        lhs = rich[P.points]
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
        lhs = count_incidences(P, T)
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

    The instance and grid are built once, and each distinct point set is
    enumerated for k-rich maps once; a shared quantity is timed in the first
    row that needs it.  Nothing outlives the cell.  A pivot enumeration, a
    rich-line count or an energy table over its work limit is refused as a
    ValueError naming the cell.
    """
    config, p, size, rep = args
    ctx = FieldContext(p)
    rich: dict = {}
    try:
        inst, grid = _build_instance(config, ctx, size, rep)
        return [_compute_row(bound, inst, grid, rich, config, ctx, size, rep)
                for bound in config.bounds]
    except WorkLimitError as exc:
        raise ValueError(f"{_cell(config, p, size, rep)}: {exc}") from None


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
