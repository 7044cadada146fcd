"""Seeded, reproducible instance generators for the experiment harness.

Every generator is a pure function of (kind, params, seed, field): the same
inputs always rebuild the same instance, byte for byte.  Kinds cover the
extremal shapes the bounds care about: random point sets, the two sides
of Cartesian grids, arithmetic and geometric progressions (small sumset),
hyperbola-translate grids, random transformation sets, and the
transformations defined by a random point set.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from .energy import HyperbolaTranslate
from .field import FieldContext, class_key, group_order
from .incidence import PointSet, ScalarSet, TransformSet
from .pivot import refuse_pivot_work, rich_transforms_pivot

RANDOM_POINTS = "random-points"
RANDOM_SCALARS = "random-scalars"
AP = "ap"
GP = "gp"
CARTESIAN = "cartesian"
RANDOM_TRANSFORMS = "random-transforms"
DEFINED_BY = "transforms-defined-by"
HYPERBOLA_GRID = "hyperbola-grid"
RANDOM_HYPERBOLAS = "random-hyperbolas"

# What each kind gives: "points", "scalars" (A, and B when nb is given or
# the kind is cartesian), "transforms" or "hyperbolas"; every other
# Instance field stays None.
GIVES = {
    RANDOM_POINTS: ("points",),
    RANDOM_SCALARS: ("scalars",),
    AP: ("scalars",),
    GP: ("scalars",),
    CARTESIAN: ("scalars",),
    RANDOM_TRANSFORMS: ("transforms",),
    DEFINED_BY: ("points", "transforms"),
    HYPERBOLA_GRID: ("hyperbolas",),
    RANDOM_HYPERBOLAS: ("hyperbolas",),
}
INSTANCE_KINDS = tuple(GIVES)


@dataclass
class Instance:
    """Whatever one generator call produced; unused components stay None."""

    points: Optional[PointSet] = None
    a: Optional[ScalarSet] = None
    b: Optional[ScalarSet] = None
    transforms: Optional[TransformSet] = None
    hyperbolas: Optional[tuple[HyperbolaTranslate, ...]] = None


def derive_seed(*parts) -> int:
    """Mix arbitrary labels into a 63-bit seed, stable across platforms."""
    blob = ":".join(repr(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def _as_int(key: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"generator parameter {key!r} must be an integer, got {value!r}")


def _int(params: dict, key: str, default=None) -> Optional[int]:
    value = params.get(key, default)
    return None if value is None else _as_int(key, value)


def _need(params: dict, key: str, default=None) -> int:
    value = _int(params, key, default)
    if value is None:
        raise ValueError(f"generator parameter {key!r} is required")
    return value


def _scalars(rng, params, key, size_key, size_default, ctx) -> ScalarSet:
    """The scalars listed under key (a single value is a list of one), or a
    seeded sample of params[size_key] (default size_default) of them."""
    value = params.get(key)
    if value is None:
        return _sample_scalars(rng, _need(params, size_key, size_default), ctx)
    values = value if isinstance(value, (list, tuple)) else [value]
    return ScalarSet([_as_int(key, v) for v in values], ctx)


def _sample_scalars(rng: random.Random, n: int, ctx: FieldContext) -> ScalarSet:
    if n > ctx.p:
        raise ValueError(f"cannot draw {n} distinct scalars mod {ctx.p}")
    return ScalarSet(rng.sample(range(ctx.p), n), ctx)


def _sample_points(rng: random.Random, n: int, ctx: FieldContext) -> PointSet:
    p = ctx.p
    if n > p * p:
        raise ValueError(f"cannot draw {n} distinct points in F_{p}^2")
    cells = rng.sample(range(p * p), n)
    return PointSet(((v // p, v % p) for v in cells), ctx)


def _ap_scalars(rng, n, ctx, start, step) -> ScalarSet:
    p = ctx.p
    if n > p:
        raise ValueError(f"progression of {n} distinct terms mod {p}")
    if start is None:
        start = rng.randrange(p)
    if step is None:
        step = rng.randrange(1, p)
    step %= p
    if step == 0 and n > 1:
        raise ValueError("zero step cannot give distinct terms")
    return ScalarSet(((start + i * step) % p for i in range(n)), ctx)


def _gp_scalars(rng, n, ctx, start, ratio) -> ScalarSet:
    """n distinct terms s*r^i mod p, from up to 200 seeded (ratio, start)
    draws, or one when the ratio is given: with a nonzero start, whether the
    terms are distinct depends on the ratio alone.  Nonzero terms take at
    most p - 1 values (two, s and 0, with a zero ratio) and a zero start one,
    so a larger n is refused before any draw."""
    p = ctx.p
    refused = ValueError(f"no geometric progression of {n} distinct terms found mod {p}")
    if n > max(p - 1, 2) or (n > 1 and start is not None and start % p == 0):
        raise refused
    for _ in range(200 if ratio is None else 1):
        r = rng.randrange(2, max(3, p)) if ratio is None else ratio
        s = rng.randrange(1, p) if start is None else start
        values = {s * pow(r, i, p) % p for i in range(n)}
        if len(values) == n:
            return ScalarSet(values, ctx)
    raise refused


def _sample_transforms(rng, n, ctx) -> TransformSet:
    p = ctx.p
    order = group_order(p)
    if n > order:
        raise ValueError(f"PGL(2,{p}) has only {order} elements")
    return TransformSet([class_key(i, p) for i in rng.sample(range(order), n)], ctx)


def _sample_hyperbolas(rng, n, ctx) -> tuple[HyperbolaTranslate, ...]:
    p = ctx.p
    if n > 2 * p * p:
        raise ValueError(f"only {2 * p * p} distinct translates mod {p}")
    picks = rng.sample(range(2 * p * p), n)
    out = [
        HyperbolaTranslate((v // p) % p, v % p, 1 if v < p * p else -1)
        for v in picks
    ]
    return tuple(sorted(out))


def _grid_hyperbolas(rng, params, ctx) -> tuple[HyperbolaTranslate, ...]:
    na = params.get("na", params.get("n", 3))
    a_set = _scalars(rng, params, "a", "na", na, ctx)
    b_set = _scalars(rng, params, "b", "nb", na, ctx)
    eps = _int(params, "eps", 1)
    return tuple(
        sorted(HyperbolaTranslate(a, b, eps) for a in a_set for b in b_set)
    )


def generate_instance(
    kind: str, params: dict, seed: int, ctx: FieldContext
) -> Instance:
    """Build one instance of the requested kind, deterministically."""
    rng = random.Random(seed)
    inst = Instance()
    if kind == RANDOM_POINTS:
        inst.points = _sample_points(rng, _need(params, "n"), ctx)
    elif kind == RANDOM_SCALARS:
        inst.a = _sample_scalars(rng, _need(params, "na", params.get("n")), ctx)
        if "nb" in params:
            inst.b = _sample_scalars(rng, _need(params, "nb"), ctx)
    elif kind in (AP, GP):
        draw, third = (_ap_scalars, "step") if kind == AP else (_gp_scalars, "ratio")
        na = _need(params, "na", params.get("n"))
        inst.a = draw(rng, na, ctx, _int(params, "start"), _int(params, third))
        nb = _int(params, "nb")
        if nb is not None:
            inst.b = draw(rng, nb, ctx, _int(params, "b_start"), _int(params, "b_" + third))
    elif kind == CARTESIAN:
        inst.a = _scalars(rng, params, "a", "na", params.get("n"), ctx)
        inst.b = _scalars(rng, params, "b", "nb", len(inst.a), ctx)
    elif kind == RANDOM_TRANSFORMS:
        inst.transforms = _sample_transforms(
            rng, _need(params, "nt", params.get("n")), ctx
        )
    elif kind == DEFINED_BY:
        n = _need(params, "n")
        refuse_pivot_work(n)
        inst.points = _sample_points(rng, n, ctx)
        inst.transforms = rich_transforms_pivot(inst.points, 3)
    elif kind == HYPERBOLA_GRID:
        inst.hyperbolas = _grid_hyperbolas(rng, params, ctx)
    elif kind == RANDOM_HYPERBOLAS:
        inst.hyperbolas = _sample_hyperbolas(
            rng, _need(params, "nh", params.get("n")), ctx
        )
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return inst
