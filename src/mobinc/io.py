"""Text file formats for point sets, transform sets, families and configs.

All formats are line based; blank lines and '#' comments are ignored.
Points: "x,y".  Transforms: "a,b,c,d", canonicalized on load.  Hyperbola
translates: "a,b,eps" with eps +1 or -1.  Scalar sets: one integer per line.
Sweep configs: flat "key = value" pairs.
"""

from __future__ import annotations

import os
from typing import TextIO

from .energy import HyperbolaTranslate
from .field import FieldContext, canonical_key, key_entries
from .incidence import PointSet, ScalarSet, TransformSet


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(line: str, lineno: int, expected: int, where: str) -> list[int]:
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != expected:
        raise ValueError(
            f"{where}, line {lineno}: expected {expected} comma-separated "
            f"values, got {line!r}"
        )
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(
            f"{where}, line {lineno}: non-integer value in {line!r}"
        ) from None


def parse_points(text: str, ctx: FieldContext, where: str = "<points>") -> PointSet:
    pairs = [tuple(_ints(line, n, 2, where)) for n, line in _data_lines(text)]
    return PointSet(pairs, ctx)


def parse_transforms(
    text: str, ctx: FieldContext, where: str = "<transforms>"
) -> TransformSet:
    keys = set()
    for lineno, line in _data_lines(text):
        a, b, c, d = _ints(line, lineno, 4, where)
        try:
            keys.add(canonical_key(a, b, c, d, ctx))
        except ValueError as exc:
            raise ValueError(f"{where}, line {lineno}: {exc}") from None
    return TransformSet(keys, ctx)


def parse_hyperbolas(
    text: str, ctx: FieldContext, where: str = "<hyperbolas>"
) -> tuple[HyperbolaTranslate, ...]:
    p = ctx.p
    out = set()
    for lineno, line in _data_lines(text):
        a, b, eps = _ints(line, lineno, 3, where)
        if eps not in (1, -1):
            raise ValueError(
                f"{where}, line {lineno}: eps must be +1 or -1, got {eps}"
            )
        out.add(HyperbolaTranslate(a % p, b % p, eps))
    return tuple(sorted(out))


def parse_scalars(text: str, ctx: FieldContext, where: str = "<scalars>") -> ScalarSet:
    values = []
    for lineno, line in _data_lines(text):
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(
                f"{where}, line {lineno}: expected one integer, got {line!r}"
            ) from None
    return ScalarSet(values, ctx)


def parse_config_text(text: str, where: str = "<config>") -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in _data_lines(text):
        if "=" not in line:
            raise ValueError(
                f"{where}, line {lineno}: expected key = value, got {line!r}"
            )
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def load_points(path: str | os.PathLike, ctx: FieldContext) -> PointSet:
    return parse_points(_read(path), ctx, where=str(path))


def load_transforms(path: str | os.PathLike, ctx: FieldContext) -> TransformSet:
    return parse_transforms(_read(path), ctx, where=str(path))


def load_hyperbolas(
    path: str | os.PathLike, ctx: FieldContext
) -> tuple[HyperbolaTranslate, ...]:
    return parse_hyperbolas(_read(path), ctx, where=str(path))


def load_scalars(path: str | os.PathLike, ctx: FieldContext) -> ScalarSet:
    return parse_scalars(_read(path), ctx, where=str(path))


def load_config(path: str | os.PathLike) -> dict[str, str]:
    return parse_config_text(_read(path), where=str(path))


def write_transforms(T: TransformSet, out: TextIO) -> None:
    """Write each map of T as a,b,c,d on a line of its own, in T's order.

    The keys are decoded 4096 lines at a time, with no map built.
    """
    p, keys = T.ctx.p, T.keys
    for start in range(0, len(keys), 4096):
        out.write("".join(["%d,%d,%d,%d\n" % key_entries(key, p)
                           for key in keys[start:start + 4096]]))
