"""Energy of transformation sets and hyperbola-translate families.

The energy of a set T counts quadruples (f1, f2, f3, f4) in T^4 with
f1 f2^{-1} = f3 f4^{-1}.  Writing m(g) for the number of ordered pairs whose
quotient is g, the energy is the sum of m(g)^2, which pins it between |T|^2
(the diagonal pairs) and |T|^3 (three maps determine the fourth).

A translate (y - a)(x - b) = eps of the hyperbola xy = eps, eps = +-1,
rearranges to the Moebius map x -> (a*x + (eps - a*b))/(x - b), whose matrix
has determinant -eps; families of translates are measured by their energy
and by the maximum number of members sharing an x-translate or y-translate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable

from .field import PAD, FieldContext, canonical_key, graph_tables, key_entries
from .incidence import TransformSet

ORACLE_CAP = 64

# The quotient table of 1000 maps.  On 1000 random maps (random.Random(1)),
# one fresh process per run, CPython 3.11.7 on a shared 2-core x86-64 Xeon:
# at p = 9973 nearly all of the 10^6 quotients are distinct, and energy takes
# 0.8-1.4 s with a peak RSS of 110 MB (1.56-1.57 s in three later runs on a
# busier machine); at p = 251, on byte keys through the graph tables,
# 0.44-0.46 s and 99 MB in those same later runs.  2000 maps at p = 9973
# take 4.4 s and 387 MB.
MAX_ENERGY_WORK = 1000**2


def refuse_energy_work(n: int) -> None:
    """Refuse, before it starts, a quotient table of n maps over the limit."""
    if n * n > MAX_ENERGY_WORK:
        raise ValueError(
            f"the energy of {n} maps needs {n}^2 = {n * n} quotients, over the "
            f"limit 1000^2 = {MAX_ENERGY_WORK}; give at most 1000 maps"
        )


def energy(T: TransformSet) -> int:
    """Quadruple count via the quotient table sum of m(g)^2.

    A map of PGL(2, p) is fixed by its images of 0, 1 and infinity, so the
    quotient f g^{-1} is keyed by its images (v0, v1, v2) = f(g^{-1}(0)),
    f(g^{-1}(1)), f(g^{-1}(infinity)), infinity written as p; no quotient map
    is built, and each row of |T| keys, one f's, is counted at once.  Below
    p = 255 the row is |T| 4-byte keys (v0, v1, v2, PAD): one bytes.translate
    of the pattern of the preimages, fixed before the loop, through f's
    graph table (field.graph_tables).  From p = 257 on each f is evaluated
    once on the sorted set of the preimages and the keys are the integers
    (v0 (p+1) + v1) (p+1) + v2.
    """
    if len(T) == 0:
        raise ValueError("energy of an empty set")
    refuse_energy_work(len(T))
    p, inv = T.ctx.p, T.ctx._inv
    mats = [key_entries(key, p) for key in T.keys]
    # g^{-1} is (d, -b, -c, a): it sends 0 to -b/a, 1 to (d - b)/(a - c) and
    # infinity to -d/c, each p when its denominator vanishes.
    pre = [(-b * inv[a] % p if a else p,
            (d - b) * inv[(a - c) % p] % p if a != c else p,
            -d * inv[c] % p if c else p) for a, b, c, d in mats]
    counts: Counter[int] = Counter()
    if p < PAD:
        pattern = bytes(chain.from_iterable((u, v, w, PAD) for u, v, w in pre))
        for table in graph_tables(T.keys, T.ctx):
            counts.update(memoryview(pattern.translate(table)).cast("I"))
    else:
        q = p + 1
        points = sorted({x for triple in pre for x in triple})
        finite = points[:-1] if points[-1] == p else points
        where = {x: i for i, x in enumerate(points)}
        columns = [(where[u], where[v], where[w]) for u, v, w in pre]
        for a, b, c, d in mats:
            vals = [(a * x + b) * inv[den] % p if (den := (c * x + d) % p) else p
                    for x in finite]
            if len(finite) < len(points):
                vals.append(a * inv[c] % p if c else p)
            counts.update([(vals[i] * q + vals[j]) * q + vals[k] for i, j, k in columns])
    values = counts.values()
    return sum(map(mul, values, values))


def _proj_eq(u, v, p):
    # u and v are parallel nonzero 4-vectors mod p iff all six 2x2 minors
    # of the stacked pair vanish.
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        (u0 * v1 - u1 * v0) % p == 0
        and (u0 * v2 - u2 * v0) % p == 0
        and (u0 * v3 - u3 * v0) % p == 0
        and (u1 * v2 - u2 * v1) % p == 0
        and (u1 * v3 - u3 * v1) % p == 0
        and (u2 * v3 - u3 * v2) % p == 0
    )


def energy_brute(T: TransformSet) -> int:
    """Independent oracle: a literal loop over all quadruples.

    Quotients are raw adjugate products of the maps' entries (key_entries)
    compared projectively, so this path shares neither the canonical form
    nor the inverse table with energy().
    """
    n = len(T)
    if n == 0:
        raise ValueError("energy of an empty set")
    if n > ORACLE_CAP:
        raise ValueError(f"|T| = {n} exceeds the oracle cap {ORACLE_CAP}")
    p = T.ctx.p
    mats = [key_entries(key, p) for key in T.keys]
    quotients = []
    for a1, b1, c1, d1 in mats:
        row = []
        for a2, b2, c2, d2 in mats:
            # (a1 b1; c1 d1) times adj(a2 b2; c2 d2), entries left unreduced
            row.append(
                (
                    (a1 * d2 - b1 * c2) % p,
                    (b1 * a2 - a1 * b2) % p,
                    (c1 * d2 - d1 * c2) % p,
                    (d1 * a2 - c1 * b2) % p,
                )
            )
        quotients.append(row)
    total = 0
    for row_u in quotients:
        for u in row_u:
            for row_v in quotients:
                for v in row_v:
                    if _proj_eq(u, v, p):
                        total += 1
    return total


@dataclass(frozen=True, order=True)
class HyperbolaTranslate:
    """The curve (y - a)(x - b) = eps with eps in {+1, -1}."""

    a: int
    b: int
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError(f"eps must be +1 or -1, got {self.eps}")


def _hyperbola_key(h: HyperbolaTranslate, ctx: FieldContext) -> int:
    return canonical_key(h.a, h.eps - h.a * h.b, 1, -h.b, ctx)


def encode_family(
    H: Iterable[HyperbolaTranslate], ctx: FieldContext
) -> TransformSet:
    """The maps of the translates, as keys; no map is built."""
    return TransformSet((_hyperbola_key(h, ctx) for h in H), ctx)


def translate_multiplicity(H: Iterable[HyperbolaTranslate]) -> int:
    """Maximum number of translates sharing one x-translate or y-translate."""
    H = list(H)
    if not H:
        raise ValueError("multiplicity of an empty family")
    by_a = Counter(h.a for h in H)
    by_b = Counter(h.b for h in H)
    return max(max(by_a.values()), max(by_b.values()))


def energy_report(H: Iterable[HyperbolaTranslate], ctx: FieldContext) -> dict:
    """Exact energy and multiplicity of a translate family.

    The ratio E / (|H|^2 M) is reported, never asserted: the energy bound it
    probes carries an unknown constant, so drift is caught by comparing
    against a stored ceiling rather than a theoretical value.
    """
    H = sorted(set(H))
    if not H:
        raise ValueError("report of an empty family")
    refuse_energy_work(len(H))
    maps = encode_family(H, ctx)
    e = energy(maps)
    m = translate_multiplicity(H)
    size = len(H)
    return {"size": size, "energy": e, "m": m, "ratio": e / (size * size * m)}
