"""Exact constructions for the downstream counting problems.

Representation counts of products, the rich-or-many dichotomy statistics,
the two expander value sets, and counting subsets of a ground set that are
projectively equivalent to a pattern.  Everything here is an exact fold over
a product space; growth exponents only ever appear as reported ratios.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations

from .field import same_context
from .incidence import PointSet, ScalarSet
from .pivot import refuse_pivot_work, rich_counts

SHIFT_INVERT = "shift-invert"
RATIONAL = "rational"

# The rational value set of 60 values: about 3 s at a large prime.  The
# shift-invert set of 200 values, 1.5 to 3 s at p = 99991, fits at any p.
MAX_EXPANDER_WORK = 60**4
# equiv-count over 60 ground elements: 205320 target triples.  A 3-element
# pattern keeps every one, and the run takes about 0.5 s at p = 9973.
MAX_EQUIV_TARGETS = math.perm(60, 3)


def cartesian_points(A: ScalarSet, B: ScalarSet) -> PointSet:
    """The grid A x B as a point set, in lexicographic order as built."""
    same_context(A.ctx, B.ctx)
    return PointSet.from_sorted([(a, b) for a in A for b in B], A.ctx)


def sumset(A: ScalarSet, B: ScalarSet) -> ScalarSet:
    same_context(A.ctx, B.ctx)
    p = A.ctx.p
    return ScalarSet({(a + b) % p for a in A for b in B}, A.ctx)


def representation_counts(A: ScalarSet, B: ScalarSet) -> dict[int, int]:
    """Table lambda -> #{(a, b) in A x B : ab = lambda} over attained products."""
    same_context(A.ctx, B.ctx)
    p = A.ctx.p
    table: Counter[int] = Counter()
    for a in A:
        for b in B:
            table[a * b % p] += 1
    return dict(table)


def representation_report(A: ScalarSet, B: ScalarSet) -> dict:
    """Compare the largest nonzero representation count against K^(6/5) N^(9/10).

    Needs the balanced case |A| = |B| = N.  K is |A+B|/N, and the hypothesis
    flag records whether KN = |A+B| stays below sqrt(p).  The ratio is
    reported, not asserted.
    """
    same_context(A.ctx, B.ctx)
    if len(A) != len(B):
        raise ValueError(
            f"report needs |A| = |B|, got {len(A)} and {len(B)}"
        )
    n = len(A)
    if n == 0:
        raise ValueError("report of empty sets")
    sum_size = len(sumset(A, B))
    k = sum_size / n
    table = representation_counts(A, B)
    max_r = max((cnt for lam, cnt in table.items() if lam != 0), default=0)
    bound_shape = k ** (6 / 5) * n ** (9 / 10)
    return {
        "n": n,
        "k": k,
        "max_r": max_r,
        "bound_shape": bound_shape,
        "ratio": max_r / bound_shape,
        "hypothesis_ok": sum_size <= A.ctx.p ** 0.5,
    }


def beck_statistics(P: PointSet, constant: float = 1.0) -> dict:
    """Either-many-points-on-one-map-or-many-maps dichotomy statistics.

    Counts the maps through three points of P and the most points on one,
    from the pivot richness tallies, and gives the window endpoints
    constant*n^(3/7) and n/constant^(7/4) for a positive finite constant.
    A walk over the pivot limit is refused first, as rich_counts refuses it.
    """
    refuse_pivot_work(len(P))
    if not 0 < constant < math.inf:
        raise ValueError(f"the constant must be positive and finite, got {constant}")
    n = len(P)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    counts = rich_counts(P, 3)
    return {
        "n": n,
        "max_richness": max(counts, default=0),
        "defined_count": counts.get(3, 0),
        "rich_threshold_lo": constant * n ** (3 / 7),
        "rich_threshold_hi": n / constant ** (7 / 4),
        "constant": constant,
    }


def expander_shift_invert(A: ScalarSet) -> ScalarSet:
    """The value set {a + 1/(b - c) : a, b, c in A, b != c}."""
    ctx = A.ctx
    p = ctx.p
    inv = ctx._inv
    diffs = {(b - c) % p for b in A for c in A if b != c}
    out = {(a + inv[d]) % p for a in A for d in diffs}
    return ScalarSet(out, ctx)


def expander_rational(A: ScalarSet) -> ScalarSet:
    """The value set {(ab + c)/(b + d) : a, b, c, d in A, b + d != 0}.
    It lies in F_p, so the loop stops once it is all of F_p."""
    ctx = A.ctx
    p = ctx.p
    inv = ctx._inv
    out = set()
    vals = A.values
    for b in vals:
        numerators = {(a * b + c) % p for a in vals for c in vals}
        for d in vals:
            s = (b + d) % p
            if s:
                r = inv[s]
                out.update(num * r % p for num in numerators)
                if len(out) == p:
                    return ScalarSet.from_sorted(range(p), ctx)
    return ScalarSet(out, ctx)


# kind: (value-set function, claimed growth exponent, only for reported ratios)
_EXPANDERS = {
    SHIFT_INVERT: (expander_shift_invert, 6 / 5),
    RATIONAL: (expander_rational, 4 / 3),
}
EXPANDER_KINDS = tuple(_EXPANDERS)


def expander_report(A: ScalarSet, kind: str) -> dict:
    """Value-set size next to the claimed growth exponent for that kind."""
    if kind not in _EXPANDERS:
        raise ValueError(f"unknown expander kind {kind!r}")
    n, p = len(A), A.ctx.p
    if kind == RATIONAL:
        work, steps, most = n**4, f"{n}^4", "at most 60 values"
    else:
        # Each value meets the inverse of each distinct difference.
        work = n * min(n * (n - 1), p - 1)
        steps, most = f"{n}*min({n}*{n - 1}, {p - 1})", "fewer values"
    if work > MAX_EXPANDER_WORK:
        raise ValueError(
            f"the {kind} value set of {n} values needs {steps} = {work} steps, "
            f"over the limit 60^4 = {MAX_EXPANDER_WORK}; give {most}"
        )
    value_set, exponent = _EXPANDERS[kind]
    out = value_set(A)
    size = len(out)
    return {
        "kind": kind,
        "input_size": n,
        "output_size": size,
        "exponent": exponent,
        "ratio": size / n ** exponent if n else 0.0,
    }


def projective_equivalence_count(A: ScalarSet, S: ScalarSet) -> dict:
    """Count maps carrying the pattern S into A, and the distinct images.

    One ordered reference triple ref = (r1, r2, r3) of S is fixed and every
    ordered triple t = (t1, t2, t3) of distinct elements of A is tried as
    its target; the map f with f(ref) = t is then unique, and it is kept
    when all of S lands inside A (never at infinity).  map_count counts the
    kept classes, subset_count the distinct image sets f(S), which are the
    subsets of A projectively equivalent to S.  Since f(ref) = target,
    distinct targets give distinct maps, so map_count is the number of kept
    targets.

    No map is built: f keeps cross-ratios, so each later s, with
    lam = (s - r1)(r2 - r3)/((s - r3)(r2 - r1)), goes to the z solving
    (z - t1)(t2 - t3) = lam (z - t3)(t2 - t1), that is with u = t2 - t3
    and v = t2 - t1, z = (t1 u - lam v t3)/(u - lam v), or infinity when
    u = lam v.
    """
    same_context(A.ctx, S.ctx)
    n, targets = len(A), math.perm(len(A), 3)
    if targets > MAX_EQUIV_TARGETS:
        raise ValueError(
            f"equiv-count over {n} ground elements tries {targets} target "
            f"triples, over the limit 60*59*58 = {MAX_EQUIV_TARGETS}; give at most "
            f"60 ground elements"
        )
    if len(S) < 3:
        raise ValueError(f"pattern needs >= 3 elements, got {len(S)}")
    if len(S) > len(A):
        return {"map_count": 0, "subset_count": 0}
    p, inv = A.ctx.p, A.ctx._inv
    r1, r2, r3 = S.values[:3]
    scale = (r2 - r3) * inv[(r2 - r1) % p]
    lams = [(s - r1) * scale * inv[(s - r3) % p] % p for s in S.values[3:]]
    members = set(A.values)
    map_count = 0
    images = set()
    for target in permutations(A.values, 3):
        t1, t2, t3 = target
        u, v = t2 - t3, t2 - t1
        image = list(target)
        for lam in lams:
            lv = lam * v
            den = (u - lv) % p
            if not den:
                break
            z = (t1 * u - lv * t3) * inv[den] % p
            if z not in members:
                break
            image.append(z)
        else:
            map_count += 1
            images.add(frozenset(image))
    return {"map_count": map_count, "subset_count": len(images)}
