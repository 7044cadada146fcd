"""Exact constructions for the downstream counting problems.

Representation counts of products, the rich-or-many dichotomy statistics,
the two expander value sets, and counting subsets of a ground set that are
projectively equivalent to a pattern.  Everything here is an exact fold over
a product space; growth exponents only ever appear as reported ratios.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress, permutations

from .field import PAD, FieldContext, canonical_key, graph_tables, same_context
from .incidence import PointSet, ScalarSet
from .pivot import refuse_pivot_work, rich_counts

SHIFT_INVERT = "shift-invert"
RATIONAL = "rational"

# The rational value set of 60 values: about 3 s at a large prime.  The
# shift-invert set of 200 values, 1.5 to 3 s at p = 99991, fits at any p.
MAX_EXPANDER_WORK = 60**4
# equiv-count over 60 ground elements: 205320 target triples, walked as
# 3540 pairs; a 3-element pattern keeps every one, a closed form.  On 60
# sparse values (0..59 or a random draw at p = 251, 257 and 9973) a longer
# pattern takes 9-36 ms below p = 255 and 35-70 ms above.  A ground set
# that is nearly all of F_p, where almost every target meets every later
# pattern element, takes up to about 1 s: all of F_59 against 55 of its
# elements (best of 3, 2-core x86-64, CPython 3.11).
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
    when all of S lands inside A (never at infinity).  Distinct targets give
    distinct maps, so map_count, the number of kept maps, is the number of
    kept targets (_kept_targets).  subset_count counts the distinct image
    sets f(S), which are the subsets of A projectively equivalent to S.

    No image set is built.  The kept maps with f(S) = B are f0 g for one of
    them, f0, and g in Stab(S), the maps that permute S; so every image set
    is the image of exactly |Stab(S)| kept maps, and |Stab(S)| is the
    number of kept targets of S in itself, tried only on the pairs
    (t1, t3) that _stabilizer_pairs admits.  When |S| = |A| the one
    possible image is A.
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
    ctx = A.ctx
    map_count = _kept_targets(A.values, S.values, list(permutations(A.values, 2)), ctx)
    if not map_count or len(S) == len(A):
        subset_count = min(map_count, 1)
    else:
        stabilizer = _kept_targets(S.values, S.values, _stabilizer_pairs(S.values, ctx), ctx)
        subset_count = map_count // stabilizer
    return {"map_count": map_count, "subset_count": subset_count}


def _kept_targets(A: tuple, S: tuple, pairs: list, ctx: FieldContext) -> int:
    """The number of kept targets (t1, t2, t3): (t1, t3) one of the given
    ordered pairs of distinct elements of A, t2 any other element of A, and
    the map f with f(S[:3]) = (t1, t2, t3) sending every later element of S
    into A.  With no later element every target is kept.

    f keeps cross-ratios, so a later s, with
    lam = (s - r1)(r2 - r3)/((s - r3)(r2 - r1)), neither 0 nor 1, goes to
    the z solving (z - t1)(t2 - t3) = lam (z - t3)(t2 - t1): z = M(t2) for
    M = ((t1 - lam t3, t1 t3 (lam - 1)), (1 - lam, lam t1 - t3)), of
    determinant lam (t1 - t3)^2.  So each pair tries every t2 of A at once
    through the M of the first later element.  M fixes t1 and t3, which
    pass and are not targets: 2 a pair.  Below PAD the bytes of A go
    through M's graph table (field.graph_tables), then through A's
    indicator, which maps infinity, written p, to 0; from p = 257 on one
    comprehension a pair skips M's pole.  Each t2 that passes is tried on
    the other later elements in turn, up to the first miss.
    """
    if len(S) == 3:
        return len(pairs) * (len(A) - 2)
    p, inv = ctx.p, ctx._inv
    r1, r2, r3 = S[:3]
    scale = (r2 - r3) * inv[(r2 - r1) % p]
    lam, *rest = [(s - r1) * scale * inv[(s - r3) % p] % p for s in S[3:]]
    members = set(A)
    if p < PAD:
        indicator = bytes(x in members for x in range(256))
        ground = bytes(A)
        keys = (canonical_key(t1 - lam * t3, t1 * t3 * (lam - 1), 1 - lam, lam * t1 - t3, ctx)
                for t1, t3 in pairs)
        hits = (ground.translate(table).translate(indicator)
                for table in graph_tables(keys, ctx))
        if not rest:
            return sum(row.count(1) for row in hits) - 2 * len(pairs)
        passed = (compress(A, row) for row in hits)
    else:
        c, pole_scale = 1 - lam, inv[(lam - 1) % p]
        passed = []
        for t1, t3 in pairs:
            a, b, d = t1 - lam * t3, t1 * t3 * (lam - 1), lam * t1 - t3
            pole = d * pole_scale % p
            passed.append([t2 for t2 in A if t2 != pole
                           and (a * t2 + b) * inv[(c * t2 + d) % p] % p in members])
        if not rest:
            return sum(map(len, passed)) - 2 * len(pairs)
    kept = 0
    for (t1, t3), row in zip(pairs, passed):
        for t2 in row:
            if t2 == t1 or t2 == t3:
                continue
            u, v = t2 - t3, t2 - t1
            for mu in rest:
                lv = mu * v
                den = (u - lv) % p
                if not den or (t1 * u - lv * t3) * inv[den] % p not in members:
                    break
            else:
                kept += 1
    return kept


def _stabilizer_pairs(S: tuple, ctx: FieldContext) -> list:
    """The ordered pairs (t1, t3) of S that an invariant admits as
    (g(r1), g(r3)) for a map g permuting S, r1 = S[0] and r3 = S[2]: every
    pair of such a g, at O(1) a pair.

    With k(z) = (z - r1)/(z - r3) and h(z) = (z - t1)/(z - t3), h g k^-1
    fixes 0 and infinity, so it is z -> kappa z: g sends each s of S other
    than r1 and r3 to an s' of S other than t1 and t3 with
    h(s') = kappa k(s).  Write sigma(x, y) for the sum of (s - x)/(s - y)
    over s in S other than x and y.  Then sigma(t1, t3) = kappa sigma(r1, r3)
    and, summing the inverses, sigma(t3, t1) = sigma(r3, r1)/kappa, so the
    product sigma(x, y) sigma(y, x) is the same at (t1, t3) as at (r1, r3).
    With H(y) the sum of 1/(s - y) over s in S other than y,
    sigma(x, y) = |S| - 1 + (y - x) H(y).
    """
    p, inv = ctx.p, ctx._inv
    m = len(S) - 1
    H = {y: sum(inv[(s - y) % p] for s in S if s != y) for y in S}

    def invariant(x, y):
        return (m + (y - x) * H[y]) * (m + (x - y) * H[x]) % p

    fixed = invariant(S[0], S[2])
    return [(x, y) for x, y in permutations(S, 2) if invariant(x, y) == fixed]
